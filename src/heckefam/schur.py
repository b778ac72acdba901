"""Schur elements for cyclic and dihedral groups, the numerators D/c of a
group's Schur elements over their common multiple, and the numerical
invariants attached to characters: f, a, A, b, N, special, bad primes."""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .cyclotomic import Cyclotomic, _canonical, _reduce_map, _unit_generators, one, zero
from .laurent import LaurentPoly, common_unit_multiple, derivative_at_one, unit_shaped
from .ntheory import divisors, factorize, orbit_walk, permutation
from .valuation import laurent_content_val, primes_above


def poincare_roots(degrees, mu: int = 1) -> dict:
    """{(m, j): mult} over the roots zeta_m^j of the Poincare polynomial
    P = prod_d (y^(mu d) - 1)/(y^mu - 1).  Each factor is squarefree, its
    roots those of every order m dividing mu d but not mu, so mult is the
    number of degrees d with m | mu d."""
    orders: dict = {}
    for d in degrees:
        for m in divisors(mu * d):
            if mu % m:
                orders[m] = orders.get(m, 0) + 1
    return {(m, j): mult for m, mult in orders.items() for j in range(m) if gcd(j, m) == 1}


def _root(n: int, k: int) -> tuple[int, int]:
    """(m, j) with zeta_n^k = zeta_m^j and j prime to m, for 0 < k < n."""
    g = gcd(k, n)
    return n // g, k // g


def cyclic_schur(d: int) -> list[LaurentPoly]:
    """Schur elements of the cyclotomic algebra of Z_d, eigenvalue set
    {x, zeta_d, ..., zeta_d^{d-1}}, solving the moment system
    sum_i lambda_i^k / c_i = delta_{k0}: c_0 = 1 + x + ... + x^{d-1}, the
    Poincare polynomial, and c_i = gamma (x - w) / x with w = zeta_d^i and
    gamma = d / (1 - w).  For w of order m > 1,
    1/(1 - w) = -(1/m) sum_{k<m} k w^k, since (1 - w) sum_{k<m} k w^k =
    sum_{0<k<m} w^k - (m - 1) w^m = -m; so gamma is built in closed form,
    with no norm.  Each element is built from its roots (`unit_shaped`)."""
    if d < 2:
        raise ValueError("cyclic_schur expects d >= 2")
    out = [unit_shaped(one, 0, poincare_roots((d,)))]
    for i in range(1, d):
        m, j = _root(d, i)
        gamma = _canonical(m, _reduce_map({k: -d * k for k in range(1, m)}, m, j), m)
        out.append(unit_shaped(gamma, -1, {(m, j): 1}))
    return out


def dihedral_schur(n: int) -> list[LaurentPoly]:
    """Schur elements of I2(n), ordered as the catalog characters:
    trivial, sign, [the two extra linear characters when n is even], rho_j.

    Each is built from its roots (`unit_shaped`): the Poincare polynomial
    P = (1 + x)(1 + x + ... + x^{n-1}) of the trivial character and, times
    x^-n, of the sign; (n/2)(x + 1)^2 / x for the extra linear characters;
    and f (x - w)(x - w^-1) / x for rho_j, w = zeta_n^j of order m, and
    f = n / ((1 - w)(1 - w^-1)).  With 1/(1 - w) of `cyclic_schur` and its
    conjugate 1/(1 - w^-1) = -(1/m) sum_{0<b<m} (m - b) w^b, the product has
    the w^s coefficient (1/m^2) sum_{a<m} a ((a - s) mod m) =
    C + s (s - m) / (2m), C independent of s; since sum_{s<m} w^s = 0,
    f = -(n/2m) sum_{s<m} s (m - s) w^s, built with no norm.  The group
    validation checks the identity sum deg(chi)/c_chi = 1 on them."""
    if n < 3:
        raise ValueError("dihedral_schur expects n >= 3")
    P = unit_shaped(one, 0, poincare_roots((2, n)))
    out = [P, P.shift(-n)]
    if n % 2 == 0:
        lin = unit_shaped(Fraction(n, 2), -1, {(2, 1): 2})
        out += [lin, lin]
    for j in range(1, (n + 1) // 2):  # the rho_j, 0 < j < n/2
        m, k = _root(n, j)
        f = _canonical(m, _reduce_map({s: -n * s * (m - s) for s in range(1, m)}, m, k), 2 * m)
        out.append(unit_shaped(f, -1, {(m, k): 1, (m, m - k): 1}))
    return out


def f_of(c: LaurentPoly) -> Cyclotomic:
    """The coefficient of the lowest-degree term of a Schur element."""
    if c.is_zero():
        raise ValueError("zero Schur element")
    return c.lowest_coeff()


def _scalar_norms(scalars) -> list[Fraction]:
    """The norm of each distinct scalar, taken once per orbit under the
    generators sigma_u of (Z/n)^* (`_unit_generators`, n the lcm of the
    conductors) that permute the distinct scalars: conjugates have equal
    norms, so each other member of an orbit reads its representative's."""
    distinct = list(dict.fromkeys(scalars))
    n = lcm(*(a.conductor for a in distinct))
    perms = []
    for u, _order in _unit_generators(n):
        perm = permutation([a.galois(u) for a in distinct], distinct)
        if perm is not None:
            perms.append(perm)
    norms = [None] * len(distinct)
    for x, y, _g in orbit_walk(len(distinct), perms):
        norms[x] = distinct[x].norm() if y is None else norms[y]
    return norms


@cache
def bad_primes(W) -> frozenset[int]:
    """Primes dividing some Schur element (positive content at a prime above p)."""
    candidates: set[int] = set()
    for nrm in _scalar_norms(f_of(c) for c in W.schur_elements):
        candidates |= set(factorize(abs(nrm.numerator)))
    out = set()
    ncond = W.field_conductor
    for p in sorted(candidates):
        specs = primes_above(p, ncond)
        for c in W.schur_elements:
            if any(laurent_content_val(c, sp) > 0 for sp in specs):
                out.add(p)
                break
    return frozenset(out)


class InvariantRecord(namedtuple("InvariantRecord", "name f a A b N special")):
    """One character's invariants: its name, f (a Cyclotomic), a, A and b
    (Fractions), N (an int) and whether it is special."""

    __slots__ = ()


@cache
def schur_numerators(W) -> tuple:
    """(D, lo, rows): D the common unit multiple of W's Schur elements c_i
    (`common_unit_multiple`), and rows[i][e - lo] the y^e coefficient of
    the numerator D/c_i, every row dense over the one exponent range that
    holds all of them.  Kept per group: validation checks the
    symmetrizing-form gate on it (`groups._check_schur_elements`), and
    every integrality lattice of the per-prime layer (`blocks._lattice`)
    reads its window of it.  A Schur element with a non-unit part raises
    ValueError."""
    D, quotients = common_unit_multiple(W.schur_elements)
    lo = min(q.min_exp() for q in quotients)
    hi = max(q.max_exp() for q in quotients)
    rows = tuple(tuple(q.coeffs.get(e, zero) for e in range(lo, hi + 1)) for q in quotients)
    return D, lo, rows


@cache
def compute_invariants(W) -> tuple[InvariantRecord, ...]:
    """One record per character, built once per group.

    a and A are the orders at 0 and at infinity of the generic degree P/c,
    read off the Schur element c: P(0) = 1, so they are -min_exp(c) and
    deg P - max_exp(c) (in y, then divided by mu), whether or not P/c is a
    Laurent polynomial."""
    deg_P = W.mu * sum(d - 1 for d in W.degrees)
    out = []
    for i in range(W.n_irr):
        c = W.schur_elements[i]
        lo, hi = -c.min_exp(), deg_P - c.max_exp()
        R = W.fake_degrees[i]
        rec = InvariantRecord(
            name=W.char_names[i],
            f=f_of(c),
            a=Fraction(lo, W.mu),
            A=Fraction(hi, W.mu),
            b=Fraction(R.min_exp(), W.mu),
            N=int(derivative_at_one(R).as_rational()),
            special=Fraction(lo, W.mu) == Fraction(R.min_exp(), W.mu),
        )
        out.append(rec)
    return tuple(out)


def a_plus_A(W, i: int, records=None) -> Fraction:
    """(N(chi) + N(chi*))/chi(1), the block-constant central exponent."""
    records = records or compute_invariants(W)
    Nc = records[i].N
    Nc_star = records[W.conj_perm[i]].N
    return Fraction(Nc + Nc_star, W.char_degree(i))


# -- reporting ---------------------------------------------------------------


def invariants_as_dicts(W) -> list[dict]:
    from .cyclotomic import to_literal

    recs = compute_invariants(W)
    return [
        {
            "chi": r.name,
            "f": to_literal(r.f),
            "a": str(r.a),
            "A": str(r.A),
            "b": str(r.b),
            "N": r.N,
            "special": r.special,
        }
        for r in recs
    ]


def invariants_report(W, fmt: str = "md") -> str:
    rows = invariants_as_dicts(W)
    if fmt == "json":
        return json.dumps({"group": W.name, "invariants": rows}, indent=1)
    recs = compute_invariants(W)
    lines = [
        f"# Invariants for {W.name}",
        "",
        "| chi | f | a | A | b | special |",
        "|---|---|---|---|---|---|",
    ]
    for r in recs:
        lines.append(f"| {r.name} | {r.f} | {r.a} | {r.A} | {r.b} | {'yes' if r.special else ''} |")
    return "\n".join(lines)
