"""Schur elements for cyclic and dihedral groups and the numerical
invariants attached to characters: f, a, A, b, N, special, bad primes."""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd

from .cyclotomic import Cyclotomic, one, rat, zeta, zero
from .laurent import LaurentPoly, common_unit_multiple, derivative_at_one, unit_shaped
from .ntheory import divisors, factorize
from .valuation import laurent_content_val, primes_above


def _nontrivial_roots(n: int) -> dict:
    """{(m, j): 1} over the roots zeta_m^j != 1 of y^n - 1, those of
    1 + y + ... + y^(n-1): every order m > 1 dividing n, every j prime to m."""
    return {(m, j): 1 for m in divisors(n)[1:] for j in range(m) if gcd(j, m) == 1}


def _root(n: int, k: int) -> tuple[int, int]:
    """(m, j) with zeta_n^k = zeta_m^j and j prime to m, for 0 < k < n."""
    g = gcd(k, n)
    return n // g, k // g


def cyclic_schur(d: int) -> list[LaurentPoly]:
    """Schur elements of the cyclotomic algebra of Z_d, eigenvalue set
    {x, zeta_d, ..., zeta_d^{d-1}}, solving the moment system
    sum_i lambda_i^k / c_i = delta_{k0}: c_0 = 1 + x + ... + x^{d-1}, and
    c_i = gamma (x - z) / x with z = zeta_d^i and gamma = d / (1 - z).  Each
    is built from its roots (`unit_shaped`)."""
    if d < 2:
        raise ValueError("cyclic_schur expects d >= 2")
    out = [unit_shaped(one, 0, _nontrivial_roots(d))]
    for i in range(1, d):
        gamma = rat(d) * (one - zeta(d, i)).inverse()
        out.append(unit_shaped(gamma, -1, {_root(d, i): 1}))
    return out


def dihedral_schur(n: int) -> list[LaurentPoly]:
    """Schur elements of I2(n), ordered as the catalog characters:
    trivial, sign, [the two extra linear characters when n is even], rho_j.

    Each is built from its roots (`unit_shaped`): the Poincare polynomial
    P = (1 + x)(1 + x + ... + x^{n-1}) of the trivial character and, times
    x^-n, of the sign; (n/2)(x + 1)^2 / x for the extra linear characters;
    and f (x - z^j)(x - z^-j) / x for rho_j, z = zeta_n and
    f = n / ((1 - z^j)(1 - z^-j)).  The group validation checks the
    identity sum deg(chi)/c_chi = 1 on them."""
    if n < 3:
        raise ValueError("dihedral_schur expects n >= 3")
    roots = _nontrivial_roots(n)
    roots[(2, 1)] = roots.get((2, 1), 0) + 1  # the factor 1 + x
    P = unit_shaped(one, 0, roots)
    out = [P, P.shift(-n)]
    m = n // 2
    if n % 2 == 0:
        lin = unit_shaped(Fraction(n, 2), -1, {(2, 1): 2})
        out += [lin, lin]
    nrot = m if n % 2 == 1 else m - 1
    for j in range(1, nrot + 1):
        trace = zeta(n, j) + zeta(n, -j)
        f = rat(n) * (rat(2) - trace).inverse()  # n / ((1 - z^j)(1 - z^-j))
        out.append(unit_shaped(f, -1, {_root(n, j): 1, _root(n, n - j): 1}))
    return out


def f_of(c: LaurentPoly) -> Cyclotomic:
    """The coefficient of the lowest-degree term of a Schur element."""
    if c.is_zero():
        raise ValueError("zero Schur element")
    return c.lowest_coeff()


@cache
def bad_primes(W) -> frozenset[int]:
    """Primes dividing some Schur element (positive content at a prime above p)."""
    candidates: set[int] = set()
    for c in W.schur_elements:
        nrm = f_of(c).norm()
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


def omega_pi_exponent(W, i: int) -> Fraction:
    """Exponent of x in the scalar action of the full-twist central element."""
    n_hyp, n_refl = W.reflection_counts()
    records = compute_invariants(W)
    return n_hyp + n_refl - a_plus_A(W, i, records)


def relative_trace_scalar(W, P, i: int) -> tuple[LaurentPoly, LaurentPoly]:
    """c_chi * sum_psi <Res chi, psi> / c_psi for a parabolic embedding P, as
    the pair (N, D) of its numerator and denominator: D is the common
    multiple of the linear factors of the parabolic's Schur elements, the
    same for every chi, and N = c_chi * sum_psi <Res chi, psi> D/c_psi.
    N(1)/D(1) = [W:W']."""
    sub = P.subgroup
    if not sub.schur_elements:
        raise ValueError(f"missing Schur data for subgroup {sub.name}")
    D, quotients = common_unit_multiple(sub.schur_elements)
    total = LaurentPoly.const(zero, W.mu)
    for si, q in enumerate(quotients):
        mult = P.induction_matrix[si][i]
        if mult:
            total = total + q * mult
    return W.schur_elements[i] * total, D


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
