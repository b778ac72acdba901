"""Prime ideals of Z[zeta_n] above a rational prime, certified p-adic
valuations of cyclotomic values, and the digit conditions for integrality
at a prime (`integrality_conditions`) that the per-prime layer of the
localized Rouquier ring solves.  Membership of a quotient num/den in it,
decided coefficient by coefficient, is a test reference (`tests/helpers.py`).

The valuation of an element is computed in the completion at
P = (p, h(zeta_{n'})), h the chosen irreducible factor of Phi_{n'} mod p.
The unramified part is the Galois ring (Z/p^L)[t]/(h), the same ring for
every monic lift of h; zeta_{n'} maps to the root of x^{n'} - 1 that
Newton's method lifts from t.  The ramified part is written in powers of the
uniformizer 1 - zeta_{p^a}.  Precision is raised (starting at 32 digits,
doubling) until a nonzero digit certifies the answer; congruence tests
against a fixed threshold are exact at a fixed precision and never need
certification.  At precision 1 the pi^0 row is the residue map onto
O/P = F_p[t]/(h) (`reduction`), which turns congruence modulo P into
equality of keys.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import cache

from .cyclotomic import _reduction_table, coerce
from .laurent import LaurentPoly, factor_unit_part
from .ntheory import cyclotomic_polynomial, euler_phi, is_prime, multiplicative_order, prime_to_part

INF = math.inf


# -- dense polynomial arithmetic over Z/m ------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, m):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % m
    return _trim(out)


def _padd(a, b, m):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai % m
    for i, bi in enumerate(b):
        out[i] = (out[i] + bi) % m
    return _trim(out)


def _psub(a, b, m):
    return _padd(a, [-x % m for x in b], m)


def _pdivmod(a, b, m):
    """Requires the leading coefficient of b to be invertible mod m."""
    a = [x % m for x in a]
    binv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1] * binv % m
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % m
    return _trim(q), _trim(a[: len(b) - 1])


def _pmod(a, b, m):
    return _pdivmod(a, b, m)[1]


def _pgcd_fp(a, b, p):
    a, b = [x % p for x in a], [x % p for x in b]
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _ppow_mod(base, exp, mod, p):
    out = [1]
    base = _pmod(base, mod, p)
    while exp:
        if exp & 1:
            out = _pmod(_pmul(out, base, p), mod, p)
        exp >>= 1
        if exp:
            base = _pmod(_pmul(base, base, p), mod, p)
    return out


def _equal_degree_factor(g: list[int], f: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of a squarefree g whose factors all have degree f."""
    deg = len(g) - 1
    if deg == f:
        return [g]
    while True:
        r = [rng.randrange(p) for _ in range(deg)] + [1]
        if p == 2:
            s = [0]
            t = _pmod(r, g, p)
            for _ in range(f):
                s = _padd(s, t, p)
                t = _pmod(_pmul(t, t, p), g, p)
            d = _pgcd_fp(s, g, p)
        else:
            s = _ppow_mod(r, (p**f - 1) // 2, g, p)
            d = _pgcd_fp(_psub(s, [1], p), g, p)
        if 0 < len(d) - 1 < deg:
            rest, rem = _pdivmod(g, d, p)
            assert not rem
            return _equal_degree_factor(d, f, p, rng) + _equal_degree_factor(rest, f, p, rng)


# -- prime ideal specifications ------------------------------------------------


class PrimeIdealSpec(namedtuple("PrimeIdealSpec", "p conductor factor e f")):
    """A prime of Z[zeta_conductor] above p, pinned by a monic irreducible
    factor of Phi_{n'} mod p (coefficients ascending, reduced mod p), with
    ramification index e and residue degree f."""

    __slots__ = ()

    def __repr__(self):
        return f"PrimeIdealSpec(p={self.p}, n={self.conductor}, factor={list(self.factor)})"


@cache
def primes_above(p: int, n: int) -> tuple[PrimeIdealSpec, ...]:
    """All primes of Z[zeta_n] above p, lexicographically smallest factor first."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("conductor must be positive")
    nprime, ppart = prime_to_part(n, p)
    e = euler_phi(ppart)
    if nprime == 1:
        return (PrimeIdealSpec(p, n, (-1 % p, 1), e, 1),)
    f = multiplicative_order(p, nprime)
    phi = [c % p for c in cyclotomic_polynomial(nprime)]
    rng = random.Random(0xC0FFEE ^ (p * 1_000_003 + nprime))
    factors = _equal_degree_factor(_trim(phi), f, p, rng)
    normalized = sorted(tuple(fac + [0] * (f + 1 - len(fac))) for fac in factors)
    return tuple(PrimeIdealSpec(p, n, fac, e, f) for fac in normalized)


# -- completions ----------------------------------------------------------------


class _Completion:
    """Exact finite-precision model of the completion at a PrimeIdealSpec.

    With n = n' p^a, p not dividing n', and h = spec.factor, a monic factor
    of Phi_{n'} irreducible mod p, (Z/p^L)[t]/(H) is the Galois ring
    GR(p^L, f) for every monic lift H of h, h itself included.  There
    x^{n'} - 1 has exactly one root tau = t (mod p), since it is separable
    mod p; `_root` finds it by Newton's method, zeta_{n'} maps to tau, and
    the prime is P = (p, h(zeta_{n'})).  zeta_{p^a} is written in powers of
    the uniformizer pi = 1 - zeta_{p^a}, so an element becomes an e x f
    digit matrix: row k holds the coordinates over 1, t, ..., t^{f-1} of its
    pi^k part.  Valuations, and the digit-threshold tests of
    `integrality_conditions`, only ask which rows lie in
    p^j GR(p^L, f), the elements with every coordinate divisible by p^j in
    any basis; so they do not depend on the basis of the unramified part,
    and only the digits themselves do."""

    def __init__(self, spec: PrimeIdealSpec):
        self.spec = spec
        self.p = spec.p
        self.n = spec.conductor
        self.nprime, self.ppart = prime_to_part(self.n, self.p)
        self.e = spec.e
        self.f = spec.f
        self.h = [c % self.p for c in spec.factor]
        phi = [c % self.p for c in cyclotomic_polynomial(self.nprime)]
        # a monic divisor of Phi_{n'} of degree ord_{n'}(p) is irreducible mod p
        if (len(self.h) != self.f + 1 or self.h[-1] != 1 or _pdivmod(phi, self.h, self.p)[1]
                or self.f != multiplicative_order(self.p, self.nprime)
                or self.e != euler_phi(self.ppart)):
            raise ArithmeticError(f"{spec} is not a prime of Z[zeta_{self.n}] above {self.p}")
        # signed binomial transform: s^j = (1 - pi)^j -> pi-coordinates
        self.binom = [
            [(-1) ** k * math.comb(j, k) for j in range(self.e)] for k in range(self.e)
        ]

    def _root(self, L: int) -> list[int]:
        """tau mod (h, p^L), the root of x^{n'} - 1 with tau = t (mod p): from
        precision 1, where h divides Phi_{n'}, each Newton step
        tau <- tau - tau (tau^{n'} - 1) / n' doubles the precision."""
        p, n, h = self.p, self.nprime, self.h
        tau = _pmod([0, 1], h, p)
        k = 1
        while k < L:
            k = min(2 * k, L)
            m = p**k
            err = _psub(_ppow_mod(tau, n, h, m), [1], m)
            step = _pmod(_pmul(tau, err, m), h, m)
            inv = pow(n, -1, m)
            tau = _psub(tau, [c * inv for c in step], m)
        if _ppow_mod(tau, n, h, p**L) != [1]:
            raise ArithmeticError(f"{self.spec}: no root of x^{n} - 1 lifts t to precision {L}")
        return tau

    @cache
    def _t_rows(self, L: int) -> tuple:
        """tau^i mod (h, p^L) for i in [0, n'), as coordinate rows of length
        f; once per precision, for the tables of every conductor."""
        m = self.p**L
        tau = self._root(L)
        rows = []
        cur = [1]
        for _ in range(self.nprime):
            rows.append(tuple(cur) + (0,) * (self.f - len(cur)))
            cur = _pmod(_pmul(cur, tau, m), self.h, m)
        return tuple(rows)

    @cache
    def image_tables(self, conductor: int, L: int) -> list:
        """Per power-basis exponent of Q(zeta_conductor): its e x f digit
        matrix mod p^L, flattened row by row into one tuple of length e f."""
        if self.n % conductor:
            raise ValueError(f"conductor {conductor} incompatible with spec at {self.n}")
        m = self.p**L
        step = self.n // conductor
        t_rows = self._t_rows(L)
        pa_table = _reduction_table(self.ppart)
        inv_pa = pow(self.ppart, -1, self.nprime) if self.nprime > 1 else 0
        inv_np = pow(self.nprime, -1, self.ppart) if self.ppart > 1 else 0
        phi_d = euler_phi(conductor)
        tables = []
        for idx in range(phi_d):
            K = idx * step % self.n
            a = K % self.nprime * inv_pa % self.nprime if self.nprime > 1 else 0
            b = K % self.ppart * inv_np % self.ppart if self.ppart > 1 else 0
            # zeta_{p^a}^b over the s-power basis (integer rewriting), then
            # the binomial transform into pi-coordinates
            srow = pa_table[b] or ((b, 1),)
            scalars = [sum(row[j] * c for j, c in srow) for row in self.binom]
            tables.append(tuple(s * t % m for s in scalars for t in t_rows[a]))
        return tables

    def image(self, coeffs: dict[int, int], conductor: int, L: int) -> list[list[int]]:
        """Digit matrix (e rows, f cols) mod p^L of an integer-coefficient
        element: the sum of each coefficient times its flat table row,
        reduced mod p^L once and cut into rows."""
        m = self.p**L
        tables = self.image_tables(conductor, L)
        flat = [0] * (self.e * self.f)
        for idx, c in coeffs.items():
            c %= m
            if c:
                flat = [x + c * t for x, t in zip(flat, tables[idx])]
        f = self.f
        return [[x % m for x in flat[k:k + f]] for k in range(0, len(flat), f)]


@cache
def _completion(spec: PrimeIdealSpec) -> _Completion:
    return _Completion(spec)


# -- valuations -------------------------------------------------------------------


def _digit_min_val(digits: list[list[int]], e: int, p: int, L: int):
    best = None
    for k, row in enumerate(digits):
        for c in row:
            if c:
                o = 0
                while c % p == 0:
                    c //= p
                    o += 1
                cand = e * o + k
                if best is None or cand < best:
                    best = cand
    return best


def val(spec: PrimeIdealSpec, a) -> int | float:
    """The p-adic valuation at spec, normalized so val(uniformizer) = 1, val(p) = e."""
    a = coerce(a)
    if a is NotImplemented:
        raise TypeError("val expects a cyclotomic or rational value")
    if a.is_zero():
        return INF
    if spec.conductor % a.conductor:
        raise ValueError(
            f"conductor {a.conductor} incompatible with prime spec at {spec.conductor}"
        )
    coeffs, q = a.numerators, a.denominator
    shift = spec.e * _ord_int(q, spec.p)
    comp = _completion(spec)
    L = 32
    while True:
        digits = comp.image(coeffs, a.conductor, L)
        best = _digit_min_val(digits, spec.e, spec.p, L)
        if best is not None:
            return best - shift
        if L > 1 << 16:
            raise RuntimeError("valuation precision runaway (is the input really nonzero?)")
        L *= 2


def _ord_int(q: int, p: int) -> int:
    o = 0
    while q % p == 0:
        q //= p
        o += 1
    return o


def integrality_conditions(spec: PrimeIdealSpec, columns, bound: int = 0):
    """(rows, moduli) such that, for integers s, every entry of
    sum_i s_i columns[i] has val >= bound exactly when
    sum_i s_i rows[i][j] = 0 mod moduli[j] for every j.

    The columns are equal-length sequences of values at conductors dividing
    spec's.  Times the common denominator M of their entries they are
    integral, and the test reads val >= target = bound + e ord_p(M), with no
    conditions when target <= 0.  Else rows[i] flattens the digit matrices
    mod p^L (`_Completion.image`) of the scaled entries of columns[i], and
    an entry of ramified digit row k must be 0 mod p^ceil((target - k)/e),
    since val(p^a pi^k) = e a + k; L = ceil(target/e) + 2 exceeds every
    exponent of those moduli, so the digits mod p^L decide each one."""
    columns = [[coerce(a) for a in col] for col in columns]
    M = 1
    for col in columns:
        for a in col:
            if spec.conductor % a.conductor:
                raise ValueError(
                    f"conductor {a.conductor} incompatible with prime spec at {spec.conductor}"
                )
            M = math.lcm(M, a.denominator)
    e, p = spec.e, spec.p
    target = bound + e * _ord_int(M, p)
    if target <= 0:
        return [[] for _ in columns], []
    L = -(-target // e) + 2
    comp = _completion(spec)
    rows = [
        [x for a in col
         for row in comp.image({k: c * (M // a.denominator) for k, c in a.numerators.items()},
                               a.conductor, L)
         for x in row]
        for col in columns
    ]
    digit_moduli = [p ** max(0, -(-(target - k) // e)) for k in range(e) for _i in range(spec.f)]
    return rows, digit_moduli * max(map(len, columns), default=0)


def val_at_least(spec: PrimeIdealSpec, a, bound: int) -> bool:
    """Exact test val(a) >= bound (no precision escalation needed): the
    one-column case of `integrality_conditions`."""
    (row,), moduli = integrality_conditions(spec, [[a]], bound)
    return not any(x % mod for x, mod in zip(row, moduli))


@cache
def reduction(spec: PrimeIdealSpec, a) -> tuple[int, ...]:
    """The image of the algebraic integer a in O/P = F_p[t]/(h), as its
    coordinates over 1, t, ..., t^{f-1}: the pi^0 row of its digit matrix
    mod p.  For integral a and b, val_at_least(spec, a - b, 1) holds exactly
    when reduction(spec, a) == reduction(spec, b), since only that row is
    tested mod p at the bound 1.

    Unlike `cyclotomic._residue`, a screen that maps into F_l at a split
    prime l != p and may miss, this is the residue map at P itself; it
    raises ValueError on a non-integral value (denominator not 1: the power
    basis is an integral basis of Z[zeta_n]).  Cached by (spec, a): the
    central characters of a group take few distinct values."""
    a = coerce(a)
    if a.denominator != 1:
        raise ValueError(f"{a} is not an algebraic integer")
    return tuple(_completion(spec).image(a.numerators, a.conductor, 1)[0])


def laurent_content_val(f: LaurentPoly, spec: PrimeIdealSpec):
    """Minimum valuation over the coefficients (the Gauss content); INF for 0.

    f must be unit-shaped, f = xi y^k prod (y - omega)^m, as every Schur
    element is; its content is then val(xi), read off the cached
    `factor_unit_part`: the cofactor f / xi is monic with algebraic-integer
    coefficients, so its content is 0 (Gauss's lemma gives the same from
    the factors, each of content 0), and xi is the lead coefficient of f.
    Any other f raises ValueError."""
    if f.is_zero():
        return INF
    if spec.conductor % f.conductor_lcm():
        raise ValueError(
            f"conductor {f.conductor_lcm()} incompatible with prime spec at {spec.conductor}"
        )
    fact = factor_unit_part(f)
    if not fact.is_unit():
        raise ValueError(f"content of {f} unsupported: {fact.non_unit} is a non-unit part")
    return val(spec, fact.scalar)

