"""Prime ideals of Z[zeta_n] above a rational prime, certified p-adic
valuations of cyclotomic values, and membership in the localized Rouquier
ring.

The valuation of an element is computed in the completion: the unramified
part embeds through a Hensel lift of the chosen irreducible factor of
Phi_{n'} mod p, the ramified part through the uniformizer 1 - zeta_{p^a}.
Precision is raised (starting at 32 digits, doubling) until a nonzero digit
certifies the answer; congruence tests against a fixed threshold are exact at
a fixed precision and never need certification.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from .cyclotomic import _reduction_table, coerce
from .laurent import LaurentPoly, RationalFunction, factor_unit_part
from .ntheory import euler_phi, multiplicative_order, prime_to_part, is_prime

INF = math.inf

YES, NO, UNSUPPORTED = "yes", "no", "unsupported"


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


@dataclass(frozen=True)
class PrimeIdealSpec:
    """A prime of Z[zeta_conductor] above p, pinned by a monic irreducible
    factor of Phi_{n'} mod p (coefficients ascending, reduced mod p)."""

    p: int
    conductor: int
    factor: tuple[int, ...]
    e: int
    f: int

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
    from .ntheory import cyclotomic_polynomial

    phi = [c % p for c in cyclotomic_polynomial(nprime)]
    rng = random.Random(0xC0FFEE ^ (p * 1_000_003 + nprime))
    factors = _equal_degree_factor(_trim(phi), f, p, rng)
    normalized = sorted(tuple(fac + [0] * (f + 1 - len(fac))) for fac in factors)
    return tuple(PrimeIdealSpec(p, n, fac, e, f) for fac in normalized)


# -- completions ----------------------------------------------------------------


class _Completion:
    """Exact finite-precision model of the completion at a PrimeIdealSpec."""

    def __init__(self, spec: PrimeIdealSpec):
        self.spec = spec
        self.p = spec.p
        self.n = spec.conductor
        self.nprime, self.ppart = prime_to_part(self.n, self.p)
        self.e = spec.e
        self.f = spec.f
        self._lift_cache: dict[int, tuple] = {}
        self._img_cache: dict[tuple[int, int], list] = {}
        # signed binomial transform: s^j = (1 - pi)^j -> pi-coordinates
        self.binom = [
            [(-1) ** k * math.comb(j, k) for j in range(self.e)] for k in range(self.e)
        ]

    # Hensel lifting of the chosen factor of Phi_{n'} to precision p^L

    def lifted_factor(self, L: int) -> list[int]:
        if self.nprime == 1:
            return [-1 % self.p**L, 1]
        key = 1
        while key < L:
            key *= 2
        if key in self._lift_cache:
            return self._lift_cache[key][0]
        from .ntheory import cyclotomic_polynomial

        p = self.p
        phi = list(cyclotomic_polynomial(self.nprime))
        h = [c % p for c in self.spec.factor]
        g, rem = _pdivmod([c % p for c in phi], h, p)
        assert not rem, "spec factor does not divide Phi mod p"
        # Bezout u*h + v*g = 1 mod p
        u, v = _bezout(h, g, p)
        q = p
        while q < p**key:
            m2 = min(q * q, p**key)
            h, g, u, v = _hensel_step(phi, h, g, u, v, q, m2, p)
            q = m2
        self._lift_cache[key] = (h, g, u, v)
        return h

    def _t_rows(self, L: int) -> list[list[int]]:
        """t^i mod (lifted factor, p^L) for i in [0, n')."""
        m = self.p**L
        h = self.lifted_factor(L)
        rows = []
        cur = [1]
        for _ in range(max(self.nprime, self.f)):
            rows.append(cur + [0] * (self.f - len(cur)))
            cur = _pmod([0] + cur, h, m)  # multiply by t
        return rows

    def image_tables(self, conductor: int, L: int) -> list:
        """Per power-basis exponent of Q(zeta_conductor): e x f digit matrix mod p^L."""
        key = (conductor, L)
        if key in self._img_cache:
            return self._img_cache[key]
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
            # zeta_{p^a}^b over the s-power basis (integer rewriting)
            srow = pa_table[b]
            svec = [0] * self.e
            if srow is None:
                svec[b] = 1
            else:
                for j, c in srow:
                    svec[j] = c
            trow = t_rows[a]
            # compose with the binomial transform into pi-coordinates
            mat = []
            for k in range(self.e):
                scalar = sum(self.binom[k][j] * svec[j] for j in range(self.e))
                mat.append([scalar * trow[i] % m for i in range(self.f)])
            tables.append(mat)
        self._img_cache[key] = tables
        return tables

    def image(self, coeffs: dict[int, int], conductor: int, L: int) -> list[list[int]]:
        """Digit matrix (e rows, f cols) mod p^L of an integer-coefficient element."""
        m = self.p**L
        tables = self.image_tables(conductor, L)
        out = [[0] * self.f for _ in range(self.e)]
        for idx, c in coeffs.items():
            c %= m
            if not c:
                continue
            mat = tables[idx]
            for k in range(self.e):
                row = mat[k]
                ok = out[k]
                for i in range(self.f):
                    ok[i] = (ok[i] + c * row[i]) % m
        return out


def _bezout(h, g, p):
    # extended Euclid over F_p for coprime h, g
    r0, r1 = [c % p for c in h], [c % p for c in g]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    assert len(r0) == 1, "factors are not coprime"
    inv = pow(r0[0], -1, p)
    u = [c * inv % p for c in s0]
    v = [c * inv % p for c in t0]
    return u, v


def _hensel_step(phi, h, g, u, v, q, m2, p):
    """One quadratic Hensel step: phi = h*g and u*h + v*g = 1, lifted from mod q to mod m2."""
    e = _psub([c % m2 for c in phi], _pmul(h, g, m2), m2)
    qq, r = _pdivmod(_pmul(v, e, m2), h, m2)
    h2 = _padd(h, r, m2)
    g2 = _padd(g, _padd(_pmul(u, e, m2), _pmul(qq, g, m2), m2), m2)
    b = _psub(_padd(_pmul(u, h2, m2), _pmul(v, g2, m2), m2), [1], m2)
    cc, d = _pdivmod(_pmul(v, b, m2), h2, m2)
    v2 = _psub(v, d, m2)
    u2 = _psub(u, _padd(_pmul(u, b, m2), _pmul(cc, g2, m2), m2), m2)
    assert not _psub([c % m2 for c in phi], _pmul(h2, g2, m2), m2), "hensel product check"
    assert _padd(_pmul(u2, h2, m2), _pmul(v2, g2, m2), m2) == [1], "hensel bezout check"
    return h2, g2, u2, v2


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


def _digit_thresholds(spec: PrimeIdealSpec, target: int) -> tuple[int, list[int]]:
    """(L, moduli) for the exact test val >= target >= 0 on integral elements:
    take the digit matrix mod p^L (`_Completion.image`); the test holds
    exactly when every entry of ramified digit row k is 0 mod moduli[k] =
    p^ceil((target - k)/e), since val(p^a pi^k) = e a + k.  L exceeds every
    exponent of the moduli, so the digits mod p^L decide each congruence."""
    e = spec.e
    L = -(-target // e) + 2
    return L, [spec.p ** max(0, -(-(target - k) // e)) for k in range(e)]


def val_at_least(spec: PrimeIdealSpec, a, bound: int) -> bool:
    """Exact test val(a) >= bound (no precision escalation needed)."""
    a = coerce(a)
    if a.is_zero():
        return True
    if spec.conductor % a.conductor:
        raise ValueError(
            f"conductor {a.conductor} incompatible with prime spec at {spec.conductor}"
        )
    target = bound + spec.e * _ord_int(a.denominator, spec.p)
    if target <= 0:
        return True
    L, moduli = _digit_thresholds(spec, target)
    digits = _completion(spec).image(a.numerators, a.conductor, L)
    return not any(c % mod for row, mod in zip(digits, moduli) for c in row)


def laurent_content_val(f: LaurentPoly, spec: PrimeIdealSpec):
    """Minimum valuation over the coefficients (the Gauss content); INF for 0."""
    out = INF
    for v in f.coeffs.values():
        w = val(spec, v)
        if w < out:
            out = w
    return out


# -- Rouquier-ring membership -------------------------------------------------------


def op_member(S: RationalFunction, spec: PrimeIdealSpec, max_order: int | None = None) -> str:
    """Decide S in O_p for the localized Rouquier ring.

    Decidable when the denominator is a unit of O times a scalar: a y-power
    times root-of-unity linear factors.  Everything arising from the bundled
    Schur elements has this shape; anything else answers "unsupported".
    """
    return in_ideal(S, spec, 0, max_order)


def in_ideal(S: RationalFunction, spec: PrimeIdealSpec, power: int = 1,
             max_order: int | None = None) -> str:
    """Decide whether S lies in the power-th power of the maximal ideal of O_p."""
    if S.is_zero():
        return YES
    fact = factor_unit_part(S.den, max_order)
    if not fact.is_unit():
        return UNSUPPORTED
    v_den = val(spec, fact.scalar)
    for c in S.num.coeffs.values():
        if not val_at_least(spec, c, v_den + power):
            return NO
    return YES
