"""Exact arithmetic in cyclotomic number fields Q(zeta_n).

Elements are stored on the power basis {zeta_n^k : 0 <= k < phi(n)} after
reduction modulo the n-th cyclotomic polynomial, at the minimal possible
conductor (a conductor congruent to 2 mod 4 is never stored, mirroring the
field equality Q(zeta_2m) = Q(zeta_m) for odd m).  Because the basis and the
conductor are both canonical, two values are equal exactly when their
representations coincide, which makes hashing and golden-file comparison
safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = Fraction


# -- number theory of its own, so that no fault of the package sits on both
# sides of a comparison -----------------------------------------------------


def factorize(n: int) -> dict:
    """{p: multiplicity} for n >= 1, by trial division."""
    out: dict = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, a in factorize(n).items():
        out *= (p - 1) * p ** (a - 1)
    return out


def _mobius(n: int) -> int:
    f = factorize(n)
    return 0 if any(a > 1 for a in f.values()) else (-1) ** len(f)


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Phi_n, ascending coefficients, as the Moebius product
    prod_{d | n} (x^d - 1)^mu(n/d): the factors of exponent 1 multiplied,
    then divided by the (monic) product of those of exponent -1."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0 and _mobius(n // d):
            factor = [-1] + [0] * (d - 1) + [1]
            if _mobius(n // d) == 1:
                num = _poly_mul(num, factor)
            else:
                den = _poly_mul(den, factor)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = num[i + len(den) - 1]
        for j, c in enumerate(den):
            num[i + j] -= q[i] * c
    if any(num):
        raise ArithmeticError(f"the Moebius product for Phi_{n} left a remainder")
    return tuple(q)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple:
    """table[k] rewrites zeta_n^k over the power basis; None means basis exponent."""
    phi = euler_phi(n)
    if n == 1:
        return (None,)
    cyc = cyclotomic_polynomial(n)
    rows: list = [None] * phi
    # dense representative of x^k mod Phi_n for k = phi .. n-1
    rep = [-c for c in cyc[:phi]]
    for k in range(phi, n):
        rows.append(tuple((j, c) for j, c in enumerate(rep) if c))
        top = rep[phi - 1]
        rep = [0] + rep[:-1]
        if top:
            for j in range(phi):
                rep[j] -= top * cyc[j]
    return tuple(rows)


# -- sparse coefficient maps -------------------------------------------------
#
# Maps are dicts {exponent: coefficient} with no zero values stored.  `table`
# is the per-conductor rewrite table of _reduction_table.


def _add_maps(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _reduce_map(raw, n, table):
    out = {}
    for k, v in raw.items():
        if not v:
            continue
        k %= n
        row = table[k]
        if row is None:
            s = out.get(k)
            if s is None:
                out[k] = v
            else:
                s = s + v
                if s:
                    out[k] = s
                else:
                    del out[k]
        else:
            for j, m in row:
                s = out.get(j)
                if s is None:
                    out[j] = m * v
                else:
                    s = s + m * v
                    if s:
                        out[j] = s
                    else:
                        del out[j]
    return out


def _mul_reduce(a, b, n, table):
    if not a or not b:
        return {}
    raw = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            if k >= n:
                k -= n
            v = va * vb
            s = raw.get(k)
            if s is None:
                raw[k] = v
            else:
                raw[k] = s + v
    return _reduce_map(raw, n, table)


def _conjugate_map(c: dict, j: int, n: int) -> dict:
    raw: dict = {}
    for k, v in c.items():
        e = j * k % n
        raw[e] = raw.get(e, 0) + v
    return _reduce_map(raw, n, _reduction_table(n))


@lru_cache(maxsize=None)
def _descent_solver(n: int, m: int):
    """Row-reduction data expressing conductor-n vectors over the zeta_m powers."""
    phi_n, phi_m = euler_phi(n), euler_phi(m)
    table = _reduction_table(n)
    step = n // m
    cols = []
    for j in range(phi_m):
        col = [Fraction(0)] * phi_n
        for k, v in _reduce_map({step * j: 1}, n, table).items():
            col[k] = Fraction(v)
        cols.append(col)
    # Gaussian elimination on [T | I]
    rows = [[cols[j][i] for j in range(phi_m)] for i in range(phi_n)]
    aug = [[Fraction(int(i == r)) for i in range(phi_n)] for r in range(phi_n)]
    pivots = []
    r = 0
    for col in range(phi_m):
        pr = next(i for i in range(r, phi_n) if rows[i][col])
        rows[r], rows[pr] = rows[pr], rows[r]
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(phi_n):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(r)
        r += 1
    return pivots, aug


def _rewrite_to_subfield(c: dict, n: int, m: int) -> dict:
    pivots, aug = _descent_solver(n, m)
    phi_n, phi_m = euler_phi(n), euler_phi(m)
    v = [Fraction(0)] * phi_n
    for k, val in c.items():
        v[k] = val
    w = [sum(row[k] * v[k] for k in range(phi_n) if v[k]) for row in aug]
    for i in range(phi_m, phi_n):
        if w[i]:
            raise ArithmeticError("subfield rewrite applied to a non-member")
    return {j: w[pivots[j]] for j in range(phi_m) if w[pivots[j]]}


def _minimize(n: int, c: dict) -> tuple[int, dict]:
    while True:
        if not c:
            return 1, {}
        if n == 1:
            return 1, c
        if set(c) == {0}:
            return 1, dict(c)
        if n % 4 == 2:
            # Q(zeta_n) = Q(zeta_{n/2}); substitute zeta_n = -zeta_{n/2}^{(n/2+1)/2}
            m = n // 2
            half = (m + 1) // 2
            raw: dict = {}
            for k, v in c.items():
                e = k * half % m
                raw[e] = raw.get(e, 0) + (v if k % 2 == 0 else -v)
            c = _reduce_map(raw, m, _reduction_table(m))
            n = m
            continue
        descended = False
        for p in sorted(factorize(n)):
            m = n // p
            fixed = all(
                _conjugate_map(c, j, n) == c
                for j in range(m + 1, n, m)
                if gcd(j, n) == 1
            )
            if fixed:
                c = _rewrite_to_subfield(c, n, m)
                n = m
                descended = True
                break
        if not descended:
            return n, c


class Cyclotomic:
    """Immutable element of a cyclotomic field, canonical form."""

    __slots__ = ("_n", "_c", "_hash")

    def __init__(self, n: int, coeffs: dict, _canonical: bool = False):
        if not _canonical:
            raise TypeError("use make()/zeta()/rat() to build Cyclotomic values")
        self._n = n
        self._c = coeffs
        self._hash = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def _raw(n: int, raw: dict) -> "Cyclotomic":
        c = _reduce_map(raw, n, _reduction_table(n))
        n, c = _minimize(n, c)
        return Cyclotomic(n, c, _canonical=True)

    # -- basic introspection ----------------------------------------------

    @property
    def conductor(self) -> int:
        return self._n

    @property
    def coeffs(self) -> dict:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def is_rational(self) -> bool:
        return self._n == 1

    def as_rational(self) -> Fraction:
        if self._n != 1:
            raise ValueError(f"{self} is not rational")
        return self._c.get(0, Fraction(0))

    def denominator_lcm(self) -> int:
        out = 1
        for v in self._c.values():
            out = lcm(out, v.denominator)
        return out

    # -- ring operations ----------------------------------------------------

    def _lift_raw(self, N: int) -> dict:
        step = N // self._n
        return {k * step: v for k, v in self._c.items()}

    def __add__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._n == other._n:
            n, c = _minimize(self._n, _add_maps(self._c, other._c))
            return Cyclotomic(n, c, _canonical=True)
        N = lcm(self._n, other._n)
        raw = _add_maps(self._lift_raw(N), other._lift_raw(N))
        return Cyclotomic._raw(N, raw)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self._n, {k: -v for k, v in self._c.items()}, _canonical=True)

    def __sub__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return coerce(other) - self

    def __mul__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._n == other._n:
            n = self._n
            c = _mul_reduce(self._c, other._c, n, _reduction_table(n))
        else:
            n = lcm(self._n, other._n)
            c = _mul_reduce(
                _reduce_map(self._lift_raw(n), n, _reduction_table(n)),
                _reduce_map(other._lift_raw(n), n, _reduction_table(n)),
                n,
                _reduction_table(n),
            )
        n, c = _minimize(n, c)
        return Cyclotomic(n, c, _canonical=True)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self._c:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self._n == 1:
            return rat(1 / self._c[0])
        num = one
        for j in range(2, self._n):
            if gcd(j, self._n) == 1:
                num = num * Cyclotomic(self._n, _conjugate_map(self._c, j, self._n), _canonical=True)
        nrm = (self * num).as_rational()
        return num * (1 / nrm)

    def __truediv__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k == 0:
            return one
        base = self if k > 0 else self.inverse()
        k = abs(k)
        out = one
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- Galois theory ------------------------------------------------------

    def galois(self, j: int) -> "Cyclotomic":
        """Image under zeta_n -> zeta_n^j; j must be prime to the conductor."""
        if gcd(j, self._n) != 1:
            raise ValueError(f"{j} is not prime to conductor {self._n}")
        return Cyclotomic(self._n, _conjugate_map(self._c, j % self._n, self._n), _canonical=True)

    def conjugates(self) -> list["Cyclotomic"]:
        return [self.galois(j) for j in range(1, self._n + 1) if gcd(j, self._n) == 1]

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation."""
        return self.galois(self._n - 1) if self._n > 1 else self

    def norm(self, conductor: int | None = None) -> Fraction:
        """Product of all Galois conjugates over Q, by default at the minimal conductor."""
        out = one
        for a in self.conjugates():
            out = out * a
        value = out.as_rational()
        if conductor is not None:
            if conductor % self._n:
                raise ValueError("norm conductor must be a multiple of the element's conductor")
            value = value ** (euler_phi(conductor) // euler_phi(self._n))
        return value

    def is_root_of_unity(self) -> bool:
        if not self._c:
            return False
        return (self ** lcm(2, self._n)) == one

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._n, tuple(sorted(self._c.items()))))
        return self._hash

    def __bool__(self):
        return bool(self._c)

    def approx(self) -> complex:
        """Floating-point value, for numeric sanity oracles only."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self._n)
        return sum(float(v) * z**k for k, v in self._c.items()) if self._c else 0j

    def __repr__(self):
        if not self._c:
            return "0"
        if self._n == 1:
            return str(self._c[0])
        terms = []
        for k in sorted(self._c):
            v = self._c[k]
            base = "1" if k == 0 else (f"z{self._n}" if k == 1 else f"z{self._n}^{k}")
            if k == 0:
                terms.append(str(v))
            elif v == 1:
                terms.append(base)
            elif v == -1:
                terms.append(f"-{base}")
            else:
                terms.append(f"{v}*{base}")
        out = terms[0]
        for t in terms[1:]:
            out += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
        return out


def coerce(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return rat(x)
    return NotImplemented


def rat(q) -> Cyclotomic:
    q = Fraction(q)
    return Cyclotomic(1, {0: q} if q else {}, _canonical=True)


zero = rat(0)
one = rat(1)


def zeta(n: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^k."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return Cyclotomic._raw(n, {k % n: Fraction(1)})


def make(n: int, raw: dict) -> Cyclotomic:
    """Build sum of raw[k] * zeta_n^k in canonical reduced form."""
    if n < 1:
        raise ValueError("conductor must be positive")
    merged: dict = {}
    for k, v in raw.items():
        v = Fraction(v)
        e = int(k) % n
        merged[e] = merged.get(e, Fraction(0)) + v
    return Cyclotomic._raw(n, {k: v for k, v in merged.items() if v})


def sqrt_minus(m: int) -> Cyclotomic:
    """sqrt(-m) for squarefree m in {1, 2, 3, ...} built from Gauss sums (small m)."""
    if m == 1:
        return zeta(4)
    if m == 3:
        return zeta(3) - zeta(3, 2)
    raise ValueError("only sqrt(-1) and sqrt(-3) are provided")


# -- textual literal format -------------------------------------------------


def to_literal(a: Cyclotomic):
    """Serialize: {"n": 12, "c": {"0": "1/2", "7": "-2"}}; rationals as "p/q" or "p"."""
    return {"n": a.conductor, "c": {str(k): str(v) for k, v in sorted(a.coeffs.items())}}


def from_literal(doc) -> Cyclotomic:
    """Parse the literal format; bare "p/q" strings and ints mean rationals."""
    if isinstance(doc, (int, str)):
        return rat(Fraction(doc))
    if not isinstance(doc, dict) or "n" not in doc or "c" not in doc:
        raise ValueError(f"malformed cyclotomic literal: {doc!r}")
    n = int(doc["n"])
    return make(n, {int(k): Fraction(v) for k, v in doc["c"].items()})
