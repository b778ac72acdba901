"""Laurent polynomials in y (y^mu = x) over cyclotomic coefficients,
extraction of root-of-unity linear factors, and common multiples of
unit-shaped polynomials.

A quotient of Laurent polynomials is never reduced by a gcd here: a Schur
element is xi y^k prod (y - omega)^m with each omega a root of unity, so a
sum of such quotients is a numerator over the common multiple D of their
linear factors (`common_unit_multiple`), each numerator an exact quotient
D/f of `poly_divexact`.

An exact division of a rational dividend commutes with the Galois action
on the coefficients (y fixed), so it is computed once per Galois orbit of
the divisor, at the representative of `cyclotomic.galois_normal_form`, and
carried; a quotient D/f with D rational is one of these divisions.  The
unit factorization is cached by value.  A polynomial built from its roots
(`unit_shaped`, as the catalog Schur elements are) is not searched at all:
its factorization is recorded by value when it is built.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .cyclotomic import (
    Cyclotomic,
    _evaluation_powers,
    _residue,
    coerce,
    from_literal,
    galois_normal_form,
    integer,
    json_list,
    one,
    rat,
    zeta,
    zero,
)
from .ntheory import cyclotomic_polynomial, euler_phi, orders_with_phi_at_most


def _coefficient(v) -> Cyclotomic:
    """v as a Cyclotomic; a value that `coerce` rejects raises TypeError."""
    c = coerce(v)
    if c is NotImplemented:
        raise TypeError(f"bad coefficient {v!r}")
    return c


class LaurentPoly:
    """Immutable sparse Laurent polynomial; exponents are y-exponents."""

    __slots__ = ("mu", "_c", "_hash")

    def __init__(self, coeffs: dict, mu: int = 1, _clean: bool = False):
        if mu < 1:
            raise ValueError("mu must be a positive integer")
        if not _clean:
            fixed = {}
            for e, v in coeffs.items():
                v = _coefficient(v)
                if v:
                    fixed[int(e)] = fixed.get(int(e), zero) + v
            coeffs = {e: v for e, v in fixed.items() if v}
        self._c = coeffs
        self.mu = mu
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_x_coeffs(coeffs, mu: int = 1) -> "LaurentPoly":
        """Dense list of x-coefficients, ascending from x^0."""
        return LaurentPoly({i * mu: c for i, c in enumerate(coeffs)}, mu)

    @staticmethod
    def x_power(k: int, mu: int = 1) -> "LaurentPoly":
        return LaurentPoly({k * mu: one}, mu, _clean=True)

    @staticmethod
    def const(v, mu: int = 1) -> "LaurentPoly":
        v = _coefficient(v)
        return LaurentPoly({0: v} if v else {}, mu, _clean=True)

    # -- introspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    @property
    def coeffs(self) -> dict:
        return dict(self._c)

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    def dense(self) -> list:
        """Coefficients of y^0 .. y^max_exp, ascending; no negative exponents allowed."""
        if self._c and self.min_exp() < 0:
            raise ValueError("dense expects an ordinary polynomial")
        return [self._c.get(e, zero) for e in range(self.max_exp() + 1)] if self._c else []

    def lowest_coeff(self) -> Cyclotomic:
        return self._c[self.min_exp()]

    def is_x_polynomial(self) -> bool:
        """True when every exponent is divisible by mu (genuinely a function of x)."""
        return all(e % self.mu == 0 for e in self._c)

    def conductor_lcm(self) -> int:
        out = 1
        for v in self._c.values():
            out = lcm(out, v.conductor)
        return out

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.mu != other.mu:
            raise ValueError(f"mixed mu: {self.mu} vs {other.mu}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other, self.mu)
        self._check(other)
        out = dict(self._c)
        for e, v in other._c.items():
            s = out.get(e)
            s = v if s is None else s + v
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out, self.mu, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self._c.items()}, self.mu, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other, self.mu)
        return self + (-other)

    def __rsub__(self, other):
        return LaurentPoly.const(other, self.mu) - self

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            v = coerce(other)
            if v is NotImplemented:
                return NotImplemented
            if not v:
                return LaurentPoly({}, self.mu, _clean=True)
            return LaurentPoly({e: c * v for e, c in self._c.items()}, self.mu, _clean=True)
        self._check(other)
        out: dict = {}
        for ea, va in self._c.items():
            for eb, vb in other._c.items():
                e = ea + eb
                s = out.get(e)
                s = va * vb if s is None else s + va * vb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(out, self.mu, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a Laurent polynomial")
        out = LaurentPoly.const(one, self.mu)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by y^e."""
        return LaurentPoly({k + e: v for k, v in self._c.items()}, self.mu, _clean=True)

    def galois(self, j: int) -> "LaurentPoly":
        """Image under zeta -> zeta^j on every coefficient, y fixed; j must
        be prime to the conductor of every coefficient."""
        return LaurentPoly({e: v.galois(j) for e, v in self._c.items()}, self.mu, _clean=True)

    # -- protocol -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if coerce(other) is NotImplemented:
                return NotImplemented
            other = LaurentPoly.const(other, self.mu)
        return self.mu == other.mu and self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.mu, tuple(sorted(self._c.items()))))
        return self._hash

    def __repr__(self):
        if not self._c:
            return "0"
        var = "x" if self.mu == 1 else "y"
        parts = []
        for e in sorted(self._c):
            v = self._c[e]
            sv = str(v) if (v.is_rational() or e == 0) else f"({v})"
            if e == 0:
                parts.append(sv)
            else:
                pw = var if e == 1 else f"{var}^{e}"
                parts.append(pw if v == one else f"{sv}*{pw}")
        return " + ".join(parts)


# -- polynomial division -----------------------------------------------------


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder; both must have nonnegative exponents.

    Long division on the dense coefficient list of a by b / lead(b), which
    is monic: each step subtracts c * b / lead(b) from the remainder in
    place, and the quotient is scaled by lead(b)^-1 once at the end.  The
    lower coefficients are scaled once, and not at all when b is monic."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    a._check(b)
    if not a.is_zero() and a.min_exp() < 0 or b.min_exp() < 0:
        raise ValueError("poly_divmod expects ordinary polynomials")
    db = b.max_exp()
    lead = b._c[db]
    lead_inv = None if lead == one else lead.inverse()
    lower = [(e - db, v if lead_inv is None else v * lead_inv)
             for e, v in b._c.items() if e != db]
    r = a.dense()
    q: dict = {}
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if not c:
            continue
        q[top - db] = c
        for off, v in lower:
            r[top + off] = r[top + off] - v * c
    rem = {e: v for e, v in enumerate(r[:db]) if v}
    if lead_inv is not None:
        q = {e: v * lead_inv for e, v in q.items()}
    return LaurentPoly(q, a.mu, _clean=True), LaurentPoly(rem, a.mu, _clean=True)


def synthetic_division(a: list, omega: Cyclotomic) -> tuple[list, Cyclotomic]:
    """(q, r) with a = (y - omega) q + r, for a dense ascending coefficient
    list a of length at least 2; the remainder r is a(omega)."""
    q = [zero] * (len(a) - 1)
    r = a[-1]
    for i in range(len(a) - 2, -1, -1):
        q[i] = r
        r = a[i] + omega * r
    return q, r


def poly_divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact Laurent division (remainder must vanish).

    With a rational dividend, a / sigma_t(r) = sigma_t(a / r), so the long
    division is done once per Galois orbit of b, at its representative r
    (`galois_normal_form`), and carried to b = sigma_t(r) exactly: sigma_t
    fixes a and is a ring automorphism.  This covers the Molien terms
    prod(1 - x^d_i) / det(1 - xw) and the divisions of the Poincare
    polynomial by the Schur elements in validation."""
    if a.is_zero():
        return a
    if a.conductor_lcm() > 1:
        return _divexact(a, b)
    r, t = galois_normal_form(b)
    q = _divexact_at(a, r)
    return q if t == 1 else q.galois(t)


def _divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    sa, sb = a.min_exp(), b.min_exp()
    q, r = poly_divmod(a.shift(-sa), b.shift(-sb))
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q.shift(sa - sb)


_divexact_at = cache(_divexact)  # by (rational dividend, representative divisor)


def derivative_at_one(f: LaurentPoly) -> Cyclotomic:
    """d f / d x evaluated at x = 1; f must be a genuine function of x."""
    if not f.is_x_polynomial():
        raise ValueError("derivative_at_one requires integral x-exponents")
    out = zero
    for e, v in f.coeffs.items():
        out = out + v * Fraction(e, f.mu)
    return out


# -- unit-part factorization ----------------------------------------------------


class UnitFactorization(namedtuple("UnitFactorization", "scalar y_power unit_factors non_unit")):
    """f = scalar * y^y_power * prod (y - omega)^m * non_unit, with
    unit_factors the pairs ((omega, m), ...)."""

    __slots__ = ()

    def is_unit(self) -> bool:
        return self.non_unit == LaurentPoly.const(one, self.non_unit.mu)


def _images(a: list, n: int) -> list | None:
    """`_residue(v, n)` for each coefficient v of a, or None when one has none."""
    out = []
    for v in a:
        r = _residue(v, n)
        if r is None:
            return None
        out.append(r)
    return out


@cache
def factor_unit_part(f: LaurentPoly) -> UnitFactorization:
    """Split f into scalar * y^k * prod (y - omega)^m * non_unit, each omega a
    root of unity and non_unit free of root-of-unity zeros (constant term
    1), the factors in ascending order m of omega = zeta_m^j, then ascending
    j.  Cached by value.  For k != 0 this is the factorization of f / y^k,
    kept once by the cache, with y_power k; that of a polynomial built by
    `unit_shaped` is read off its record, and any other is searched for
    (`_root_search`)."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    y_power = f.min_exp()
    if y_power:
        return factor_unit_part(f.shift(-y_power))._replace(y_power=y_power)
    stated = _STATED.get(f)
    return _root_search(f) if stated is None else stated


# polynomial with lowest exponent 0 -> its factorization, as `unit_shaped` built it
_STATED: dict = {}


def unit_shaped(scalar, y_power: int, roots: dict, mu: int = 1) -> LaurentPoly:
    """scalar * y^y_power * prod (y - zeta_m^j)^mult over roots {(m, j):
    mult}, 0 <= j < m and j prime to m, with its factorization recorded for
    `factor_unit_part`, which then reads it instead of searching for the
    roots.  The record is keyed by the value, built from the factorization
    itself, so it is the factorization of any polynomial equal to it: the
    factorization is unique."""
    for (m, j), mult in roots.items():
        if not (0 <= j < m and gcd(j, m) == 1 and mult > 0):
            raise ValueError(f"zeta_{m}^{j} with multiplicity {mult} is not a stated root")
    scalar = coerce(scalar)
    if not scalar:
        raise ValueError("a unit-shaped polynomial has a nonzero scalar")
    roots = {root: (zeta(*root), mult) for root, mult in sorted(roots.items())}
    g = _unit_product(roots, mu) * scalar
    factors = tuple(roots.values())
    _STATED[g] = UnitFactorization(scalar, 0, factors, LaurentPoly.const(one, mu))
    return g.shift(y_power)


def _unit_product(roots: dict, mu: int) -> LaurentPoly:
    """prod (y - omega)^mult over roots {(m, j): (omega, mult)}, omega =
    zeta_m^j.  The roots of one order m and one multiplicity that make up
    the whole Galois orbit {j prime to m} enter as the integer Phi_m^mult
    (`cyclotomic_polynomial`), the others one linear factor at a time."""
    orbits: dict = {}
    for (m, _j), (omega, mult) in roots.items():
        orbits.setdefault((m, mult), []).append(omega)
    rational = [1]  # dense and ascending
    linear = []
    for (m, mult), omegas in orbits.items():
        if len(omegas) == euler_phi(m):
            for _ in range(mult):
                rational = _int_poly_mul(rational, cyclotomic_polynomial(m))
        else:
            linear += omegas * mult
    dense = [rat(v) for v in rational]
    for omega in linear:
        dense = [a - omega * b for a, b in zip([zero, *dense], [*dense, zero])]
    return LaurentPoly({e: v for e, v in enumerate(dense) if v}, mu, _clean=True)


def _int_poly_mul(a, b) -> list[int]:
    """The product of two dense ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _root_index(omega: Cyclotomic) -> tuple[int, int]:
    """(m, j) with omega = zeta_m^j and j prime to m, for a root of unity
    omega.  Its order divides L = lcm(2, conductor), and w of
    `_evaluation_point(L)` has order L, so the residue of omega is w^e for
    exactly one e modulo L, and (m, j) = (L, e) / gcd(L, e)."""
    L = lcm(2, omega.conductor)
    e = _evaluation_powers(L)[1].index(_residue(omega, L))
    g = gcd(e, L)
    return L // g, e // g


def _root_search(f: LaurentPoly) -> UnitFactorization:
    """The factorization of `factor_unit_part` for f with lowest exponent
    0, by a search over the roots of unity.

    The search is complete.  Let g = f / y^k over K = Q(zeta_c), c the
    conductor of the coefficients, and omega a root of g of order m.  Its
    conjugates over K are roots of g too, so
    phi(m) <= phi(lcm(c, m)) = phi(c) [K(omega) : K] <= phi(c) deg g.
    Since phi(m) >= sqrt(m) for every m other than 2 and 6, finitely many m
    qualify, and `orders_with_phi_at_most` lists them all.  They are tried
    in ascending order; as roots come off, deg g falls, and an order with
    phi(lcm(c, m)) > phi(c) deg g for the current g is skipped.

    Each candidate omega = zeta_m^j is screened in a finite field before it
    is tested exactly.  Let L = lcm(c, m) and (l, w) =
    `_evaluation_point(L)`: l is a prime with l = 1 mod L and w has order L
    in F_l^*.  Then zeta_L -> w is a ring map Z[zeta_L] -> F_l; it extends
    to Z[zeta_L][1/d] -> F_l whenever l does not divide d, d the common
    denominator of the coefficients of g.  Under it zeta_c goes to w^(L/c),
    each coefficient goes to its numerator map at w^(L/c) times the inverse
    of its denominator, and omega goes to w^(jL/m).  Since g(omega) lies in
    Z[zeta_L][1/d], its image is the Horner residue of the image of g at
    w^(jL/m), so a nonzero residue proves g(omega) != 0.  A zero residue, or
    a denominator divisible by l, decides nothing, and omega is then tested
    exactly by one synthetic division by (y - omega), whose remainder is
    g(omega) and whose quotient is g / (y - omega) when that remainder
    vanishes.  Each quotient is screened again at the same omega before
    the next exact division, so unless the screen misses, every exact
    division has a zero remainder.
    """
    a = f.dense()
    factors: list = []
    cond = f.conductor_lcm()
    phi_c = euler_phi(cond)
    for m in orders_with_phi_at_most(phi_c * (len(a) - 1)):
        if len(a) == 1:
            break
        L = lcm(cond, m)
        # a root of order m forces at least phi(L)/phi(cond) conjugate roots
        if euler_phi(L) > phi_c * (len(a) - 1):
            continue
        ell, powers = _evaluation_powers(L)
        image = _images(a, L)
        for j in range(m):
            if m > 1 and (j == 0 or gcd(j, m) != 1):
                continue
            w, mult = powers[j * (L // m)], 0
            while len(a) > 1:
                if image is not None:
                    res = 0
                    for v in reversed(image):
                        res = (res * w + v) % ell
                    if res:
                        break
                omega = zeta(m, j)
                q, r = synthetic_division(a, omega)
                if r:
                    break
                a, mult = q, mult + 1
                image = _images(a, L)
            if mult:
                factors.append((omega, mult))
    scalar = a[0]
    inv = scalar.inverse()
    non_unit = LaurentPoly({e: v * inv for e, v in enumerate(a) if v}, f.mu, _clean=True)
    return UnitFactorization(scalar, 0, tuple(factors), non_unit)


def common_unit_multiple(polys) -> tuple[LaurentPoly, list[LaurentPoly]]:
    """(D, [D/f for each f]) for unit-shaped Laurent polynomials f, D =
    prod (y - omega)^max the least common multiple of their linear factors,
    so that sum_i a_i / f_i is (sum_i a_i D/f_i) / D.  D is built from the
    cached factorizations (`factor_unit_part`), each whole Galois orbit of
    its roots as one integer Phi_m (`_unit_product`), and each D/f is
    `poly_divexact(D, f)`: once per Galois orbit of the f when D is
    rational.  A polynomial with a non-unit part raises ValueError."""
    maxmult: dict = {}
    for f in polys:
        fact = factor_unit_part(f)
        if not fact.is_unit():
            raise ValueError(f"no common unit multiple: {fact.non_unit} is a non-unit part")
        for omega, m in fact.unit_factors:
            maxmult[omega] = max(maxmult.get(omega, 0), m)
    roots = {_root_index(omega): (omega, m) for omega, m in maxmult.items()}
    D = _unit_product(roots, polys[0].mu)
    return D, [poly_divexact(D, f) for f in polys]


# -- serialization ----------------------------------------------------------------


def laurent_from_doc(doc) -> LaurentPoly:
    if not isinstance(doc, dict) or "terms" not in doc:
        raise ValueError(f"malformed laurent literal: {doc!r}")
    mu = integer(doc.get("mu", 1))
    out: dict = {}
    for term in json_list(doc["terms"]):
        e, lit = json_list(term)
        e = integer(e)
        out[e] = out.get(e, zero) + from_literal(lit)
    return LaurentPoly(out, mu)
