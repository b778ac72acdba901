"""Exact arithmetic in cyclotomic number fields Q(zeta_n).

Representation.  An element is a triple (n, c, d): the conductor n, a dict
c = {k: integer} of nonzero numerators on the power basis
{zeta_n^k : 0 <= k < phi(n)} (reduced modulo the n-th cyclotomic polynomial),
and one positive denominator d with gcd(d, all numerators) = 1, so the value
is sum(c[k] * zeta_n^k) / d.  Zero is (1, {}, 1).  Addition scales both
sides to the common denominator, multiplication works on the integers before
the reduction modulo Phi_n, and a single gcd pass normalizes the result;
across two conductors, a + b and a * b are one call of `dot` (below).

Canonical conductor.  Every value is stored at its minimal conductor, and a
conductor congruent to 2 mod 4 is never stored (Q(zeta_2m) = Q(zeta_m) for
odd m).  Because the basis, the conductor and the normalized denominator are
all canonical, two values are equal exactly when their representations
coincide, which makes hashing and golden-file comparison safe.  After each
operation `_minimize` tests each prime p dividing n, and each test is exact:

* n prime: the only proper cyclotomic subfield is Q, and a value lies in Q
  exactly when its only exponent is 0.
* p^2 | n: Phi_n(x) = Phi_{n/p}(x^p), so the power basis of Q(zeta_{n/p}) is
  the part of the power basis of Q(zeta_n) whose exponents are divisible by
  p; a value descends exactly when all its exponents are, and the rewrite
  divides them by p.
* p || n, n = p*m: split zeta_n^k = zeta_m^(k*a) * zeta_p^(k*b) with
  a*p + b*m = 1 mod n and group the terms as sum_j A_j zeta_p^j with A_j in
  Q(zeta_m).  Since zeta_p, ..., zeta_p^(p-1) is a basis of Q(zeta_n) over
  Q(zeta_m) and 1 = -(zeta_p + ... + zeta_p^(p-1)), the value lies in
  Q(zeta_m) exactly when A_1 = ... = A_(p-1), and then it equals A_0 - A_1.
  This is fixedness under the generator s of Gal(Q(zeta_n)/Q(zeta_m))
  without computing a conjugate; for p = 2 it is the 2 mod 4 rule and always
  holds.  For odd p a one-point check runs first: zeta_n -> w is a ring map
  to F_l for a prime l = 1 mod n and w of order n, and c(w) != s(c)(w) there
  proves that s moves the value, so most values that do not descend are
  rejected by one dot product mod l.

Every rewrite has integer matrices and keeps the content of the numerators
(Z[zeta_n] meets Q(zeta_m) in Z[zeta_m]), so the denominator is unchanged.

Fused dot product.  `dot(xs, ys)` is sum(x * y) in one pass: every product
of numerators is added into one dense integer array of length N, the lcm of
the conductors, with the exponents lifted to zeta_N and each product scaled
to D, the lcm of the products of denominators.  The array is reduced modulo
Phi_N once and the sum is canonicalized once, where the chain of `*` and `+`
would reduce and canonicalize after every operation.  Class sums (the
Molien sum, orthogonality relations, Frobenius inner products) use it, and
so do `+` and `*` across conductors.

Inverse.  For a = A/d, 1/a = d*P/N where P is the product of the conjugates
of A other than A and N = A*P is its norm, an integer.  P is built on the
integer maps by doubling along generators of (Z/n)^*, with O(log phi(n))
products, and Q(1/a) = Q(a) keeps the conductor.  Each inverse is cached by
value, so a Schur scalar that several layers divide by is inverted once.
A sum with a zero operand is the other operand itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .ntheory import cyclotomic_polynomial, euler_phi, factorize, is_prime


@cache
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


# -- sparse integer coefficient maps -----------------------------------------
#
# Maps are dicts {exponent: integer} with no zero values stored.  `table` is
# the per-conductor rewrite table of _reduction_table.


def _combine(a, sa, b, sb):
    """The map sa*a + sb*b."""
    out = {k: v * sa for k, v in a.items()} if sa != 1 else dict(a)
    for k, v in b.items():
        if sb != 1:
            v *= sb
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s += v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _reduce_map(raw: dict, n: int, j: int = 1) -> dict:
    """The reduced map of sigma_j(sum(raw[k] * zeta_n^k)), j a unit modulo
    n: each zeta_n^(jk) added into one dense array by its row of the
    reduction table."""
    table = _reduction_table(n)
    out = [0] * euler_phi(n)
    for k, v in raw.items():
        e = j * k % n
        row = table[e]
        if row is None:
            out[e] += v
        else:
            for i, m in row:
                out[i] += m * v
    return {k: v for k, v in enumerate(out) if v}


def _mul_reduce(a, b, n, table):
    """Product of two reduced maps; the raw product is dense, of degree < 2*phi(n) - 1."""
    if not a or not b:
        return {}
    phi = euler_phi(n)
    raw = [0] * (2 * phi - 1)
    for ka, va in a.items():
        for kb, vb in b.items():
            raw[ka + kb] += va * vb
    return _reduce_dense(raw, n, phi, table)


def _reduce_dense(raw: list, n: int, phi: int, table) -> dict:
    """The reduced map of sum(raw[k] * zeta_n^k), for len(raw) <= 2 * n."""
    out = raw[:phi]
    for k in range(phi, len(raw)):
        v = raw[k]
        if v:
            if k >= n:
                k -= n
            row = table[k]
            if row is None:
                out[k] += v
            else:
                for j, m in row:
                    out[j] += m * v
    return {k: v for k, v in enumerate(out) if v}


@cache
def _primitive_root(q: int) -> int:
    """The least primitive root modulo the odd prime q."""
    r = q - 1
    return next(g for g in range(2, q) if all(pow(g, r // s, q) != 1 for s in factorize(r)))


@cache
def _evaluation_powers(n: int) -> tuple[int, tuple]:
    """(l, (w^0, ..., w^(n-1)) mod l): the least prime l = 1 mod n above 2^20
    and an element w of order n modulo l, so that zeta_n -> w is a ring map
    Z[zeta_n] -> F_l (the evaluation point of n)."""
    ell = (2**20 // n + 1) * n + 1
    while not is_prime(ell):
        ell += n
    qs = factorize(n)
    w = next(w for w in (pow(h, (ell - 1) // n, ell) for h in range(2, ell))
             if all(pow(w, n // q, ell) != 1 for q in qs))  # F_l^* is cyclic
    powers = [1] * n
    for t in range(1, n):
        powers[t] = powers[t - 1] * w % ell
    return ell, tuple(powers)


def _residue(a: "Cyclotomic", n: int) -> int | None:
    """The image of a under the ring map Z[zeta_n][1/d] -> F_l, zeta_n -> w,
    of `_evaluation_powers(n)`, d the denominator of a; None when l divides d
    or the conductor of a does not divide n."""
    ell, powers = _evaluation_powers(n)
    if n % a._n or a._d % ell == 0:
        return None
    step = n // a._n
    s = sum(v * powers[k * step] for k, v in a._c.items())
    return s * pow(a._d, -1, ell) % ell


@cache
def _descent_plan(n: int) -> tuple:
    """((p, None) for p^2 | n, then (p, (m, a, b, check)) for p || n,
    n = p*m, a*p + b*m = 1 mod n); empty when n is 1 or prime.

    check = (l, diff) with diff[k] = w^k - w^(s*k) mod l, where (l, w) is the
    evaluation point of n and s = 1 mod m generates Gal(Q(zeta_n)/Q(zeta_m));
    None for p = 2, where that group is trivial."""
    fac = factorize(n)
    if n == 1 or fac == {n: 1}:
        return ()
    plan: list = [(p, None) for p, e in sorted(fac.items()) if e > 1]
    for p, e in sorted(fac.items()):
        if e == 1:
            m = n // p
            a, b = pow(p, -1, m), pow(m, -1, p)
            check = None
            if p > 2:
                ell, powers = _evaluation_powers(n)
                s = 1 + m * ((_primitive_root(p) - 1) * b % p)
                diff = tuple(
                    (powers[k] - powers[s * k % n]) % ell for k in range(euler_phi(n))
                )
                check = (ell, diff)
            plan.append((p, (m, a, b, check)))
    return tuple(plan)


def _descend_coprime(c: dict, p: int, m: int, a: int, b: int):
    """c at conductor p*m (p prime to m) rewritten at conductor m, or None
    when the value does not lie in Q(zeta_m)."""
    groups: list = [{} for _ in range(p)]
    for k, v in c.items():
        g = groups[k * b % p]
        e = k * a % m
        g[e] = g.get(e, 0) + v
    first = _reduce_map(groups[1], m)
    for j in range(2, p):
        if _reduce_map(groups[j], m) != first:
            return None
    return _combine(_reduce_map(groups[0], m), 1, first, -1)


def _minimize(n: int, c: dict) -> tuple[int, dict]:
    while True:
        if not c or n == 1:
            return 1, c
        if len(c) == 1 and 0 in c:
            return 1, c
        for p, split in _descent_plan(n):
            if split is None:
                if all(k % p == 0 for k in c):
                    c = {k // p: v for k, v in c.items()}
                    n //= p
                    break
            else:
                m, a, b, check = split
                if check is not None:
                    # c(w) != s(c)(w) in F_l shows that s moves c
                    ell, diff = check
                    if sum(v * diff[k] for k, v in c.items()) % ell:
                        continue
                sub = _descend_coprime(c, p, m, a, b)
                if sub is not None:
                    c = sub
                    n = m
                    break
        else:
            return n, c


@cache
def _unit_generators(n: int) -> tuple:
    """(g, r) pairs with (Z/n)^* the direct product of the cyclic groups <g> of order r."""
    out = []
    for q, e in sorted(factorize(n).items()):
        Q = q**e
        M = n // Q
        if q == 2:
            local = [(Q - 1, 2)] if e >= 2 else []
            if e >= 3:
                local.append((5, Q // 4))
        else:
            g = _primitive_root(q)
            if e > 1 and pow(g, q - 1, q * q) == 1:
                g += q
            local = [(g, (q - 1) * Q // q)]
        for g, order in local:
            # lift g mod Q to n, trivial on the prime-to-q part
            out.append(((1 + M * ((g - 1) * pow(M, -1, Q) % Q)) % n, order))
    return tuple(out)


def _norm_and_cofactor(c: dict, n: int) -> tuple[int, dict]:
    """(N, P) with P the product of the conjugates of c other than c itself
    and N = c * P its norm, for an integer map c at conductor n."""
    table = _reduction_table(n)

    def mul(x, y):
        return _mul_reduce(x, y, n, table)

    cof, cur = {0: 1}, c
    for g, r in _unit_generators(n):
        # F(k) = prod_{i<k} g^i(cur) by doubling; the new cofactor is g(F(r - 1))
        f, k = cur, 1
        for bit in bin(r - 1)[3:]:
            f = mul(f, _reduce_map(f, n, pow(g, k, n)))
            k *= 2
            if bit == "1":
                f = mul(cur, _reduce_map(f, n, g))
                k += 1
        part = _reduce_map(f, n, g)
        cof = mul(cof, part)
        cur = mul(cur, part)
    if len(cur) != 1 or 0 not in cur:
        raise ArithmeticError("norm is not rational")
    return cur[0], cof


def _canonical(n: int, c: dict, d: int) -> "Cyclotomic":
    """The reduced map c / d at its minimal conductor."""
    n, c = _minimize(n, c)
    return _normalized(n, c, d)


class Cyclotomic:
    """Immutable element of a cyclotomic field, canonical form."""

    __slots__ = ("_n", "_c", "_d", "_hash")

    def __init__(self, n: int, coeffs: dict, den: int, _canonical: bool = False):
        if not _canonical:
            raise TypeError("use make()/zeta()/rat() to build Cyclotomic values")
        self._n = n
        self._c = coeffs
        self._d = den
        self._hash = None

    # -- basic introspection ----------------------------------------------

    @property
    def conductor(self) -> int:
        return self._n

    @property
    def coeffs(self) -> dict:
        d = self._d
        return {k: Fraction(v, d) for k, v in self._c.items()}

    @property
    def numerators(self) -> dict:
        """Integer numerators over the power basis; the value is numerators / denominator."""
        return dict(self._c)

    @property
    def denominator(self) -> int:
        """The least positive integer d with d * self in Z[zeta_conductor]."""
        return self._d

    def is_zero(self) -> bool:
        return not self._c

    def is_rational(self) -> bool:
        return self._n == 1

    def as_rational(self) -> Fraction:
        if self._n != 1:
            raise ValueError(f"{self} is not rational")
        return Fraction(self._c.get(0, 0), self._d)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a zero operand leaves the other one, which is already canonical
        if not other._c:
            return self
        if not self._c:
            return other
        if self._n != other._n and self._n != 1 and other._n != 1:
            return dot((self, other), (one, one))
        da, db = self._d, other._d
        g = gcd(da, db)
        sa, sb = db // g, da // g
        c = _combine(self._c, sa, other._c, sb)
        if self._n == other._n:
            return _canonical(self._n, c, da * sa)
        # adding a rational keeps the conductor of the other term
        return _normalized(max(self._n, other._n), c, da * sa)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self._n, {k: -v for k, v in self._c.items()}, self._d, _canonical=True)

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
        if not self._c or not other._c:
            return zero
        d = self._d * other._d
        if self._n == 1 or other._n == 1:
            # a nonzero rational factor keeps the conductor of the other one
            a, b = (self, other) if other._n == 1 else (other, self)
            q = b._c[0]
            return _normalized(a._n, {k: v * q for k, v in a._c.items()}, d)
        if self._n != other._n:
            return dot((self,), (other,))
        n = self._n
        return _canonical(n, _mul_reduce(self._c, other._c, n, _reduction_table(n)), d)

    __rmul__ = __mul__

    @cache
    def inverse(self) -> "Cyclotomic":
        """1/a = d * P / N, where a = A/d, P is the product of the other
        conjugates of A and N = A * P its norm; Q(1/a) = Q(a), so the
        conductor is unchanged.  Cached by value: a canonical value is its
        own key, and the same Schur scalar is inverted by every layer that
        divides by it."""
        if not self._c:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        N, cof = _norm_and_cofactor(self._c, self._n)
        d = self._d
        if N < 0:
            N, d = -N, -d
        return _normalized(self._n, {k: v * d for k, v in cof.items()}, N)

    def __truediv__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

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
        if self._n == 1:
            return self
        return Cyclotomic(self._n, _reduce_map(self._c, self._n, j), self._d, _canonical=True)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation."""
        return self.galois(self._n - 1) if self._n > 1 else self

    def norm(self) -> Fraction:
        """Product of all Galois conjugates over Q, at the minimal conductor:
        N / d^phi(n) for a = A/d, N the norm of A."""
        if not self._c:
            return Fraction(0)
        N, _ = _norm_and_cofactor(self._c, self._n)
        return Fraction(N, self._d ** euler_phi(self._n))

    def is_root_of_unity(self) -> bool:
        if not self._c:
            return False
        return (self ** lcm(2, self._n)) == one

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d and self._c == other._c

    def __hash__(self):
        # the hash of the (conductor, sorted Fraction coefficients) key, as
        # integers hash like the equal Fractions
        if self._hash is None:
            items = sorted(self._c.items())
            if self._d != 1:
                items = [(k, Fraction(v, self._d)) for k, v in items]
            self._hash = hash((self._n, tuple(items)))
        return self._hash

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        if not self._c:
            return "0"
        c = self.coeffs
        if self._n == 1:
            return str(c[0])
        terms = []
        for k in sorted(c):
            v = c[k]
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


def dot(xs, ys) -> Cyclotomic:
    """sum(x * y for x, y in zip(xs, ys)), reduced modulo Phi_N and
    canonicalized once, N the lcm of the conductors of the nonzero products."""
    terms = []
    n = d = 1
    for x, y in zip(xs, ys, strict=True):
        x, y = coerce(x), coerce(y)
        if x._c and y._c:
            terms.append((x, y))
            n = lcm(n, lcm(x._n, y._n))
            d = lcm(d, x._d * y._d)
    if not terms:
        return zero
    raw = [0] * n
    for x, y in terms:
        sx, sy = n // x._n, n // y._n
        scale = d // (x._d * y._d)
        lifted = [(ky * sy, vy) for ky, vy in y._c.items()]
        for kx, vx in x._c.items():
            ex, vx = kx * sx, vx * scale
            for ey, vy in lifted:
                e = ex + ey
                if e >= n:
                    e -= n
                raw[e] += vx * vy
    return _canonical(n, _reduce_dense(raw, n, euler_phi(n), _reduction_table(n)), d)


def _normalized(n: int, c: dict, d: int) -> Cyclotomic:
    """c / d at a conductor n known to be canonical for it; normalizes d."""
    if not c:
        return zero
    if d != 1:
        g = gcd(d, *c.values())
        if g != 1:
            d //= g
            c = {k: v // g for k, v in c.items()}
    return Cyclotomic(n, c, d, _canonical=True)


def coerce(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return rat(x)
    return NotImplemented


def rat(q) -> Cyclotomic:
    if not isinstance(q, int):
        q = Fraction(q)
        return Cyclotomic(1, {0: q.numerator} if q else {}, q.denominator, _canonical=True)
    return Cyclotomic(1, {0: int(q)} if q else {}, 1, _canonical=True)


zero = rat(0)
one = rat(1)


def zeta(n: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^k."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return _canonical(n, _reduce_map({k: 1}, n), 1)


def make(n: int, raw: dict) -> Cyclotomic:
    """Build sum of raw[k] * zeta_n^k in canonical reduced form."""
    if n < 1:
        raise ValueError("conductor must be positive")
    merged: dict = {}
    for k, v in raw.items():
        e = int(k) % n
        merged[e] = merged.get(e, 0) + Fraction(v)
    d = 1
    for v in merged.values():
        d = lcm(d, v.denominator)
    c = {k: int(v * d) for k, v in merged.items()}
    return _canonical(n, _reduce_map(c, n), d)


# -- textual literal format -------------------------------------------------


def to_literal(a: Cyclotomic):
    """Serialize: {"n": 12, "c": {"0": "1/2", "7": "-2"}}; rationals as "p/q" or "p"."""
    return {"n": a.conductor, "c": {str(k): str(v) for k, v in sorted(a.coeffs.items())}}


def integer(v) -> int:
    """The integer of a document field, an int or a decimal string; a float
    or a boolean, which int() would truncate or read as 0 and 1, raises."""
    if isinstance(v, (bool, float)):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def json_list(v) -> list:
    """A document field that must be a JSON list; anything else raises,
    a string above all, which iterating would read character by character."""
    if not isinstance(v, list):
        raise ValueError(f"expected a list, not {v!r}")
    return v


def from_literal(doc) -> Cyclotomic:
    """Parse the literal format; bare "p/q" strings and ints mean rationals.
    A malformed literal raises ValueError: a zero denominator, and a float
    or a boolean anywhere in it, which would otherwise be read as a binary
    approximation or as 0 and 1."""

    def exact(v):
        if isinstance(v, (bool, float)):
            raise ValueError(f"malformed cyclotomic literal: {doc!r}")
        return v

    try:
        if isinstance(doc, (int, str)):
            return rat(Fraction(exact(doc)))
        if not isinstance(doc, dict) or "n" not in doc or not isinstance(doc.get("c"), dict):
            raise ValueError(f"malformed cyclotomic literal: {doc!r}")
        return make(int(exact(doc["n"])),
                    {int(k): Fraction(exact(v)) for k, v in doc["c"].items()})
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in cyclotomic literal {doc!r}") from None
