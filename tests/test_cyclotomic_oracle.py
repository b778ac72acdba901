"""The integer cyclotomic core against the Fraction-based reference oracle.

`cyclotomic_reference.py` is the earlier implementation (Fraction
coefficients, Galois fixedness tests for every descent).  The conductors
drawn here reach every canonicalization branch: 19 (prime), 9 and 27
(p^2 | n), 15 and 21 (p || n), 24 (both), and inputs at 6, 10, 30 and 38,
which are congruent to 2 mod 4 and are never stored.
"""

from fractions import Fraction
from math import gcd, lcm

import cyclotomic_reference as ref
from hypothesis import given, settings, strategies as st

from heckefam.cyclotomic import (
    Cyclotomic,
    _descend_coprime,
    _descent_plan,
    _evaluation_powers,
    _reduce_map,
    _residue,
    dot,
    make,
    rat,
    zeta,
    zero,
)
from heckefam.ntheory import divisors, euler_phi, factorize
from heckefam.valuation import _completion, _digit_min_val, _ord_int, primes_above, val

CONDUCTORS = (19, 9, 27, 15, 21, 24, 6, 10, 30, 38)

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def raw_elements(draw, conductors=CONDUCTORS):
    """(n, raw): a raw coefficient dict at conductor n; half of the draws lie
    in the subfield Q(zeta_d) for a divisor d of n, so that they descend."""
    n = draw(st.sampled_from(conductors))
    step = n // draw(st.sampled_from(divisors(n))) if draw(st.booleans()) else 1
    size = draw(st.integers(0, 4))
    raw = {step * draw(st.integers(0, n // step - 1)): draw(small_rationals) for _ in range(size)}
    return n, raw


def pair(n, raw):
    return make(n, raw), ref.make(n, raw)


def assert_same(new: Cyclotomic, old):
    assert new.conductor == old.conductor, (new, old)
    assert new.coeffs == old.coeffs, (new, old)
    assert all(type(v) is Fraction for v in new.coeffs.values())
    assert hash(new) == hash(old)
    assert repr(new) == repr(old)
    assert new.denominator == old.denominator_lcm()


def old_int_coeffs(old):
    """The rescaling pass the valuation code used on Fraction coefficients."""
    q = old.denominator_lcm()
    return {k: int(v * q) for k, v in old.coeffs.items()}, q


def old_val(spec, old):
    """val() as computed from the rescaled Fraction coefficients."""
    coeffs, q = old_int_coeffs(old)
    comp = _completion(spec)
    L = 32
    while True:
        best = _digit_min_val(comp.image(coeffs, old.conductor, L), spec.e, spec.p, L)
        if best is not None:
            return best - spec.e * _ord_int(q, spec.p)
        L *= 2


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(raw_elements())
    def test_construction(self, x):
        a, A = pair(*x)
        assert_same(a, A)
        assert (a.numerators, a.denominator) == old_int_coeffs(A)

    def test_roots_of_unity(self):
        # every exponent class twice over, and negative exponents
        for n in CONDUCTORS:
            for k in range(-n, 2 * n):
                assert_same(zeta(n, k), ref.zeta(n, k))

    @settings(max_examples=40, deadline=None)
    @given(raw_elements(conductors=(24,)))
    def test_every_conjugate_at_the_drawn_conductor(self, x):
        # sigma_j for every unit j modulo 24, whatever the value's conductor
        a, A = pair(*x)
        for j in (1, 5, 7, 11, 13, 17, 19, 23):
            assert_same(a.galois(j), A.galois(j))

    @settings(max_examples=200, deadline=None)
    @given(raw_elements(), raw_elements())
    def test_ring_operations(self, x, y):
        (a, A), (b, B) = pair(*x), pair(*y)
        assert_same(a + b, A + B)
        assert_same(a - b, A - B)
        assert_same(a * b, A * B)
        assert_same(-a, -A)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(CONDUCTORS).flatmap(lambda n: st.tuples(
        raw_elements(conductors=(n,)), raw_elements(conductors=(n,)))))
    def test_same_conductor_operations(self, xy):
        (a, A), (b, B) = pair(*xy[0]), pair(*xy[1])
        assert_same(a + b, A + B)
        assert_same(a * b, A * B)
        # a value and a conjugate of it at the drawn conductor
        n = xy[0][0]
        j = next(j for j in range(2, n + 2) if gcd(j, n) == 1)
        if gcd(j, a.conductor) == 1:
            assert_same(a * a.galois(j), A * A.galois(j))
            assert_same(a + a.galois(j), A + A.galois(j))

    @settings(max_examples=150, deadline=None)
    @given(raw_elements(), raw_elements())
    def test_equality_iff_equal_hash_and_value(self, x, y):
        (a, A), (b, B) = pair(*x), pair(*y)
        assert (a == b) == (A == B)
        if a == b:
            assert hash(a) == hash(b)
        # equal value at a common conductor means equal element
        N = lcm(x[0], y[0])
        lift_a = make(N, {k * (N // x[0]): v for k, v in x[1].items()})
        assert lift_a == a

    @settings(max_examples=100, deadline=None)
    @given(raw_elements())
    def test_inverse_norm_galois(self, x):
        a, A = pair(*x)
        if a.is_zero():
            return
        inv = a.inverse()
        assert_same(inv, A.inverse())
        # the cache answers a value built again, as the same object
        assert make(*x).inverse() is inv
        assert a.norm() == A.norm()
        n = x[0]
        assert a.norm() ** (euler_phi(n) // euler_phi(a.conductor)) == A.norm(conductor=n)
        for j in range(1, a.conductor + 1):
            if gcd(j, a.conductor) == 1:
                assert_same(a.galois(j), A.galois(j))
        assert_same(a.conjugate(), A.conjugate())

    @settings(max_examples=60, deadline=None)
    @given(raw_elements(conductors=(9, 15, 19, 24, 30)))
    def test_valuation_at_primes_above_p(self, x):
        a, A = pair(*x)
        if a.is_zero():
            return
        n = x[0]
        for p in sorted(set(factorize(n)) | {2, 7}):
            for spec in primes_above(p, n):
                assert val(spec, a) == old_val(spec, A), (a, spec)


class TestCoprimeDescent:
    def test_split_test_is_exact_without_the_evaluation_check(self):
        # subfield values plus one monomial zeta_n^k: the monomial changes
        # exactly one group A_j, so every j is exercised, also j >= 2
        for n in (15, 21, 35):
            for p, split in _descent_plan(n):
                m, a, b, _check = split
                for sub in (zeta(m), 1 + 2 * zeta(m, 2) - zeta(m) / 3):
                    for k in range(-1, n):
                        x = sub if k < 0 else sub + zeta(n, k)
                        N = n // x.conductor
                        c = _reduce_map({e * N: v for e, v in x.numerators.items()}, n)
                        got = _descend_coprime(c, p, m, a, b)
                        if m % x.conductor:
                            assert got is None, (x, p)
                        else:
                            assert make(m, got) / x.denominator == x, (x, p)


# conductors of the fused dot product: Q, a prime, 4, both at once, and p || n
DOT_CONDUCTORS = (1, 3, 4, 12, 15, 30)


class TestDot:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(raw_elements(DOT_CONDUCTORS), raw_elements(DOT_CONDUCTORS)),
                    max_size=6))
    def test_against_products_and_reference(self, pairs):
        xs = [make(*x) for x, _y in pairs]
        ys = [make(*y) for _x, y in pairs]
        got = dot(xs, ys)
        assert got == sum((x * y for x, y in zip(xs, ys)), zero)
        want = sum((ref.make(*x) * ref.make(*y) for x, y in pairs), ref.zero)
        assert_same(got, want)

    def test_empty_zero_and_rational_entries(self):
        assert dot([], []) is zero
        assert dot([zero, zeta(3)], [zeta(5), zero]) is zero
        half = Fraction(1, 2)
        assert dot([2, half, zeta(4)], [zeta(3), zeta(3, 2), zeta(4)]) == (
            2 * zeta(3) + half * zeta(3, 2) - 1
        )
        # a sum that descends from conductor 15 to Q
        assert dot([zeta(15), -zeta(15)], [zeta(3) / 3, zeta(3) / 3]) == zero
        assert dot([zeta(5, k) for k in range(5)], [rat(1)] * 5) == zero


class TestResidue:
    @settings(max_examples=150, deadline=None)
    @given(raw_elements((1, 3, 4, 12, 15, 20)), raw_elements((1, 3, 4, 12, 15, 20)))
    def test_ring_map_on_the_lcm_field(self, x, y):
        # zeta_60 -> w is a ring map Z[zeta_60][1/d] -> F_l: it respects + and *
        a, b = make(*x), make(*y)
        ell = _evaluation_powers(60)[0]
        ra, rb = _residue(a, 60), _residue(b, 60)
        assert ra is not None and rb is not None
        assert _residue(a + b, 60) == (ra + rb) % ell
        assert _residue(a * b, 60) == ra * rb % ell
        assert _residue(a.conjugate(), 60) is not None

    def test_undefined_cases(self):
        ell, powers = _evaluation_powers(12)
        assert _residue(rat(Fraction(1, ell)), 12) is None
        assert _residue(zeta(5), 12) is None  # conductor 5 does not divide 12
        assert _residue(zeta(12), 12) == powers[1]
