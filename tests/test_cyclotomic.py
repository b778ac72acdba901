"""Exact cyclotomic arithmetic: canonical forms, Galois action, norms."""

import cmath
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from heckefam.cyclotomic import (
    Cyclotomic,
    from_literal,
    make,
    one,
    rat,
    to_literal,
    zeta,
    zero,
)
from heckefam.ntheory import euler_phi


def approx(a: Cyclotomic) -> complex:
    """Floating-point value of the canonical form."""
    z = cmath.exp(2j * cmath.pi / a.conductor)
    return sum(complex(v) * z**k for k, v in a.coeffs.items())


def conjugates(a: Cyclotomic) -> list:
    """The Galois conjugates of a at its conductor."""
    n = a.conductor
    return [a.galois(j) for j in range(1, n + 1) if gcd(j, n) == 1]


def approx_eq(a: Cyclotomic, z: complex, tol=1e-12) -> bool:
    return abs(approx(a) - z) < tol


class TestConstruction:
    def test_zeta4_squared_is_minus_one(self):
        a = make(4, {2: 1})
        assert a == -1
        assert a.conductor == 1

    def test_sum_of_third_roots_vanishes(self):
        assert make(3, {0: 1, 1: 1, 2: 1}).is_zero()

    def test_zeta6_lives_at_conductor_3(self):
        a = make(6, {1: 1})
        assert a.conductor == 3
        assert a == -zeta(3, 2)
        assert approx_eq(a, cmath.exp(1j * cmath.pi / 3))

    def test_exponents_wrap_mod_n(self):
        assert make(5, {7: 1}) == zeta(5, 2)

    def test_zero_is_conductor_one_empty(self):
        z = make(12, {3: 0})
        assert z.conductor == 1 and z.coeffs == {}

    def test_conductor_is_minimal(self):
        # zeta_12^3 = i lives at conductor 4
        assert make(12, {3: 1}).conductor == 4
        # 2 mod 4 conductors are never stored
        assert zeta(10).conductor == 5
        assert zeta(30).conductor == 15


class TestRingOps:
    def test_product_of_one_minus_roots(self):
        z = zeta(3)
        assert (1 - z) * (1 - z**2) == 3

    def test_root_of_unity_inverse(self):
        assert zeta(5).inverse() == zeta(5, 4)

    def test_half_plus_i_sum(self):
        assert (rat(Fraction(1, 2)) + zeta(4)) + (rat(Fraction(1, 2)) - zeta(4)) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()

    def test_adding_zero_returns_the_other_operand(self):
        for a in (zeta(12, 7) * Fraction(3, 4) + 1, zeta(5), rat(Fraction(-5, 3)), zero):
            assert a + zero is a and zero + a is a
            assert a + 0 is a and 0 + a is a

    def test_mixed_conductor_lift(self):
        a = zeta(3) + zeta(4)
        assert a.conductor == 12
        assert approx_eq(a, cmath.exp(2j * cmath.pi / 3) + 1j)

    def test_pow(self):
        assert zeta(7) ** 7 == 1
        assert zeta(7) ** -1 == zeta(7, 6)


class TestGalois:
    def test_conjugates_of_zeta3(self):
        assert conjugates(zeta(3)) == [zeta(3), zeta(3, 2)]

    def test_conjugates_of_sqrt_minus_three(self):
        s = zeta(3) - zeta(3, 2)
        assert s * s == -3
        assert conjugates(s) == [s, -s]

    def test_norm_of_one_minus_zeta5(self):
        a = 1 - zeta(5)
        prod = one
        for c in conjugates(a):
            prod = prod * c
        assert prod == 5
        assert a.norm() == 5

    def test_norm_of_rational_at_conductor(self):
        assert rat(2).norm() ** euler_phi(3) == 4
        assert rat(2).norm() == 2

    def test_norm_of_unit(self):
        assert zeta(8).norm() == 1

    def test_galois_requires_coprime(self):
        with pytest.raises(ValueError):
            zeta(6).galois(3)  # conductor is 3; j=3 shares a factor


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def cyclotomics(draw, conductors=(1, 3, 4, 5, 8, 12, 19, 9, 27, 15, 21, 24, 6, 10, 30, 38)):
    n = draw(st.sampled_from(conductors))
    size = draw(st.integers(0, 3))
    raw = {
        draw(st.integers(0, n - 1)): draw(small_rationals) for _ in range(size)
    }
    return make(n, raw)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(cyclotomics(), cyclotomics(), cyclotomics())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == 0 and a * 1 == a and a + 0 == a

    @settings(max_examples=100, deadline=None)
    @given(cyclotomics(), cyclotomics())
    def test_equality_is_representation_equality(self, a, b):
        if a == b:
            assert a.conductor == b.conductor and a.coeffs == b.coeffs
            assert hash(a) == hash(b)
        elif a.conductor == b.conductor and a.coeffs == b.coeffs:
            assert a == b

    @settings(max_examples=60, deadline=None)
    @given(cyclotomics(), cyclotomics())
    def test_norm_is_multiplicative_at_common_conductor(self, a, b):
        from math import lcm

        n = lcm(a.conductor, b.conductor)

        def norm(v):  # the norm from Q(zeta_n)
            return v.norm() ** (euler_phi(n) // euler_phi(v.conductor))

        assert norm(a * b) == norm(a) * norm(b)

    @settings(max_examples=60, deadline=None)
    @given(cyclotomics())
    def test_characteristic_polynomial_is_rational(self, a):
        # coefficients of prod_sigma (t - sigma(a)) are rational: elementary
        # symmetric functions of the conjugates
        conj = conjugates(a)
        coeffs = [one]
        for c in conj:
            nxt = [zero] * (len(coeffs) + 1)
            for i, v in enumerate(coeffs):
                nxt[i] = nxt[i] + v
                nxt[i + 1] = nxt[i + 1] - v * c
            coeffs = nxt
        assert all(v.is_rational() for v in coeffs)

    @settings(max_examples=80, deadline=None)
    @given(cyclotomics(), cyclotomics())
    def test_numeric_oracle(self, a, b):
        # canonical reduction of sums and products preserves the complex value
        assert abs(approx(a + b) - (approx(a) + approx(b))) < 1e-9
        assert abs(approx(a * b) - approx(a) * approx(b)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(cyclotomics())
    def test_inverse(self, a):
        if not a.is_zero():
            inv = a.inverse()
            assert a * inv == 1
            assert inv.conductor == a.conductor
            assert inv.inverse() == a


class TestLiteral:
    def test_documented_example(self):
        lit = {"n": 12, "c": {"0": "1/2", "7": "-2"}}
        a = from_literal(lit)
        assert a == rat(Fraction(1, 2)) - 2 * zeta(12, 7)

    def test_round_trip(self):
        for a in (zeta(12, 7) * Fraction(3, 4) + 1, rat(Fraction(-5, 3)), zero):
            assert from_literal(to_literal(a)) == a

    def test_bare_string_is_rational(self):
        assert from_literal("3/4") == rat(Fraction(3, 4))
        assert from_literal(7) == 7

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            from_literal({"bad": 1})
