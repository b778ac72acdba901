"""Laurent polynomials, unit-part factorization, and common multiples of
unit-shaped polynomials."""

from fractions import Fraction
from math import gcd

import pytest
from helpers import eval_x, laurent_to_doc, poly_divmod_reference, reassemble, unit_part_uncached
from hypothesis import given, settings, strategies as st

from heckefam import laurent
from heckefam.cyclotomic import _evaluation_point, one, rat, zeta, zero
from heckefam.ntheory import cyclotomic_polynomial, euler_phi, orders_with_phi_at_most
from heckefam.laurent import (
    LaurentPoly,
    common_unit_multiple,
    derivative_at_one,
    factor_unit_part,
    laurent_from_doc,
    poly_divmod,
    unit_shaped,
)

L = LaurentPoly.from_x_coeffs


def z3_schur_pair():
    z = zeta(3)
    c1 = LaurentPoly({1: one, 0: -z}) * (1 - z**2)
    c2 = LaurentPoly({1: one, 0: -z**2}) * (1 - z)
    return c1.shift(-1), c2.shift(-1)


class TestCoefficients:
    """`const` and `==` check a coefficient as the constructor does, and warn
    of nothing: a value that `coerce` rejects is never tested for truth."""

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    @pytest.mark.parametrize("bad", [None, "a", 1.5])
    def test_const_rejects_what_the_constructor_rejects(self, bad):
        for build in (LaurentPoly.const, lambda v: LaurentPoly({0: v})):
            with pytest.raises(TypeError, match=f"bad coefficient {bad!r}"):
                build(bad)

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_a_non_coefficient_compares_unequal(self):
        f = LaurentPoly({0: one})
        assert (f == "a", f != "a", f == None, f == 1, f != one) == (  # noqa: E711
            False, True, False, True, False)


class TestRatfun:
    """Rational functions a/f with unit-shaped denominators f, held as the
    pair (a D/f, D), D the common unit multiple (`common_unit_multiple`)."""

    def test_cancellation(self):
        # the factor x - 1 that x - 1 and x^2 - 1 share enters D once
        a, b = L([-1, 1]), L([-1, 0, 1])
        D, (qa, qb) = common_unit_multiple([a, b])
        assert D == b and qa == L([1, 1]) and qb == L([1])

    def test_f_over_f(self):
        f = L([1, 1]) ** 2 * L([1, 1, 1]) * 3
        D, (q,) = common_unit_multiple([f.shift(-1)])
        assert f.shift(-1) * q == D and D == f * Fraction(1, 3)

    def test_z3_schur_sum_matches_pointwise_evaluation(self):
        c1, c2 = z3_schur_pair()
        D, (q1, q2) = common_unit_multiple([c1, c2])
        pt = rat(2)
        want = eval_x(c1, pt).inverse() + eval_x(c2, pt).inverse()
        assert eval_x(q1 + q2, pt) / eval_x(D, pt) == want

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            common_unit_multiple([LaurentPoly({})])

    def test_non_unit_denominator(self):
        with pytest.raises(ValueError, match="non-unit"):
            common_unit_multiple([L([1, 1]), L([1, 2])])


class TestDerivative:
    def test_fake_degree_example(self):
        assert derivative_at_one(L([0, 1, 0, 0, 1])) == 5

    def test_constant(self):
        assert derivative_at_one(L([1])) == 0

    def test_monomial(self):
        assert derivative_at_one(LaurentPoly.x_power(9)) == 9

    def test_fractional_exponent_rejected(self):
        f = LaurentPoly({1: one}, mu=2)  # a bare y with x = y^2
        with pytest.raises(ValueError):
            derivative_at_one(f)


class TestFactorUnitPart:
    def test_cyclotomic_factor(self):
        u = factor_unit_part(L([1, 1, 1]))
        assert u.scalar == one and u.y_power == 0
        assert sorted(str(w) for w, _ in u.unit_factors) == sorted(
            [str(zeta(3)), str(zeta(3, 2))]
        )
        assert u.non_unit == LaurentPoly.const(one)
        assert reassemble(u) == L([1, 1, 1])

    def test_scalar_monomial(self):
        u = factor_unit_part(L([0, 0, 3]))
        assert u.scalar == 3 and u.y_power == 2 and not u.unit_factors
        assert u.is_unit()

    def test_z5_schur_numerator(self):
        z = zeta(5)
        c = (LaurentPoly({1: one, 0: -z}) * (1 - z**2)).shift(-1)
        u = factor_unit_part(c)
        assert u.y_power == -1
        assert u.unit_factors == ((z, 1),)
        assert u.non_unit == LaurentPoly.const(one)
        assert reassemble(u) == c

    def test_non_unit_part_detected(self):
        u = factor_unit_part(L([1, 2]))  # 1 + 2x has root -1/2, not a root of unity
        assert not u.is_unit()
        assert reassemble(u) == L([1, 2])

    def test_multiplicity(self):
        f = L([1, 1]) * L([1, 1]) * L([3])
        u = factor_unit_part(f)
        assert u.unit_factors == ((-one, 2),) and u.scalar == 3

    def test_roots_of_every_admissible_order_are_found(self):
        # the roots of Phi_210 have order 210, far above its degree 48
        u = factor_unit_part(L(list(cyclotomic_polynomial(210))))
        assert u.is_unit() and len(u.unit_factors) == 48
        assert {w for w, _m in u.unit_factors} == {
            zeta(210, j) for j in range(210) if gcd(j, 210) == 1
        }

    @pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 5, 8, 12, 16, 24, 48, 60])
    def test_candidate_orders_are_every_order_of_small_phi(self, bound):
        # phi(m) >= sqrt(m) for m other than 2 and 6 bounds the search range
        want = tuple(m for m in range(1, max(6, bound**2) + 1) if euler_phi(m) <= bound)
        assert orders_with_phi_at_most(bound) == want


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def laurents(draw):
    size = draw(st.integers(1, 4))
    c = {draw(st.integers(-3, 5)): draw(coeffs) for _ in range(size)}
    return LaurentPoly(c)


# a unit-shaped polynomial s y^k prod (y - omega)^m, by (s, k, [(order, j, m)])
unit_shapes = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.integers(-3, 3),
    st.lists(st.tuples(st.integers(1, 8), st.integers(0, 7), st.integers(1, 2)), max_size=3),
)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(laurents(), unit_shapes), min_size=1, max_size=3))
    def test_ratfun_roundtrip(self, terms):
        # a/f as (a D/f, D): times f it is D a, and D is the product of each
        # omega to its largest multiplicity
        polys, most = [], {}
        for _a, (s, k, planted) in terms:
            f = LaurentPoly.const(s).shift(k)
            for m, j, mult in planted:
                f = f * LaurentPoly({1: one, 0: -zeta(m, j % m)}) ** mult
            polys.append(f)
            for omega, mult in factor_unit_part(f).unit_factors:
                most[omega] = max(most.get(omega, 0), mult)
        D, quotients = common_unit_multiple(polys)
        want = LaurentPoly.const(one)
        for omega, mult in most.items():
            want = want * LaurentPoly({1: one, 0: -omega}) ** mult
        assert D == want
        for (a, _shape), f, q in zip(terms, polys, quotients):
            assert a * q * f == D * a

    @settings(max_examples=40, deadline=None)
    @given(laurents())
    def test_factorization_reassembles(self, f):
        if f.is_zero():
            return
        u = factor_unit_part(f)
        assert reassemble(u) == f

    @settings(max_examples=40, deadline=None)
    @given(laurents(), st.integers(-6, 6))
    def test_shift_moves_only_the_y_power(self, f, k):
        if f.is_zero():
            return
        assert factor_unit_part(f.shift(k)) == factor_unit_part(f)._replace(
            y_power=factor_unit_part(f).y_power + k)


# a nonzero cyclotomic scalar: a small rational times a root of unity
scalars = st.builds(
    lambda q, n, k: q * zeta(n, k),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.sampled_from((1, 3, 4, 5, 12)),
    st.integers(0, 11),
)


@st.composite
def ordinary(draw, max_exp=7):
    """A polynomial with nonnegative exponents, gaps and cyclotomic coefficients."""
    size = draw(st.integers(1, 4))
    return LaurentPoly({draw(st.integers(0, max_exp)): draw(scalars) for _ in range(size)})


class TestDivmod:
    @settings(max_examples=80, deadline=None)
    @given(ordinary(), ordinary(max_exp=4))
    def test_division_identity(self, a, b):
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.max_exp() < b.max_exp()
        assert q.is_zero() or q.min_exp() >= 0

    def test_non_monic_divisor_with_gaps(self):
        b = LaurentPoly({0: rat(2), 3: zeta(3) / 5})
        a = b * LaurentPoly({0: zeta(4), 2: rat(7)}) + LaurentPoly({1: rat(1), 2: zeta(5)})
        q, r = poly_divmod(a, b)
        assert q == LaurentPoly({0: zeta(4), 2: rat(7)})
        assert r == LaurentPoly({1: rat(1), 2: zeta(5)})

    @settings(max_examples=80, deadline=None)
    @given(ordinary(), ordinary(max_exp=4), scalars.filter(lambda v: v != one),
           st.integers(0, 5))
    def test_non_monic_divisor_agrees_with_the_reference(self, a, b, lead, top):
        # the quotient is scaled by lead(b)^-1 once, not each coefficient as found
        b = b + LaurentPoly({b.max_exp() + top + 1: lead})
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.max_exp() < b.max_exp()
        assert (q, r) == poly_divmod_reference(a, b)

    def test_dividend_of_lower_degree(self):
        a, b = L([1, zeta(3)]), L([0, 0, 2])
        q, r = poly_divmod(a, b)
        assert q.is_zero() and r == a
        assert poly_divmod(LaurentPoly({}), b) == (LaurentPoly({}), LaurentPoly({}))


def schur_elements_of_bundled_groups():
    from heckefam.groups import cyclic_group, dihedral_group, g4_group

    groups = [g4_group()] + [cyclic_group(d) for d in range(2, 13)]
    groups += [dihedral_group(n) for n in range(3, 31)]
    return [c for W in groups for c in W.schur_elements]


class TestRootScreen:
    """The F_l screen of factor_unit_part only skips exact tests; it never
    decides that omega is a root."""

    def test_forced_miss_falls_back_to_exact(self, monkeypatch):
        cases = schur_elements_of_bundled_groups()
        screened = [factor_unit_part(c) for c in cases]
        # a screen whose residue is always 0 proves nothing: every candidate
        # is tested exactly
        monkeypatch.setattr(laurent, "_images", lambda a, n: [0] * len(a))
        for c, want in zip(cases, screened):
            assert unit_part_uncached(c) == want, c

    def test_denominator_divisible_by_the_screen_prime(self):
        ell = _evaluation_point(3)[0]
        f = L([1, 1, 1]) * Fraction(1, ell)  # (y - zeta_3)(y - zeta_3^2) / l
        assert laurent._images(f.dense(), 3) is None
        u = factor_unit_part(f)
        assert u.scalar == Fraction(1, ell) and u.is_unit()
        assert dict(u.unit_factors) == {zeta(3): 1, zeta(3, 2): 1}
        # no root of unity, and a denominator the screen cannot invert
        g = L([2, 0, 1]) * Fraction(1, ell)
        assert laurent._images(g.dense(), 3) is None
        assert factor_unit_part(g).unit_factors == ()

    @settings(max_examples=60, deadline=None)
    @given(
        scalars,
        st.integers(-3, 3),
        st.lists(st.tuples(st.integers(1, 12), st.integers(0, 11), st.integers(1, 2)), max_size=3),
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=3),
        st.integers(1, 3),
    )
    def test_planted_unit_factors_are_found(self, s, k, planted, tail, sign):
        # h = h0 + h1 y + ... with |h0| > |h1| + ...: every root of h has
        # absolute value above 1, so h has no root of unity
        h0 = sign * (sum(abs(c) for c in tail) + 1)
        h = L([h0, *tail])
        want: dict = {}
        f = (h * s).shift(k)
        for m, j, mult in planted:
            omega = zeta(m, j % m)
            want[omega] = want.get(omega, 0) + mult
            for _ in range(mult):
                f = f * LaurentPoly({1: one, 0: -omega})
        u = factor_unit_part(f)
        assert reassemble(u) == f
        assert dict(u.unit_factors) == want
        assert u.y_power == k and u.scalar == s * h0
        assert u.non_unit == h * Fraction(1, h0)


class TestUnitShaped:
    """A polynomial built from its roots (`unit_shaped`) is their product,
    whole Galois orbits entering as the integer Phi_m, and its recorded
    factorization is the root search's."""

    @settings(max_examples=60, deadline=None)
    @given(
        scalars,
        st.integers(-3, 3),
        st.dictionaries(st.tuples(st.integers(1, 12), st.integers(0, 11)), st.integers(1, 2),
                        max_size=6),
        st.sets(st.integers(1, 12), max_size=2),
    )
    def test_the_product_of_its_roots(self, s, k, roots, orbits):
        roots = {(m, j % m): mult for (m, j), mult in roots.items() if gcd(j % m, m) == 1}
        roots.update({(m, j): 2 for m in orbits for j in range(m) if gcd(j, m) == 1})
        f = unit_shaped(s, k, roots)
        want = LaurentPoly.const(s).shift(k)
        for (m, j), mult in roots.items():
            want = want * LaurentPoly({1: one, 0: -zeta(m, j)}) ** mult
        assert f == want
        assert factor_unit_part(f) == unit_part_uncached(f)

    @pytest.mark.parametrize("scalar, roots", [
        (1, {(4, 2): 1}), (1, {(3, 3): 1}), (1, {(3, 1): 0}), (0, {(3, 1): 1}),
    ])
    def test_rejects_what_is_not_a_factorization(self, scalar, roots):
        with pytest.raises(ValueError):
            unit_shaped(scalar, 0, roots)


class TestSerialization:
    def test_round_trip(self):
        f = LaurentPoly({-2: zeta(3), 0: rat(Fraction(1, 2)), 5: one})
        assert laurent_from_doc(laurent_to_doc(f)) == f

    def test_mu_preserved(self):
        f = LaurentPoly({1: one, 3: zeta(4)}, mu=2)
        doc = laurent_to_doc(f)
        assert doc["mu"] == 2
        assert laurent_from_doc(doc) == f
