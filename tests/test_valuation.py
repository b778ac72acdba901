"""Prime ideals, certified valuations, Rouquier-ring membership."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from heckefam.cyclotomic import make, one, rat, zero, zeta
from heckefam.laurent import LaurentPoly, factor_unit_part
from heckefam.ntheory import cyclotomic_polynomial, divisors, euler_phi, factorize, prime_to_part
from heckefam.valuation import (
    INF,
    PrimeIdealSpec,
    _completion,
    integrality_conditions,
    laurent_content_val,
    primes_above,
    reduction,
    val,
    val_at_least,
)
from helpers import NO, UNSUPPORTED, YES, image_reference, in_ideal, laurent_content_val_reference

L = LaurentPoly.from_x_coeffs


def v_p(m: int, p: int) -> int:
    m, out = abs(m), 0
    while m % p == 0:
        m //= p
        out += 1
    return out


class TestPrimesAbove:
    def test_split_prime(self):
        specs = primes_above(7, 3)
        assert len(specs) == 2
        assert {s.factor for s in specs} == {(3, 1), (5, 1)}  # t-4 and t-2 mod 7
        assert all(s.e == 1 and s.f == 1 for s in specs)

    def test_ramified_prime(self):
        (s,) = primes_above(3, 3)
        assert s.e == 2 and s.f == 1

    def test_conductor_one(self):
        (s,) = primes_above(2, 1)
        assert s.e == 1 and s.f == 1

    def test_inert(self):
        (s,) = primes_above(2, 3)
        assert s.f == 2 and s.factor == (1, 1, 1)

    def test_not_prime_rejected(self):
        with pytest.raises(ValueError):
            primes_above(6, 5)

    @pytest.mark.parametrize("p,n", [(2, 15), (3, 20), (5, 12), (7, 9), (3, 9)])
    def test_efg_sums_to_phi(self, p, n):
        specs = primes_above(p, n)
        nprime, ppart = prime_to_part(n, p)
        assert sum(s.e * s.f for s in specs) == euler_phi(nprime) * euler_phi(ppart)
        assert all(s.e == euler_phi(ppart) for s in specs)

    def test_deterministic_order(self):
        a = primes_above(7, 3)
        b = primes_above(7, 3)
        assert list(a) == sorted(a, key=lambda s: s.factor) == list(b)


class TestVal:
    def test_totally_ramified(self):
        (s,) = primes_above(3, 3)
        assert val(s, 1 - zeta(3)) == 1
        assert val(s, 3) == 2

    def test_unramified(self):
        s = primes_above(7, 3)[0]
        assert val(s, 7) == 1

    def test_units(self):
        for s in primes_above(5, 12) + primes_above(2, 5):
            assert val(s, zeta(s.conductor)) == 0

    def test_zero(self):
        (s,) = primes_above(3, 3)
        assert val(s, 0) == INF

    def test_incompatible_conductor(self):
        (s,) = primes_above(3, 3)
        with pytest.raises(ValueError):
            val(s, zeta(5))

    def test_fraction_shift(self):
        (s,) = primes_above(3, 3)
        assert val(s, Fraction(1, 3)) == -2
        assert val(s, Fraction(5, 27)) == -6

    def test_val_at_least_agrees(self):
        (s,) = primes_above(3, 9)
        a = (1 - zeta(9)) ** 4
        v = val(s, a)
        assert val_at_least(s, a, v) and not val_at_least(s, a, v + 1)


@st.composite
def conductor12_elements(draw):
    size = draw(st.integers(1, 3))
    raw = {
        draw(st.integers(0, 11)): draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        for _ in range(size)
    }
    return make(12, raw)


class TestValProperties:
    @settings(max_examples=60, deadline=None)
    @given(conductor12_elements(), conductor12_elements())
    def test_additivity_and_ultrametric(self, a, b):
        for p in (2, 3):
            s = primes_above(p, 12)[0]
            va, vb = val(s, a), val(s, b)
            if not a.is_zero() and not b.is_zero():
                assert val(s, a * b) == va + vb
            assert val(s, a + b) >= min(va, vb)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((5, 8, 12, 15)).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.dictionaries(
                    st.integers(0, n - 1),
                    st.fractions(min_value=-6, max_value=6, max_denominator=10),
                    min_size=1,
                    max_size=4,
                ),
            )
        )
    )
    def test_valuations_sum_to_the_norm_valuation(self, x):
        # v_p(N(a)) = sum over the primes P above p of f_P * val_P(a)
        n, raw = x
        a = make(n, raw)
        if a.is_zero():
            return
        nrm = a.norm(conductor=n)
        for p in (2, 3, 5, 7, 11):
            want = v_p(nrm.numerator, p) - v_p(nrm.denominator, p)
            assert sum(s.f * val(s, a) for s in primes_above(p, n)) == want, (a, p)

    def test_galois_robustness(self):
        # answers at the two primes above 7 in Q(zeta_3) are exchanged by Galois
        s1, s2 = primes_above(7, 3)
        a = rat(2) - zeta(3)
        assert sorted([val(s1, a), val(s2, a)]) == sorted(
            [val(s2, a.galois(2)), val(s1, a.galois(2))]
        )


class TestOpMember:
    """Membership of num/den in O_p, `in_ideal(num, den, spec, 0)`."""

    def test_half_at_two(self):
        (p2,) = primes_above(2, 1)
        assert in_ideal(L([1]), L([2]), p2, 0) == NO

    def test_one_plus_x_over_one_minus_x(self):
        for spec in (primes_above(2, 1)[0], primes_above(3, 3)[0], primes_above(5, 5)[0]):
            assert in_ideal(L([1, 1]), L([1, -1]), spec, 0) == YES

    def test_golden_ratio_style_failure(self):
        (p5,) = primes_above(5, 5)
        sqrt5 = 1 + 2 * zeta(5) + 2 * zeta(5, 4)
        assert sqrt5 * sqrt5 == 5
        assert in_ideal(LaurentPoly.const(rat(5) - sqrt5), LaurentPoly.const(rat(10)), p5, 0) == NO
        assert val(p5, rat(5) - sqrt5) == 2 and val(p5, 10) == 4

    def test_non_unit_denominator_unsupported(self):
        (p2,) = primes_above(2, 1)
        assert in_ideal(L([1]), L([1, 2]), p2, 0) == UNSUPPORTED

    def test_denominator_with_roots_of_large_order(self):
        den = L(list(cyclotomic_polynomial(210)))
        for spec in (primes_above(2, 1)[0], primes_above(7, 105)[0]):
            assert in_ideal(L([1]), den, spec, 0) == YES

    def test_zero_numerator(self):
        (p2,) = primes_above(2, 1)
        assert in_ideal(LaurentPoly({}), L([2]), p2, 0) == YES

    def test_ring_closure(self):
        # yes-elements are closed under + and *, taken on the pairs
        (p3,) = primes_above(3, 3)
        z = zeta(3)
        elems = [
            (L([1, 1]), L([1, -1])),
            (LaurentPoly.const(z), L([1, 0, 1])),
            (LaurentPoly.const(rat(Fraction(1, 2))), L([1])),
            (LaurentPoly.const(1 - z), L([1, 1])),
        ]
        yes = [S for S in elems if in_ideal(*S, p3, 0) == YES]
        assert len(yes) >= 3
        for an, ad in yes:
            for bn, bd in yes:
                assert in_ideal(an * bd + bn * ad, ad * bd, p3, 0) == YES
                assert in_ideal(an * bn, ad * bd, p3, 0) == YES

    def test_unreduced_pair_decides_as_its_quotient(self):
        # (x - 1)/(3 (x - 1)) = 1/3: a common unit factor changes nothing
        (p3,) = primes_above(3, 3)
        assert in_ideal(L([-1, 1]), L([-3, 3]), p3, 0) == NO
        assert in_ideal(L([-3, 3]), L([-1, 1]) * L([1, 1, 1]), p3, 1) == YES


class TestGaloisRobustnessMembership:
    def test_membership_answers_permute_with_galois(self):
        # the two primes above 7 at conductor 3: applying the Galois twist to
        # the input swaps the per-prime yes/no pattern
        s1, s2 = primes_above(7, 3)
        z = zeta(3)
        num = LaurentPoly.const(one)
        for scalar in (rat(7) * (2 - z), (rat(2) - z) ** 2, rat(1) - 2 * z):
            S, T = LaurentPoly.const(scalar), LaurentPoly.const(scalar.galois(2))
            assert {in_ideal(num, S, s1, 0), in_ideal(num, S, s2, 0)} == {
                in_ideal(num, T, s1, 0),
                in_ideal(num, T, s2, 0),
            }
            assert in_ideal(num, S, s1, 0) == in_ideal(num, T, s2, 0)


def _mulmod(a, b, h, m):
    """a * b mod (h, m) for dense ascending lists, h monic."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    d = len(h) - 1
    for top in range(len(out) - 1, d - 1, -1):
        c = out[top]
        for k, hk in enumerate(h):
            out[top - d + k] -= c * hk
    return [x % m for x in out[:d]] + [0] * (d - len(out))


def _powmod(a, k, h, m):
    out = [1] + [0] * (len(h) - 2)
    while k:
        if k & 1:
            out = _mulmod(out, a, h, m)
        a, k = _mulmod(a, a, h, m), k >> 1
    return out


def bundled_specs():
    from heckefam.blocks import _prime
    from heckefam.groups import cyclic_group, dihedral_group, g4_group
    from heckefam.schur import bad_primes

    groups = [g4_group()] + [cyclic_group(d) for d in range(2, 13)]
    groups += [dihedral_group(n) for n in range(3, 31)]
    specs = {
        sp for W in groups for p in bad_primes(W) for sp in primes_above(p, _prime(W, p).conductor)
    }
    for p, n in ((2, 58), (2, 38), (3, 120), (7, 84)):
        specs.update(primes_above(p, n))
    return sorted(specs, key=repr)


class TestRootLift:
    """zeta_{n'} maps to the root tau of x^{n'} - 1 in (Z/p^L)[t]/(h) with
    tau = t (mod p); tau has order n' modulo p."""

    def test_root_of_unity_lifting_t(self):
        specs = bundled_specs()
        assert len(specs) > 40
        for spec in specs:
            comp = _completion(spec)
            p, h, nprime = spec.p, [c % spec.p for c in spec.factor], comp.nprime
            one_ = [1] + [0] * (spec.f - 1)
            t = _mulmod([0, 1], one_, h, p)
            for prec in (1, 2, 7, 32):
                tau = comp._root(prec)
                tau = tau + [0] * (spec.f - len(tau))
                assert _powmod(tau, nprime, h, p**prec) == one_, (spec, prec)
                assert [c % p for c in tau] == t, (spec, prec)
            for q in factorize(nprime):
                assert _powmod(tau, nprime // q, h, p) != one_, (spec, q)

    @pytest.mark.parametrize("spec", [
        PrimeIdealSpec(7, 3, (6, 1), 1, 1),  # t - 1 divides t^3 - 1 mod 7, not Phi_3
        PrimeIdealSpec(7, 3, (1, 1, 1), 1, 2),  # Phi_3 = (t - 2)(t - 4) mod 7
        PrimeIdealSpec(2, 12, (1, 1, 1), 1, 2),  # 2 ramifies in Q(zeta_4): e = 2
    ])
    def test_spec_that_is_not_a_prime_is_rejected(self, spec):
        with pytest.raises(ArithmeticError):
            val(spec, zeta(3))
        with pytest.raises(ArithmeticError):
            val_at_least(spec, 1 - zeta(3), 1)


@st.composite
def integral_pairs(draw):
    n = draw(st.sampled_from((12, 15, 24, 30)))
    coeffs = st.dictionaries(st.integers(0, n - 1), st.integers(-40, 40), max_size=5)
    return n, make(n, draw(coeffs)), make(n, draw(coeffs))


@st.composite
def conditions_problems(draw):
    """(spec, columns, bound, s): a prime above 2, 3 or 5 at conductor 12,
    15, 24 or 30, columns of values at conductors dividing it, with
    denominators and p-power factors, a bound and an integer vector."""
    n = draw(st.sampled_from((12, 15, 24, 30)))
    p = draw(st.sampled_from((2, 3, 5)))
    spec = draw(st.sampled_from(primes_above(p, n)))
    divisors = [d for d in range(1, n + 1) if n % d == 0]

    def value():
        d = draw(st.sampled_from(divisors))
        coeffs = draw(st.dictionaries(st.integers(0, d - 1), st.integers(-20, 20), max_size=4))
        scale = Fraction(p ** draw(st.integers(0, 2)), draw(st.sampled_from((1, 2, 3, 4, 5, 9, 25))))
        return make(d, coeffs) * scale

    k, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    columns = [[value() for _ in range(width)] for _ in range(k)]
    s = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    return spec, columns, draw(st.integers(-2, 4)), s


class TestIntegralityConditions:
    @settings(max_examples=200, deadline=None)
    @given(conditions_problems())
    def test_congruences_hold_exactly_when_every_entry_reaches_the_bound(self, problem):
        spec, columns, bound, s = problem
        rows, moduli = integrality_conditions(spec, columns, bound)
        holds = all(
            sum(si * row[j] for si, row in zip(s, rows)) % mod == 0
            for j, mod in enumerate(moduli)
        )
        entries = [
            sum((si * col[j] for si, col in zip(s, columns)), zero) for j in range(len(columns[0]))
        ]
        assert holds == (min(val(spec, x) for x in entries) >= bound), (spec, columns, bound, s)

    def test_incompatible_conductor(self):
        (spec,) = primes_above(3, 3)
        with pytest.raises(ValueError, match="incompatible"):
            integrality_conditions(spec, [[one], [zeta(5)]])


class TestReduction:
    """reduction is the residue map Z[zeta_n] -> O/P = F_p[t]/(h)."""

    @settings(max_examples=60, deadline=None)
    @given(integral_pairs())
    def test_ring_map_agreeing_with_val_at_least(self, x):
        n, a, b = x
        for p in (2, 3, 5):
            for spec in primes_above(p, n):
                h = [c % p for c in spec.factor]
                ra, rb = reduction(spec, a), reduction(spec, b)
                assert len(ra) == spec.f
                assert list(reduction(spec, a + b)) == [(x + y) % p for x, y in zip(ra, rb)]
                assert list(reduction(spec, a * b)) == _mulmod(list(ra), list(rb), h, p)
                assert (ra == rb) == val_at_least(spec, a - b, 1), (spec, a, b)
                assert reduction(spec, a + p * b) == ra

    def test_unit_and_integers(self):
        for spec in primes_above(5, 30):
            assert reduction(spec, one) == (1,) + (0,) * (spec.f - 1)
            assert reduction(spec, rat(7)) == reduction(spec, rat(2))

    def test_non_integral_value_is_rejected(self):
        # on every call: the cache keeps results, not exceptions
        (spec,) = primes_above(3, 3)
        for _ in range(3):
            with pytest.raises(ValueError, match="not an algebraic integer"):
                reduction(spec, zeta(3) / 2)


# (n, p) with ramified primes (e > 1), inert ones (f > 1), or both
CONTENT_CASES = ((9, 3), (8, 2), (5, 5), (5, 2), (7, 3), (15, 2), (15, 5), (12, 2), (12, 3))


@st.composite
def unit_shaped(draw):
    """(n, p, f): f = s y^k prod (y - omega)^m with s a nonzero value of
    Q(zeta_n) times p^i (1 - zeta_n)^j, i, j <= 2, and omega roots of unity
    of Q(zeta_n); 1 - zeta_n is a uniformizer when n is a power of p."""
    n, p = draw(st.sampled_from(CONTENT_CASES))
    roots = n if n % 2 == 0 else 2 * n  # the roots of unity of Q(zeta_n)
    raw = draw(st.dictionaries(
        st.integers(0, n - 1), st.fractions(min_value=-50, max_value=50, max_denominator=12),
        min_size=1, max_size=4))
    s = make(n, raw) * p ** draw(st.integers(0, 2)) * (1 - zeta(n)) ** draw(st.integers(0, 2))
    assume(not s.is_zero())
    f = LaurentPoly({draw(st.integers(-3, 3)): s})
    for _ in range(draw(st.integers(0, 3))):
        omega = zeta(roots, draw(st.integers(0, roots - 1)))
        f = f * LaurentPoly({1: one, 0: -omega}) ** draw(st.integers(1, 2))
    return n, p, f


class TestContent:
    """laurent_content_val reads a unit-shaped polynomial's content off its
    scalar, and agrees with the minimum over the coefficients; it raises on
    any other polynomial."""

    def test_cases_reach_ramified_and_inert_primes(self):
        specs = [s for n, p in CONTENT_CASES for s in primes_above(p, n)]
        assert any(s.e > 1 for s in specs) and any(s.f > 1 for s in specs)

    @settings(max_examples=100, deadline=None)
    @given(unit_shaped())
    def test_unit_shaped_agrees_with_the_coefficient_minimum(self, x):
        n, p, f = x
        assert factor_unit_part(f).is_unit()
        for spec in primes_above(p, n):
            assert laurent_content_val(f, spec) == laurent_content_val_reference(f, spec), spec

    def test_non_unit_polynomial(self):
        # 3 x^2 + 2 has no root of unity as a root; its content at 3 is 0,
        # though its lead coefficient has valuation 1 there, so reading the
        # content off the scalar would be wrong: it raises instead
        f = L([2, 0, 3])
        assert not factor_unit_part(f).is_unit()
        for p in (2, 3, 5):
            for spec in primes_above(p, 12):
                assert laurent_content_val_reference(f, spec) == 0
                with pytest.raises(ValueError, match="non-unit"):
                    laurent_content_val(f, spec)

    def test_incompatible_conductor(self):
        (spec,) = primes_above(2, 1)
        with pytest.raises(ValueError, match="incompatible"):
            laurent_content_val(LaurentPoly({1: one, 0: -zeta(5)}), spec)


class TestImage:
    """`_Completion.image` equals the e x f indexed updates it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(((2, 24), (3, 21), (19, 19))), st.sampled_from((1, 3, 32)), st.data())
    def test_matches_indexed_updates(self, case, precision, data):
        p, n = case
        spec = data.draw(st.sampled_from(primes_above(p, n)))
        conductor = data.draw(st.sampled_from(divisors(n)))
        coeffs = data.draw(st.dictionaries(
            st.integers(0, euler_phi(conductor) - 1), st.integers(-10**40, 10**40), max_size=8))
        comp = _completion(spec)
        assert (comp.image(coeffs, conductor, precision)
                == image_reference(comp, coeffs, conductor, precision))
