"""Quotients carried along the Galois action: `laurent.orbit_quotients`
divides once per orbit of the divisors under the generators sigma_u that
fix the dividend, and carries the rest as sigma_u(a/b) = a/sigma_u(b); each
quotient is what the direct long division gives.  Inverses, norms and unit
factorizations of conjugates agree with the references.  Real values and
rationals, which conjugation fixes, are drawn too.  A work guard pins the
long divisions of building I2(17) and I2(19) to their Galois orbits, with
the root searches and inverses of building them; `families` adds no long
division on I2(17), I2(19), I2(24) and I2(30)."""

from math import gcd, lcm

import cyclotomic_reference as ref
import pytest
from helpers import count_root_searches, from_roots, poly_divmod_reference, unit_part_uncached
from hypothesis import assume, given, settings, strategies as st

from heckefam import blocks, laurent, schur
from heckefam.blocks import families
from heckefam.cyclotomic import Cyclotomic, _unit_generators, make, one, rat, zeta
from heckefam.groups import cyclic_group, dihedral_group, trivial_group
from heckefam.laurent import (LaurentPoly, common_unit_multiple, factor_unit_part, orbit_quotients,
                              poly_divexact, poly_divmod)
from heckefam.ntheory import euler_phi

CONDUCTORS = (5, 7, 8, 12, 15, 17, 20, 24)

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def units(n: int) -> tuple:
    """The units modulo n in ascending order; (1,) for n = 1."""
    return tuple(u for u in range(1, n) if gcd(u, n) == 1) or (1,)


@st.composite
def raw_values(draw, n):
    """A raw coefficient dict at conductor n, and how it is shaped: as
    drawn, made real (fixed by complex conjugation), or rational."""
    raw = {draw(st.integers(0, n - 1)): draw(small) for _ in range(draw(st.integers(1, 4)))}
    shape = draw(st.sampled_from(("plain", "real", "rational")))
    if shape == "real":
        for k, v in list(raw.items()):
            raw[-k % n] = raw.get(-k % n, 0) + v
    elif shape == "rational":
        raw = {0: sum(raw.values())}
    return raw


@st.composite
def conjugated(draw):
    """(n, raw, u): a raw value at conductor n and a unit u modulo n."""
    n = draw(st.sampled_from(CONDUCTORS))
    return n, draw(raw_values(n)), draw(st.sampled_from(units(n)))


@st.composite
def polynomials(draw):
    """(n, f, u): a polynomial with coefficients in Q(zeta_n), at least one
    of them nonzero, and a unit u modulo n."""
    n = draw(st.sampled_from(CONDUCTORS))
    exponents = draw(st.sets(st.integers(-2, 4), min_size=1, max_size=3))
    coeffs = {e: make(n, draw(raw_values(n))) for e in exponents}
    assume(any(coeffs.values()))
    return n, LaurentPoly(coeffs), draw(st.sampled_from(units(n)))


@st.composite
def shared_quotients(draw):
    """(a, divisors): a = y R prod O, O the distinct conjugates under the
    powers of sigma_h of one or two linear polynomials y - beta, R a
    polynomial over Q or over Q(zeta_n); h is a generator of `_unit_generators` or
    any unit, so sigma_h fixes a when it fixes R, and a need not be
    rational then.  The divisors are
    drawn from O, y O and the constants, with repeats; half the time they
    are closed under sigma_h."""
    n = draw(st.sampled_from(CONDUCTORS))
    h = draw(st.one_of(st.sampled_from([g for g, _order in _unit_generators(n)]),
                       st.sampled_from(units(n))))
    orbit: list = []
    for _ in range(draw(st.integers(1, 2))):
        beta = make(n, draw(raw_values(n)))
        g = LaurentPoly({1: one, 0: -beta})
        while g not in orbit:
            orbit.append(g)
            g = g.galois(h)
    coefficient = small if draw(st.booleans()) else raw_values(n).map(lambda raw: make(n, raw))
    R = LaurentPoly(dict(enumerate(draw(st.lists(coefficient, min_size=1, max_size=3)))))
    assume(R)
    a = R.shift(1)
    for g in orbit:
        a = a * g
    pool = orbit + [g.shift(1) for g in orbit] + [LaurentPoly.const(rat(2)), LaurentPoly.const(one)]
    divisors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    if draw(st.booleans()):  # closed under sigma_h
        for b in list(divisors):
            g = b.galois(h)
            while g != b:
                divisors.append(g)
                g = g.galois(h)
        divisors = draw(st.permutations(divisors))
    return a, divisors


class TestOrbitQuotients:
    @settings(max_examples=60, deadline=None)
    @given(shared_quotients())
    def test_equal_to_direct_division(self, case):
        a, divisors = case
        for b, q in zip(divisors, orbit_quotients(a, divisors), strict=True):
            want, r = poly_divmod(a, b)
            assert r.is_zero()
            assert q == want

    def test_a_dividend_that_is_not_rational_shares_its_quotients(self, monkeypatch):
        # sigma_7 fixes zeta_3 and maps i = zeta_12^3 to -i, and 7 is a
        # generator of (Z/12)^*: the two quotients take one long division
        i, w = zeta(4), zeta(3)
        a = LaurentPoly({0: -w, 1: one}) * LaurentPoly({0: one, 2: one})
        assert 7 in [g for g, _order in _unit_generators(12)] and a.conductor_lcm() == 3
        calls = count_long_divisions(monkeypatch)
        quotients = orbit_quotients(a, [LaurentPoly({0: -i, 1: one}), LaurentPoly({0: i, 1: one}),
                                        LaurentPoly({0: -i, 1: one})])
        assert len(calls) == 1
        assert quotients[0] == quotients[2] == quotients[1].galois(7)


def count_long_divisions(monkeypatch) -> list:
    """The list that every later long division (`laurent.poly_divmod`)
    appends its operands to."""
    calls = []
    divmod_ = laurent.poly_divmod
    monkeypatch.setattr(laurent, "poly_divmod", lambda a, b: calls.append((a, b)) or divmod_(a, b))
    return calls


class TestCarriedValues:
    @settings(max_examples=80, deadline=None)
    @given(conjugated())
    def test_inverse_and_norm_agree_with_the_reference(self, case):
        n, raw, u = case
        a, old = make(n, raw), ref.make(n, raw)
        assume(a)
        for new, old in ((a, old), (a.galois(u % a.conductor), old.galois(u % old.conductor))):
            inv, want = new.inverse(), old.inverse()
            assert (inv.conductor, inv.coeffs) == (want.conductor, want.coeffs)
            assert new.norm() == old.norm()
            N = lcm(n, new.conductor)
            assert new.norm() ** (euler_phi(N) // euler_phi(new.conductor)) == old.norm(N)

    @settings(max_examples=50, deadline=None)
    @given(polynomials(), st.lists(
        st.tuples(st.integers(1, 12), st.integers(0, 11), st.integers(1, 2)), max_size=3))
    def test_factorization_of_a_conjugate_is_the_search_result(self, case, planted):
        # f times planted roots of unity, of orders that need not divide n
        n, f, u = case
        for m, j, mult in planted:
            f = f * from_roots([((m, j), mult)])
        N = f.conductor_lcm()
        t = next(s for s in range(u, u + n * N, n) if gcd(s, N) == 1)  # u lifted
        for g in (f, f.galois(t)):
            assert factor_unit_part(g) == unit_part_uncached(g), g

    @settings(max_examples=40, deadline=None)
    @given(conjugated(), st.integers(-2, 2), st.lists(small, min_size=1, max_size=3))
    def test_quotient_of_a_rational_dividend_by_a_conjugate(self, case, k, tail):
        # A = (prod over the units u of (y - sigma_u(beta))) R is rational
        # and divisible by every conjugate of B = (y - beta) y^k
        n, raw, u = case
        beta = make(n, raw)
        B = LaurentPoly({1: one, 0: -beta}).shift(k)
        A = LaurentPoly({i: c for i, c in enumerate(tail)})
        for v in units(n):
            A = A * LaurentPoly({1: one, 0: -beta.galois(v % beta.conductor)})
        assume(A)
        assert A.conductor_lcm() == 1
        q, r = poly_divmod_reference(A.shift(max(k, 0)), B.shift(max(k, 0) - k))
        assert r.is_zero()
        want = q.shift(-k)
        for t in (1, u):
            assert poly_divexact(A, B.galois(t)) == want.galois(t)
        assert orbit_quotients(A, [B, B.galois(u)]) == [want, want.galois(u)]

    @settings(max_examples=30, deadline=None)
    @given(conjugated(), st.integers(-2, 2),
           st.lists(st.tuples(st.sampled_from((1, 2, "n")), st.integers(0, 23)), max_size=2))
    def test_quotients_over_a_whole_orbit(self, case, k, planted):
        # the factorizations of every conjugate of f: their D is rational,
        # and each carried quotient times its f is D
        n, raw, _u = case
        s = make(n, raw)
        assume(s)
        planted = [(n if m == "n" else m, j) for m, j in planted]
        f = LaurentPoly({0: s}).shift(k)
        for m, j in planted:
            f = f * LaurentPoly({1: one, 0: -zeta(m, j)})
        N = lcm(n, *(m for m, _j in planted))
        orbit = [f.galois(v) for v in units(N)]
        D, quotients = common_unit_multiple(orbit)
        assert D.conductor_lcm() == 1
        for g, q in zip(orbit, quotients):
            assert q * g == D


class TestWorkGuard:
    """Building I2(n), n = 17 or 19, searches no roots, as `dihedral_schur`
    states every factorization, and takes one long division per Galois
    orbit: three Molien divisions (the identity, every rotation class, the
    reflections) and three gate divisions (D/P, D/(y^-n P), and one for
    all the phi{2,j}, D = P the common unit multiple).  `dihedral_schur`
    builds its scalars in closed form, so the only inverses are the scalar
    of the phi{2,j} that the one gate division inverts and the rational
    -1.  The lattices of `families` read the gate's quotients, kept with
    the group, so `families` then divides nothing and builds no common
    multiple.  A change that stops the sharing raises these counts."""

    @pytest.mark.parametrize("n", [17, 19])
    def test_misses_are_the_orbit_counts(self, monkeypatch, n):
        trivial_group(), cyclic_group(2)  # the parabolic, built outside the count
        for cache in (factor_unit_part, Cyclotomic.inverse):
            cache.cache_clear()
        searches = count_root_searches(monkeypatch)
        divisions = count_long_divisions(monkeypatch)
        dihedral_group.__wrapped__(n)
        assert (len(searches), len(divisions),
                Cyclotomic.inverse.cache_info().misses) == (0, 6, 2)

    @pytest.mark.parametrize("n", [17, 19, 24, 30])
    def test_families_adds_no_long_division(self, monkeypatch, n):
        # the numerators D/c of the integrality lattices are those of the
        # symmetrizing-form gate, kept per group when it is built
        trivial_group(), cyclic_group(2)
        factor_unit_part.cache_clear()
        W = dihedral_group.__wrapped__(n)
        divisions = count_long_divisions(monkeypatch)
        families(W)
        assert divisions == []

    @pytest.mark.parametrize("n, lattices", [(17, 1), (24, 8), (30, 18)])
    def test_families_builds_no_common_multiple(self, monkeypatch, n, lattices):
        # every lattice reads its window of the group's numerators, so no
        # support builds a common multiple of its own
        trivial_group(), cyclic_group(2)
        W = dihedral_group.__wrapped__(n)
        calls, multiples = [], []
        lattice = blocks._lattice
        monkeypatch.setattr(blocks, "_lattice", lambda *args: calls.append(args) or lattice(*args))
        for module in (laurent, schur):
            multiple = module.common_unit_multiple
            monkeypatch.setattr(module, "common_unit_multiple",
                                lambda polys, multiple=multiple: multiples.append(polys)
                                or multiple(polys))
        families(W)
        assert (len(calls), multiples) == (lattices, [])
