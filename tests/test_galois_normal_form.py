"""The Galois normal form: conjugate polynomials pick one representative,
and an exact quotient of a rational dividend computed at it and carried
back by sigma_t is what the direct division gives.  Inverses, norms and
unit factorizations of conjugates agree with the references.  Real values
and rationals, which conjugation fixes, are drawn too.  A work guard pins
the divisions at representatives to the Galois orbits of I2(17) and
I2(19), the root searches and inverses of building them, and the
quotients D/c and the common multiples D that `families` adds on I2(17),
I2(19), I2(24) and I2(30)."""

from math import gcd, lcm

import cyclotomic_reference as ref
import pytest
from helpers import count_root_searches, from_roots, poly_divmod_reference, unit_part_uncached
from hypothesis import assume, given, settings, strategies as st

from heckefam import blocks, laurent
from heckefam.blocks import families
from heckefam.cyclotomic import (
    Cyclotomic,
    _conjugate_residue,
    _units,
    galois_normal_form,
    make,
    one,
    zeta,
)
from heckefam.groups import cyclic_group, dihedral_group, trivial_group
from heckefam.laurent import LaurentPoly, common_unit_multiple, factor_unit_part, poly_divexact
from heckefam.ntheory import euler_phi

CONDUCTORS = (5, 7, 8, 12, 15, 17, 20, 24)

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


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
    return n, draw(raw_values(n)), draw(st.sampled_from(_units(n)))


@st.composite
def polynomials(draw):
    """(n, f, u): a polynomial with coefficients in Q(zeta_n), at least one
    of them nonzero, and a unit u modulo n."""
    n = draw(st.sampled_from(CONDUCTORS))
    exponents = draw(st.sets(st.integers(-2, 4), min_size=1, max_size=3))
    coeffs = {e: make(n, draw(raw_values(n))) for e in exponents}
    assume(any(coeffs.values()))
    return n, LaurentPoly(coeffs), draw(st.sampled_from(_units(n)))


def values_of(f) -> list:
    """f's coefficients in ascending order of exponents."""
    return [c for _e, c in sorted(f.coeffs.items())]


def least_key_is_unique(v, n) -> bool:
    """Whether one conjugate of v alone has the least residue tuple; two
    different conjugates that tie may pick different representatives."""
    keys = {}
    for u in _units(n):
        w = v.galois(u)
        keys.setdefault(tuple(_conjugate_residue(c, n)(1) for c in values_of(w)), set()).add(w)
    return len(keys[min(keys)]) == 1


def conductor(v) -> int:
    return lcm(*(c.conductor for c in values_of(v)))


class TestRepresentative:
    @settings(max_examples=80, deadline=None)
    @given(conjugated())
    def test_conjugate_values_pick_one_representative(self, case):
        n, raw, u = case
        a = make(n, raw)
        assume(a)
        self.check(LaurentPoly({0: a}), u)

    @settings(max_examples=60, deadline=None)
    @given(polynomials())
    def test_conjugate_polynomials_pick_one_representative(self, case):
        _n, f, u = case
        self.check(f, u)

    @staticmethod
    def check(v, u):
        r, t = galois_normal_form(v)
        assert r.galois(t) == v
        assert galois_normal_form(r) == (r, 1)
        n = conductor(v)
        if least_key_is_unique(v, n):
            assert galois_normal_form(v.galois(u % n))[0] == r


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
        for v in _units(n):
            A = A * LaurentPoly({1: one, 0: -beta.galois(v % beta.conductor)})
        assume(A)
        assert A.conductor_lcm() == 1
        q, r = poly_divmod_reference(A.shift(max(k, 0)), B.shift(max(k, 0) - k))
        assert r.is_zero()
        want = q.shift(-k)
        for t in (1, u):
            assert poly_divexact(A, B.galois(t)) == want.galois(t)

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
        orbit = [f.galois(v) for v in _units(N)]
        D, quotients = common_unit_multiple(orbit)
        assert D.conductor_lcm() == 1
        for g, q in zip(orbit, quotients):
            assert q * g == D


class TestWorkGuard:
    """Building I2(n), n = 17 or 19, searches no roots, as `dihedral_schur`
    states every factorization, and divides at representatives only: three
    Molien divisions (the identity, every rotation class, the reflections)
    and three gate divisions (D/P, D/(y^-n P), and one for all the
    phi{2,j}, D = P the common unit multiple).  `dihedral_schur` builds its
    scalars in closed form, so the only inverses are the scalar of the
    phi{2,j} that the one gate division inverts and the rational -1.  The
    divisions and inverses are cache misses, so a change that stops the
    sharing raises them."""

    @pytest.mark.parametrize("n", [17, 19])
    def test_misses_are_the_orbit_counts(self, monkeypatch, n):
        trivial_group(), cyclic_group(2)  # the parabolic, built outside the count
        for cache in (factor_unit_part, Cyclotomic.inverse, laurent._divexact_at):
            cache.cache_clear()
        searches = count_root_searches(monkeypatch)
        dihedral_group.__wrapped__(n)
        assert (len(searches), laurent._divexact_at.cache_info().misses,
                Cyclotomic.inverse.cache_info().misses) == (0, 6, 2)

    @pytest.mark.parametrize("n, quotients", [(17, 1), (19, 1), (24, 11), (30, 11)])
    def test_families_adds_one_quotient_per_orbit(self, n, quotients):
        # the quotients D/c of the integrality lattices: on I2(17) and
        # I2(19) one for the whole orbit of the phi{2,j} at the one bad
        # prime; the misses are counted after the group is built
        trivial_group(), cyclic_group(2)
        for cache in (factor_unit_part, laurent._divexact_at, blocks._numerator_columns):
            cache.cache_clear()
        W = dihedral_group.__wrapped__(n)
        before = laurent._divexact_at.cache_info().misses
        families(W)
        assert laurent._divexact_at.cache_info().misses - before == quotients

    @pytest.mark.parametrize("n, lattices, numerators", [(17, 1, 1), (24, 8, 6), (30, 18, 16)])
    def test_families_builds_each_common_multiple_once(self, monkeypatch, n, lattices, numerators):
        # the numerators D/c do not depend on the prime, and the extra
        # linear characters of I2(24) and I2(30) have equal Schur elements,
        # so two supports that differ only there share their numerators
        trivial_group(), cyclic_group(2)
        W = dihedral_group.__wrapped__(n)
        blocks._numerator_columns.cache_clear()
        calls = []
        lattice = blocks._lattice
        monkeypatch.setattr(blocks, "_lattice", lambda *args: calls.append(args) or lattice(*args))
        families(W)
        assert (len(calls), blocks._numerator_columns.cache_info().misses) == (lattices, numerators)
