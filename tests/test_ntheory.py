"""Number-theory helpers: the proven primality test, the cyclotomic
polynomials, the one join and the one orbit walk."""

from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from heckefam.ntheory import (PSI_13, cyclotomic_polynomial, divisors, euler_phi, is_prime, join,
                              orbit_walk, permutation)


def trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_the_product_over_the_divisors_is_x_n_minus_1(self):
        for n in range(1, 301):
            prod = [1]
            for d in divisors(n):
                prod = poly_mul(prod, cyclotomic_polynomial(d))
            assert prod == [-1] + [0] * (n - 1) + [1], n
            assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1

    def test_first_coefficient_outside_0_and_1(self):
        # Phi_105 is the least cyclotomic polynomial with a coefficient -2
        assert min(cyclotomic_polynomial(105)) == -2
        assert all(min(cyclotomic_polynomial(n)) >= -1 for n in range(1, 105))


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(-3, 200_000) if is_prime(n) != trial_division(n)] == []

    @pytest.mark.parametrize("n", [
        3_825_123_056_546_413_051,  # strong pseudoprime to the bases 2..23
        318_665_857_834_031_151_167_461,  # psi_12: to the bases 2..37
    ])
    def test_rejects_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    def test_large_primes_below_the_bound(self):
        assert is_prime(10**24 + 7) and is_prime(2**61 - 1)
        assert not is_prime((2**17 - 1) * (2**61 - 1))

    @pytest.mark.parametrize("n", [PSI_13, PSI_13 + 2, 2**89 - 1])
    def test_no_answer_at_or_above_the_bound(self, n):
        with pytest.raises(ValueError, match="too large for a proven primality test"):
            is_prime(n)


def closure(k: int, pieces) -> list[tuple]:
    """The parts of range(k) under the transitive closure of "in one piece"."""
    linked = [{i} for i in range(k)]
    for piece in pieces:
        for a in piece:
            linked[a] |= set(piece)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            grown = set().union(*(linked[j] for j in linked[i]))
            if grown != linked[i]:
                linked[i], changed = grown, True
    return sorted({tuple(sorted(s)) for s in linked})


class TestJoin:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.lists(st.integers(0, k - 1), max_size=4), max_size=8))))
    def test_equals_the_transitive_closure(self, case):
        k, pieces = case
        assert join(k, pieces) == closure(k, pieces)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(st.just(k), st.lists(
        st.lists(st.lists(st.integers(0, k - 1), max_size=4), max_size=4), max_size=4))))
    def test_rejoining_the_parts_adds_pieces(self, case):
        """Pieces given in batches: the join of the parts so far with the next
        batch is the join of every piece so far."""
        k, batches = case
        parts, seen = [], []
        for batch in batches:
            seen += batch
            parts = join(k, parts + batch)
            assert parts == closure(k, seen)


class TestOrbitWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.permutations(range(k)), max_size=3))))
    def test_walks_each_orbit_from_its_least_element(self, case):
        # the orbits are the closure of the pieces {x, perm[x]}; each element
        # comes once, the least of its orbit first, and every other one as
        # the image of one listed before it
        k, perms = case
        walk = orbit_walk(k, perms)
        assert sorted(x for x, _y, _g in walk) == list(range(k))
        orbits = closure(k, [(x, p[x]) for p in perms for x in range(k)])
        assert [x for x, y, _g in walk if y is None] == [orbit[0] for orbit in orbits]
        listed = set()
        for x, y, g in walk:
            assert y is None or (y in listed and perms[g][y] == x)
            listed.add(x)

    def test_permutation(self):
        assert permutation(["c", "a", "b"], ["a", "b", "c"]) == (2, 0, 1)
        assert permutation(["a", "a", "b"], ["a", "b", "c"]) is None
        assert permutation(["a", "b", "d"], ["a", "b", "c"]) is None
