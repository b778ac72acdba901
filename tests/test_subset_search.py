"""The lattice subset search of heckefam.blocks against the exhaustive
product-order search it replaced (subset_search_reference.py), on random
digit matrices, prime-power moduli and boxes.  The bundled projectives are
compared in test_blocks.py."""

from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckefam.blocks as blocks
from heckefam.blocks import _box_points, _in_lattice, _kernel_hnf, find_integral_subvector
from subset_search_reference import find_integral_subvector as reference
from subset_search_reference import passes


@st.composite
def digit_problems(draw):
    """(rows, moduli, phi): a random test over the support of phi.  Half the
    time the last row is solved for so that phi passes, as a projective does."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    phi = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)))
    mults = [m for m in phi if m]
    moduli = [p ** draw(st.integers(0, 3)) for _ in range(draw(st.integers(0, 5)))]
    rows = [[draw(st.integers(0, p**3 - 1)) for _ in moduli] for _ in mults]
    if mults and mults[-1] % p and draw(st.booleans()):
        for j, mod in enumerate(moduli):
            partial = sum(m * row[j] for m, row in zip(mults, rows[:-1]))
            rows[-1][j] = -partial * pow(mults[-1], -1, mod) % mod
    return rows, moduli, phi


def _outcome(search):
    try:
        return search()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(digit_problems(), st.one_of(st.integers(1, 30), st.integers(31, 4000)))
def test_search_matches_reference(problem, budget):
    # a walk that fits in its budget gives the reference's answer; one cut
    # off gives the budget's error, which makes the verdict "unknown", and
    # never a proof.  The walk visits at most one node per prefix of the box.
    rows, moduli, phi = problem
    support = tuple(i for i, m in enumerate(phi) if m)
    hnf = _kernel_hnf(rows, moduli, len(support))
    with pytest.MonkeyPatch.context() as mp:
        # the lattice over the support of phi is that of (rows, moduli)
        mp.setattr(blocks, "_lattice", lambda W, spec, s: hnf if s == support else None)
        mp.setattr(blocks, "WALK_BUDGET", budget)
        got = _outcome(lambda: find_integral_subvector(None, None, phi))
    want = _outcome(lambda: reference(rows, moduli, phi))
    mults = [phi[i] for i in support]
    if budget >= sum(prod(m + 1 for m in mults[:c]) for c in range(1, len(mults) + 1)):
        assert got == want
    else:
        assert got in (want, f"the subset walk exceeds its budget of {budget} nodes")


@settings(max_examples=300, deadline=None)
@given(digit_problems())
def test_walk_yields_the_passing_vectors_in_product_order(problem):
    rows, moduli, phi = problem
    box = [m for m in phi if m]
    hnf = _kernel_hnf(rows, moduli, len(box))
    for c, row in enumerate(hnf):
        assert row[c] > 0 and not any(row[:c])
        assert all(0 <= above[c] < row[c] for above in hnf[:c])
    vectors = list(product(*(range(m + 1) for m in box)))
    assert list(_box_points(hnf, box)) == [s for s in vectors if passes(s, rows, moduli)]
    assert [_in_lattice(hnf, s) for s in vectors] == [passes(s, rows, moduli) for s in vectors]

