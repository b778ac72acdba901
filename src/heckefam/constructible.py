"""Inductive constructible characters: minimal monoid generators of the
family-cut parabolic inductions.  The special-character pairing check is a
test reference (`tests/helpers.py`)."""

from __future__ import annotations

from functools import cache

from .blocks import families, induced_cuts, monoid_minimal_generators


@cache
def constructible_chars(W) -> list[tuple]:
    """Constructible characters of W (the trivial character for the trivial
    group; otherwise the minimal generating set of the monoid spanned by all
    family projections of inductions of parabolic constructibles)."""
    if W.order == 1:
        return [(1,)]
    fam = families(W)
    if not fam.all_exact():
        raise ValueError(
            f"{W.name}: families are ambiguous; constructible characters undefined"
        )
    cands = set()
    for P in W.parabolics:
        cands |= induced_cuts(P, constructible_chars(P.subgroup), fam)
    return monoid_minimal_generators(cands)

