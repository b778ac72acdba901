"""Inductive constructible characters: minimal monoid generators of the
family-cut parabolic inductions, plus the special-character pairing check."""

from __future__ import annotations

from functools import cache

from .blocks import families, induced_cuts, monoid_minimal_generators
from .cyclotomic import zero
from .schur import compute_invariants


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


def construc_pairing_check(W, phi, part) -> bool:
    """Evaluate <phi, chi_s - sum_{chi in F} chi/f_chi> and compare with zero;
    chi_s is the unique special character of the family F."""
    recs = compute_invariants(W)
    specials = [i for i in part if recs[i].special]
    if len(specials) != 1:
        raise ValueError(
            f"{W.name}: family {tuple(part)} has {len(specials)} special characters"
        )
    s = specials[0]
    total = zero + phi[s]
    for i in part:
        if phi[i]:
            total = total - recs[i].f.inverse() * phi[i]
    return total == zero


def special_multiplicities(W) -> list[tuple]:
    """(constructible, family index, <phi, chi_s>) triples, reported because
    multiplicities above 1 occur and carry no normative behavior."""
    fam = families(W)
    recs = compute_invariants(W)
    out = []
    for phi in constructible_chars(W):
        support = [i for i, m in enumerate(phi) if m]
        pi = fam.part_of(support[0])
        part = fam.parts[pi]
        specials = [i for i in part if recs[i].special]
        mult = phi[specials[0]] if len(specials) == 1 else None
        out.append((phi, pi, mult))
    return out
