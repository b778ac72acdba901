"""Helpers that only the tests use: partition comparisons, reassembly of a
unit-part factorization, serialization of a group to a format-1 document,
and restriction to a parabolic subgroup."""

from fractions import Fraction

from heckefam.cyclotomic import one, to_literal, zero
from heckefam.groups import enumerate_and_fuse
from heckefam.laurent import LaurentPoly, laurent_to_doc


def refines(partition, other) -> bool:
    """Whether every part of `partition` lies inside one part of `other`."""
    return all(len({other.part_of(ch) for ch in part}) == 1 for part in partition.parts)


def as_sets(partition) -> list:
    return [frozenset(p) for p in partition.parts]


def reassemble(u) -> LaurentPoly:
    """scalar * y^y_power * prod (y - omega)^m * non_unit of a UnitFactorization."""
    mu = u.non_unit.mu
    out = (u.non_unit * u.scalar).shift(u.y_power)
    for omega, mult in u.unit_factors:
        factor = LaurentPoly({1: one, 0: -omega}, mu)
        for _ in range(mult):
            out = out * factor
    return out


def group_to_doc(W) -> dict:
    """Serialize a GroupDatum to the external JSON schema (format 1)."""
    return {
        "format": 1,
        "name": W.name,
        "order": W.order,
        "mu": W.mu,
        "rank": W.rank,
        "degrees": list(W.degrees),
        "spetsial": W.spetsial,
        "generators": [[[to_literal(v) for v in row] for row in g] for g in W.generators],
        "classes": [{"size": size, "word": list(word)} for size, word in W.classes],
        "characters": [
            {"name": W.char_names[i], "values": [to_literal(v) for v in W.irr[i]]}
            for i in range(W.n_irr)
        ],
        "fake_degrees": [laurent_to_doc(f) for f in W.fake_degrees],
        "schur_elements": [laurent_to_doc(c) for c in W.schur_elements],
        "conj_perm": list(W.conj_perm),
        "det_index": W.det_index,
        "parabolics": [
            {
                "name": P.subgroup.name,
                "generators": [list(wd) for wd in P.generator_words],
                "induction_matrix": [list(row) for row in P.induction_matrix],
            }
            for P in W.parabolics
            if P.subgroup.order > 1
        ],
    }


def restrict(W, P, v) -> tuple:
    """Multiplicities of the restriction of the virtual character v of W to
    the parabolic P, from the character values on the fused classes."""
    sub = P.subgroup
    fusion = enumerate_and_fuse(W, P)
    values = [
        sum((m * W.irr[j][fusion[c]] for j, m in enumerate(v) if m), zero)
        for c in range(len(sub.classes))
    ]
    out = []
    for i in range(sub.n_irr):
        psi_bar = sub.irr[sub.conj_perm[i]]
        ip = sum(
            (values[c] * psi_bar[c] * size for c, (size, _w) in enumerate(sub.classes)), zero
        ) * Fraction(1, sub.order)
        out.append(int(ip.as_rational()))
    return tuple(out)
