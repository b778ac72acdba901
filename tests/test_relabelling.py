"""Relabelling invariance: a group document with its characters, or its
non-identity classes, listed in another order describes the same group,
so its families, its blocks at every bad prime and its decomposition
columns are the same under the induced relabelling of the characters.

A "first found" choice in the per-prime layer (the prime above p, the
minimal generators of the candidate monoid, the first lattice point) would
show here as an answer that depends on the order of the document."""

import pytest
from helpers import group_to_doc
from hypothesis import given, settings, strategies as st

from heckefam.blocks import families, hecke_blocks
from heckefam.groups import get_group, load_group
from heckefam.schur import bad_primes

GROUPS = ["G4", "Z6", "Z8"] + [f"I2.{n}" for n in (5, 12, 14, 20, 30)]


def outputs(W, label):
    """Families, and at every bad prime the blocks and the decomposition
    columns, with character i renamed label[i]: each partition a sorted list
    of (part, status), the columns a sorted list of (column, resolved)."""

    def parts(partition):
        return sorted((tuple(sorted(label[i] for i in part)), status)
                      for part, status in zip(partition.parts, partition.status))

    def column(col):
        out = [0] * len(col)
        for i, m in enumerate(col):
            out[label[i]] = m
        return tuple(out)

    per_prime = {}
    for p in sorted(bad_primes(W)):
        partition, decomp = hecke_blocks(W, p)
        per_prime[p] = (parts(partition),
                        sorted(zip(map(column, decomp.columns), decomp.resolved)))
    return parts(families(W)), per_prime


def shuffle_characters(doc, perm):
    """The document with character perm[j] listed in place j."""
    inv = {old: new for new, old in enumerate(perm)}
    out = dict(doc)
    for key in ("characters", "fake_degrees", "schur_elements"):
        out[key] = [doc[key][old] for old in perm]
    out["conj_perm"] = [inv[doc["conj_perm"][old]] for old in perm]
    out["det_index"] = inv[doc["det_index"]]
    out["parabolics"] = [
        {**para, "induction_matrix": [[row[old] for old in perm]
                                      for row in para["induction_matrix"]]}
        for para in doc["parabolics"]
    ]
    return out


def shuffle_classes(doc, perm):
    """The document with class perm[j] listed in place j; the identity class
    stays first, as the character degrees are read off it."""
    out = dict(doc)
    out["classes"] = [doc["classes"][old] for old in perm]
    out["characters"] = [{**ch, "values": [ch["values"][old] for old in perm]}
                         for ch in doc["characters"]]
    return out


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_outputs_follow_the_relabelling(name, data):
    W = get_group(name)
    doc = group_to_doc(W)
    want = outputs(W, range(W.n_irr))
    chars = data.draw(st.permutations(range(W.n_irr)), label="characters")
    shuffled = load_group(shuffle_characters(doc, chars))
    assert outputs(shuffled, chars) == want, chars
    classes = [0] + data.draw(st.permutations(range(1, len(W.classes))), label="classes")
    shuffled = load_group(shuffle_classes(doc, classes))
    assert outputs(shuffled, range(W.n_irr)) == want, classes
