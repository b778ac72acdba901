"""Relabelling invariance: a group document with its characters, its
non-identity classes, its generators or its parabolics listed in another
order, or with its generators written in another basis, describes the same
group, so its families, its blocks at every bad prime and its
decomposition columns are the same under the induced relabelling of the
characters.

A "first found" choice in the per-prime layer (the prime above p, the
minimal generators of the candidate monoid, the first lattice point) would
show here as an answer that depends on the order of the document."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from helpers import bad_primes_reference, group_to_doc
from hypothesis import given, settings, strategies as st

from heckefam.blocks import families, hecke_blocks
from heckefam.cyclotomic import dot, from_literal, to_literal
from heckefam.groups import _det, get_group, load_group
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


def reorder_generators(doc, perm):
    """The document with generator perm[j] listed in place j, and every
    class word and parabolic generator word spelled in the new numbering."""
    new = {old + 1: new + 1 for new, old in enumerate(perm)}

    def respell(word):
        return [new[g] for g in word]

    out = dict(doc)
    out["generators"] = [doc["generators"][old] for old in perm]
    out["classes"] = [{**c, "word": respell(c["word"])} for c in doc["classes"]]
    out["parabolics"] = [{**para, "generators": [respell(w) for w in para["generators"]]}
                         for para in doc["parabolics"]]
    return out


def conjugate_generators(doc, a):
    """The document with every generator g written as a g a^-1, for an
    invertible rational matrix a: the same group in another basis.  The
    inverse b is the adjugate of a over its determinant."""
    k, det = len(a), _det(a, Fraction(1))
    b = [[(-1) ** (i + j) * _det([row[:i] + row[i + 1:] for r, row in enumerate(a) if r != j],
                                 Fraction(1)) / det for j in range(k)] for i in range(k)]

    def conjugate(g):
        g = [[from_literal(v) for v in row] for row in g]
        ag = [[dot(a[i], [g[j][col] for j in range(k)]) for col in range(k)] for i in range(k)]
        return [[to_literal(dot(ag[i], [b[j][col] for j in range(k)])) for col in range(k)]
                for i in range(k)]

    return {**doc, "generators": [conjugate(g) for g in doc["generators"]]}


def reorders(k):
    """Permutations of range(k), other than the identity when k > 1."""
    return st.permutations(range(k)).filter(lambda p: k < 2 or p != sorted(p))


@st.composite
def bases(draw, k):
    """An invertible rational k x k matrix, not a scalar one when k > 1."""
    entry = st.fractions(-3, 3, max_denominator=3)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)
             .filter(lambda a: _det(a, Fraction(1)) != 0))
    if k > 1 and all(a[i][j] == (a[0][0] if i == j else 0) for i in range(k) for j in range(k)):
        a[0][1] = Fraction(1)
    return a


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=1, deadline=None)
@given(data=st.data())
def test_outputs_follow_generators_and_parabolics(name, data):
    """Reordered generators (words respelled), reordered parabolics and
    generators conjugated into another basis leave every output as it is."""
    W = get_group(name)
    doc = group_to_doc(W)
    want = outputs(W, range(W.n_irr))
    gens = data.draw(reorders(len(doc["generators"])), label="generators")
    assert outputs(load_group(reorder_generators(doc, gens)), range(W.n_irr)) == want, gens
    paras = data.draw(reorders(len(doc["parabolics"])), label="parabolics")
    reordered = {**doc, "parabolics": [doc["parabolics"][old] for old in paras]}
    assert outputs(load_group(reordered), range(W.n_irr)) == want, paras
    a = data.draw(bases(W.rank), label="basis")
    assert outputs(load_group(conjugate_generators(doc, a)), range(W.n_irr)) == want, a


def galois_twist(doc, j):
    """The document with sigma_j: zeta -> zeta^j applied to every literal (the
    generators, the character values and the coefficients of the fake
    degrees and Schur elements; y is fixed), and with each supplied
    induction matrix dropped: the catalog parabolic is not twisted, so
    fusion must recompute the matrix."""

    def twist(lit):
        v = from_literal(lit)
        return to_literal(v.galois(j % v.conductor))

    def twist_poly(f):
        return {**f, "terms": [[e, twist(v)] for e, v in f["terms"]]}

    out = dict(doc)
    out["generators"] = [[[twist(v) for v in row] for row in g] for g in doc["generators"]]
    out["characters"] = [{**ch, "values": [twist(v) for v in ch["values"]]}
                         for ch in doc["characters"]]
    for key in ("fake_degrees", "schur_elements"):
        out[key] = [twist_poly(f) for f in doc[key]]
    out["parabolics"] = [{k: v for k, v in para.items() if k != "induction_matrix"}
                         for para in doc["parabolics"]]
    return out


def document_conductor(W) -> int:
    """The lcm of the conductors of every literal of W's document."""
    values = [v for g in W.generators for row in g for v in row]
    values += [v for row in W.irr for v in row]
    values += [v for f in W.fake_degrees + W.schur_elements for v in f.coeffs.values()]
    return lcm(*(v.conductor for v in values))


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_outputs_are_galois_invariant(name, data):
    """sigma_j of the whole document is the same reflection group with the
    same Hecke data (sigma_j(c_chi) = c_{sigma_j(chi)} on every bundled
    group), so its families, blocks and columns agree with W's by index."""
    W = get_group(name)
    n = document_conductor(W)
    j = data.draw(st.sampled_from([u for u in range(1, n) if gcd(u, n) == 1]), label="unit")
    twisted = load_group(galois_twist(group_to_doc(W), j))
    assert outputs(twisted, range(W.n_irr)) == outputs(W, range(W.n_irr)), j


@pytest.mark.parametrize("name", GROUPS)
def test_bad_primes_match_per_element_norms(name):
    """The norms that `bad_primes` takes once per Galois orbit give the
    primes of one norm per Schur element on the reordered and on the
    twisted documents, whose scalars come in another order or conjugated."""
    W = get_group(name)
    doc = group_to_doc(W)
    n = document_conductor(W)
    docs = [shuffle_characters(doc, list(reversed(range(W.n_irr))))]
    docs += [galois_twist(doc, j) for j in range(2, n) if gcd(j, n) == 1]
    for twisted in map(load_group, docs):
        assert bad_primes(twisted) == bad_primes_reference(twisted) == bad_primes(W)
