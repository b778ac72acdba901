"""The block algorithm: coarse bounds, projective candidates, linking,
indecomposability proofs, per-prime blocks and families."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from helpers import YES, as_sets, in_ideal, refines, relative_trace_scalar, schur_sum

from heckefam.blocks import (
    EXACT,
    UPPER,
    BlockPartition,
    _bounded,
    _cuts,
    _defect_zero,
    _prime,
    coarse_partition,
    candidate_projectives,
    families,
    find_integral_subvector,
    group_p_blocks,
    hecke_blocks,
    indecomposability_check,
    monoid_minimal_generators,
)
from heckefam.groups import cyclic_group, dihedral_group, g4_group, get_group, trivial_group
from heckefam.cyclotomic import zero
from heckefam.laurent import LaurentPoly, common_unit_multiple, factor_unit_part, poly_divexact
from heckefam.ntheory import factorize, join as _join
from heckefam.schur import bad_primes, compute_invariants, a_plus_A
from heckefam.valuation import (
    integrality_conditions,
    primes_above,
    val_at_least,
)


# every bad prime of G4 and of I2(4..30); I2(3) has none
BUNDLED_BAD_PRIMES = [("G4", 2), ("G4", 3)] + [
    (f"I2.{n}", p) for n in range(4, 31) for p in factorize(n)
]

BUNDLED_GROUPS = ["1", "G4"] + [f"Z{d}" for d in range(2, 13)] + [f"I2.{n}" for n in range(3, 31)]


def names_partition(W, partition):
    return sorted(tuple(W.char_names[i] for i in part) for part in partition.parts)


def components(k, pieces):
    """Connected components of range(k) under "shares a piece", sorted."""
    label = list(range(k))
    for piece in pieces:
        for a in piece[1:]:
            old, new = label[a], label[piece[0]]
            label = [new if x == old else x for x in label]
    out = {}
    for i in range(k):
        out.setdefault(label[i], []).append(i)
    return sorted(tuple(g) for g in out.values())


def numerators_of(W, support):
    """D/c_i for i in the support, D the common unit multiple."""
    return common_unit_multiple([W.schur_elements[i] for i in support])[1]


def digit_conditions(W, p, support):
    """The (rows, moduli) whose kernel `_lattice` builds: the digit
    conditions on the coefficients of the tester numerators."""
    numerators = numerators_of(W, support)
    slots = sorted({e for npoly in numerators for e in npoly.coeffs})
    columns = [[npoly.coeffs.get(e, zero) for e in slots] for npoly in numerators]
    return integrality_conditions(_prime(W, p), columns)


def pairwise_p_blocks(W, p):
    """The p-block definition that group_p_blocks replaced: characters
    linked when val(omega_i(C) - omega_j(C)) >= 1 on every class, tested
    pair by pair."""
    spec = _prime(W, p)
    k = W.n_irr
    omegas = [
        [W.irr[i][ci] * Fraction(size, W.char_degree(i)) for ci, (size, _w) in enumerate(W.classes)]
        for i in range(k)
    ]
    linked = [
        (i, j) for i in range(k) for j in range(i + 1, k)
        if all(val_at_least(spec, x - y, 1) for x, y in zip(omegas[i], omegas[j]))
    ]
    return components(k, linked)


def two_join_families(W):
    """The family partition as computed before the one-join rule: one join
    of every per-prime part, one of the linking closures of the resolved
    columns within each part, a family exact when it is a part of both."""
    k, upper, lower = W.n_irr, [], []
    for p in sorted(bad_primes(W)):
        partition, decomp = hecke_blocks(W, p)
        upper += partition.parts
        for col, res in zip(decomp.columns, decomp.resolved):
            if res:
                by_part = {}
                for i, m in enumerate(col):
                    if m:
                        by_part.setdefault(partition.part_of(i), []).append(i)
                lower += by_part.values()
    parts, proven = components(k, upper), set(components(k, lower))
    return parts, [EXACT if part in proven else UPPER for part in parts]


class TestGroupPBlocks:
    def test_s3_at_3(self):
        W = dihedral_group(3)
        assert group_p_blocks(W, 3).parts == (tuple(range(3)),)

    def test_s3_at_2(self):
        W = dihedral_group(3)
        pb = group_p_blocks(W, 2)
        assert names_partition(W, pb) == [("phi{1,0}", "phi{1,3}"), ("phi{2,1}",)]

    def test_good_prime_all_singletons(self):
        for W in (dihedral_group(5), g4_group()):
            pb = group_p_blocks(W, 7)
            assert all(len(p) == 1 for p in pb.parts)

    @pytest.mark.parametrize("name", [n for n in BUNDLED_GROUPS if n != "1"])
    def test_fibres_match_pairwise_congruence(self, name):
        W = get_group(name)
        for p in sorted(bad_primes(W) | {7, 11}):
            assert list(group_p_blocks(W, p).parts) == pairwise_p_blocks(W, p), p

    def test_non_integral_central_character_is_rejected(self, monkeypatch):
        # no group has this table: omega(C) = 1/2 on the second class
        import heckefam.blocks as blocks

        class Fake(SimpleNamespace):
            # hashable by identity, as a group datum is a per-group cache key
            __hash__ = object.__hash__

        W = cyclic_group(2)
        fake = Fake(
            n_irr=2, classes=W.classes, char_degree=lambda i: 1,
            irr=(W.irr[0], (W.irr[1][0], W.irr[1][1] * Fraction(1, 2))),
        )
        monkeypatch.setattr(blocks, "_prime", lambda W, p: primes_above(2, 1)[0])
        with pytest.raises(ValueError, match="not an algebraic integer"):
            group_p_blocks(fake, 2)


class TestCoarse:
    def test_g4_p3(self):
        W = g4_group()
        c = coarse_partition(W, 3)
        assert names_partition(W, c) == [
            ("phi{1,0}",),
            ("phi{1,4}", "phi{1,8}"),
            ("phi{2,1}", "phi{2,3}"),
            ("phi{2,5}",),
            ("phi{3,2}",),
        ]
        # defect-0 singletons are exact
        for part, status in zip(c.parts, c.status):
            if part in ((W.char_index("phi{1,0}"),), (W.char_index("phi{3,2}"),),
                        (W.char_index("phi{2,5}"),)):
                assert status == EXACT

    def test_g4_p2_pair_splits(self):
        W = g4_group()
        c = coarse_partition(W, 2)
        # f of the phi{2,1}/phi{2,3} pair has norm 3: prime to 2, split exact
        parts = names_partition(W, c)
        assert ("phi{2,1}",) in parts and ("phi{2,3}",) in parts
        assert ("phi{1,4}", "phi{1,8}", "phi{2,5}") in parts

    def test_i25_p5(self):
        W = dihedral_group(5)
        c = coarse_partition(W, 5)
        assert names_partition(W, c) == [
            ("phi{1,0}",), ("phi{1,5}",), ("phi{2,1}", "phi{2,2}"),
        ]

    @pytest.mark.parametrize("name", BUNDLED_GROUPS)
    def test_exact_exactly_on_singletons(self, name):
        # the status rule that the one-join rewrite replaced differs only on
        # a singleton that is not defect zero but shares its (p-block,
        # central exponent) key with a defect-zero character
        W = get_group(name)
        for p in sorted(bad_primes(W)):
            defect_zero, c = _defect_zero(W, _prime(W, p)), coarse_partition(W, p)
            pb, records = group_p_blocks(W, p), compute_invariants(W)
            key = lambda i: (pb.part_of(i), a_plus_A(W, i, records))
            for part, status in zip(c.parts, c.status):
                assert status == (EXACT if len(part) == 1 else UPPER), (p, part)
                if len(part) == 1 and not defect_zero[part[0]]:
                    same_key = [i for i in range(W.n_irr) if key(i) == key(part[0])]
                    assert same_key == list(part), (p, part)

    def test_upper_bound_contains_true_blocks(self):
        # coarse must be refined by the final exact partition
        for W, p in ((g4_group(), 2), (g4_group(), 3), (dihedral_group(6), 2)):
            coarse = coarse_partition(W, p)
            final, _ = hecke_blocks(W, p)
            assert refines(final, coarse) or final.parts == coarse.parts


class TestMonoid:
    def test_basis_absorbs_sum(self):
        assert monoid_minimal_generators([(1, 0), (0, 1), (1, 1)]) == [(0, 1), (1, 0)]

    def test_coprime_multiples_kept(self):
        assert monoid_minimal_generators([(2,), (3,)]) == [(2,), (3,)]

    def test_sum_decomposition(self):
        got = monoid_minimal_generators([(1, 1, 0), (0, 1, 1), (1, 2, 1)])
        assert got == [(0, 1, 1), (1, 1, 0)]

    def test_duplicates_collapse(self):
        assert monoid_minimal_generators([(1, 0), (1, 0)]) == [(1, 0)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            monoid_minimal_generators([(1, -1)])


class TestCandidates:
    def test_i25_p5(self):
        W = dihedral_group(5)
        part = coarse_partition(W, 5)
        cands = candidate_projectives(W, 5, part)
        assert (1, 0, 0, 0) in cands  # trivial cut / defect 0
        assert (0, 0, 1, 1) in cands  # rho1 + rho2
        assert all(not (c[0] and c[2]) for c in cands)  # cuts respect parts

    def test_g4_p3_supports(self):
        W = g4_group()
        part = coarse_partition(W, 3)
        cands = candidate_projectives(W, 3, part)
        supports = {tuple(i for i, m in enumerate(c) if m) for c in cands}
        assert (W.char_index("phi{2,1}"), W.char_index("phi{2,3}")) in supports
        assert (W.char_index("phi{1,4}"), W.char_index("phi{1,8}")) in supports

    def test_good_prime_unit_vectors(self):
        W = dihedral_group(5)
        part = coarse_partition(W, 7)
        cands = candidate_projectives(W, 7, part)
        assert sorted(cands) == [
            tuple(int(i == j) for i in range(4)) for j in range(3, -1, -1)
        ][::-1] or all(sum(c) == 1 for c in cands)


class TestLinking:
    """Step (3), the linking closure: the join of the column cuts within the
    parts, which `_bounded` takes as its lower pieces."""

    def test_chains_link(self):
        part = BlockPartition([(0, 1, 2)], [UPPER])
        assert _join(3, _cuts(part, [(1, 1, 0), (0, 1, 1)])) == [(0, 1, 2)]

    def test_disjoint_supports_split(self):
        part = BlockPartition([(0, 1, 2, 3)], [UPPER])
        assert _join(4, _cuts(part, [(1, 1, 0, 0), (0, 0, 1, 1)])) == [(0, 1), (2, 3)]

    def test_g4_p3_keeps_parts(self):
        W = g4_group()
        part, decomp = hecke_blocks(W, 3)
        assert _join(W.n_irr, _cuts(part, decomp.columns)) == list(part.parts)

    def test_output_refines_input(self):
        part = BlockPartition([(0, 1), (2, 3, 4)], [UPPER, UPPER])
        linked = _join(5, _cuts(part, [(1, 1, 0, 0, 0), (0, 0, 1, 0, 1)]))
        assert refines(BlockPartition(linked, [UPPER] * len(linked)), part)


class TestIndecomposability:
    def test_i25_middle_column(self):
        W = dihedral_group(5)
        verdict, _ = indecomposability_check((0, 0, 1, 1), W, 5)
        assert verdict == "indecomposable"

    def test_defect_zero_singleton(self):
        W = g4_group()
        verdict, _ = indecomposability_check(
            tuple(int(i == W.char_index("phi{3,2}")) for i in range(7)), W, 3
        )
        assert verdict == "indecomposable"

    def test_doubled_defect_zero_splits(self):
        W = g4_group()
        phi = tuple(2 * int(i == W.char_index("phi{3,2}")) for i in range(7))
        verdict, detail = indecomposability_check(phi, W, 3)
        assert verdict == "splittable"
        assert detail[0] == tuple(int(i == W.char_index("phi{3,2}")) for i in range(7))

    def test_subset_search_streams_chunks_in_product_order(self, monkeypatch):
        # the first proper point of a lattice lies deep in the box: 557 of
        # the 1,672 vectors of [0, (75, 21)] come before (25, 7) in product
        # order, and the walk reaches it without testing them
        from itertools import product

        import heckefam.blocks as blocks
        from heckefam.blocks import _box_points, _in_lattice

        W = dihedral_group(5)
        hnf = [[25, 7], [0, 100]]
        box = (75, 21)
        monkeypatch.setattr(blocks, "_lattice", lambda W, spec, support: hnf)
        points = [s for s in product(*(range(m + 1) for m in box)) if _in_lattice(hnf, s)]
        assert list(_box_points(hnf, box)) == points == [(0, 0), (25, 7), (50, 14), (75, 21)]
        assert find_integral_subvector(W, _prime(W, 5), (0, 0, 75, 21)) == (0, 0, 25, 7)

    @pytest.mark.parametrize("name, p", BUNDLED_BAD_PRIMES)
    def test_half_search_matches_full_search(self, name, p):
        # the lattice search against the exhaustive product-order search
        # that it replaced (tests/subset_search_reference.py), on each
        # column, twice and three times it, each pairwise sum, and the column
        # plus one more of its first character, up to weight 14
        from subset_search_reference import find_integral_subvector as reference

        W = get_group(name)
        assert p in bad_primes(W)
        spec = _prime(W, p)
        columns = hecke_blocks(W, p)[1].columns
        cases = set()
        for col in columns:
            cases.update([col, tuple(2 * m for m in col), tuple(3 * m for m in col)])
            first = next(i for i, m in enumerate(col) if m)
            cases.add(tuple(m + (i == first) for i, m in enumerate(col)))
        cases.update(tuple(map(sum, zip(a, b))) for a in columns for b in columns if a < b)
        outcomes = set()
        for phi in sorted(phi for phi in cases if sum(phi) <= 14):
            support = tuple(i for i, m in enumerate(phi) if m)
            rows, moduli = digit_conditions(W, p, support)
            outcome = []
            for search in (lambda: reference(rows, moduli, phi),
                           lambda: find_integral_subvector(W, spec, phi)):
                try:
                    outcome.append(search())
                except ValueError as exc:
                    outcome.append(str(exc))
            assert outcome[0] == outcome[1], phi
            outcomes.add("proof" if outcome[0] is None else type(outcome[0]).__name__)
        assert {"proof", "tuple"} <= outcomes

    def test_phi_failing_its_own_test_is_not_proved(self, monkeypatch):
        import heckefam.blocks as blocks

        W = dihedral_group(5)
        # a lattice without phi = (2, 3) and without any of its subvectors
        monkeypatch.setattr(blocks, "_lattice", lambda W, spec, support: [[4, 0], [0, 4]])
        with pytest.raises(ValueError, match="fails the integrality test"):
            find_integral_subvector(W, _prime(W, 5), (0, 0, 2, 3))
        verdict, reason = indecomposability_check((0, 0, 2, 3), W, 5)
        assert verdict == "unknown" and "integrality" in reason

    def test_phi_itself_is_tested_past_the_int64_bound(self, monkeypatch):
        # 1 + (5^45 - 1) vanishes modulo 5^45 but not modulo 5^46, so phi =
        # (1, 1) passes the first test and fails the second; both are
        # decided exactly, far past any machine-word modulus
        import heckefam.blocks as blocks
        from heckefam.blocks import _kernel_hnf

        W = dihedral_group(5)
        rows = [[1], [5**45 - 1]]
        hnf = _kernel_hnf(rows, [5**45], 2)
        monkeypatch.setattr(blocks, "_lattice", lambda W, spec, support: hnf)
        assert indecomposability_check((0, 0, 1, 1), W, 5) == ("indecomposable", None)
        hnf = _kernel_hnf(rows, [5**46], 2)
        verdict, reason = indecomposability_check((0, 0, 1, 1), W, 5)
        assert verdict == "unknown" and "fails the integrality test" in reason

    def test_weight_cap(self):
        W = dihedral_group(5)
        verdict, reason = indecomposability_check((0, 0, 30, 30), W, 5)
        assert verdict == "unknown" and "cap" in reason

    @pytest.mark.parametrize("ord_M, modulus", [(40, "5^42"), (25, "5^27")])
    def test_int64_overflow_degrades_to_unknown(self, monkeypatch, ord_M, modulus):
        # a large common denominator forces the subset test modulo 5^L, past
        # int64 (5^42) or past it once a subset of weight 2 is summed (5^27):
        # the verdict is the exhaustive reference's, decided in Python
        # integers, and the lattice holds exactly the vectors that pass
        from itertools import product

        import heckefam.blocks as blocks
        import heckefam.valuation as valuation
        from subset_search_reference import find_integral_subvector as reference
        from subset_search_reference import passes

        W = dihedral_group(5)
        # the lattice is built afresh, past the cache
        monkeypatch.setattr(blocks, "_lattice", blocks._lattice.__wrapped__)
        monkeypatch.setattr(valuation, "_ord_int", lambda q, p: ord_M)
        phi = (1, 1, 1, 1)
        rows, moduli = digit_conditions(W, 5, (0, 1, 2, 3))
        assert set(moduli) == {5**ord_M}
        try:
            sub = reference(rows, moduli, phi)
            want = "indecomposable" if sub is None else "splittable"
        except ValueError:
            want = "unknown"
        verdict, reason = indecomposability_check(phi, W, 5)
        assert verdict == want
        assert reason is None or "int64" not in str(reason)
        hnf = blocks._lattice(W, _prime(W, 5), (0, 1, 2, 3))
        for s in product(range(3), repeat=4):
            assert blocks._in_lattice(hnf, s) == passes(s, rows, moduli), s


class TestTesterNumerators:
    @pytest.mark.parametrize("name, p", [("G4", 2), ("G4", 3), ("I2.5", 5), ("I2.12", 2), ("I2.12", 3)])
    def test_built_from_factors_equal_long_division(self, name, p):
        W = get_group(name)
        assert p in bad_primes(W)
        _, decomp = hecke_blocks(W, p)
        supports = {tuple(i for i, m in enumerate(col) if m) for col in decomp.columns}
        supports.add(tuple(range(W.n_irr)))
        mu = W.schur_elements[0].mu
        for support in sorted(supports):
            # reference: multiply out D = prod (y - omega)^max, divide by each c_i
            maxmult = {}
            for i in support:
                for omega, m in factor_unit_part(W.schur_elements[i]).unit_factors:
                    maxmult[omega] = max(maxmult.get(omega, 0), m)
            D = LaurentPoly.const(1, mu)
            for omega, m in maxmult.items():
                D = D * LaurentPoly({1: 1, 0: -omega}, mu) ** m
            want = [poly_divexact(D, W.schur_elements[i]) for i in support]
            assert numerators_of(W, support) == want, support


class TestHeckeBlocks:
    def test_g4_p3_exact(self):
        W = g4_group()
        part, decomp = hecke_blocks(W, 3)
        assert part.all_exact()
        assert names_partition(W, part) == [
            ("phi{1,0}",), ("phi{1,4}", "phi{1,8}"), ("phi{2,1}", "phi{2,3}"),
            ("phi{2,5}",), ("phi{3,2}",),
        ]
        assert all(decomp.resolved)

    def test_g4_p2_columns(self):
        W = g4_group()
        part, decomp = hecke_blocks(W, 2)
        cols = {tuple(c) for c in decomp.columns}
        i14, i18, i25 = (W.char_index(n) for n in ("phi{1,4}", "phi{1,8}", "phi{2,5}"))
        col_a = tuple(int(i in (i14, i25)) for i in range(7))
        col_b = tuple(int(i in (i18, i25)) for i in range(7))
        assert col_a in cols and col_b in cols
        assert all(decomp.resolved)

    def test_good_prime_identity(self):
        W = g4_group()
        part, decomp = hecke_blocks(W, 7)
        assert all(len(p) == 1 for p in part.parts) and part.all_exact()
        assert sorted(decomp.columns) == sorted(
            tuple(int(i == j) for i in range(7)) for j in range(7)
        )

    def test_columns_pass_global_integrality(self):
        # every emitted column, paired with 1/c, lies in O_p
        for W, p in ((g4_group(), 2), (g4_group(), 3), (dihedral_group(6), 3)):
            _, decomp = hecke_blocks(W, p)
            for col in decomp.columns:
                assert in_ideal(*schur_sum(W, col), _prime(W, p), 0) == YES


class TestBounded:
    def test_exact_only_once_two_primes_link(self):
        # per-prime parts {0,1,2} and {3}; the resolved cuts at one prime
        # link 0 with 1, at the other 1 with 2: only their join proves {0,1,2}
        upper = [(0, 1, 2), (3,), (0, 1), (2,), (3,)]
        at_2, at_3 = [(0, 1)], [(1, 2)]
        for lower in ([], at_2, at_3):
            out = _bounded(4, upper, lower)
            assert out.parts == ((0, 1, 2), (3,)) and out.status == (UPPER, EXACT)
        out = _bounded(4, upper, at_2 + at_3)
        assert out.parts == ((0, 1, 2), (3,)) and out.all_exact()

    def test_join_of_overlapping_pieces(self):
        out = _bounded(5, [(0, 1), (1, 3), (2,)], [(0, 1, 3)])
        assert out.parts == ((0, 1, 3), (2,), (4,)) and out.all_exact()


class TestFamilies:
    @pytest.mark.parametrize("name", BUNDLED_GROUPS)
    def test_matches_the_two_join_families(self, name):
        W = get_group(name)
        fam = families(W)
        assert (list(fam.parts), list(fam.status)) == two_join_families(W)

    def test_g4(self):
        W = g4_group()
        fam = families(W)
        assert fam.all_exact()
        assert names_partition(W, fam) == [
            ("phi{1,0}",), ("phi{1,4}", "phi{1,8}", "phi{2,5}"),
            ("phi{2,1}", "phi{2,3}"), ("phi{3,2}",),
        ]

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 9, 12])
    def test_dihedral(self, n):
        W = dihedral_group(n)
        fam = families(W)
        assert fam.all_exact()
        assert list(fam.parts) == [(0,), (1,), tuple(range(2, W.n_irr))]

    def test_z3(self):
        fam = families(cyclic_group(3))
        assert list(fam.parts) == [(0,), (1, 2)] and fam.all_exact()

    def test_families_refine_per_prime(self):
        for W in (g4_group(), dihedral_group(12)):
            fam = families(W)
            for p in bad_primes(W):
                part, _ = hecke_blocks(W, p)
                for f in fam.parts:
                    # every per-prime block lies inside one family
                    for q in part.parts:
                        assert len({fam.part_of(i) for i in q}) == 1

    def test_aA_and_a_constant_on_families(self):
        for W in (g4_group(), dihedral_group(10), cyclic_group(9)):
            fam = families(W)
            recs = compute_invariants(W)
            for part in fam.parts:
                assert len({a_plus_A(W, i, recs) for i in part}) == 1
                assert len({recs[i].a for i in part}) == 1
                assert len({recs[i].A for i in part}) == 1

    def test_one_special_per_family(self):
        for W in (g4_group(), dihedral_group(8), cyclic_group(6)):
            recs = compute_invariants(W)
            for part in families(W).parts:
                assert sum(recs[i].special for i in part) == 1

    def test_galois_and_conjugation_stability(self):
        from math import gcd

        for W in (g4_group(), dihedral_group(5), cyclic_group(5)):
            fam = families(W)
            sets = as_sets(fam)
            # conjugation
            assert {frozenset(W.conj_perm[i] for i in s) for s in sets} == set(sets)
            # full Galois action on character rows
            n = W.field_conductor
            rows = {tuple(r): idx for idx, r in enumerate(W.irr)}
            for j in range(2, n + 1):
                if gcd(j, n) != 1:
                    continue
                perm = [rows[tuple(v.galois(j) for v in W.irr[i])] for i in range(W.n_irr)]
                assert {frozenset(perm[i] for i in s) for s in sets} == set(sets)

    def test_trivial_and_no_bad_primes(self):
        W = dihedral_group(3)  # all Schur scalars are units
        assert bad_primes(W) == set()
        fam = families(W)
        assert all(len(p) == 1 for p in fam.parts) and fam.all_exact()


class TestRelativeProjectivity:
    def test_trace_scalar_constant_mod_p_on_blocks(self):
        # within an exact block, the relative-trace scalars agree modulo the
        # maximal ideal: the difference lies in it
        cases = [(dihedral_group(5), 5), (dihedral_group(7), 7), (g4_group(), 3)]
        for W, p in cases:
            part, _ = hecke_blocks(W, p)
            for P in W.parabolics:
                if P.subgroup.order == 1:
                    continue
                for block, status in zip(part.parts, part.status):
                    if status != EXACT or len(block) == 1:
                        continue
                    # one denominator D for the whole parabolic
                    scalars = [relative_trace_scalar(W, P, i) for i in block]
                    for (s, D), (t, _D) in zip(scalars, scalars[1:]):
                        assert in_ideal(s - t, D, _prime(W, p), 1) == YES


class TestHonestAmbiguity:
    def test_projective_found_only_as_sum_stays_unresolved(self):
        # a candidate that is a sum of two projectives passes the subset test,
        # so the engine must refuse to mark it resolved
        W = cyclic_group(3)
        phi = (0, 2, 2)  # twice the true projective (0,1,1)
        verdict, detail = indecomposability_check(phi, W, 3)
        assert verdict == "splittable"
        assert detail[0] == (0, 1, 1)

    def test_never_resolved_without_proof(self):
        # resolution flags always come with the exhausted-subsets note
        for W, p in ((g4_group(), 2), (dihedral_group(9), 3)):
            _, decomp = hecke_blocks(W, p)
            for res, note in zip(decomp.resolved, decomp.notes):
                if res:
                    assert "proved indecomposable" in note


class TestUnsupportedMembership:
    def test_non_unit_schur_degrades_to_unknown(self, monkeypatch):
        # simulate an ingested group whose Schur element has a non-unit part:
        # the subset test must answer "unknown", never a silent yes/no
        import heckefam.blocks as blocks
        import heckefam.laurent as laurent

        W = cyclic_group(3)
        real, bad = laurent.factor_unit_part, W.schur_elements[1]

        def with_non_unit(f):
            fact = real(f)
            return fact._replace(non_unit=LaurentPoly.from_x_coeffs([1, 1])) if f == bad else fact

        monkeypatch.setattr(laurent, "factor_unit_part", with_non_unit)
        monkeypatch.setattr(blocks, "_lattice", blocks._lattice.__wrapped__)
        monkeypatch.setattr(blocks, "_numerator_columns", blocks._numerator_columns.__wrapped__)
        verdict, reason = indecomposability_check((0, 1, 1), W, 3)
        assert verdict == "unknown" and "non-unit" in reason
