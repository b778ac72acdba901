"""Acceptance suite: one test per criterion, exact tolerances, stated time
budgets.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion pass lines."""

import json
import time
from fractions import Fraction

import pytest
from helpers import (
    as_sets,
    core_orders_agree,
    defect_bridge,
    eval_x,
    eval_y,
    group_to_doc,
    relative_trace_scalar,
    schur_sum,
    swapped,
    unordered_key,
)

from heckefam import blocks, cli
from heckefam.blocks import families, hecke_blocks, indecomposability_check
from heckefam.constructible import constructible_chars
from heckefam.cyclotomic import from_literal, one, rat, zeta, zero
from heckefam.groups import (
    cyclic_group,
    dihedral_group,
    g4_group,
    load_group,
    GroupDataError,
)
from heckefam.laurent import LaurentPoly, poly_divexact
from heckefam.ntheory import factorize
from heckefam.schur import (
    a_plus_A,
    bad_primes,
    compute_invariants,
    f_of,
)
from heckefam.symbols import (
    Symbol,
    _symbols_of_rank,
    e_cocore,
    family_key,
    same_series,
    verify_family_finest,
)

ODD = lambda t: t % 2 == 1

BUNDLED = (
    [("Z%d" % d, cyclic_group, d) for d in range(2, 13)]
    + [("I2(%d)" % n, dihedral_group, n) for n in range(3, 31)]
    + [("G4", lambda _=None: g4_group(), None)]
)


def _groups():
    for _name, ctor, arg in BUNDLED:
        yield ctor(arg) if arg is not None else ctor()


def report(k, text):
    print(f"\nACCEPTANCE {k}: PASS - {text}")


def test_criterion_1_g4_end_to_end(capsys):
    t0 = time.time()
    W = g4_group()
    fam = families(W)
    names = sorted(sorted(W.char_names[i] for i in part) for part in fam.parts)
    assert names == [
        ["phi{1,0}"],
        ["phi{1,4}", "phi{1,8}", "phi{2,5}"],
        ["phi{2,1}", "phi{2,3}"],
        ["phi{3,2}"],
    ]
    assert fam.all_exact()
    idx = {n: W.char_index(n) for n in W.char_names}
    triple = (idx["phi{1,4}"], idx["phi{1,8}"], idx["phi{2,5}"])
    pair = (idx["phi{2,1}"], idx["phi{2,3}"])

    # p = 2: columns (1,0,1) and (0,1,1) on the three-character family
    _, d2 = hecke_blocks(W, 2)
    cols2 = {
        tuple(col[i] for i in triple)
        for col, res in zip(d2.columns, d2.resolved)
        if any(col[i] for i in triple)
    }
    assert cols2 == {(1, 0, 1), (0, 1, 1)}
    assert all(d2.resolved)

    # p = 3: chi1, chi2 on one simple, chi3 on the other; the pair family has
    # the single column (1,1)
    _, d3 = hecke_blocks(W, 3)
    cols3_triple = {
        tuple(col[i] for i in triple)
        for col in d3.columns
        if any(col[i] for i in triple)
    }
    assert cols3_triple == {(1, 1, 0), (0, 0, 1)}
    cols3_pair = {
        tuple(col[i] for i in pair) for col in d3.columns if any(col[i] for i in pair)
    }
    assert cols3_pair == {(1, 1)}
    assert all(d3.resolved)

    # f-values up to a root of unity
    s3 = zeta(3) - zeta(3, 2)  # sqrt(-3)
    expected_f = {
        "phi{2,1}": (rat(3) + s3) * Fraction(1, 2),
        "phi{2,3}": (rat(3) - s3) * Fraction(1, 2),
        "phi{1,4}": -2 * s3,
        "phi{1,8}": 2 * s3,
        "phi{2,5}": rat(2),
        "phi{1,0}": one,
        "phi{3,2}": one,
    }
    for name, want in expected_f.items():
        got = f_of(W.schur_elements[idx[name]])
        assert (got * want.inverse()).is_root_of_unity(), name

    # the golden-file harness agrees end to end
    assert cli.main(["verify-paper", "--group", "G4"]) == 0
    capsys.readouterr()
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, f"G4 families, p=2/p=3 decompositions and f-values match ({elapsed:.1f}s)")


def test_criterion_2_dihedral_theorem():
    worst = 0.0
    for n in range(3, 31):
        t0 = time.time()
        W = dihedral_group(n)
        fam = families(W)
        assert list(fam.parts) == [(0,), (1,), tuple(range(2, W.n_irr))], n
        assert fam.all_exact(), n
        for p in sorted(bad_primes(W)):
            _, decomp = hecke_blocks(W, p)
            for col, res in zip(decomp.columns, decomp.resolved):
                if any(col[i] for i in range(2, W.n_irr)):
                    assert res, (n, p, col)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert elapsed < 60, f"n={n} exceeded the per-group budget"
    report(2, f"I2(n) families are triv/sign/bulk with proven columns for all "
              f"3<=n<=30 (worst {worst:.1f}s)")


def test_criterion_3_bad_primes():
    assert bad_primes(g4_group()) == {2, 3}
    for n in range(3, 31):
        W = dihedral_group(n)
        oracle = set()
        for c in W.schur_elements:
            nrm = f_of(c).norm()
            assert nrm.denominator == 1
            if abs(nrm.numerator) > 1:
                oracle |= set(factorize(abs(nrm.numerator)))
        assert bad_primes(W) == oracle, n
    report(3, "bad primes match Table values for G4 and the norm-factoring "
              "oracle for all dihedral groups")


def test_criterion_4_invariant_suite():
    t0 = time.time()
    from math import gcd

    for W in _groups():
        P = W.poincare()
        k = W.n_irr
        # sum chi(1)/c = 1 identically (as the exact polynomial identity
        # sum chi(1) * (P/c) = P; every P/c division is exact)
        total = LaurentPoly.const(zero, W.mu)
        for i in range(k):
            total = total + poly_divexact(P, W.schur_elements[i]) * W.irr[i][0]
        assert total == P, W.name
        if W.order <= 30:
            # small groups: also over the common unit multiple D of the
            # Schur elements, as sum chi(1) * (D/c) = D
            N, D = schur_sum(W, [row[0] for row in W.irr])
            assert N == D, W.name
        # c(1) = |W|/deg
        for i in range(k):
            assert eval_y(W.schur_elements[i], rat(1)) == rat(
                Fraction(W.order, W.char_degree(i))
            ), (W.name, i)
        recs = compute_invariants(W)
        # a + A = (N + N*)/deg
        for i in range(k):
            assert recs[i].a + recs[i].A == a_plus_A(W, i, recs), (W.name, i)
        fam = families(W)
        assert fam.all_exact(), W.name
        for part in fam.parts:
            assert len({recs[i].a for i in part}) == 1, (W.name, part)
            assert len({recs[i].A for i in part}) == 1, (W.name, part)
            assert sum(recs[i].special for i in part) == 1, (W.name, part)
        # conjugation and Galois stability
        sets = set(as_sets(fam))
        assert {frozenset(W.conj_perm[i] for i in s) for s in sets} == sets, W.name
        n = W.field_conductor
        rows = {tuple(r): i for i, r in enumerate(W.irr)}
        for j in range(2, n + 1):
            if gcd(j, n) != 1:
                continue
            perm = [rows[tuple(v.galois(j) for v in W.irr[i])] for i in range(k)]
            assert {frozenset(perm[i] for i in s) for s in sets} == sets, (W.name, j)
        # relative trace scalars evaluate to the index
        for PE in W.parabolics:
            index = W.order // PE.subgroup.order
            for i in range(k):
                N, D = relative_trace_scalar(W, PE, i)
                assert eval_x(N, rat(1)) / eval_x(D, rat(1)) == index, (W.name, PE.subgroup.name)
    elapsed = time.time() - t0
    assert elapsed < 120
    report(4, f"Schur identities, invariants, specials, stability and trace "
              f"scalars hold on all bundled groups ({elapsed:.1f}s)")


def test_criterion_5_symbols():
    t0 = time.time()
    rep = verify_family_finest(5, 5)
    assert rep["violations"] == []
    # core/cocore confluence, exhaustively at rank <= 4
    for r in range(5):
        for s in _symbols_of_rank(r, 5, ODD):
            for d in range(1, 6):
                assert core_orders_agree(s, d, cocore=False), (s, d)
                assert core_orders_agree(s, d, cocore=True), (s, d)
    # defect-bridge postconditions for every applicable symbol of rank <= 5
    applied = 0
    for r in range(6):
        for base in _symbols_of_rank(r, 5, ODD):
            for s in (base, swapped(base)):
                if len([v for v in s.S if v not in s.T]) < 2:
                    continue
                out, length = defect_bridge(s)
                applied += 1
                assert family_key(out) == family_key(s)
                assert out.rank() == s.rank()
                assert s.signed_defect() - out.signed_defect() == 4
                assert unordered_key(e_cocore(out, length)) == unordered_key(
                    e_cocore(s, length)
                )
                assert same_series(s, out, 2 * length)
    assert applied > 50
    elapsed = time.time() - t0
    assert elapsed < 120
    report(5, f"finest-partition check (rank<=5, defect<=5): "
              f"{rep['families']} families, zero violations; confluence and "
              f"bridges verified ({elapsed:.1f}s)")


def test_criterion_6_ingestion(tmp_path):
    # invariant-violating file rejected with a diagnostic naming the invariant
    doc = group_to_doc(dihedral_group(5))
    doc["characters"][2]["values"][0] = {"n": 1, "c": {"0": "3"}}
    with pytest.raises(GroupDataError) as exc:
        load_group(doc)
    assert "orthogonality" in str(exc.value) and "phi{" in str(exc.value)

    # a conforming external file flows through the engine to a partition
    good = group_to_doc(dihedral_group(7))
    good["name"] = "external"
    path = tmp_path / "external.json"
    path.write_text(json.dumps(good))
    W = load_group(path)
    fam = families(W)
    assert len(fam.parts) == 3 and fam.all_exact()
    report(6, "invariant violations are rejected by name; conforming external "
              "files compute end to end (G23 file remains data-conditional)")


def test_criterion_7_honest_ambiguity(monkeypatch):
    # a projective available only as a sum must stay unresolved
    W = cyclic_group(3)
    verdict, detail = indecomposability_check((0, 2, 2), W, 3)
    assert verdict == "splittable"
    assert detail[0] == (0, 1, 1)

    # resolution is only ever claimed together with a completed proof
    for Wp in ((g4_group(), 2), (g4_group(), 3), (dihedral_group(12), 2)):
        _, decomp = hecke_blocks(*Wp)
        for res, note in zip(decomp.resolved, decomp.notes):
            assert res == ("proved indecomposable" in note)

    # a walk cut off by its budget degrades to "unknown", never to a
    # silent resolution
    monkeypatch.setattr(blocks, "WALK_BUDGET", 2)
    verdict, reason = indecomposability_check((0, 15, 15), W, 3)
    assert verdict == "unknown" and "budget" in reason
    report(7, "columns are marked resolved only after a completed subset proof")
