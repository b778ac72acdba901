"""Tests of the benchmark itself: its oracle, its span arithmetic and the
repeatability of its traced counts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from time import perf_counter

import pytest

import oracle
import run
from spans import inclusive_and_self


@pytest.fixture(scope="module")
def golden():
    with open(run.GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def seed_stdout():
    with open(run.SEED_STDOUT) as fh:
        return json.load(fh)


def families_stdout(n, parts, status):
    doc = {"schema": 1, "group": f"I2({n})", "prime": None,
           "partition": {"parts": parts, "status": status}}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


ARGV_I2_9 = ["families", "--group", "I2.9", "--format", "json"]


def test_dihedral_names_follow_the_catalog():
    assert oracle.dihedral_names(5) == ["phi{1,0}", "phi{1,5}", "phi{2,1}", "phi{2,2}"]
    assert oracle.dihedral_names(6) == ["phi{1,0}", "phi{1,6}", "phi{1,3}'", "phi{1,3}''",
                                        "phi{2,1}", "phi{2,2}"]


def test_oracle_accepts_the_dihedral_theorem(golden):
    fams = oracle.dihedral_families(9)
    assert oracle.check(ARGV_I2_9, 0, families_stdout(9, fams, ["exact"] * 3), golden) is None


def test_oracle_rejects_a_wrong_dihedral_partition(golden):
    names = oracle.dihedral_names(9)
    wrong = [names[:2], names[2:]]
    assert oracle.check(ARGV_I2_9, 0, families_stdout(9, wrong, ["exact"] * 2), golden)
    moved = [names[:1], names[1:3], names[3:]]
    assert oracle.check(ARGV_I2_9, 0, families_stdout(9, moved, ["exact"] * 3), golden)


def test_oracle_rejects_a_non_exact_status(golden):
    fams = oracle.dihedral_families(9)
    stdout = families_stdout(9, fams, ["exact", "exact", "upper"])
    assert "status" in oracle.check(ARGV_I2_9, 0, stdout, golden)


def test_oracle_rejects_a_nonzero_exit_code(golden, seed_stdout):
    fams = oracle.dihedral_families(9)
    assert "exit code" in oracle.check(
        ARGV_I2_9, 2, families_stdout(9, fams, ["exact"] * 3), golden)
    for argv in run.WORKLOADS["desk"]:
        assert "exit code" in oracle.check(argv, 3, seed_stdout[" ".join(argv)], golden)


def test_oracle_accepts_every_recorded_output(golden, seed_stdout):
    for commands in run.WORKLOADS.values():
        for argv in commands:
            assert oracle.check(argv, 0, seed_stdout[" ".join(argv)], golden) is None, argv


def test_oracle_rejects_a_wrong_g4_decomposition(golden, seed_stdout):
    argv = ["decomp", "--group", "G4", "--prime", "2"]
    good = seed_stdout[" ".join(argv)]
    dropped = good.replace("  [ok] phi{1,8} + phi{2,5}\n", "")
    assert "differ from the published" in oracle.check(argv, 0, dropped, golden)
    unresolved = good.replace("[ok] phi{1,8} + phi{2,5}", "[??] phi{1,8} + phi{2,5}")
    assert "not resolved" in oracle.check(argv, 0, unresolved, golden)


def test_oracle_rejects_g4_invariants_and_constructibles_that_break_families(golden, seed_stdout):
    argv = ["invariants", "--group", "G4", "--format", "json"]
    doc = json.loads(seed_stdout[" ".join(argv)])
    doc["invariants"][2]["a"] = "5"  # phi{1,8} leaves its family's a-value
    assert "not constant" in oracle.check(argv, 0, json.dumps(doc), golden)
    argv = ["constructible", "--group", "G4"]
    split = seed_stdout[" ".join(argv)].replace("phi{2,1} + phi{2,3}", "phi{2,1}")
    assert "published families" in oracle.check(argv, 0, split, golden)


def test_oracle_rejects_symbol_violations(golden):
    argv = ["symbols", "verify", "--rank", "8", "--defect", "8", "--parity", "odd"]
    bad = "symbols: rank <= 8, defect <= 8 (odd): 164 families over 581 symbols, 1 violations\n"
    assert "violations" in oracle.check(argv, 0, bad, golden)


def test_self_time_on_a_nested_span_tree():
    # a [0, 10] holds b [1, 4] and a [5, 9]; the inner a holds c [6, 8];
    # b holds c [2, 3].
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["c", 6.0, 8.0, 3],
    ]
    inclusive, self_time = inclusive_and_self(spans)
    assert inclusive == {"a": 10.0, "b": 3.0, "c": 3.0}  # the nested a is not counted twice
    assert self_time == {"a": (10 - 3 - 4) + (4 - 2), "b": 2.0, "c": 3.0}


def test_self_time_clips_overlapping_children():
    spans = [["p", 0.0, 4.0, -1], ["x", 1.0, 3.0, 0], ["y", 2.0, 6.0, 0]]
    _, self_time = inclusive_and_self(spans)
    assert self_time["p"] == 1.0


def traced_counts(runner, argv, trace_file):
    outcome = runner.traced(argv, trace_file)
    assert outcome.error is None, outcome.error
    with open(trace_file) as fh:
        doc = json.load(fh)
    assert doc["missing"] == []
    names = [span[0] for span in doc["spans"]]
    return outcome.stdout, doc["counters"], {n: names.count(n) for n in set(names)}, doc["resolved"]


def test_traced_counts_repeat_and_stdout_is_unchanged(golden, tmp_path):
    run.WORK.mkdir(exist_ok=True)
    runner = run.Runner(golden, perf_counter() + 120)
    argv = ["families", "--group", "I2.12", "--format", "json"]
    plain = runner.cli(argv)
    assert plain.error is None
    results = []
    for hash_seed in ("0", "77"):
        runner.env["PYTHONHASHSEED"] = hash_seed
        results.append(traced_counts(runner, argv, tmp_path / f"{hash_seed}.json"))
    (out_a, counters_a, spans_a, resolved_a), (out_b, counters_b, spans_b, resolved_b) = results
    assert out_a == out_b == plain.stdout
    assert counters_a == counters_b
    assert spans_a == spans_b
    assert resolved_a == resolved_b
    # descents of + and * results on I2(12): 1,978 of 18,964
    assert counters_a["cyclotomic.descents"] == 1978
    assert counters_a["cyclotomic.mul_calls"] + counters_a["cyclotomic.add_calls"] == 18964
