"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import group_to_doc
from test_cli_digests import commands

from heckefam import cli, groups
from heckefam.groups import dihedral_group
from heckefam.symbols import PARITIES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasics:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0 and "G4" in out

    def test_families_dihedral(self, capsys):
        code, out, _ = run(capsys, "families", "--group", "I2.7")
        assert code == 0
        assert sum(line.strip().startswith("{") for line in out.splitlines()) == 3

    def test_families_json_schema(self, capsys):
        code, out, _ = run(capsys, "families", "--group", "Z3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert sorted(map(sorted, doc["partition"]["parts"])) == [
            ["phi{1,0}"], ["phi{1,1}", "phi{1,2}"],
        ]

    def test_families_at_prime(self, capsys):
        code, out, _ = run(capsys, "families", "--group", "G4", "--prime", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["partition"]["parts"]) == 5

    def test_decomp(self, capsys):
        code, out, _ = run(capsys, "decomp", "--group", "G4", "--prime", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert any(
            col["column"] == {"phi{1,4}": 1, "phi{2,5}": 1} for col in doc["columns"]
        )
        assert all(col["resolved"] for col in doc["columns"])

    def test_bad_primes(self, capsys):
        code, out, _ = run(capsys, "bad-primes", "--group", "G4")
        assert code == 0 and "2, 3" in out

    def test_invariants_json(self, capsys):
        code, out, _ = run(capsys, "invariants", "--group", "I2.5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [r["special"] for r in doc["invariants"]].count(True) == 3

    def test_constructible(self, capsys):
        code, out, _ = run(capsys, "constructible", "--group", "I2.5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert {"phi{2,1}": 1, "phi{2,2}": 1} in doc["constructible"]

    def test_symbols_verify(self, capsys):
        code, out, _ = run(capsys, "symbols", "verify", "--rank", "3", "--defect", "3")
        assert code == 0 and "0 violations" in out

    def test_symbols_verify_all_runs_each_type(self, capsys):
        # families lie within one symbol type, so "all" is odd, even0 and
        # even2 in turn, not one pooled symbol set
        bounds = ("--rank", "6", "--defect", "6")
        want = []
        for parity in ("odd", "even0", "even2"):
            code, out, _ = run(capsys, "symbols", "verify", *bounds, "--parity", parity)
            assert code == 0 and f"({parity}): " in out and "0 violations" in out
            want.append(out)
        code, out, _ = run(capsys, "symbols", "verify", *bounds, "--parity", "all")
        assert code == 0 and out == "".join(want)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["families"])  # missing --group
        assert exc.value.code == 1

    def test_unknown_group_is_1(self, capsys):
        code, _, err = run(capsys, "families", "--group", "nonexistent")
        assert code == 1 and "unknown group" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("decomp", "--group", "I2.5", "--prime", "4"), "4 is not prime"),
            (("families", "--group", "G4", "--prime", "0"), "0 is not prime"),
            (("families", "--group", "Z0"), "d >= 2"),
            (("families", "--group", "I2.2"), "n >= 3"),
        ],
    )
    def test_value_error_is_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("prime, code, err", [
        ("1000000000000000000000007", 0, ""),
        ("3317044064679887385961981", 1, "error: 3317044064679887385961981 is too large for "
         "a proven primality test (the bound is 3317044064679887385961981)\n"),
    ])
    def test_a_large_prime_is_answered_at_once(self, prime, code, err):
        done = subprocess.run(
            [sys.executable, "-m", "heckefam.cli", "decomp", "--group", "I2.5", "--prime", prime],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent)),
            capture_output=True, text=True, timeout=10,
        )
        assert (done.returncode, done.stderr) == (code, err)
        assert (f"at p={prime}" in done.stdout) == (code == 0)

    @pytest.mark.parametrize(
        "bounds", [("--rank", "-1", "--defect", "3"), ("--rank", "3", "--defect", "-1")]
    )
    def test_negative_symbol_bounds_is_1(self, capsys, bounds):
        code, out, err = run(capsys, "symbols", "verify", *bounds)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "nonnegative" in err

    def test_validate_bad_file_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": 1}))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1 and "INVALID" in out

    def test_validate_good_file(self, tmp_path, capsys):
        path = tmp_path / "i25.json"
        path.write_text(json.dumps(group_to_doc(dihedral_group(5))))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and "OK" in out

    def test_verify_paper_g4_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--group", "G4")
        assert code == 0 and "match" in out

    def test_verify_paper_dihedral(self, capsys):
        assert run(capsys, "verify-paper", "--group", "I2.11")[0] == 0

    def test_golden_mismatch_is_3(self, tmp_path, capsys, monkeypatch):
        src = Path(groups._data_dir())
        dst = tmp_path / "data"
        shutil.copytree(src, dst)
        golden = json.loads((dst / "golden" / "g4_families.json").read_text())
        golden["bad_primes"] = [2, 5]
        (dst / "golden" / "g4_families.json").write_text(json.dumps(golden))
        monkeypatch.setenv("HECKEFAM_DATA_DIR", str(dst))
        code, out, _ = run(capsys, "verify-paper", "--group", "G4")
        assert code == 3 and "MISMATCH" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("families", "--group", "G4", "--format", "json"),
            ("decomp", "--group", "G4", "--prime", "3", "--format", "json"),
            ("invariants", "--group", "I2.6", "--format", "json"),
            ("constructible", "--group", "I2.4", "--format", "json"),
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestWorkloadStdout:
    """Every command of the benchmark's recorded workloads, replayed in-process:
    stdout must match the recording byte for byte."""

    RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "seed_stdout.json"

    def test_recorded_stdout_is_reproduced(self, capsys):
        recorded = json.loads(self.RECORDED.read_text())
        assert recorded
        for command, stdout in recorded.items():
            assert run(capsys, *command.split())[1] == stdout, command


class TestAmbiguityExit:
    def test_unresolved_columns_exit_2(self, capsys, monkeypatch):
        from heckefam import blocks
        from heckefam.blocks import BlockPartition, DecompApprox, UPPER

        def fake_hecke_blocks(W, p):
            part = BlockPartition([(0,), (1,), tuple(range(2, W.n_irr))],
                                  ["exact", "exact", UPPER])
            cols = [tuple(int(i >= 2) for i in range(W.n_irr))]
            return part, DecompApprox(cols, [False], ["the subset walk exceeds its budget of 100000 nodes"])

        monkeypatch.setattr(blocks, "hecke_blocks", fake_hecke_blocks)
        code = cli.main(["decomp", "--group", "I2.5", "--prime", "5"])
        out = capsys.readouterr().out
        assert code == 2 and "??" in out


def _fresh_run(argv):
    """Import cli and run argv in a fresh interpreter: the exit code and the
    modules that the import and the run added to sys.modules."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from heckefam import cli\n"
        + (f"code = cli.main({argv!r})\n" if argv else "code = 0\n")
        + "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    code, *added = done.stderr.splitlines()[-1].split()
    return int(code), set(added)


class TestStartup:
    """The package needs nothing outside the standard library, and each
    command imports only the layers it runs."""

    ARITHMETIC = {f"heckefam.{m}" for m in (
        "cyclotomic", "laurent", "valuation", "schur", "groups", "blocks", "constructible")}

    @pytest.mark.parametrize("argv", [None, ["families", "--group", "G4"]])
    def test_numpy_is_never_imported(self, argv):
        code, added = _fresh_run(argv)
        assert code == 0 and "numpy" not in added

    def test_symbols_imports_no_arithmetic_layer(self):
        code, added = _fresh_run(["symbols", "verify", "--rank", "2", "--defect", "2"])
        assert code == 0 and "heckefam.symbols" in added
        assert not added & self.ARITHMETIC, sorted(added & self.ARITHMETIC)

    def test_list_imports_no_layer(self):
        code, added = _fresh_run(["list"])
        assert code == 0 and "heckefam.cli" in added
        assert not added & self.ARITHMETIC, sorted(added & self.ARITHMETIC)

    @pytest.mark.parametrize("argv", [["list"], ["symbols", "verify", "--rank", "2", "--defect", "2"]],
                             ids=lambda argv: argv[0])
    def test_no_json_without_json_output(self, argv):
        code, added = _fresh_run(argv)
        assert code == 0 and "heckefam.cli" in added and "json" not in added

    @pytest.mark.parametrize("argv", [
        ["list"],
        ["families", "--group", "G4"],
        ["decomp", "--group", "G4", "--prime", "2"],
        ["invariants", "--group", "G4"],
        ["constructible", "--group", "G4"],
        ["symbols", "verify", "--rank", "2", "--defect", "2"],
        ["verify-paper", "--group", "G4"],
    ], ids=lambda argv: argv[0])
    def test_no_command_imports_dataclasses(self, argv):
        code, added = _fresh_run(argv)
        assert code == 0 and not added & {"dataclasses", "inspect"}, sorted(added)


def _parse(parser, argv):
    """The namespace that parser gives argv, or its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, err.getvalue()


class TestOneParserPerCommand:
    """`main` builds only the subparser that its first argument names."""

    def test_commands_are_the_subcommands(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert tuple(sub.choices) == cli.COMMANDS

    def test_same_namespace_or_exit_on_every_digest_command(self):
        full = cli.build_parser()
        for argv in commands() + [[], ["nonexistent"], ["list", "--format", "md"]]:
            command = argv[0] if argv and argv[0] in cli.COMMANDS else None
            assert _parse(cli.build_parser(command), argv) == _parse(full, argv), argv


class TestParityNames:
    def test_choices_are_the_symbol_types(self):
        # cli writes the parity names out, so that parsing imports no layer
        parser = cli.build_parser()
        for name in ("symbols", "verify"):
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = sub.choices[name]
        parity = next(a for a in parser._actions if a.dest == "parity")
        assert parity.choices == [*PARITIES, "all"]
