"""CLI output fixed byte for byte: each command of `tests/cli_digests.json`
is replayed in-process through `cli.main`, and its exit code and the SHA-256
of its stdout and of its stderr must match the recording.

The recording covers every subcommand on the small bundled groups, the
per-prime commands at every bad prime of a spread of groups, the symbol
checks, the error exits, and one ingested document: `validate` and
`families` on the bundled G4 file, recorded by its path from the repository
root and replayed from this file's location, so the recording does not
depend on the working directory.  A change that alters any of these bytes
must re-record the file and say in CHANGES.md which bytes changed and why:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from heckefam import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "cli_digests.json"
G4_DOC = "src/heckefam/data/g4.json"  # recorded as is, replayed as ROOT / G4_DOC

SMALL_GROUPS = ["G4", "1", "Z2", "Z3", "Z5", "Z6"] + [f"I2.{n}" for n in range(3, 31)]
BAD_PRIMES = {
    "G4": (2, 3), "Z6": (2, 3), "I2.9": (3,), "I2.12": (2, 3),
    "I2.17": (17,), "I2.24": (2, 3), "I2.30": (2, 3, 5),
}


def commands() -> list[list[str]]:
    """The recorded command lines, in replay order."""
    out = []
    for g in SMALL_GROUPS:
        for sub in ("families", "invariants", "bad-primes", "constructible"):
            for fmt in ("md", "json"):
                out.append([sub, "--group", g, "--format", fmt])
    for g, primes in BAD_PRIMES.items():
        for p in map(str, primes):
            out.append(["decomp", "--group", g, "--prime", p, "--format", "md"])
            out.append(["decomp", "--group", g, "--prime", p, "--format", "json"])
            out.append(["families", "--group", g, "--prime", p])
    out += [["verify-paper", "--group", "G4"], ["verify-paper", "--group", "I2.12"], ["list"]]
    for parity in ("odd", "even0", "even2", "all"):
        out.append(["symbols", "verify", "--rank", "6", "--defect", "6", "--parity", parity])
    out += [
        ["families"],
        ["families", "--group", "nonexistent"],
        ["decomp", "--group", "I2.5", "--prime", "4"],
        ["decomp", "--group", "I2.5", "--prime", "1000000000000000000000007"],
        ["decomp", "--group", "I2.5", "--prime", "3317044064679887385961981"],
    ]
    out += [["validate", G4_DOC]] + [
        ["families", "--group", G4_DOC, "--format", fmt] for fmt in ("md", "json")
    ]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(argv) -> dict:
    """Exit code and output digests of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    run = [str(ROOT / a) if a == G4_DOC else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(run)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": list(argv), "code": code, "stdout_sha256": _sha(out.getvalue()),
            "stderr_sha256": _sha(err.getvalue())}


def test_cli_output_matches_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    assert [r["argv"] for r in recorded] == commands()
    mismatches = [" ".join(want["argv"]) for want in recorded if digest(want["argv"]) != want]
    assert not mismatches, mismatches


def _record() -> None:
    recorded = [digest(argv) for argv in commands()]
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} commands in {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    _record()
