"""Correctness checks for the benchmarked CLI commands.

Every reference here comes from outside the code under test: the dihedral
theorem (families of I2(n) are trivial, sign and the rest), the naming
convention phi{d,b} of the character tables, and the transcription of the
published G4 tables in ``src/heckefam/data/golden/g4_families.json``.

``check(argv, returncode, stdout, golden)`` returns ``None`` when the output
is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re


def dihedral_names(n: int) -> list[str]:
    """Irreducible characters of I2(n) in catalog order, from n alone."""
    names = ["phi{1,0}", f"phi{{1,{n}}}"]
    if n % 2 == 0:
        names += [f"phi{{1,{n // 2}}}'", f"phi{{1,{n // 2}}}''"]
        names += [f"phi{{2,{j}}}" for j in range(1, n // 2)]
    else:
        names += [f"phi{{2,{j}}}" for j in range(1, (n - 1) // 2 + 1)]
    return names


def dihedral_families(n: int) -> list[list[str]]:
    """The dihedral theorem: {trivial}, {sign}, then every other character."""
    names = dihedral_names(n)
    return [names[:1], names[1:2], names[2:]]


def _check_dihedral_families(n: int, rc: int, stdout: str):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if doc.get("group") != f"I2({n})" or doc.get("prime") is not None:
        return f"wrong header: group={doc.get('group')!r} prime={doc.get('prime')!r}"
    partition = doc.get("partition", {})
    parts = partition.get("parts")
    want = dihedral_families(n)
    if parts != want:
        return f"partition {parts} differs from the dihedral theorem's {want}"
    status = partition.get("status")
    if status != ["exact"] * len(want):
        return f"status {status}, expected every part exact"
    return None


def _golden_families(golden) -> list[set]:
    return [set(f) for f in golden["families"]]


_COLUMN = re.compile(r"^  \[(ok|\?\?)\] (.+)$")


def _parse_columns(stdout: str) -> list[tuple[bool, dict]]:
    cols = []
    for line in stdout.splitlines():
        m = _COLUMN.match(line)
        if not m:
            continue
        col = {}
        for term in m.group(2).split(" + "):
            mult, _, name = term.rpartition("*")
            col[name] = int(mult) if mult else 1
        cols.append((m.group(1) == "ok", col))
    return cols


def _check_g4_decomp(p: int, rc: int, stdout: str, golden):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if not stdout.startswith(f"G4: decomposition approximation at p={p}\n"):
        return "missing decomposition header"
    multi = [f for f in _golden_families(golden) if len(f) > 1]
    got = set()
    for resolved, col in _parse_columns(stdout):
        if any(set(col) <= fam for fam in multi):
            if not resolved:
                return f"column {col} on a multi-character family is not resolved"
            got.add(tuple(sorted(col.items())))
    want = {tuple(sorted(c.items())) for c in golden["decomposition"][str(p)]}
    if got != want:
        return f"columns {sorted(got)} differ from the published {sorted(want)}"
    return None


def _check_g4_verify(rc: int, stdout: str):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if not stdout.startswith("verify-paper G4: families, per-prime decompositions"):
        return "verify-paper did not report a full match"
    return None


def _check_g4_invariants(rc: int, stdout: str, golden):
    """a and A are constant on families, each family has exactly one special
    character, and b is the second index of the name phi{d,b}."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        rows = {r["chi"]: r for r in json.loads(stdout)["invariants"]}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return f"unreadable invariants document: {exc}"
    families = _golden_families(golden)
    if set(rows) != set().union(*families):
        return f"characters {sorted(rows)} differ from the published table"
    for name, row in rows.items():
        b = re.fullmatch(r"phi\{\d+,(\d+)\}", name).group(1)
        if row["b"] != b:
            return f"b({name}) = {row['b']}, the name says {b}"
    for fam in families:
        if len({(rows[c]["a"], rows[c]["A"]) for c in fam}) != 1:
            return f"a or A is not constant on the family {sorted(fam)}"
        if sum(rows[c]["special"] for c in fam) != 1:
            return f"family {sorted(fam)} does not have exactly one special character"
    return None


def _check_g4_constructible(rc: int, stdout: str, golden):
    """The supports of the constructible characters link up to exactly the
    published families."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    lines = stdout.splitlines()
    if not lines or lines[0] != "G4: constructible characters":
        return "missing constructible header"
    supports = [
        {term.rpartition("*")[2] for term in line.strip().split(" + ")} for line in lines[1:]
    ]
    merged: list[set] = []
    for s in supports:
        touching = [m for m in merged if m & s]
        merged = [m for m in merged if not m & s] + [set(s).union(*touching)]
    got = sorted(sorted(m) for m in merged)
    want = sorted(sorted(f) for f in _golden_families(golden))
    if got != want:
        return f"constructible supports link to {got}, published families are {want}"
    return None


_SYMBOLS = re.compile(r"^symbols: rank <= \d+, defect <= \d+ \((\w+)\): \d+ families over \d+ symbols, (\d+) violations$")


def _check_symbols(parity: str, rc: int, stdout: str):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    m = _SYMBOLS.match(stdout.rstrip("\n"))
    if not m or m.group(1) != parity:
        return "unexpected symbols report"
    if m.group(2) != "0":
        return f"{m.group(2)} violations, expected 0"
    return None


def _check_list(rc: int, stdout: str):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if not stdout.startswith("built-in groups:\n"):
        return "missing group list"
    return None


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check(argv: list[str], rc: int, stdout: str, golden) -> str | None:
    """Judge one command's exit code and stdout; ``None`` means correct."""
    cmd = argv[0]
    if cmd == "list":
        return _check_list(rc, stdout)
    if cmd == "symbols":
        return _check_symbols(_flag(argv, "--parity"), rc, stdout)
    group = _flag(argv, "--group")
    if cmd == "families" and group.startswith("I2."):
        return _check_dihedral_families(int(group[3:]), rc, stdout)
    if group == "G4":
        if cmd == "verify-paper":
            return _check_g4_verify(rc, stdout)
        if cmd == "decomp":
            return _check_g4_decomp(int(_flag(argv, "--prime")), rc, stdout, golden)
        if cmd == "invariants":
            return _check_g4_invariants(rc, stdout, golden)
        if cmd == "constructible":
            return _check_g4_constructible(rc, stdout, golden)
    raise ValueError(f"no reference for command {argv}")
