"""Every function in `src/heckefam/` is reached by a command, or has a stated
reason to stay.

The commands of `tests/cli_digests.json`, plus `symbols verify --rank 8
--defect 8 --parity all`, are replayed in a fresh interpreter under
`sys.setprofile`: in one that has run other tests, warm caches would hide
calls.  Every non-dunder function or method defined in the package, nested
ones included, that no replayed command enters must be in KEEP, and every
entry of KEEP must be one of them.  A helper that only the tests use
belongs under `tests/` (`tests/helpers.py`).

    PYTHONPATH=src python tests/test_reach.py    # prints the unreached names
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heckefam"

# unreached by the commands, kept in src/ for the reason given
KEEP = {
    "symbols.same_series": "perfbench/traced_main.py times it (symbols.same_series)",
    "symbols.Symbol.rank": "same_series calls it",
    "valuation.val_at_least": "perfbench/traced_main.py counts it (valuation.val_calls)",
    "groups.fake_degrees_molien": "ingesting a document that states no fake degrees runs it",
}

EXTRA = [["symbols", "verify", "--rank", "8", "--defect", "8", "--parity", "all"]]


def functions(node, prefix=""):
    """(qualified name, name) of every function under an AST node, nested
    ones and methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child.name
            yield from functions(child, f"{prefix}{child.name}.<locals>.")
        else:
            yield from functions(child, prefix)


def defined() -> dict:
    """(file, qualified name) -> module.qualified name, for every non-dunder
    function and method of the package."""
    return {
        (str(path), qualname): f"{path.stem}.{qualname}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, name in functions(ast.parse(path.read_text()))
        if not (name.startswith("__") and name.endswith("__"))
    }


def unreached() -> list[str]:
    """Replay the commands under a profiler; the defined functions never entered."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli_digests import commands, digest

    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    sys.setprofile(profile)
    try:
        for argv in commands() + EXTRA:
            digest(argv)
    finally:
        sys.setprofile(None)
    return sorted(name for key, name in defined().items() if key not in entered)


def test_unreached_functions_are_the_keep_list():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                         check=True)
    found = set(json.loads(run.stdout))
    assert found == set(KEEP), {"unreached, not kept": sorted(found - set(KEEP)),
                                "kept, but reached": sorted(set(KEEP) - found)}


if __name__ == "__main__":
    print(json.dumps(unreached()))
