"""The benchmark's traced runner (perfbench/traced_main.py) wraps heckefam
functions by name.  A renamed or removed target would silently drop its
per-layer metrics, so every name it wraps must resolve to a callable, a
cached one such as `Cyclotomic.inverse` included."""

import importlib.util
from pathlib import Path

import pytest

TRACED_MAIN = Path(__file__).resolve().parent.parent / "perfbench" / "traced_main.py"


def _load_traced_main():
    spec = importlib.util.spec_from_file_location("perfbench_traced_main", TRACED_MAIN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traced_main = _load_traced_main()

TARGETS = [
    (module, path)
    for table in (traced_main.TIMED, traced_main.COUNTED)
    for module, paths in table.values()
    for path in paths
] + [("heckefam.cyclotomic", "Cyclotomic.__mul__"), ("heckefam.cyclotomic", "Cyclotomic.__add__")]


@pytest.mark.parametrize("module,path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_trace_target_resolves(module, path):
    assert callable(traced_main._lookup(module, path))
