"""Run one heckefam CLI command with span and counter wrappers installed.

    python perfbench/traced_main.py <trace.json> <cli arguments...>

The wrappers are put on the public functions and methods of each layer
from outside the package; nothing under ``src/`` is edited.  Every name
bound to a wrapped function is replaced: aliases such as
``Cyclotomic.__radd__ = __add__`` and re-imports such as
``blocks.compute_invariants`` alike.  Spans ``(name, start, end, parent)``
and counters stay in memory and are written to ``<trace.json>`` once, when
the command has finished.  Stdout is left to the command alone, so it can
be compared byte for byte with an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from math import lcm, prod
from time import perf_counter

# span name -> (module, attribute paths); every call becomes one span
TIMED = {
    "cyclotomic.inverse": ("heckefam.cyclotomic", ["Cyclotomic.inverse"]),
    "groups.build": ("heckefam.groups", [
        "trivial_group", "cyclic_group", "dihedral_group", "g4_group", "load_group"]),
    "groups.elements": ("heckefam.groups", ["GroupDatum.elements"]),
    "groups.class_map": ("heckefam.groups", ["GroupDatum.class_index_map"]),
    "groups.molien": ("heckefam.groups", ["fake_degrees_molien"]),
    "groups.fusion": ("heckefam.groups", [
        "enumerate_and_fuse", "induction_matrix_from_fusion"]),
    "groups.reflection_counts": ("heckefam.groups", ["GroupDatum.reflection_counts"]),
    "schur.dihedral_schur": ("heckefam.schur", ["dihedral_schur"]),
    "schur.bad_primes": ("heckefam.schur", ["bad_primes"]),
    "schur.invariants": ("heckefam.schur", ["compute_invariants"]),
    "laurent.divexact": ("heckefam.laurent", ["poly_divexact"]),
    "laurent.factor_unit": ("heckefam.laurent", ["factor_unit_part"]),
    "valuation.primes_above": ("heckefam.valuation", ["primes_above"]),
    "blocks.families": ("heckefam.blocks", ["families"]),
    "blocks.hecke_blocks": ("heckefam.blocks", ["hecke_blocks"]),
    "blocks.p_blocks": ("heckefam.blocks", ["group_p_blocks"]),
    "blocks.coarse": ("heckefam.blocks", ["coarse_partition"]),
    "blocks.candidates": ("heckefam.blocks", ["candidate_projectives"]),
    "blocks.indecomp": ("heckefam.blocks", ["indecomposability_check"]),
    "symbols.verify": ("heckefam.symbols", ["verify_family_finest"]),
    "symbols.same_series": ("heckefam.symbols", ["same_series"]),
}

# counter name -> (module, attribute paths); calls are counted, not timed
COUNTED = {
    "laurent.mul_calls": ("heckefam.laurent", ["LaurentPoly.__mul__"]),
    "valuation.val_calls": ("heckefam.valuation", ["val", "val_at_least", "laurent_content_val"]),
}


class Tracer:
    """In-memory span list and counters of one command."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.resolved: dict[str, list[int]] = {}
        self.missing: list[str] = []

    def timed(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def ring_op(self, name, fn, cyclotomic_type):
        """Count a Cyclotomic + or * and whether its result's conductor is
        smaller than the lcm of the operands' conductors (a descent)."""
        counters = self.counters
        counters.setdefault(name, 0)
        counters.setdefault("cyclotomic.descents", 0)

        @functools.wraps(fn)
        def wrapper(self_, other):
            result = fn(self_, other)
            if isinstance(result, cyclotomic_type):
                counters[name] += 1
                oc = other.conductor if isinstance(other, cyclotomic_type) else 1
                if result.conductor < lcm(self_.conductor, oc):
                    counters["cyclotomic.descents"] += 1
            return result

        return wrapper

    def observe_hecke_blocks(self, args, result):
        W, p = args[0], args[1]
        resolved = result[1].resolved
        self.resolved[f"{W.name}@{p}"] = [sum(map(bool, resolved)), len(resolved)]

    def observe_indecomp(self, args, result):
        phi = args[0]
        self.counters.setdefault("blocks.subset_space", 0)
        if result[0] in ("indecomposable", "splittable") and sum(phi) > 1:
            self.counters["blocks.subset_space"] += prod(m + 1 for m in phi if m) - 2

    def dump(self, path):
        doc = {
            "spans": self.spans,
            "counters": self.counters,
            "resolved": self.resolved,
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _lookup(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return vars(owner).get(attr)


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind every name that refers to it."""
    import heckefam.cli  # noqa: F401  (imports every layer)
    from heckefam.cyclotomic import Cyclotomic

    observers = {
        "blocks.hecke_blocks": tracer.observe_hecke_blocks,
        "blocks.indecomp": tracer.observe_indecomp,
    }
    wrappers: dict[int, tuple] = {}

    def add(name, module, paths, make):
        for path in paths:
            orig = _lookup(module, path)
            if orig is None:
                tracer.missing.append(f"{module}.{path}")
                continue
            wrappers[id(orig)] = (orig, make(orig), f"{module}.{path}")

    for name, (module, paths) in TIMED.items():
        add(name, module, paths, lambda f, n=name: tracer.timed(n, f, observers.get(n)))
    for name, (module, paths) in COUNTED.items():
        add(name, module, paths, lambda f, n=name: tracer.counted(n, f))
    for name, path in (("cyclotomic.mul_calls", "Cyclotomic.__mul__"),
                       ("cyclotomic.add_calls", "Cyclotomic.__add__")):
        add(name, "heckefam.cyclotomic", [path],
            lambda f, n=name: tracer.ring_op(n, f, Cyclotomic))

    installed = set()
    seen_classes = set()
    namespaces = []
    for modname, mod in list(sys.modules.items()):
        if modname == "heckefam" or modname.startswith("heckefam."):
            namespaces.append(mod)
            for value in vars(mod).values():
                if (isinstance(value, type) and id(value) not in seen_classes
                        and value.__module__.startswith("heckefam")):
                    seen_classes.add(id(value))
                    namespaces.append(value)
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, key, hit[1])
                installed.add(hit[2])
    tracer.missing += sorted(w[2] for w in wrappers.values() if w[2] not in installed)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from heckefam import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
