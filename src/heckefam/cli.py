"""Command-line front end: group validation, families, decomposition
approximations, invariants, bad primes, constructible characters, symbol
verification, and the golden-file check against the published tables.

Exit codes: 0 success (all exact), 1 usage or data error, 2 ambiguity
remains, 3 golden-file mismatch.
"""

from __future__ import annotations

import argparse
import sys

SCHEMA_VERSION = 1

# symbols.PARITIES, written out so that parsing the arguments imports no layer
PARITY_NAMES = ["odd", "even0", "even2"]

# the names that groups.get_group resolves, written out so that list imports no layer
BUILTIN_NAMES = ["G4", "Z<d> (d >= 2)", "I2.<n> (n >= 3)", "1"]

# the subcommands of build_parser, so that main builds only the one it runs
COMMANDS = ("list", "validate", "families", "decomp", "invariants", "bad-primes",
            "constructible", "symbols", "verify-paper")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _partition_doc(W, partition):
    return {
        "parts": [[W.char_names[i] for i in part] for part in partition.parts],
        "status": list(partition.status),
    }


def _columns_doc(W, decomp):
    cols = []
    for col, res, note in zip(decomp.columns, decomp.resolved, decomp.notes):
        cols.append(
            {
                "column": {W.char_names[i]: m for i, m in enumerate(col) if m},
                "resolved": res,
                "note": note,
            }
        )
    return cols


def _emit(doc, fmt, md_renderer):
    if fmt == "json":
        import json

        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(md_renderer(doc))


def cmd_list(args) -> int:
    print("built-in groups:")
    for name in BUILTIN_NAMES:
        print(f"  {name}")
    print("external data files are accepted wherever a group name is expected")
    return 0


def cmd_validate(args) -> int:
    import json

    from .groups import GroupDataError, load_group

    try:
        W = load_group(args.file)
    except (GroupDataError, OSError, json.JSONDecodeError) as exc:
        print(f"INVALID: {exc}")
        return 1
    print(f"OK: {W.name} of order {W.order} with {W.n_irr} irreducible characters")
    return 0


def cmd_families(args) -> int:
    from .blocks import EXACT, families, hecke_blocks
    from .groups import get_group

    W = get_group(args.group)
    if args.prime is not None:
        partition, _ = hecke_blocks(W, args.prime)
        title = f"{W.name}: blocks at p={args.prime}"
    else:
        partition = families(W)
        title = f"{W.name}: families"
    doc = {
        "schema": SCHEMA_VERSION,
        "group": W.name,
        "prime": args.prime,
        "partition": _partition_doc(W, partition),
    }

    def md(doc):
        lines = [title]
        for part, status in zip(doc["partition"]["parts"], doc["partition"]["status"]):
            flag = "" if status == EXACT else "   (upper bound)"
            lines.append("  {" + ", ".join(part) + "}" + flag)
        return "\n".join(lines)

    _emit(doc, args.format, md)
    return 0 if partition.all_exact() else 2


def cmd_decomp(args) -> int:
    from .blocks import EXACT, hecke_blocks
    from .groups import get_group

    W = get_group(args.group)
    partition, decomp = hecke_blocks(W, args.prime)
    doc = {
        "schema": SCHEMA_VERSION,
        "group": W.name,
        "prime": args.prime,
        "partition": _partition_doc(W, partition),
        "columns": _columns_doc(W, decomp),
    }

    def md(doc):
        lines = [f"{W.name}: decomposition approximation at p={args.prime}"]
        for part, status in zip(doc["partition"]["parts"], doc["partition"]["status"]):
            flag = "" if status == EXACT else "   (upper bound)"
            lines.append("  block {" + ", ".join(part) + "}" + flag)
        for col in doc["columns"]:
            mark = "ok" if col["resolved"] else "??"
            body = " + ".join(
                (f"{m}*{nm}" if m > 1 else nm) for nm, m in sorted(col["column"].items())
            )
            lines.append(f"  [{mark}] {body}")
        return "\n".join(lines)

    _emit(doc, args.format, md)
    ambiguous = not partition.all_exact() or not all(decomp.resolved)
    return 2 if ambiguous else 0


def cmd_invariants(args) -> int:
    from .groups import get_group
    from .schur import invariants_report

    W = get_group(args.group)
    print(invariants_report(W, args.format))
    return 0


def cmd_bad_primes(args) -> int:
    from .groups import get_group
    from .schur import bad_primes

    W = get_group(args.group)
    primes = sorted(bad_primes(W))
    if args.format == "json":
        import json

        print(json.dumps({"schema": SCHEMA_VERSION, "group": W.name, "bad_primes": primes}))
    else:
        print(f"{W.name}: bad primes {', '.join(map(str, primes)) if primes else '(none)'}")
    return 0


def cmd_constructible(args) -> int:
    from .constructible import constructible_chars
    from .groups import get_group

    W = get_group(args.group)
    try:
        cons = constructible_chars(W)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = {
        "schema": SCHEMA_VERSION,
        "group": W.name,
        "constructible": [
            {W.char_names[i]: m for i, m in enumerate(phi) if m} for phi in cons
        ],
    }

    def md(doc):
        lines = [f"{W.name}: constructible characters"]
        for entry in doc["constructible"]:
            lines.append(
                "  "
                + " + ".join((f"{m}*{nm}" if m > 1 else nm) for nm, m in sorted(entry.items()))
            )
        return "\n".join(lines)

    _emit(doc, args.format, md)
    return 0


def cmd_symbols(args) -> int:
    from .symbols import PARITIES, verify_family_finest

    if args.rank < 0 or args.defect < 0:
        raise ValueError("--rank and --defect must be nonnegative")
    code = 0
    for parity in PARITIES if args.parity == "all" else [args.parity]:
        report = verify_family_finest(args.rank, args.defect, PARITIES[parity])
        print(
            f"symbols: rank <= {args.rank}, defect <= {args.defect} ({parity}): "
            f"{report['families']} families over {report['symbols']} symbols, "
            f"{len(report['violations'])} violations"
        )
        for v in report["violations"]:
            print(f"  violation: {v}")
            code = 3
    return code


def _root_of_unity_ratio(a, b) -> bool:
    if b.is_zero():
        return a.is_zero()
    return (a * b.inverse()).is_root_of_unity()


def cmd_verify_paper(args) -> int:
    from .groups import get_group

    name = args.group
    if name.upper() == "G4":
        return _verify_g4()
    if name.upper().startswith("I2"):
        return _verify_dihedral(get_group(name))
    print(f"error: no golden data for group {name!r}", file=sys.stderr)
    return 1


def _verify_g4() -> int:
    import json

    from .blocks import families, hecke_blocks
    from .cyclotomic import from_literal
    from .groups import _data_dir, get_group
    from .schur import bad_primes, f_of

    W = get_group("G4")
    with open(_data_dir() / "golden" / "g4_families.json") as fh:
        golden = json.load(fh)
    failures = []
    fam = families(W)
    got = sorted(sorted(W.char_names[i] for i in part) for part in fam.parts)
    want = sorted(sorted(p) for p in golden["families"])
    if got != want:
        failures.append(f"families differ:\n  computed {got}\n  golden   {want}")
    if not fam.all_exact():
        failures.append("family partition is not exact")
    got_bad = sorted(bad_primes(W))
    if got_bad != golden["bad_primes"]:
        failures.append(f"bad primes differ: computed {got_bad}, golden {golden['bad_primes']}")
    # per-prime decomposition supports on multi-character families
    multi = [set(p) for p in golden["families"] if len(p) > 1]
    for pstr, cols_want in golden["decomposition"].items():
        p = int(pstr)
        _, decomp = hecke_blocks(W, p)
        got_cols = set()
        for col, res in zip(decomp.columns, decomp.resolved):
            support = {W.char_names[i] for i, m in enumerate(col) if m}
            if any(support <= fam_set for fam_set in multi):
                got_cols.add(tuple(sorted((W.char_names[i], m) for i, m in enumerate(col) if m)))
                if not res:
                    failures.append(f"p={p}: column {sorted(support)} not resolved")
        want_cols = {tuple(sorted(c.items())) for c in cols_want}
        if got_cols != want_cols:
            failures.append(
                f"p={p} columns differ:\n  computed {sorted(got_cols)}\n  golden   {sorted(want_cols)}"
            )
    # f-values up to root-of-unity normalization
    for cname, lit in golden["f_values"].items():
        i = W.char_index(cname)
        computed = f_of(W.schur_elements[i])
        wanted = from_literal(lit)
        if not _root_of_unity_ratio(computed, wanted):
            failures.append(
                f"f({cname}) = {computed} differs from golden {wanted} beyond a root of unity"
            )
    if failures:
        print(f"verify-paper G4: MISMATCH ({len(failures)})")
        for f in failures:
            print("  " + f.replace("\n", "\n  "))
        return 3
    print("verify-paper G4: families, per-prime decompositions, bad primes and "
          "f-values all match the published tables")
    return 0


def _verify_dihedral(W) -> int:
    from .blocks import families, hecke_blocks
    from .schur import bad_primes

    fam = families(W)
    k = W.n_irr
    expected = [(0,), (1,), tuple(range(2, k))] if k > 3 else [(0,), (1,), (2,)]
    ok = list(fam.parts) == sorted(expected) and fam.all_exact()
    resolved_ok = True
    for p in sorted(bad_primes(W)):
        _, decomp = hecke_blocks(W, p)
        resolved_ok &= all(decomp.resolved)
    if ok and resolved_ok:
        print(f"verify-paper {W.name}: trivial/sign/bulk families, all columns proven")
        return 0
    print(f"verify-paper {W.name}: MISMATCH (families {fam}, resolved={resolved_ok})")
    return 3


def build_parser(command=None) -> _Parser:
    """The argument parser: every subcommand, or only `command`'s when it
    names one, so that a run builds only the subparser it parses with."""
    ap = _Parser(prog="heckefam", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def wanted(name):
        return command is None or command == name

    if wanted("list"):
        sub.add_parser("list", help="list built-in groups").set_defaults(func=cmd_list)

    if wanted("validate"):
        v = sub.add_parser("validate", help="validate an external group data file")
        v.add_argument("file")
        v.set_defaults(func=cmd_validate)

    for cname, fn, needs_prime in (
        ("families", cmd_families, False),
        ("decomp", cmd_decomp, True),
        ("invariants", cmd_invariants, False),
        ("bad-primes", cmd_bad_primes, False),
        ("constructible", cmd_constructible, False),
    ):
        if not wanted(cname):
            continue
        c = sub.add_parser(cname)
        c.add_argument("--group", required=True)
        if cname == "families":
            c.add_argument("--prime", type=int, default=None)
        if needs_prime:
            c.add_argument("--prime", type=int, required=True)
        c.add_argument("--format", choices=["md", "json"], default="md")
        c.set_defaults(func=fn)

    if wanted("symbols"):
        s = sub.add_parser("symbols", help="symbol combinatorics checks")
        ssub = s.add_subparsers(dest="symcmd", required=True)
        sv = ssub.add_parser("verify")
        sv.add_argument("--rank", type=int, required=True)
        sv.add_argument("--defect", type=int, required=True)
        sv.add_argument("--parity", choices=[*PARITY_NAMES, "all"], default="odd",
                        help="symbol type by defect; all runs each type in turn")
        sv.set_defaults(func=cmd_symbols)

    if wanted("verify-paper"):
        vp = sub.add_parser("verify-paper", help="compare against bundled golden tables")
        vp.add_argument("--group", required=True)
        vp.set_defaults(func=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # includes GroupDataError and JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
