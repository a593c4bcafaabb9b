"""Command-line front end.

Subcommands: decide, verify, search, decompose, catalog, table, each
defined once in COMMANDS, its arguments as data.  Plain arguments (a
command, its positionals, then its options spelled in full) are read
from that table by _read, with no parser built and argparse not
imported.  Anything else goes to argparse, the only source of help,
usage and error text: a call that names a command builds one argument
parser, that command's; help, --version, a missing or unknown command
and arguments that parser leaves over go to the whole `gbf` parser, so
help and usage errors read as the whole parser's.

Every run builds a ResultRecord; with --json the record is printed verbatim,
and when a results store is configured (--store or GBF_STORE) the
record is appended there as one JSON line, whole even when several
runs share the store.  `gbf table` renders its record only when one of
the two asks for it, straight to the JSON line (see _table_line).

Exit codes are a function of the outcome alone: decide maps its verdict
to 0 (Exists), 1 (Nonexistent), 2 (Unknown); search returns 0 on a
witness, 1 on exhaustion, 3 when the budget refuses the space; catalog
returns 1 when the mismatch list is nonempty.  Usage errors exit 64,
malformed data 65.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
from datetime import datetime, timezone
from types import SimpleNamespace

# the search screens with small complex matrix products, on which more
# OpenBLAS threads only spin beside the main one, doubling a search's
# CPU time for the same wall time.  So one thread, set before the
# imports below load numpy; a value the caller set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .criteria import (
    EXISTS,
    NONEXISTENT,
    UNKNOWN,
    decide,
    outcome_rows,
)
from .gbf import (
    GbfFunction,
    autocorr_invariants,
    compute_autocorr,
    is_gbf_exact,
    normalize_modulus,
)
from .ring import CyclicRingElt, decimal_int, reduction_radical
from .search import DEFAULT_BUDGET, BudgetExceededError, brute_force, n3_catalog_check
from .vsum import c_exponent, is_minimal_vsum, reduced_exponent, structure_decompose

EX_USAGE = 64
EX_DATA = 65


def _record(command: str, params: dict, outcome) -> dict:
    return {
        "command": command,
        "params": params,
        "outcome": outcome,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }


def _store(args) -> str | None:
    return args.store or os.environ.get("GBF_STORE")


def _emit(record: dict, args) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True, indent=2))
    store = _store(args)
    if store:
        _append_line(store, json.dumps(record, sort_keys=True) + "\n")


def _append_line(path: str, line: str) -> None:
    """Append one whole line, safe against other writers of the same file.

    One os.write on an O_APPEND descriptor, under an exclusive flock, so
    that concurrent gbf runs sharing a store never interleave partial
    lines.  The loop only repeats if the kernel takes a short write.
    """
    data = memoryview(line.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


def _cmd_decide(args) -> int:
    try:
        verdict = decide(args.m, args.n)
    except ValueError as exc:
        print(f"gbf decide: {exc}", file=sys.stderr)
        return EX_USAGE
    record = _record("decide", {"m": args.m, "n": args.n}, verdict.to_json())
    if not args.json:
        print(f"{verdict.outcome} for ({args.m}, {args.n})")
        for step in verdict.trace:
            print(f"  via {step.id}: {step.cite}")
        if verdict.residual is not None:
            print(f"  residual: ({verdict.residual[0]}, {verdict.residual[1]})")
    _emit(record, args)
    return {EXISTS: 0, NONEXISTENT: 1, UNKNOWN: 2}[verdict.outcome]


def _parse_functions(args) -> list[GbfFunction]:
    if args.file and args.function:
        raise ValueError("give the function inline or with --file, not both")
    if args.file:
        fns = []
        with open(args.file, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                # ASCII whitespace only: no-break and em spaces are not
                # separators (see GbfFunction.from_line)
                line = line.strip(" \t\r\n")
                if not line or line.startswith("#"):
                    continue
                try:
                    fns.append(GbfFunction.from_line(line))
                except ValueError as exc:
                    raise ValueError(f"{args.file}:{lineno}: {exc}") from exc
        if not fns:
            raise ValueError(f"{args.file}: no functions found")
        return fns
    if len(args.function) != 3:
        raise ValueError("expected inline 'm n v0,v1,...' or --file")
    return [GbfFunction.from_line(" ".join(args.function))]


def _verify_one(fn: GbfFunction, checked: GbfFunction) -> dict:
    counts = compute_autocorr(checked)
    return {
        "input": fn.to_json(),
        "normalized": None if checked == fn else checked.to_json(),
        "is_gbf": is_gbf_exact(counts),
        "invariants": autocorr_invariants(checked, counts),
    }


def _cmd_verify(args) -> int:
    try:
        fns = _parse_functions(args)
        checked = [normalize_modulus(fn) for fn in fns]
        for m in {fn.m for fn in checked}:
            reduction_radical(m)  # refuse oversized orders before any table
    except (ValueError, OSError) as exc:
        print(f"gbf verify: {exc}", file=sys.stderr)
        return EX_DATA
    reports = [_verify_one(fn, norm) for fn, norm in zip(fns, checked)]
    record = _record("verify", {"count": len(fns)}, reports)
    if not args.json:
        for i, rep in enumerate(reports):
            fn = fns[i]
            print(f"[{i}] m={fn.m} n={fn.n}: GBF: {str(rep['is_gbf']).lower()}")
            if rep["normalized"] is not None:
                norm = rep["normalized"]
                vals = ",".join(str(v) for v in norm["values"])
                print(f"    normalized to m={norm['m']}: {vals}")
            bad = [k for k, v in rep["invariants"].items() if v is False]
            print(f"    invariants: {'ok' if not bad else 'FAILED ' + ', '.join(bad)}")
    _emit(record, args)
    return 0 if all(rep["is_gbf"] for rep in reports) else 1


def _cmd_search(args) -> int:
    progress = None
    if args.progress:

        def progress(event):
            print(json.dumps(event, sort_keys=True), file=sys.stderr)

    try:
        outcome = brute_force(args.m, args.n, budget=args.budget, progress=progress)
    except BudgetExceededError as exc:
        print(f"gbf search: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"gbf search: {exc}", file=sys.stderr)
        return EX_USAGE
    payload = outcome.certificate()
    payload["pruned"] = 0  # kept so that existing readers keep working
    payload["status"] = outcome.status
    payload["wall_time"] = outcome.wall_time
    record = _record("search", {"m": args.m, "n": args.n, "budget": args.budget}, payload)
    if not args.json:
        if outcome.witness is not None:
            vals = ",".join(str(v) for v in outcome.witness.values)
            print(f"WitnessFound ({args.m}, {args.n}): {vals}")
            # brute_force reports only a witness its exact test confirmed
            print("  verified exact: true")
        else:
            print(
                f"ExhaustedNone ({args.m}, {args.n}): examined {outcome.examined}"
                f" of {outcome.normalized_space}"
            )
        print(f"  wall time: {outcome.wall_time:.2f}s")
    _emit(record, args)
    return 0 if outcome.witness is not None else 1


def _load_elt(text: str) -> CyclicRingElt:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    blob = json.loads(text)
    elt = CyclicRingElt.from_json(blob)
    if not elt.is_nonnegative():
        raise ValueError("decomposition needs nonnegative coefficients")
    return elt


def _cmd_decompose(args) -> int:
    try:
        elt = _load_elt(args.elt)
        if args.c_exponent:
            k, decomp = c_exponent(elt)
            payload = {"mode": "c-exponent", "c_exponent": k, "decomposition": decomp.to_json()}
        elif args.minimal:
            minimal = is_minimal_vsum(elt)
            payload = {
                "mode": "minimal",
                "is_minimal": minimal,
                "reduced_exponent": reduced_exponent(elt),
            }
        else:
            parts = structure_decompose(elt)
            payload = {
                "mode": "structure",
                "parts": [{"prime": p, "cofactor": e.to_json()} for p, e in parts],
            }
    except (ValueError, KeyError, TypeError, json.JSONDecodeError, OSError) as exc:
        print(f"gbf decompose: {exc}", file=sys.stderr)
        return EX_DATA
    record = _record("decompose", {"elt": elt.to_json()}, payload)
    if not args.json:
        print(json.dumps(payload, sort_keys=True))
    _emit(record, args)
    return 0


def _cmd_catalog(args) -> int:
    report = n3_catalog_check()
    record = _record("catalog", {}, report)
    if not args.json:
        print(f"candidates: {report['candidates']}")
        for tag, count in sorted(report["counts"].items()):
            print(f"  {tag}: {count}")
        rejected = ", ".join(f"{name} {count}" for name, count in report["rejected"].items())
        print(f"rejected: {rejected}")
        print(f"mismatches: {len(report['mismatches'])}")
        for blob in report["mismatches"]:
            print(f"  {json.dumps(blob, sort_keys=True)}")
        print(f"order-42 shapes vanish: {str(report['form7_vanish_order_42']).lower()}")
    _emit(record, args)
    return 0 if not report["mismatches"] else 1


def _table_line(args, rows) -> str:
    """The table's record as one JSON line, exactly json.dumps(record,
    sort_keys=True) of a record whose outcome lists every cell as
    {"m": m, "n": n, "outcome": o}.

    The cells are not built as dicts: the record is dumped with an empty
    cell list, and each row's cells are spliced in as str(m).join(parts),
    where parts is its outcome row's cell template split at m, rendered
    once per distinct row.  The keys are already in sorted order, and
    every outcome is one of three fixed ASCII words, so nothing needs
    escaping.
    """
    record = _record("table", {"m_max": args.m_max, "n_max": args.n_max}, {"cells": []})
    head, tail = json.dumps(record, sort_keys=True).split('"cells": []')
    parts = {
        row: ", ".join(
            f'{{"m": \0, "n": {n}, "outcome": "{outcome}"}}' for n, outcome in enumerate(row, 1)
        ).split("\0")
        for row in {row for _, row in rows}
    }
    cells = ", ".join([str(m).join(parts[row]) for m, row in rows])
    return f'{head}"cells": [{cells}]{tail}'


def _cmd_table(args) -> int:
    try:
        rows = outcome_rows(args.m_max, args.n_max)
    except ValueError as exc:
        print(f"gbf table: {exc}", file=sys.stderr)
        return EX_USAGE
    # few distinct outcome rows (17 of the 7499 at the caps): each is
    # rendered once, and every m reuses its row's text
    if not args.json:
        texts = {row: "," + ",".join(row) for row in {row for _, row in rows}}
        lines = ["m," + ",".join(f"n={n}" for n in range(1, args.n_max + 1))]
        lines += [str(m) + texts[row] for m, row in rows]
        sys.stdout.write("\n".join(lines) + "\n")
    store = _store(args)
    if args.json or store:
        line = _table_line(args, rows)
        if args.json:
            print(json.dumps(json.loads(line), sort_keys=True, indent=2))
        if store:
            _append_line(store, line + "\n")
    return 0


_INT = {"type": decimal_int}

# the options every command takes, after its own
_OUTPUT = (
    ("--json", {"action": "store_true", "help": "print the full result record"}),
    ("--store", {"help": "append the result record to this JSON-lines file"}),
)

# name -> (help, arguments, modes, runner), in the order `gbf -h` lists
# them.  arguments are (name, argparse keywords) pairs, positionals
# first; modes are store_true flags of which exactly one must be given.
# _read knows only the keywords used here (type, default, help,
# action="store_true" and nargs="*")
COMMANDS = {
    "decide": (
        "run the criteria pipeline on (m, n)",
        (("m", _INT), ("n", _INT)),
        (),
        _cmd_decide,
    ),
    "verify": (
        "exact bent check of explicit functions",
        (
            ("function", {"nargs": "*", "help": "inline: m n v0,v1,..."}),
            ("--file", {"help": "file with one 'm n v0,v1,...' per line"}),
        ),
        (),
        _cmd_verify,
    ),
    "search": (
        "exhaustive witness search over f(0) = 0",
        (
            ("m", _INT),
            ("n", _INT),
            ("--budget", {**_INT, "default": DEFAULT_BUDGET}),
            ("--progress", {"action": "store_true", "help": "JSON progress events on stderr"}),
        ),
        (),
        _cmd_search,
    ),
    "decompose": (
        "v-sum analysis of a ring element",
        (("elt", {"help": 'element JSON {"m":..., "coeffs":[...]} or @file'}),),
        ("--c-exponent", "--minimal", "--structure"),
        _cmd_decompose,
    ),
    "catalog": ("dimension-3 autocorrelation catalog experiment", (), (), _cmd_catalog),
    "table": (
        "verdict matrix over parameter ranges",
        (("--m-max", {**_INT, "default": 100}), ("--n-max", {**_INT, "default": 9})),
        (),
        _cmd_table,
    ),
}


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _read(argv: list[str]) -> SimpleNamespace | None:
    """argv as the named command's parser reads it, when argv is plain:
    a command, its positionals, then each of its options at most once,
    spelled in full, a valued option followed by its value, no token but
    an option starting with -, every integer decimal and exactly one
    mode if the command has modes.  None for anything else, which
    argparse reads instead."""
    spec = COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, arguments, modes, run = spec
    positionals = [(name, kw) for name, kw in arguments if not name.startswith("-")]
    options = dict(arguments[len(positionals) :] + _OUTPUT)
    options.update((flag, {"action": "store_true"}) for flag in modes)
    flags = {flag for flag, kw in options.items() if kw.get("action") == "store_true"}
    values = {
        _dest(flag): False if flag in flags else kw.get("default") for flag, kw in options.items()
    }
    values["run"] = run
    tokens, at = argv[1:], 0
    try:
        for name, kw in positionals:
            if kw.get("nargs") == "*":
                end = at
                while end < len(tokens) and not tokens[end].startswith("-"):
                    end += 1
                values[name], at = tokens[at:end], end
            elif at < len(tokens) and not tokens[at].startswith("-"):
                values[name] = kw.get("type", str)(tokens[at])
                at += 1
            else:
                return None
        seen = set()
        while at < len(tokens):
            flag = tokens[at]
            if flag in seen or flag not in options:
                return None
            seen.add(flag)
            if flag in flags:
                values[_dest(flag)] = True
                at += 1
            elif at + 1 < len(tokens) and not tokens[at + 1].startswith("-"):
                values[_dest(flag)] = options[flag].get("type", str)(tokens[at + 1])
                at += 2
            else:
                return None
    except ValueError:
        return None
    if modes and len(seen.intersection(modes)) != 1:
        return None
    return SimpleNamespace(**values)


def _fill(p, name: str):
    """Add the arguments of command name to the argparse parser p."""
    _, arguments, modes, run = COMMANDS[name]
    for arg, kw in arguments:
        p.add_argument(arg, **kw)
    if modes:
        group = p.add_mutually_exclusive_group(required=True)
        for flag in modes:
            group.add_argument(flag, action="store_true")
    for arg, kw in _OUTPUT:
        p.add_argument(arg, **kw)
    p.set_defaults(run=run)
    return p


def build_parser():
    """The whole `gbf` parser: one subparser per entry of COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gbf",
        description="Exact arithmetic for generalized bent function existence.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, *_) in COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: list[str]):
    """Parse argv.  Plain argv are read by _read, to the namespace the
    command's parser would give, with no parser built.  argparse reads
    whatever _read declines: when argv[0] names a command, only that
    command's parser is built, the one the whole parser would hand
    argv[1:] to.  Anything else, or arguments that parser leaves over,
    goes to the whole parser, so help, usage and errors read as the
    whole parser's."""
    args = _read(argv)
    if args is not None:
        return args
    import argparse

    if argv and argv[0] in COMMANDS:
        parser = _fill(argparse.ArgumentParser(prog=f"gbf {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else EX_USAGE
    try:
        return args.run(args)
    except OSError as exc:
        print(f"gbf: {exc}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
