"""Command-line front end.

Subcommands: decide, verify, search, decompose, catalog, table, each
defined once in COMMANDS.  A call that names a command builds one
argument parser, that command's; help, --version, a missing or unknown
command and arguments that parser leaves over go to the whole `gbf`
parser, so help and usage errors read as the whole parser's.

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

import argparse
import fcntl
import json
# argparse's gettext imports locale when the first parser is built, in
# every gbf invocation: import it with the other startup imports
import locale  # noqa: F401
import os
import sys
from datetime import datetime, timezone

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


def _decide_args(p) -> None:
    p.add_argument("m", type=decimal_int)
    p.add_argument("n", type=decimal_int)


def _verify_args(p) -> None:
    p.add_argument("function", nargs="*", help="inline: m n v0,v1,...")
    p.add_argument("--file", help="file with one 'm n v0,v1,...' per line")


def _search_args(p) -> None:
    p.add_argument("m", type=decimal_int)
    p.add_argument("n", type=decimal_int)
    p.add_argument("--budget", type=decimal_int, default=DEFAULT_BUDGET)
    p.add_argument("--progress", action="store_true", help="JSON progress events on stderr")


def _decompose_args(p) -> None:
    p.add_argument("elt", help='element JSON {"m":..., "coeffs":[...]} or @file')
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--c-exponent", action="store_true")
    mode.add_argument("--minimal", action="store_true")
    mode.add_argument("--structure", action="store_true")


def _table_args(p) -> None:
    p.add_argument("--m-max", type=decimal_int, default=100)
    p.add_argument("--n-max", type=decimal_int, default=9)


# name -> (help, adds the command's own arguments, runner), in the order
# `gbf -h` lists them
COMMANDS = {
    "decide": ("run the criteria pipeline on (m, n)", _decide_args, _cmd_decide),
    "verify": ("exact bent check of explicit functions", _verify_args, _cmd_verify),
    "search": ("exhaustive witness search over f(0) = 0", _search_args, _cmd_search),
    "decompose": ("v-sum analysis of a ring element", _decompose_args, _cmd_decompose),
    "catalog": ("dimension-3 autocorrelation catalog experiment", None, _cmd_catalog),
    "table": ("verdict matrix over parameter ranges", _table_args, _cmd_table),
}


def _fill(p: argparse.ArgumentParser, add_args, run) -> argparse.ArgumentParser:
    if add_args is not None:
        add_args(p)
    p.add_argument("--json", action="store_true", help="print the full result record")
    p.add_argument("--store", help="append the result record to this JSON-lines file")
    p.set_defaults(run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The whole `gbf` parser: one subparser per entry of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="gbf",
        description="Exact arithmetic for generalized bent function existence.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, add_args, run) in COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), add_args, run)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv.  When argv[0] names a command, only that command's
    parser is built: the one the whole parser would hand argv[1:] to.
    Anything else, or arguments that parser leaves over, goes to the whole
    parser, so help, usage and errors read as the whole parser's."""
    spec = COMMANDS.get(argv[0]) if argv else None
    if spec is not None:
        _, add_args, run = spec
        parser = _fill(argparse.ArgumentParser(prog=f"gbf {argv[0]}"), add_args, run)
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
