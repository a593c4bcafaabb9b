"""Command-line front end.

Subcommands: decide, verify, search, decompose, catalog, table.  Every
run builds a ResultRecord; with --json the record is printed verbatim,
and when a results store is configured (--store or GBF_STORE) the
record is appended there as one JSON line, whole even when several
runs share the store.

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
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .criteria import EXISTS, NONEXISTENT, UNKNOWN, decide
from .gbf import (
    GbfFunction,
    compute_autocorr,
    gf_data,
    is_gbf_exact,
    normalize_modulus,
)
from .ring import CyclicRingElt
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


def _emit(record: dict, args) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True, indent=2))
    store = args.store or os.environ.get("GBF_STORE")
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
                line = line.strip()
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


def _verify_one(fn: GbfFunction) -> dict:
    checked = normalize_modulus(fn)
    table = compute_autocorr(checked)
    counts = table.counts
    size, m = counts.shape
    origin_ok = counts[0, 0] == size and counts[0].sum() == size
    symmetric_ok = np.array_equal(counts[:, -np.arange(m) % m], counts)
    even_identity_ok = not (counts[1:, 0] % 2).any()
    identity_ok = None
    if m % 2 == 0:
        data = gf_data(table)
        a = np.fromiter(data.a.values(), dtype=np.int64, count=size - 1)
        b = np.fromiter(data.b.values(), dtype=np.int64, count=size - 1)
        identity_ok = bool(np.array_equal(a, size - 4 * len(data.support) + 8 * b))
    return {
        "input": fn.to_json(),
        "normalized": None if checked == fn else checked.to_json(),
        "is_gbf": is_gbf_exact(table),
        "invariants": {
            "origin_mass": bool(origin_ok),
            "inversion_symmetric": bool(symmetric_ok),
            "even_identity_coeff": bool(even_identity_ok),
            "even_m_identity": identity_ok,
        },
    }


def _cmd_verify(args) -> int:
    try:
        fns = _parse_functions(args)
    except (ValueError, OSError) as exc:
        print(f"gbf verify: {exc}", file=sys.stderr)
        return EX_DATA
    reports = [_verify_one(fn) for fn in fns]
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
        outcome = brute_force(
            args.m,
            args.n,
            budget=args.budget,
            prune=not args.no_prune,
            workers=args.threads,
            progress=progress,
        )
    except BudgetExceededError as exc:
        print(f"gbf search: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"gbf search: {exc}", file=sys.stderr)
        return EX_USAGE
    payload = outcome.certificate()
    payload["pruned"] = outcome.pruned
    payload["status"] = outcome.status
    payload["wall_time"] = outcome.wall_time
    record = _record("search", {"m": args.m, "n": args.n, "budget": args.budget}, payload)
    if not args.json:
        if outcome.witness is not None:
            vals = ",".join(str(v) for v in outcome.witness.values)
            print(f"WitnessFound ({args.m}, {args.n}): {vals}")
            print(f"  verified exact: {str(is_gbf_exact(outcome.witness)).lower()}")
        else:
            print(
                f"ExhaustedNone ({args.m}, {args.n}): examined {outcome.examined}"
                f" of {outcome.normalized_space} (pruned {outcome.pruned})"
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
        print(f"mismatches: {len(report['mismatches'])}")
        for blob in report["mismatches"]:
            print(f"  {json.dumps(blob, sort_keys=True)}")
        print(f"order-42 shapes vanish: {str(report['form7_vanish_order_42']).lower()}")
    _emit(record, args)
    return 0 if not report["mismatches"] else 1


def _cmd_table(args) -> int:
    if args.m_max > 10000 or args.n_max > 16:
        print("gbf table: range too large (m-max <= 10000, n-max <= 16)", file=sys.stderr)
        return EX_USAGE
    if args.m_max < 2 or args.n_max < 1:
        print("gbf table: need m-max >= 2 and n-max >= 1", file=sys.stderr)
        return EX_USAGE
    rows = []
    for m in range(2, args.m_max + 1):
        if m % 4 == 0:
            continue
        rows.append((m, [decide(m, n).outcome for n in range(1, args.n_max + 1)]))
    cells = [
        {"m": m, "n": n + 1, "outcome": outcome}
        for m, outcomes in rows
        for n, outcome in enumerate(outcomes)
    ]
    record = _record(
        "table", {"m_max": args.m_max, "n_max": args.n_max}, {"cells": cells}
    )
    if not args.json:
        print("m," + ",".join(f"n={n}" for n in range(1, args.n_max + 1)))
        for m, outcomes in rows:
            print(f"{m}," + ",".join(outcomes))
    _emit(record, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbf",
        description="Exact arithmetic for generalized bent function existence.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="print the full result record")
        p.add_argument("--store", help="append the result record to this JSON-lines file")

    p = sub.add_parser("decide", help="run the criteria pipeline on (m, n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(run=_cmd_decide)

    p = sub.add_parser("verify", help="exact bent check of explicit functions")
    p.add_argument("function", nargs="*", help="inline: m n v0,v1,...")
    p.add_argument("--file", help="file with one 'm n v0,v1,...' per line")
    common(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive witness search over f(0) = 0")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--progress", action="store_true", help="JSON progress events on stderr")
    common(p)
    p.set_defaults(run=_cmd_search)

    p = sub.add_parser("decompose", help="v-sum analysis of a ring element")
    p.add_argument("elt", help='element JSON {"m":..., "coeffs":[...]} or @file')
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--c-exponent", action="store_true")
    mode.add_argument("--minimal", action="store_true")
    mode.add_argument("--structure", action="store_true")
    common(p)
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("catalog", help="dimension-3 autocorrelation catalog experiment")
    common(p)
    p.set_defaults(run=_cmd_catalog)

    p = sub.add_parser("table", help="verdict matrix over parameter ranges")
    p.add_argument("--m-max", type=int, default=100)
    p.add_argument("--n-max", type=int, default=9)
    common(p)
    p.set_defaults(run=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else EX_USAGE
    try:
        return args.run(args)
    except OSError as exc:
        print(f"gbf: {exc}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
