"""Per-layer tracing from outside the program.

Tracer.install rebinds each layer's public entry points, in every module
that imported them (``from .x import y`` copies the binding), to
wrappers that record one span per call: name, start, end, parent span
and a small note taken from the arguments or result.  Spans stay in
memory and are written out once, after the timed section.  Progress
events on stderr are timestamped by a line proxy, since the program
reports search blocks only there.

summarize turns the span files of a traced pass into the per-layer
metrics; a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from functools import wraps


def _prime_count(m: int) -> int:
    count, p = 0, 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1
    return count + (m > 1)


def _note_bool(args, result):
    return bool(result)


def _note_autocorr(args, result):
    return hash(args[0])


def _note_c_exponent(args, result):
    return _prime_count(args[0].m)


def _note_decide(args, result):
    return result.outcome


def _note_len(args, result):
    return len(result)


# (module, attribute, span name, note)
TARGETS = [
    ("gbfkit.cli", "main", "cli.main", None),
    ("gbfkit.cli", "decide", "criteria.decide", _note_decide),
    ("gbfkit.criteria", "decide", "criteria.decide", _note_decide),
    ("gbfkit.ring", "factorize", "ring.factorize", None),
    ("gbfkit.criteria", "factorize", "ring.factorize", None),
    ("gbfkit.vsum", "factorize", "ring.factorize", None),
    ("gbfkit.ring", "character_value_is_zero", "ring.zero_test", _note_bool),
    ("gbfkit.gbf", "character_value_is_zero", "ring.zero_test", _note_bool),
    ("gbfkit.vsum", "character_value_is_zero", "ring.zero_test", _note_bool),
    ("gbfkit.search", "character_value_is_zero", "ring.zero_test", _note_bool),
    ("gbfkit.gbf", "compute_autocorr", "gbf.autocorr", _note_autocorr),
    ("gbfkit.cli", "compute_autocorr", "gbf.autocorr", _note_autocorr),
    ("gbfkit.gbf", "is_gbf_exact", "gbf.exact", _note_bool),
    ("gbfkit.cli", "is_gbf_exact", "gbf.exact", _note_bool),
    ("gbfkit.search", "is_gbf_exact", "gbf.exact", _note_bool),
    ("gbfkit.cli", "brute_force", "search.brute_force", None),
    ("gbfkit.cli", "n3_catalog_check", "search.catalog", None),
    ("gbfkit.cli", "c_exponent", "vsum.c_exponent", _note_c_exponent),
    ("gbfkit.vsum", "c_exponent", "vsum.c_exponent", _note_c_exponent),
    ("gbfkit.criteria", "c_exponent", "vsum.c_exponent", _note_c_exponent),
    ("gbfkit.cli", "structure_decompose", "vsum.structure", None),
    ("gbfkit.vsum", "enumerate_minimal_vsums", "vsum.enumerate", _note_len),
]


class _LineStamps:
    """Stream proxy that timestamps every complete line written."""

    def __init__(self, inner, stamps: list):
        self._inner = inner
        self._stamps = stamps
        self._buf = ""

    def write(self, text: str) -> int:
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self._stamps.append((time.perf_counter(), line))
        return self._inner.write(text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, note, calling module)
        self.spans: list = []
        self.events: list = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, note, origin):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent,
                              note(args, result) if note and result is not None else None,
                              origin)

        return traced

    def install(self) -> None:
        for module, attr, name, note in TARGETS:
            mod = importlib.import_module(module)
            origin = module.rsplit(".", 1)[1]
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, note, origin))
        sys.stderr = _LineStamps(sys.stderr, self.events)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "events": self.events}, fh)


def _self_times(spans: list) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def summarize(traces: list[dict], store_bytes: int) -> dict[str, float]:
    """Per-layer metrics over the span files of one traced pass per
    workload (one file per process)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    zero_true = zero_from_vsum = exact_true = unknown = found = 0
    autocorr_fns = 0
    two_prime_s = multi_prime_s = 0.0
    blocks: list[float] = []
    first_blocks: list[float] = []
    examined = pruned = survivors = confirmed = 0
    search_s = 0.0
    for trace in traces:
        spans = [tuple(s) for s in trace["spans"]]
        selfs = _self_times(spans)
        fns = set()
        for (name, start, end, parent, note, origin), own in zip(spans, selfs):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            incl_s[name] = incl_s.get(name, 0.0) + (end - start)
            if name == "ring.zero_test":
                zero_true += note is True
                zero_from_vsum += origin == "vsum"
            elif name == "gbf.autocorr":
                fns.add(note)
            elif name == "gbf.exact":
                exact_true += note is True
            elif name == "criteria.decide":
                unknown += note == "Unknown"
            elif name == "vsum.enumerate":
                found += note or 0
            elif name == "vsum.c_exponent":
                # m = p^a q^b, where every v-sum is a sum of shifted P_p, P_q
                if note is not None and note <= 2:
                    two_prime_s += end - start
                else:
                    multi_prime_s += end - start
        autocorr_fns += len(fns)

        searches = [s for s in spans if s[0] == "search.brute_force"]
        events = [(t, json.loads(line)) for t, line in trace["events"] if line.startswith("{")]
        for name, start, end, *_ in searches:
            mine = [(t, ev) for t, ev in events if start <= t <= end]
            if not mine:
                continue
            search_s += end - start
            prev = start
            for i, (t, ev) in enumerate(mine):
                (first_blocks if i == 0 else blocks).append(t - prev)
                prev = t
                examined += ev["examined"]
                pruned += ev["pruned"]
            # exact confirmations inside blocks; the final re-check of a
            # witness runs after the last progress event
            last = mine[-1][0]
            for s in spans:
                if s[0] == "gbf.exact" and s[5] == "search" and start <= s[1] <= last:
                    survivors += 1
                    confirmed += s[4] is True

    def n(name):
        return calls.get(name, 0)

    def frac(num, den):
        return num / den if den else 0.0

    all_blocks = first_blocks + blocks
    return {
        "ring.zero_test.calls": n("ring.zero_test"),
        "ring.zero_test.self_s": self_s.get("ring.zero_test", 0.0),
        "ring.zero_test.true_frac": frac(zero_true, n("ring.zero_test")),
        "ring.factorize.calls": n("ring.factorize"),
        "ring.factorize.self_s": self_s.get("ring.factorize", 0.0),
        "gbf.autocorr.calls": n("gbf.autocorr"),
        "gbf.autocorr.self_s": self_s.get("gbf.autocorr", 0.0),
        "gbf.autocorr.calls_per_fn": frac(n("gbf.autocorr"), autocorr_fns),
        "gbf.exact.calls": n("gbf.exact"),
        "gbf.exact.self_s": self_s.get("gbf.exact", 0.0),
        "gbf.exact.bent_frac": frac(exact_true, n("gbf.exact")),
        "vsum.c_exponent.calls": n("vsum.c_exponent"),
        "vsum.c_exponent.two_prime_s": two_prime_s,
        "vsum.c_exponent.multi_prime_s": multi_prime_s,
        "vsum.structure.self_s": self_s.get("vsum.structure", 0.0),
        "vsum.enumerate.self_s": self_s.get("vsum.enumerate", 0.0),
        "vsum.enumerate.found": found,
        "vsum.zero_tests": zero_from_vsum,
        "search.blocks": len(all_blocks),
        "search.block_s.p50": statistics.median(all_blocks) if all_blocks else 0.0,
        "search.block_s.max": max(all_blocks, default=0.0),
        "search.first_block_s": sum(first_blocks),
        "search.assignments_per_s": frac(examined, search_s),
        "search.examined": examined,
        "search.pruned": pruned,
        "search.survivors": survivors,
        "search.confirm_frac": frac(confirmed, survivors),
        "search.catalog.s": incl_s.get("search.catalog", 0.0),
        "criteria.decide.calls": n("criteria.decide"),
        "criteria.decide.us_per_call": 1e6 * frac(incl_s.get("criteria.decide", 0.0),
                                                  n("criteria.decide")),
        "criteria.unknown_frac": frac(unknown, n("criteria.decide")),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.store.bytes": store_bytes,
    }
