"""The bench in perfbench/ calls the program by name.  The per-layer
tracer in perfbench/spans.py rebinds program names by module and
attribute, and perfbench/probes.py passes brute_force a worker count;
each must keep working, or the traced bench pass fails although every
other test passes."""

import importlib
import importlib.util
from pathlib import Path

from gbfkit.search import brute_force

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        (mod, attr)
        for mod, attr, _, _ in spans.TARGETS
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []


def test_search_probe_worker_count_changes_nothing():
    # the pool probe times brute_force(m, 3) at workers 1 and 2, at
    # m = 15, or 9 when tiny: the search runs in process either way, with
    # the same outcome and the same progress events
    def events_of(**kwargs):
        events = []
        out = brute_force(m, 3, progress=events.append, **kwargs)
        return out, [{k: v for k, v in e.items() if k != "seconds"} for e in events]

    for m in (9, 15):
        plain, plain_events = events_of()
        assert plain.status == "ExhaustedNone" and plain_events
        assert events_of(workers=2) == (plain, plain_events), m
