"""The per-layer tracer in perfbench/spans.py rebinds program names by
module and attribute; each of them must exist, or the traced bench
pass fails although every other test passes."""

import importlib
import importlib.util
from pathlib import Path

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
