"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny size with --trace 0 and --trace 1 and checks
that the result line has exactly the metrics BENCHMARK.json names, with
their units, that every output check passed (fail_frac == 0), that one
seed gives byte-identical inputs and another seed different ones, and
that the benchmark refuses to run where no gbfkit sources exist.  It
takes about a minute and is not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("search-ladder", "verify-batch", "vsum-decompose", "decide-table")


def bench(workload: str, seed: int, trace: int, root: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print(f"FAIL {what}", file=sys.stderr)

    for workload in NAMES:
        digests = []
        for trace, seed in ((0, 1), (1, 1), (0, 2)):
            tag = f"{workload} trace={trace} seed={seed}"
            rc, lines, err = bench(workload, seed, trace)
            expect(rc == 0 and lines, f"{tag}: exit {rc}\n{err[-2000:]}")
            if rc != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag}: checks {result}\n{err[-2000:]}")
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{tag}: metrics {sorted(set(got) ^ set(wanted))}")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{tag}: non-numeric metric")
            env = json.loads(lines[0])["env"]
            digests.append(env["inputs_sha256"])
            if not trace:
                summary = json.loads(lines[-2])["summary"]
                expect(summary["fail_frac"] == 0, f"{tag}: fail_frac {summary['fail_frac']}")
            print(f"ok {tag}")
        if len(digests) == 3:
            expect(digests[0] == digests[1], f"{workload}: one seed, different inputs")
            if workload in ("verify-batch", "vsum-decompose"):
                expect(digests[0] != digests[2], f"{workload}: seed does not change inputs")

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines, _ = bench(NAMES[0], 1, 0, root=bare)
        expect(rc != 0 and not lines, f"bare checkout: exit {rc}, stdout {lines}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass

    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
