"""gbfkit benchmark: the `gbf` workloads a user runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/workloads.py): search-ladder, verify-batch,
vsum-decompose, decide-table.  The load is closed-loop with one client:
calls run one after another, each `gbf` invocation or library session in a
fresh interpreter (perfbench/child.py), so every call pays the imports
and the lazy caches a user pays.

--trace 0 repeats whole passes of the workload until --seconds have
passed (a pass that starts in time runs to its end) and reports the
end-to-end metrics named in BENCHMARK.json (see end_to_end for how
passes are combined).

--trace 1 runs one untraced pass of the workload, then one traced pass of
every workload (spans recorded from outside the program, perfbench/
spans.py), then the layer probes (perfbench/probes.py), and reports the
per-layer metrics.  Those describe the whole suite, so every layer is
measured whichever workload is named; trace.overhead_frac compares the
traced and untraced passes of the named workload.

Every output is checked (perfbench/workloads.py).  The last line of
stdout is the result object; the lines before it give the environment
and, for --trace 0, the reported values, the median, quartiles and
sample count of the per-pass sums and of setup time, and fail_frac
(failed checks over attempted).  Work files live under
.perfbench_work/ in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
NAMES = ("search-ladder", "verify-batch", "vsum-decompose", "decide-table")
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


class Runner:
    """Starts one child interpreter per call, strictly one at a time."""

    def __init__(self, work: str):
        self.work = work
        self.count = 0
        path = os.environ.get("PYTHONPATH")
        # gbfkit makes no BLAS call, but OpenBLAS's default worker thread
        # spins through numpy's import and into the timed call, adding
        # 60-90 ms of setup and CPU time that swung by a third with the
        # load on the other core; one client means one thread
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
                        TMPDIR=work, OPENBLAS_NUM_THREADS="1")

    def warm_up(self) -> None:
        """Compile the package's bytecode once, so no timed process does."""
        subprocess.run([sys.executable, "-c", "import gbfkit.cli"], env=self.env, cwd=ROOT,
                       check=True, timeout=CHILD_TIMEOUT_S)

    def run(self, spec: dict, trace: bool = False) -> dict:
        base = os.path.join(self.work, f"call-{self.count}")
        self.count += 1
        job = dict(spec, trace=trace, result=base + ".result.json", spans=base + ".spans.json")
        with open(base + ".job.json", "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        store = spec.get("store")
        with open(base + ".out", "w") as out, open(base + ".err", "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, base + ".job.json", repr(spawned)],
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            with open(base + ".err", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"call {spec} exited {proc.returncode}:\n{tail}")
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["store_bytes"] = os.path.getsize(store) if store and os.path.exists(store) else 0
        if trace:
            with open(job["spans"], encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
        for suffix in (".job.json", ".out", ".err", ".result.json", ".spans.json"):
            if os.path.exists(base + suffix):
                os.remove(base + suffix)
        return result


def run_pass(workload, runner: Runner, pass_dir: str, trace: bool = False):
    os.makedirs(pass_dir)
    calls = workload.calls(pass_dir)
    results = [runner.run(call, trace) for call in calls]
    checks = workload.check(calls, [r["rc"] for r in results])
    shutil.rmtree(pass_dir)
    return results, checks


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(seed: int, inputs: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(inputs)):
        digest.update(name.encode())
        with open(os.path.join(inputs, name), "rb") as fh:
            digest.update(fh.read())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "inputs_sha256": digest.hexdigest(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, runner, work, seconds):
    """Whole passes until the time is up.

    wall_s and cpu_s are the sum over the pass's calls of each call's
    median across passes, with every time rescaled to the reference
    loop's nominal speed (child.py).  On a 2-core cloud VM shared with
    other tenants, a fixed pure-Python loop ran 1.2-1.8x its best time
    in one-second windows, drifting over minutes; raw medians of 25 s runs
    then spread 15-30% across runs, rescaled ones about 5%.  setup_s is
    the median over every process of the run, rescaled the same way;
    peak_rss_mb the largest per-call median.  The summary line also gives
    the per-pass sums, rescaled and raw."""
    from workloads import Checks

    checks = Checks()
    passes = []
    deadline = time.monotonic() + seconds
    while not passes or time.monotonic() < deadline:
        results, done = run_pass(workload, runner, os.path.join(work, f"pass-{len(passes)}"))
        checks.merge(done)
        passes.append(results)
    per_call = list(zip(*passes))
    values = {
        "wall_s": sum(statistics.median(r["norm_wall_s"] for r in c) for c in per_call),
        "cpu_s": sum(statistics.median(r["norm_cpu_s"] for r in c) for c in per_call),
        "setup_s": statistics.median(r["norm_setup_s"] for p in passes for r in p),
        "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in c) for c in per_call),
    }
    samples = {
        "pass_wall_s": [sum(r["norm_wall_s"] for r in p) for p in passes],
        "pass_cpu_s": [sum(r["norm_cpu_s"] for r in p) for p in passes],
        "setup_s": [r["norm_setup_s"] for p in passes for r in p],
        "raw_pass_wall_s": [sum(r["wall_s"] for r in p) for p in passes],
        "raw_pass_cpu_s": [sum(r["cpu_s"] for r in p) for p in passes],
        "raw_setup_s": [r["setup_s"] for p in passes for r in p],
    }
    return values, samples, checks


def per_layer(workload, others, runner, work, seed, tiny):
    import spans
    from workloads import Checks

    checks = Checks()
    plain, done = run_pass(workload, runner, os.path.join(work, "untraced"))
    checks.merge(done)
    traces, store_bytes, traced_wall = [], 0, None
    for wl in [workload] + others:
        results, done = run_pass(wl, runner, os.path.join(work, f"traced-{wl.name}"), trace=True)
        checks.merge(done)
        traces += [r["trace"] for r in results if "trace" in r]
        store_bytes += sum(r["store_bytes"] for r in results)
        if wl is workload:
            traced_wall = sum(r["norm_wall_s"] for r in results)
    probe = runner.run({"kind": "probe", "seed": seed, "tiny": tiny})
    checks.attempted += probe["attempted"]
    checks.failures += probe["failures"]
    metrics = spans.summarize(traces, store_bytes)
    metrics.update(probe["metrics"])
    metrics["trace.overhead_frac"] = traced_wall / sum(r["norm_wall_s"] for r in plain) - 1.0
    return metrics, checks


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and
    # waited for and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "gbfkit", "cli.py")) or not os.path.isfile(spec_path):
        print(f"perfbench: {ROOT} holds no gbfkit sources (src/gbfkit) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        workload = workloads.WORKLOADS[args.workload](args.seed, inputs, args.tiny)
        runner = Runner(work)
        runner.warm_up()
        if args.trace:
            others = []
            for name in NAMES:
                if name != args.workload:
                    other_inputs = os.path.join(work, f"inputs-{name}")
                    os.makedirs(other_inputs)
                    others.append(workloads.WORKLOADS[name](args.seed, other_inputs, args.tiny))
            values, checks = per_layer(workload, others, runner, work, args.seed, args.tiny)
            wanted = spec["per_layer"]
        else:
            values, samples, checks = end_to_end(workload, runner, work, args.seconds)
            wanted = spec["end_to_end"]
        print(json.dumps({"env": environment(args.seed, inputs)}, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass

    failed = len(checks.failures)
    for what in checks.failures[:20]:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    if not args.trace:
        summary = {"reported": values}
        for name, v in samples.items():
            q1, q2, q3 = quartiles(v)
            summary[name] = {"median": q2, "p25": q1, "p75": q3, "n": len(v)}
        summary["fail_frac"] = failed / checks.attempted
        print(json.dumps({"workload": args.workload, "summary": summary}, sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
