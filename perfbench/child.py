"""Run one benchmark call in a fresh interpreter and report its cost.

    python3 child.py JOB.json SPAWN_MONOTONIC

gbfkit.cli is imported first, so setup (spawn to ready, on the
system-wide monotonic clock) covers interpreter start and every import
a `gbf` invocation pays.  A call is one `gbf` invocation or a library
session of a few public-function calls (items).  Wall and CPU time
(user + system, all threads) are taken around each item; peak resident
set size after the last.  Outputs for the checks and the spans of a
traced call are written after the timed section.

Each item is bracketed by a fixed pure-Python reference loop, and its
time is also reported rescaled to the loop's nominal speed
(norm_* = time * REFERENCE_S / loop time around it).  On a shared host
the CPU's speed for this process can swing by tens of percent within
seconds; the loop runs at the same speed as the item next to it, so
the rescaled time follows the program rather than its neighbours.
"""

import sys
import time

import gbfkit.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import gbfkit.vsum  # noqa: E402
from gbfkit.ring import CyclicRingElt  # noqa: E402

REFERENCE_LOOPS = 300_000
# nominal time of the reference loop: rescaled times are seconds on a
# CPU that runs the loop in this long
REFERENCE_S = 0.02


def _reference() -> float:
    """Wall time of the fixed reference loop.  (Its CPU time is no better
    a gauge: idle numpy worker threads can add to the process's CPU time
    while it runs.)"""
    wall = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - wall


def _items(job) -> list:
    """The calls to time: a gbf invocation, or a library session of one
    public function over a list of inputs."""
    if job["kind"] == "cli":
        return [lambda: gbfkit.cli.main(job["argv"])]
    kwargs = job["kwargs"]
    if job["func"] == "c_exponent":
        elts = [CyclicRingElt.from_json(e) for e in kwargs["elts"]]
        return [lambda e=e: gbfkit.vsum.c_exponent(e, max_norm=kwargs["max_norm"]) for e in elts]
    if job["func"] == "enumerate_minimal_vsums":
        return [lambda m=m, k=k: gbfkit.vsum.enumerate_minimal_vsums(m, k)
                for m, k in kwargs["sizes"]]
    raise ValueError(f"unknown library call {job['func']!r}")


def _lib_json(func, values):
    if func == "c_exponent":
        return [{"k": k, "decomposition": d.to_json()} for k, d in values]
    return [[v.to_json() for v in found] for found in values]


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    setup_s = READY - float(sys.argv[2])
    report = {"setup_s": setup_s}

    if job["kind"] == "probe":
        import probes

        metrics, checks = probes.run(job["seed"], job["tiny"])
        report.update(metrics=metrics, attempted=checks.attempted, failures=checks.failures)
    else:
        tracer = None
        if job["trace"]:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        items = _items(job)

        values = []
        totals = dict.fromkeys(("wall_s", "cpu_s", "norm_wall_s", "norm_cpu_s"), 0.0)
        ref = _reference()
        report["norm_setup_s"] = setup_s * REFERENCE_S / ref
        for item in items:
            wall, cpu = time.perf_counter(), time.process_time()
            values.append(item())
            sys.stdout.flush()
            sys.stderr.flush()
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            after = _reference()
            totals["wall_s"] += wall
            totals["cpu_s"] += cpu
            scale = 2 * REFERENCE_S / (ref + after)
            totals["norm_wall_s"] += wall * scale
            totals["norm_cpu_s"] += cpu * scale
            ref = after

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report.update(totals, peak_rss_mb=peak_kb / 1024.0)
        if job["kind"] == "cli":
            report["rc"] = values[0]
        else:
            report["rc"] = 0
            with open(job["out"], "w", encoding="utf-8") as fh:
                json.dump(_lib_json(job["func"], values), fh)
        if tracer is not None:
            tracer.dump(job["spans"])

    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
