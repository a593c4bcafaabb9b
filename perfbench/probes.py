"""Layer probes: per-call cost of single primitives on seeded inputs.

- ring.zero_test.us.dD: character_value_is_zero at order D on elements
  of C_D, half of them vanishing (sums of shifted subgroup sums P_p) and
  half not (the same plus one monomial, whose character value is a root
  of unity).
- gbf.autocorr.ms.nN / gbf.exact.ms.nN: compute_autocorr and
  is_gbf_exact at m = 12 on bent functions, so the exact test runs all
  2^n - 1 zero-tests.
- search.pool.speedup_2w: brute_force wall time at workers 1 over
  workers 2.
"""

from __future__ import annotations

import random
import time

from gbfkit import gbf, ring, search
from gbfkit.gbf import GbfFunction
from gbfkit.ring import CharacterSpec, CyclicRingElt, subgroup_sum

from workloads import Checks, _primes, mm_bent

ZERO_TEST_ORDERS = (15, 30, 42, 105)
GBF_DIMS = range(3, 9)
GBF_MODULUS = 12


def _per_call(fn, items, min_s: float) -> float:
    """Seconds per call over whole sweeps of items, repeated until min_s."""
    reps, start = 0, time.perf_counter()
    while True:
        for item in items:
            fn(item)
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed / (reps * len(items))


def _zero_test_elements(rng: random.Random, d: int):
    primes = _primes(d)
    out = []
    for _ in range(8):
        elt = CyclicRingElt.zero(d)
        for _ in range(rng.randint(2, 4)):
            elt = elt + subgroup_sum(d, rng.choice(primes)).shift(rng.randrange(d))
        out.append((elt, True))
        out.append((elt + CyclicRingElt.monomial(d, rng.randrange(d)), False))
    return out


def run(seed: int, tiny: bool) -> tuple[dict[str, float], Checks]:
    rng = random.Random(f"probes:{seed}")
    checks = Checks()
    metrics: dict[str, float] = {}
    min_s = 0.02 if tiny else 0.15

    for d in ZERO_TEST_ORDERS:
        elts = _zero_test_elements(rng, d)
        chi = CharacterSpec(d, d)
        for elt, vanishes in elts:
            checks.expect(ring.character_value_is_zero(elt, chi) is vanishes,
                          f"zero-test probe d={d}: {elt.coeffs}")
        metrics[f"ring.zero_test.us.d{d}"] = 1e6 * _per_call(
            lambda e: ring.character_value_is_zero(e, chi), [e for e, _ in elts], min_s)

    for n in GBF_DIMS:
        fns = [GbfFunction(n, GBF_MODULUS, mm_bent(rng, GBF_MODULUS, n)) for _ in range(4)]
        for fn in fns:
            checks.expect(gbf.is_gbf_exact(fn) and gbf.is_gbf_numeric(fn),
                          f"exact probe n={n}: bent function rejected")
        metrics[f"gbf.autocorr.ms.n{n}"] = 1e3 * _per_call(gbf.compute_autocorr, fns, min_s)
        metrics[f"gbf.exact.ms.n{n}"] = 1e3 * _per_call(gbf.is_gbf_exact, fns, min_s)

    m, n = (9, 3) if tiny else (15, 3)
    walls = []
    for workers in (1, 2):
        outcome = search.brute_force(m, n, workers=workers)
        checks.expect(outcome.witness is None and outcome.examined == m ** 7,
                      f"pool probe ({m}, {n}) workers={workers}: {outcome.certificate()}")
        walls.append(outcome.wall_time)
    metrics["search.pool.speedup_2w"] = walls[0] / walls[1]
    return metrics, checks
