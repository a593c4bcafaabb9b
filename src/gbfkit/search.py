"""Exhaustive search for generalized bent functions at desk scale, plus
the dimension-3 autocorrelation catalog experiment.

brute_force covers the normalized space (f(0) = 0, all other values
free) in blocks fixed by the first one or two free values.  A block
walks the next positions (the mid levels) in lexicographic order and
screens all assignments of the last positions (the tail, as many as fit
in _TAIL_CELLS complex cells) as one numpy batch.  Screening is numeric
with a one-sided tolerance far above attainable float error, so a true
witness can never be screened out; every survivor is confirmed exactly
before it is reported.  Exhaustion examines every assignment
(examined == normalized_space) and certifies nonexistence.

The character at y = 0 is trivial, so a tail's contribution there,
sum_j zeta^{d_j}, is one exact number for every permutation of its
digits.  The tail table keeps each digit multiset as one run of rows, so
the y = 0 screen runs once per multiset (3060 for 50625 tails at
(15, 3)); a witness has |F(0)|^2 = 2^n exactly, so its multiset passes.
The few rows that pass every screen go to the exact test in
lexicographic order, so that the witness reported is the least.

The catalog half lists every element of N[C_30] satisfying the five
arithmetic constraints an autocorrelation coefficient of a bent
function must satisfy at n = 3, and classifies each against the known
shape catalog.  The candidates are the v-sums of norm 8 that the one
exact enumerator, vsum._vsums_under, yields, filtered by inversion
invariance and an even g^0-coefficient; no per-candidate zero-test is
needed, and the alternating projection follows from the others.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, lru_cache, partial
from itertools import product
from math import ceil
from typing import NamedTuple

import numpy as np

from .gbf import GbfFunction, is_gbf_exact
from .ring import (
    CharacterSpec,
    CyclicRingElt,
    character_value_is_zero,
    punctured_subgroup_sum,
    subgroup_sum,
)
from .vsum import _vsums_under

# brute_force(15, 3) exhausts this budget in 0.22 s, 7.9e8 assignments/s
# with the tail-table build, on one core of a 2-core Xeon VM.  That holds
# for n >= 3 only: n = 1 runs at about 8e4 one-assignment blocks/s and
# n = 2 at 2e7 to 3e7 assignments/s, so 15^7 at n = 1 takes half an hour
DEFAULT_BUDGET = 15**7

# numeric screen: float error on |F(y)|^2 stays below ~1e-12 for the
# sums of at most 32 unit vectors seen here, so 1e-6 cannot lose a
# witness; survivors are confirmed exactly
_TOL = 1e-6

# largest batch, in complex cells (tail assignments x characters)
_TAIL_CELLS = 1 << 19

STATUS_WITNESS = "WitnessFound"
STATUS_EXHAUSTED = "ExhaustedNone"


class BudgetExceededError(Exception):
    def __init__(self, m: int, n: int, space: int, budget: int):
        self.m, self.n, self.space, self.budget = m, n, space, budget
        super().__init__(
            f"normalized space {m}^{(1 << n) - 1} = {space} exceeds budget {budget}"
        )


@dataclass(frozen=True)
class SearchOutcome:
    m: int
    n: int
    witness: GbfFunction | None
    examined: int
    wall_time: float = field(compare=False, default=0.0)

    @property
    def status(self) -> str:
        return STATUS_EXHAUSTED if self.witness is None else STATUS_WITNESS

    @property
    def normalized_space(self) -> int:
        return self.m ** ((1 << self.n) - 1)

    def certificate(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "normalized_space": self.normalized_space,
            "examined": self.examined,
            "witness": None if self.witness is None else list(self.witness.values),
        }


@lru_cache(maxsize=16)
def _char_table(n: int) -> np.ndarray:
    """chi[x, y] = (-1)^popcount(x & y), the characters of Z_2^n."""
    table = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(n):
        table = np.kron(table, block)
    return table


@lru_cache(maxsize=16)
def _roots(m: int) -> np.ndarray:
    """zeta^v = exp(2 pi i v / m) for v in range(m), read-only."""
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    zeta.flags.writeable = False
    return zeta


class _TailTables(NamedTuple):
    """Every assignment of the last tail positions, by digit multiset.

    digits[i] is the i-th assignment and columns[y][i] its contribution
    to the spectrum at y.  Group g is the row range starts[g]:starts[g] +
    counts[g], its rows in lexicographic order; values[g] is its shared
    contribution at y = 0."""

    digits: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    counts: np.ndarray


@lru_cache(maxsize=8)
def _tail_tables(m: int, n: int, tail: int) -> _TailTables:
    """The tail tables for all m^tail assignments of the last tail
    positions.  chi[x, 0] = 1, so an assignment's y = 0 contribution
    sum_j zeta^{d_j} is one exact number across all permutations of its
    digits.  The rows are sorted, stably, by their sorted digits read in
    base m; the columns are then built one spectrum row at a time."""
    size = 1 << n
    chi, zeta = _char_table(n), _roots(m)
    digits = np.indices((m,) * tail).reshape(tail, m**tail).T.astype(np.int16)
    key = np.sort(digits, axis=1).astype(np.int64) @ (m ** np.arange(tail, dtype=np.int64))
    counts = np.unique(key, return_counts=True)[1]
    digits = digits[np.argsort(key, kind="stable")]
    del key  # freed before the column build, which sets the peak
    columns = np.zeros((size, digits.shape[0]), dtype=np.complex128)
    for j in range(tail):
        root = zeta[digits[:, j]]
        for y in range(size):
            columns[y] += chi[size - tail + j, y] * root
    starts = np.cumsum(counts) - counts
    return _TailTables(digits, columns, columns[0][starts], starts, counts)


def _run_prefix(
    m: int, n: int, prefix: tuple[int, ...]
) -> tuple[tuple[int, ...] | None, int, int]:
    """Search every completion of (0, *prefix, mid..., tail...), walking
    the mid assignments in lexicographic order and screening each one's
    tail as one batch.

    The y = 0 screen runs once per digit multiset of the tail, since all
    permutations of a multiset share one exact y = 0 value: a witness has
    |F(0)|^2 = 2^n exactly, so its group passes, and the few ulps between
    members' float values are far below the tolerance.  The rows of the
    passing groups go through the screens at y = 1 .. 2^n - 1, and the
    survivors, put from group order into lexicographic order so that the
    first one confirmed is the least, through the exact test.

    Returns the lexicographically least witness of this block (or None),
    the count of completions examined and the count of screen survivors
    sent to the exact test."""
    size = 1 << n
    chi = _char_table(n)
    zeta = _roots(m)
    free = size - 1 - len(prefix)
    tail = 0
    while tail < free and (m ** (tail + 1)) * size <= _TAIL_CELLS:
        tail += 1
    digits, columns, group_values, starts, counts = _tail_tables(m, n, tail)

    spectrum = chi[0].astype(np.complex128)
    for j, v in enumerate(prefix):
        spectrum = spectrum + zeta[v] * chi[j + 1]

    examined = survivors = 0
    for mid in product(range(m), repeat=free - tail):
        spec = spectrum
        for pos, v in enumerate(mid, start=len(prefix) + 1):
            spec = spec + zeta[v] * chi[pos]
        examined += digits.shape[0]
        z = spec[0] + group_values
        groups = np.flatnonzero(np.abs(z.real * z.real + z.imag * z.imag - size) <= _TOL)
        if groups.size == 0:
            continue
        lengths = counts[groups]
        # the rows of the passing groups: slot k of group g is row starts[g] + k
        sel = np.repeat(starts[groups] - np.cumsum(lengths) + lengths, lengths)
        sel += np.arange(sel.size)
        for y in range(1, size):
            if sel.size == 0:
                break
            z = spec[y] + columns[y][sel]
            sel = sel[np.abs(z.real * z.real + z.imag * z.imag - size) <= _TOL]
        for tail_values in sorted(digits[sel].tolist()):
            survivors += 1
            values = (0, *prefix, *mid, *tail_values)
            if is_gbf_exact(GbfFunction(n, m, values)):
                return values, examined, survivors
    return None, examined, survivors


def brute_force(
    m: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
    *,
    workers: int = 1,
    progress=None,
) -> SearchOutcome:
    """Exhaustive search of the normalized space for an (m, n) witness.

    The space m^(2^n - 1) is rejected up front when it exceeds budget.
    Work splits into blocks by the first one or two free values.  One
    loop takes the block results in order, computed in process or, for
    workers > 1, on at most that many worker processes (no more than
    the blocks or the CPUs), a few chunks of blocks per worker.  The
    first block reporting a witness wins, which makes the returned
    witness the overall lexicographic minimum.  progress, when given,
    receives one event dict per finished block.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got ({m}, {n})")
    size = 1 << n
    space = m ** (size - 1)
    if space > budget:
        raise BudgetExceededError(m, n, space, budget)

    start = time.perf_counter()
    depth = min(2, size - 1)
    prefixes = [(v,) for v in range(m)]
    if depth == 2:
        prefixes = [(v, w) for v in range(m) for w in range(m)]

    # fork starts every worker on the first submit, so ask for no more
    # than there are blocks and CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(prefixes), cpus or 1)
    run = partial(_run_prefix, m, n)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    witness = None
    examined = 0
    try:
        if pool is None:
            results = map(run, prefixes)
        else:
            # a few chunks per worker: per-block futures cost more than a block
            results = pool.map(run, prefixes, chunksize=ceil(len(prefixes) / (4 * workers)))
        for prefix, (values, ex, survivors) in zip(prefixes, results):
            examined += ex
            if progress is not None:
                # "pruned" stays in the event so that existing readers keep working
                progress(
                    {"prefix": list(prefix), "examined": ex, "pruned": 0, "survivors": survivors}
                )
            if values is not None:
                witness = GbfFunction(n, m, values)
                assert is_gbf_exact(witness)
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    return SearchOutcome(m, n, witness, examined, time.perf_counter() - start)


# -- dimension-3 autocorrelation catalog -------------------------------------


class FormTag(Enum):
    FORM_A = "FormA"
    FORM_B = "FormB"
    FORM_C = "FormC"
    FORM_7 = "Form7"


def _half_period_symmetric(elt: CyclicRingElt) -> bool:
    half = elt.m // 2
    return all(c == elt.coeffs[(i + half) % elt.m] for i, c in enumerate(elt.coeffs))


@cache
def _form_b_refs() -> frozenset:
    base = subgroup_sum(30, 3) + subgroup_sum(30, 5)
    return frozenset((base.coeffs, base.shift(15).coeffs))


@cache
def _form_c_refs() -> frozenset:
    def g(i):
        return CyclicRingElt.monomial(30, i)

    thirds = g(10) + g(20)
    one = (g(0) + g(6) + g(24)) * thirds * g(15) + g(12) + g(18)
    two = (g(0) + g(12) + g(18)) * thirds * g(15) + g(6) + g(24)
    return frozenset(
        (one.coeffs, one.shift(15).coeffs, two.coeffs, two.shift(15).coeffs)
    )


@cache
def _form_7_refs() -> frozenset:
    base = punctured_subgroup_sum(42, 7) + punctured_subgroup_sum(42, 3).shift(21)
    return frozenset((base.coeffs, base.shift(21).coeffs))


def match_n3_form(elt: CyclicRingElt) -> FormTag | None:
    """Classify an autocorrelation-shaped element against the known
    catalog: a doubled half-period element, a shifted sum of the order-3
    and order-5 subgroups, one of the four sporadic C_30 shapes, or one
    of the two punctured shapes in C_42."""
    if elt.m % 2 == 0 and elt.is_nonnegative() and _half_period_symmetric(elt):
        return FormTag.FORM_A
    if elt.m == 30:
        if elt.coeffs in _form_b_refs():
            return FormTag.FORM_B
        if elt.coeffs in _form_c_refs():
            return FormTag.FORM_C
    if elt.m == 42 and elt.coeffs in _form_7_refs():
        return FormTag.FORM_7
    return None


# the constraints _n3_rejection checks, in its order
_N3_CONSTRAINTS = ("norm", "inversion", "even_identity")


def _n3_rejection(c: tuple[int, ...]) -> str | None:
    """The first constraint, beyond norm at most 8, that the v-sum c
    fails as a dimension-3 autocorrelation coefficient, or None: norm
    exactly 8, invariance under inversion, and even g^0-coefficient.

    The fourth, alternating projection psi(D) = sum_i (-1)^i c_i
    divisible by 4, follows from these three for every even modulus m,
    so it is not checked.  Let h = m/2.  Inversion pairs c_i with
    c_{m-i}, both of index odd when i is, and fixes c_0 and c_h, so
    N - psi(D) = 2 sum_{i odd} c_i = c_h (1 - (-1)^h) + 4 sum_{0<i<h,
    i odd} c_i.  The norm N = 8 = c_0 + c_h + 2 sum_{0<i<h} c_i with
    c_0 even makes c_h even, so c_h (1 - (-1)^h) is 0 mod 4, and so is
    psi(D)."""
    if sum(c) != 8:
        return "norm"
    if c[1:] != c[:0:-1]:
        return "inversion"
    if c[0] % 2:
        return "even_identity"
    return None


def enumerate_autocorr_candidates():
    """Every D in N[C_30] with norm exactly 8 that passes the five
    arithmetic constraints a dimension-3 autocorrelation coefficient
    must satisfy: invariance under inversion, even g^0-coefficient,
    order-30 character vanishing, and alternating projection divisible
    by 4 (which the first three imply; see _n3_rejection).  The v-sums
    under the box (8,) * 30 that _n3_rejection passes, in the
    enumerator's order."""
    for c in _vsums_under((8,) * 30, 8):
        if _n3_rejection(c) is None:
            yield CyclicRingElt(30, c)


def n3_catalog_check() -> dict:
    """Run the catalog experiment: classify every enumerated candidate,
    then validate the two order-42 punctured shapes separately.  Any
    candidate matching no form lands in "mismatches" verbatim; every
    other v-sum is counted in "rejected" under the first constraint it
    fails."""
    counts = {tag.value: 0 for tag in FormTag}
    rejected = dict.fromkeys(_N3_CONSTRAINTS, 0)
    mismatches = []
    total = 0
    for c in _vsums_under((8,) * 30, 8):
        failed = _n3_rejection(c)
        if failed is not None:
            rejected[failed] += 1
            continue
        total += 1
        cand = CyclicRingElt(30, c)
        tag = match_n3_form(cand)
        if tag is None:
            mismatches.append(cand)
        else:
            counts[tag.value] += 1

    seven_ok = True
    seven_psi = []
    for coeffs in sorted(_form_7_refs()):
        elt = CyclicRingElt(42, coeffs)
        seven_psi.append(elt.psi_projection())
        if not character_value_is_zero(elt, CharacterSpec(42, 42)):
            seven_ok = False
        if match_n3_form(elt) is not FormTag.FORM_7:
            seven_ok = False
    counts["Form7"] = len(_form_7_refs()) if seven_ok else 0

    mismatches.sort(key=lambda e: e.coeffs)
    return {
        "modulus": 30,
        "norm": 8,
        "candidates": total,
        "rejected": rejected,
        "counts": counts,
        "mismatches": [e.to_json() for e in mismatches],
        "form7_vanish_order_42": seven_ok,
        "form7_psi": seven_psi,
    }

