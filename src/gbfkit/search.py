"""Exhaustive search for generalized bent functions at desk scale, plus
the dimension-3 autocorrelation catalog experiment.

brute_force covers the normalized space (f(0) = 0, all other values
free) in one lexicographic walk.  The top half of Z_2^n (the tail) is
screened in numpy batches after each assignment of the positions
before it (the head: the rest of the bottom half, empty at n = 1), and
the heads are taken by rank in blocks of 1, 2, 4, ... heads, at most
_TAIL_CELLS / 2^n: a witness near the front is confirmed after a few
small blocks, a large space takes a few large ones.  Screening is
numeric with a one-sided tolerance far above attainable float error, so
a true witness can never be screened out; every survivor is confirmed
exactly before it is reported.  Exhaustion examines every assignment
(examined == normalized_space) and certifies nonexistence.

Let e = 2^(n-1), A the sum of zeta^f over the bottom half of Z_2^n
(f(0) = 0 included) and B the sum over the top half.  Then F(0) = A + B
and F(e) = A - B, since chi_e is +1 on the bottom half and -1 on the
top.  A depends only on the head, and B only on the tail's digit
multiset (its group, _TailTable).  |A|^2 + |B|^2 is the mean of
|F(0)|^2 and |F(e)|^2, so a pair within the tolerance of 2^n at both
has it within the tolerance of 2^n too: each head meets only the groups
whose |B|^2 is within the tolerance of 2^n - |A|^2, one slice of the
groups sorted by |B|^2, and each such pair is screened at y = 0 and
y = e.  Tail rows are built only for the pairs that pass,
each group's distinct arrangements; at n = 3 for m = 2, 3, 5, 6, 7, 9,
10, 11, 13, 14 and 15, and at (3, 4), none does.  Those rows are
screened at the other characters together, and the few survivors go to
the exact test in lexicographic order, so that the witness reported is
the least.

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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, lru_cache, partial
from itertools import groupby, islice, starmap
from math import comb

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

# brute_force(15, 3) exhausts this budget in 0.006 s, about 3e10
# assignments/s, on one core of a 2-core Xeon VM (a fresh process, after
# the import); no (head, tail group) pair passes both screens at y = 0
# and y = 2^(n-1), so it builds no tail row.  (553, 2), the largest n = 2
# space inside it, takes 0.018 to 0.025 s, and n = 1 runs at about 5e6
# assignments/s
DEFAULT_BUDGET = 15**7

# the roots of unity and, at n = 1, the tail table hold m entries, and
# at n = 1, a space of m, the budget does not bound m: (524286, 1)
# takes 0.10 to 0.12 s and 59 MB on the same VM
MAX_MODULUS = 1 << 19

# numeric screen: float error on |F(y)|^2 stays below ~1e-12 for the
# sums of at most 32 unit vectors seen here, so 1e-6 cannot lose a
# witness; survivors are confirmed exactly
_TOL = 1e-6

# largest batch, in complex cells: 2^n per head of a block, 32 per pair
# of a screen pass and 8 per tail row of a slab
_TAIL_CELLS = 1 << 19

STATUS_WITNESS = "WitnessFound"
STATUS_EXHAUSTED = "ExhaustedNone"


class BudgetExceededError(Exception):
    """Refused up front: the space is over the budget, m over MAX_MODULUS
    or the heads past the int64 ranks."""

    def __init__(self, m: int, n: int, budget: int, message: str):
        self.m, self.n, self.budget = m, n, budget
        super().__init__(message)

    @property
    def space(self) -> int:
        """m^(2^n - 1), computed only when asked for: it can be huge."""
        return self.m ** ((1 << self.n) - 1)


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


def _multisets(m: int, k: int) -> np.ndarray:
    """The k-digit multisets over range(m) in lexicographic order, one
    sorted row each.  Built a digit at a time, in place: each multiset
    of j digits is followed by its extensions by its last digit or a
    larger one, which keeps the rows in order."""
    out = np.zeros((k, comb(m + k - 1, k)), dtype=np.int32)
    last = np.zeros(1, dtype=np.int32)
    for j in range(k):
        counts = m - last
        parent = np.repeat(np.arange(last.size), counts)
        last = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts) + last[parent]
        for col in out[:j]:
            col[: parent.size] = col[parent]
        out[j, : parent.size] = last
    return out.T


def _by_pattern(rows: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """Expand sorted rows through a table of index rows per run pattern
    (bit i: digits i and i + 1 equal; the rows are tails of 2^(n-1)
    digits, so at most 62 bits, since brute_force refuses a head of 63
    positions or more): each row's entries of table(its run lengths), as
    the row of each and the digits it picks, in row and table order."""
    if not len(rows):
        return np.zeros(0, dtype=np.intp), rows
    codes = (rows[:, 1:] == rows[:, :-1]) @ (1 << np.arange(rows.shape[1] - 1, dtype=np.int64))
    _, first, which = np.unique(codes, return_index=True, return_inverse=True)
    tables = [table(tuple(len(list(r)) for _, r in groupby(rows[i].tolist()))) for i in first.tolist()]
    sizes = np.array([len(t) for t in tables], dtype=np.intp)
    count = sizes[which]
    owner = np.repeat(np.arange(len(rows)), count)
    at = np.repeat(np.cumsum(sizes)[which] - np.cumsum(count), count) + np.arange(owner.size)
    return owner, rows[owner[:, None], np.concatenate(tables)[at]]


@lru_cache(maxsize=1024)
def _arrangements(runs: tuple[int, ...]) -> np.ndarray:
    """The distinct orderings of a sorted row with runs of equal digits of
    lengths runs, in lexicographic order, as index rows into it (a digit
    named by its run's first index), built a position at a time."""
    first = np.cumsum(runs, dtype=np.intp) - runs
    rows = np.zeros((1, 0), dtype=np.intp)
    left = np.array([runs], dtype=np.intp)
    for _ in range(sum(runs)):
        parent, run = np.nonzero(left)
        rows = np.column_stack([rows[parent], first[run]])
        left = left[parent]
        left[np.arange(parent.size), run] -= 1
    return rows


def _close(z: np.ndarray, size: int) -> np.ndarray:
    """|z|^2 within _TOL of size."""
    return np.abs(z.real * z.real + z.imag * z.imag - size) <= _TOL


class _TailTable:
    """The digit multisets of the top half of Z_2^n (the tail groups):
    group g is the g-th in lexicographic order, one sorted row tails[g],
    with B, the sum of zeta^d over its digits, in sums[g].  norms holds
    every |B|^2 in increasing order, norms[i] that of group order[i]."""

    def __init__(self, m: int, n: int):
        self.m, self.size = m, 1 << n
        zeta = _roots(m)
        self.tails = _multisets(m, self.size >> 1)
        # accumulated in place: at n = 1 a table holds up to 2^19 groups
        self.sums = np.zeros(len(self.tails), complex)
        for col in self.tails.T:
            self.sums += zeta[col]
        self.norms = np.abs(self.sums)
        self.norms *= self.norms
        self.order = np.argsort(self.norms)
        self.norms.sort()

    def find(self, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (head, group) pairs of the head rows heads that pass the
        screens at y = 0 and y = e, as each pair's row and group, by row.
        Each head meets the groups whose |B|^2 is within _TOL of 2^n -
        |A|^2, in passes of at most _TAIL_CELLS / 32 pairs."""
        a = 1 + _roots(self.m)[heads].sum(axis=1)
        target = self.size - (a.real * a.real + a.imag * a.imag)
        first = np.searchsorted(self.norms, target - _TOL)
        count = np.searchsorted(self.norms, target + _TOL, side="right") - first
        ends = np.cumsum(count)
        # pair k is head who[k] and the group at norms[k + offset[who[k]]]
        offset = first - ends + count
        owners, groups = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        total, step = int(ends[-1]), max(1, _TAIL_CELLS >> 5)
        for lo in range(0, total, step):
            k = np.arange(lo, min(lo + step, total))
            who = np.searchsorted(ends, k, side="right")
            group = self.order[offset[who] + k]
            b = self.sums[group]
            keep = _close(a[who] + b, self.size) & _close(a[who] - b, self.size)
            owners.append(who[keep])
            groups.append(group[keep])
        return np.concatenate(owners), np.concatenate(groups)


# one per search
@lru_cache(maxsize=8)
def _tail_table(m: int, n: int) -> _TailTable:
    return _TailTable(m, n)


def _heads(m: int, h: int, lo: int, hi: int) -> np.ndarray:
    """The heads of ranks lo .. hi - 1, one row of h base-m digits each,
    most significant first.  The ranks are int64: brute_force refuses
    m^h >= 2^63 heads."""
    ranks = np.arange(lo, hi, dtype=np.int64)
    heads = np.empty((hi - lo, h), dtype=np.int64)
    for i in reversed(range(h)):
        ranks, heads[:, i] = np.divmod(ranks, m)
    return heads


def _blocks(heads: int, cap: int):
    """The walk's head rank ranges [lo, hi): 1, 2, 4, ... heads, at most cap."""
    lo, step = 0, 1
    while lo < heads:
        yield lo, min(lo + step, heads)
        lo, step = lo + step, min(2 * step, cap)


def _run_block(m: int, n: int, lo: int, hi: int) -> tuple[tuple[int, ...] | None, int, int]:
    """Search every completion (0, *head, *tail) of the heads of ranks
    lo .. hi - 1, the tail the top half of Z_2^n.  _TailTable.find gives
    each head's tail groups that pass at y = 0 and y = 2^(n-1), and only
    their rows are built: each group's distinct arrangements, from
    _arrangements per run pattern.  Those rows are screened at y = 1, 2,
    ..., 2^n - 1 in turn, in slabs of at most _TAIL_CELLS / 8 rows (which
    bounds the scratch), and the survivors go to the exact test sorted by
    head and then by tail digits, so that the first one confirmed is the
    least.  Returns that witness (or None), the count of completions
    examined (every tail of each head up to the witness's) and the count
    of screen survivors sent to the exact test."""
    size, chi, zeta = 1 << n, _char_table(n), _roots(m)
    tail = size >> 1
    table = _tail_table(m, n)

    heads = _heads(m, tail - 1, lo, hi)
    owner, groups = table.find(heads)
    survivors = 0
    if owner.size:
        # the spectra of the heads with a passing group: f(0) = 0 adds
        # chi[0], all ones, and each head position v its character times zeta^v
        live, owner = np.unique(owner, return_inverse=True)
        spec = np.ones((live.size, size), dtype=np.complex128)
        for pos, col in enumerate(heads[live].T, start=1):
            spec += zeta[col, None] * chi[pos]
        who, rows = _by_pattern(table.tails[groups], _arrangements)
        hits = []
        slab = max(1, _TAIL_CELLS >> 3)
        for at in range(0, who.size, slab):
            part, digits = owner[who[at : at + slab]], rows[at : at + slab]
            roots = zeta[digits]
            for y in range(1, size):
                # a tail row's contribution at y is zeta^digits @ chi[tail positions, y]
                keep = _close(spec[part, y] + roots @ chi[tail:, y], size)
                part, digits, roots = part[keep], digits[keep], roots[keep]
                if not part.size:
                    break
            hits += zip(live[part].tolist(), digits.tolist())
        for i, tail_values in sorted(hits):
            survivors += 1
            values = (0, *heads[i].tolist(), *tail_values)
            if is_gbf_exact(GbfFunction(n, m, values)):
                return values, (i + 1) * m**tail, survivors
    return None, len(heads) * m**tail, survivors


def _ahead(pool: ProcessPoolExecutor, run, blocks, depth: int):
    """run(lo, hi) for each block, in order, computed on pool with at
    most depth blocks handed out and not yet read.  pool.map would hand
    out every block at once: a future each for the millions of blocks
    of a space a raised budget admits."""
    queue: deque = deque()
    for block in blocks:
        queue.append(pool.submit(run, *block))
        if len(queue) == depth:
            yield queue.popleft().result()
    while queue:
        yield queue.popleft().result()


def brute_force(
    m: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
    *,
    workers: int = 1,
    progress=None,
) -> SearchOutcome:
    """Exhaustive search of the normalized space for an (m, n) witness.

    The space m^(2^n - 1) is refused up front when it exceeds budget, and
    so are m > MAX_MODULUS and m^(2^(n-1) - 1) >= 2^63 heads, past the
    int64 head ranks.  One loop takes the results of the blocks of
    heads in order, computed in process or, for workers > 1, on at most
    that many worker processes (no more than the blocks or the CPUs), a
    few blocks ahead.  The first block reporting a witness wins, which
    makes the returned witness the overall lexicographic minimum.
    progress, when given, receives one event dict per finished block.
    m < 2 is refused, as decide refuses it: m = 1 has a space of 1 at
    every n, so the budget would not stop the 4^n-cell character table.
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got ({m}, {n})")
    # m >= 2, so the space exceeds budget once 2^n - 1 reaches budget's bit
    # length: no power is taken then, nor 1 << n where n alone reaches it
    bits = budget.bit_length()
    if n >= bits or (1 << n) - 1 >= bits or m ** ((1 << n) - 1) > budget:
        what = f"normalized space {m}^(2^{n} - 1) exceeds budget {budget}"
        raise BudgetExceededError(m, n, budget, what)
    if m > MAX_MODULUS:
        raise BudgetExceededError(m, n, budget, f"modulus {m} exceeds the cap {MAX_MODULUS}")
    # m >= 2, so a head of 63 positions or more alone passes 2^63
    h = (1 << (n - 1)) - 1
    if h >= 63 or m**h >= 1 << 63:
        raise BudgetExceededError(m, n, budget, f"{m}^{h} heads exceed the int64 head ranks")

    start = time.perf_counter()
    blocks = partial(_blocks, m**h, max(1, _TAIL_CELLS >> n))
    # fork starts every worker on the first submit, so ask for no more
    # than there are blocks and CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = sum(1 for _ in islice(blocks(), max(0, min(workers, cpus or 1))))
    run = partial(_run_block, m, n)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    witness, examined = None, 0
    try:
        results = starmap(run, blocks()) if pool is None else _ahead(pool, run, blocks(), 2 * workers)
        for (lo, _), (values, ex, survivors) in zip(blocks(), results):
            examined += ex
            if progress is not None:
                # "prefix", now the block's first head, and "pruned" stay
                # in the event so that existing readers keep working
                rank, first = lo, [0] * h
                for i in reversed(range(h)):
                    rank, first[i] = divmod(rank, m)
                progress({"prefix": first, "examined": ex, "pruned": 0, "survivors": survivors})
            if values is not None:
                witness = GbfFunction(n, m, values)
                break
    finally:
        if pool is not None:
            # wait for the running blocks, so that no worker outlives the call
            pool.shutdown(wait=True, cancel_futures=True)
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
    then validate the two order-42 punctured shapes separately: Form7
    counts those that vanish at order 42 and pass _n3_rejection.  Any
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

    # a shape counts only if it vanishes at order 42 and passes the
    # constraints, not for being one of the shapes it is compared with
    seven_ok, seven_psi = True, []
    for coeffs in sorted(_form_7_refs()):
        elt = CyclicRingElt(42, coeffs)
        seven_psi.append(elt.psi_projection())
        vanishes = character_value_is_zero(elt, CharacterSpec(42, 42))
        seven_ok &= vanishes
        counts["Form7"] += vanishes and _n3_rejection(coeffs) is None

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

