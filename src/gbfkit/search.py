"""Exhaustive search for generalized bent functions at desk scale, plus
the dimension-3 autocorrelation catalog experiment.

brute_force covers the normalized space (f(0) = 0, all other values
free) in one lexicographic walk.  The last positions (the tail: as many
as fit in _TAIL_CELLS complex cells, but at most the top half of Z_2^n)
are screened in numpy batches after each assignment of the positions
before them (the head), and the heads are taken by rank in blocks of 1,
2, 4, ... heads, at most _TAIL_CELLS / 2^n: a witness near the front is
confirmed after a few small blocks, a large space takes a few large
ones.  Screening is numeric with a one-sided tolerance far above
attainable float error, so a true witness can never be screened out;
every survivor is confirmed exactly before it is reported.  Exhaustion
examines every assignment (examined == normalized_space) and certifies
nonexistence.

The character at y = 0 is trivial, so an assignment's value there,
1 + sum_j zeta^{d_j}, depends only on the multiset of its free digits.
The y = 0 screen runs once per such multiset (_HeadTable), lazily, as
far as the blocks reached need: at (15, 3), C(21, 7) = 116280 tests for
15^7 assignments.  Let e = 2^(n-1), A the sum of zeta^f over the
bottom half of Z_2^n (f(0) = 0 included) and B the sum over the top
half.  Then F(0) = A + B and F(e) = A - B, since chi_e is +1 on the
bottom half and -1 on the top.  When the tail is exactly the top half,
A depends only on the head's digit multiset and B only on the tail's,
so each (head multiset, tail multiset) split of a passing multiset is
tested at y = e as well.  A witness has |F(y)|^2 = 2^n exactly at every
y, so it passes both; the few ulps between the float values of one
multiset's permutations are far below the tolerance.  Tail rows are
built only for the (head, tail group) pairs that pass, each group's
distinct arrangements; at n = 3 for m = 2, 3, 5, 6, 7, 9, 10, 11, 13,
14 and 15, and at (3, 4), none does.  Those rows are screened at the
other characters together, and the few survivors go to the exact test
in lexicographic order, so that the witness reported is the least.

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

# brute_force(15, 3) exhausts this budget in 0.008 to 0.011 s, about
# 2e10 assignments/s, on one core of a 2-core Xeon VM; no split of its
# digit multisets passes both screens of _HeadTable, so it builds no
# tail row.  That holds for n >= 3 only: (553, 2) takes 0.65 to 0.91 s,
# about 2e8 assignments/s, and n = 1 runs at about 5e6 assignments/s
DEFAULT_BUDGET = 15**7

# the roots of unity and _HeadTable's per-digit tables hold m entries,
# and at n = 1, a space of m, the budget does not bound m: (524286, 1)
# takes 0.08 s and 57 MB on the same VM
MAX_MODULUS = 1 << 19

# numeric screen: float error on |F(y)|^2 stays below ~1e-12 for the
# sums of at most 32 unit vectors seen here, so 1e-6 cannot lose a
# witness; survivors are confirmed exactly
_TOL = 1e-6

# largest batch, in complex cells (tail assignments x characters)
_TAIL_CELLS = 1 << 19

STATUS_WITNESS = "WitnessFound"
STATUS_EXHAUSTED = "ExhaustedNone"


class BudgetExceededError(Exception):
    """Refused up front: the space is over the budget or m over MAX_MODULUS."""

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


def _key(rows: np.ndarray, m: int) -> np.ndarray:
    """Each row (the last axis) read in base m, first digit most
    significant: on sorted rows, the lexicographic order of multisets."""
    return rows @ (m ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64))


def _by_pattern(rows: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """Expand sorted rows through a table of index rows per run pattern
    (bit i: digits i and i + 1 equal; at most 62 bits, since m^h < 2^63,
    as _heads assumes): each row's entries of table(its run lengths), as
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
def _split_table(runs: tuple[int, ...], k: int) -> np.ndarray:
    """Every distinct split of a sorted row with runs of equal digits of
    lengths runs into k digits and the rest, as index rows: the k, then
    the rest.  Each takes a prefix of every run, in the row's order, so
    both parts pick sorted digits."""
    parts = [((), ())]
    start, rest = 0, sum(runs)
    for r in runs:
        rest -= r
        run = tuple(range(start, start + r))
        parts = [
            (took + run[:j], left + run[j:])
            for took, left in parts
            for j in range(max(0, k - rest - len(took)), min(r, k - len(took)) + 1)
        ]
        start += r
    return np.array([took + left for took, left in parts], dtype=np.intp).reshape(len(parts), sum(runs))


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


class _HeadTable:
    """The tail groups that pass the y = 0 screen, and the y = e screen
    when the tail is the top half, after each head multiset of
    h = 2^n - 1 - tail digits, found lazily.  Group g is the g-th tail
    multiset in lexicographic order, tails[g].

    An assignment's y = 0 value 1 + sum_j zeta^{d_j} depends only on the
    multiset P of its 2^n - 1 free digits, so each P is screened once, as
    its canonical split: the head H of its h smallest digits and the tail
    group T of the rest, min(T) >= max(H).  The canonical heads are
    taken by smallest digit, each against the suffix of groups whose
    smallest digit is at least its largest.  Every P that passes is
    filed under each of its (head multiset, tail group) splits.  A head
    multiset of smallest digit d lies only in multisets P of smallest
    digit at most d, so once those are screened (d <= complete) its
    pairs are final: they join keys (_key of the sorted head) and
    groups, sorted by key and then group.

    When the tail is the top half of Z_2^n, a split (H, T) is filed only
    if it also passes y = e = 2^(n-1): F(e) = A - B = F(0) - 2B, where
    A = 1 + sum_H zeta and B = sum_T zeta, so F(e), unlike F(0),
    depends on the split.  A witness has |F(0)|^2 = |F(e)|^2 = 2^n
    exactly, so its split passes both."""

    def __init__(self, m: int, n: int, tail: int):
        self.m, self.size = m, 1 << n
        self.head = self.size - 1 - tail
        zeta = _roots(m)
        self.tails = _multisets(m, tail)
        self.tail_keys = _key(self.tails, m)
        self.values = sum((zeta[col] for col in self.tails.T), np.zeros(len(self.tails), complex))
        # a canonical head is (a, *rest): rest sorted, its digits all >= a
        self.rests = _multisets(m, self.head - 1)
        self.rest_sums = sum((zeta[col] for col in self.rests.T), np.ones(len(self.rests), complex))
        self.rest_tops = self.rests.max(axis=1, initial=0)
        digit = np.arange(m)
        if self.head > 1:
            # a rest meets the groups from _first(its largest digit) on,
            # after every lead up to its smallest digit
            meets = len(self.tails) - self._first(self.rest_tops)
            pairs = np.append(np.cumsum(meets[::-1])[::-1], 0)[self._start(digit)]
        else:
            pairs = len(self.tails) - self._first(digit)
        # upto[a]: the pairs of the canonical heads of smallest digit <= a
        self.upto = np.cumsum(pairs)
        self.complete = -1
        # the final pairs, and those found for heads not yet complete
        self.keys, self.groups = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp)
        self.pending = self.keys, self.groups

    def _first(self, top: np.ndarray) -> np.ndarray:
        """The first group of smallest digit at least top: those from
        there on may follow a head of largest digit top.  The one group
        of a tail of no digits follows every head."""
        if self.tails.shape[1] == 0:
            return np.zeros_like(top)
        return np.searchsorted(self.tails[:, 0], top)

    def _start(self, lead: np.ndarray) -> np.ndarray:
        """The first rest whose digits are all at least lead."""
        if self.head == 1:
            return np.zeros_like(lead)
        return np.searchsorted(self.rests[:, 0], lead)

    def find(self, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The passing pairs of the head multisets heads, sorted rows:
        each pair's row and group, by row and then by group.  Screens
        first as far as the rows' smallest digits need."""
        while self.complete < heads[:, 0].max():
            self._screen()
        keys = _key(heads, self.m)
        first = np.searchsorted(self.keys, keys)
        count = np.searchsorted(self.keys, keys, side="right") - first
        owner = np.repeat(np.arange(len(heads)), count)
        at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(owner.size)
        return owner, self.groups[at]

    def _screen(self) -> None:
        """Screen the canonical heads of the next smallest digits, in one
        numpy pass: as many as hold at most about 2^14 pairs, or the next
        one alone if it holds more.  A block of 2^17 heads at n = 2 spans
        hundreds of smallest digits; one pass over them all would hold
        hundreds of MB."""
        m, zeta = self.m, _roots(self.m)
        a0 = self.complete + 1
        done = self.upto[a0 - 1] if a0 else 0
        step = max(1, _TAIL_CELLS >> 5)  # 2^14 at the default _TAIL_CELLS
        a1 = max(a0 + 1, int(np.searchsorted(self.upto, done + step, side="right")))
        # the canonical heads (lead, *rests[rest]) of smallest digit a0 .. a1 - 1
        lead = np.arange(a0, a1)
        start = self._start(lead)
        per = len(self.rests) - start
        lead = np.repeat(lead, per)
        rest = np.arange(lead.size) + np.repeat(start - np.cumsum(per) + per, per)
        lo = self._first(np.maximum(lead, self.rest_tops[rest]))
        # pair k is head who[k] and group group[k]: the groups from lo on
        sizes = len(self.tails) - lo
        who = np.repeat(np.arange(lead.size), sizes)
        group = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(who.size)
        z = (zeta[lead] + self.rest_sums[rest])[who] + self.values[group]
        keep = np.abs(z.real * z.real + z.imag * z.imag - self.size) <= _TOL
        who, group, z = who[keep], group[keep], z[keep]
        # the passing multisets P, sorted rows, split by run pattern
        whole = np.concatenate([lead[who, None], self.rests[rest[who]], self.tails[group]], axis=1)
        owner, split = _by_pattern(whole, partial(_split_table, k=self.head))
        head, tail = split[:, : self.head], split[:, self.head :]
        keys, groups = _key(head, m), np.searchsorted(self.tail_keys, _key(tail, m))
        if self.tails.shape[1] == self.size // 2:
            # the tail is the top half: F(e) = A - B = F(0) - 2B, where B
            # is the tail group's sum of zeta^d
            z = z[owner] - 2 * zeta[tail].sum(axis=1)
            keep = np.abs(z.real * z.real + z.imag * z.imag - self.size) <= _TOL
            keys, groups = keys[keep], groups[keep]
        keys = np.concatenate([self.pending[0], keys])
        groups = np.concatenate([self.pending[1], groups])
        # the heads of smallest digit below a1 are now complete
        final = keys < a1 * m ** (self.head - 1)
        order = np.lexsort((groups[final], keys[final]))
        self.keys = np.concatenate([self.keys, keys[final][order]])
        self.groups = np.concatenate([self.groups, groups[final][order]])
        self.pending = keys[~final], groups[~final]
        self.complete = a1 - 1


# one per search: (m, n, tail) is fixed by _tail_len
@lru_cache(maxsize=8)
def _head_table(m: int, n: int, tail: int) -> _HeadTable:
    return _HeadTable(m, n, tail)


def _tail_len(m: int, n: int) -> int:
    """The tail of an (m, n) search: as many last positions as fit in
    _TAIL_CELLS, but at most the top half of Z_2^n, so that _HeadTable
    can screen at y = 2^(n-1) too, and at most 2^n - 2, leaving a head."""
    size = 1 << n
    tail = 0
    while tail < min(size - 2, size >> 1) and (m ** (tail + 1)) * size <= _TAIL_CELLS:
        tail += 1
    return tail


def _heads(m: int, h: int, lo: int, hi: int) -> np.ndarray:
    """The heads of ranks lo .. hi - 1, one row of h base-m digits each,
    most significant first.  The ranks are int64: no search walks 2^63
    heads, which would take centuries at any rate seen here."""
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
    lo .. hi - 1.  _HeadTable gives each head's passing tail groups, and
    only their rows are built: each group's distinct arrangements, from
    _arrangements per run pattern.  Those rows are screened at y = 1, 2,
    ..., 2^n - 1 in turn, in slabs of at most _TAIL_CELLS / 8 rows (which
    bounds the scratch), and the survivors go to the exact test sorted by
    head and then by tail digits, so that the first one confirmed is the
    least.  Returns that witness (or None), the count of completions
    examined (every tail of each head up to the witness's) and the count
    of screen survivors sent to the exact test."""
    size, chi, zeta = 1 << n, _char_table(n), _roots(m)
    tail = _tail_len(m, n)
    table = _head_table(m, n, tail)

    heads = _heads(m, size - 1 - tail, lo, hi)
    owner, groups = table.find(np.sort(heads, axis=1))
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
                z = spec[part, y] + roots @ chi[size - tail :, y]
                keep = np.abs(z.real * z.real + z.imag * z.imag - size) <= _TOL
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
    so is m > MAX_MODULUS.  One loop takes the results of the blocks of
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

    start = time.perf_counter()
    h = (1 << n) - 1 - _tail_len(m, n)
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

