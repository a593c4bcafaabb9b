"""Exhaustive search for generalized bent functions at desk scale, plus
the dimension-3 autocorrelation catalog experiment.

brute_force covers the normalized space (f(0) = 0, all other values
free) in blocks fixed by the first one or two free values.  A block
takes the next positions (the mid levels) in lexicographic chunks and
screens every assignment of the last positions (the tail, as many as fit
in _TAIL_CELLS complex cells, but at most the top half of Z_2^n) after
each mid of a chunk in a few numpy batches.  Screening is numeric with
a one-sided tolerance far above attainable float error, so a true
witness can never be screened out; every survivor is confirmed exactly
before it is reported.  Exhaustion examines every assignment
(examined == normalized_space) and certifies nonexistence.

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
y, so it passes both.  The tail table keeps each tail multiset as one
run of rows and is built only once some head (prefix and mid) has a
passing tail group; at n = 3 for m = 2, 3, 5, 6, 7, 9, 10, 11, 13, 14
and 15, and at (3, 4), none has.  The rows of a chunk's passing groups
are screened at the other characters together, and the few survivors
go to the exact test in lexicographic order, so that the witness
reported is the least.

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
from itertools import combinations_with_replacement, compress, islice, product
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

# brute_force(15, 3) exhausts this budget in 0.012 to 0.019 s, about
# 1e10 assignments/s, on one core of a 2-core Xeon VM; no split of its
# digit multisets passes both screens of _HeadTable, so it builds no
# tail table.  That holds for n >= 3 only: n = 2 runs at 5e7 to 1e8
# assignments/s, and n = 1 at about 2e5 one-assignment blocks/s
DEFAULT_BUDGET = 15**7

# a block costs a few microseconds however few assignments it holds, so
# at n = 1 the budget alone does not bound the time; 2^19 blocks take
# about 2.4 s on the same VM.  Every n >= 2 space inside DEFAULT_BUDGET
# has at most 554^2 blocks
MAX_BLOCKS = 1 << 19

# numeric screen: float error on |F(y)|^2 stays below ~1e-12 for the
# sums of at most 32 unit vectors seen here, so 1e-6 cannot lose a
# witness; survivors are confirmed exactly
_TOL = 1e-6

# largest batch, in complex cells (tail assignments x characters)
_TAIL_CELLS = 1 << 19

STATUS_WITNESS = "WitnessFound"
STATUS_EXHAUSTED = "ExhaustedNone"


class BudgetExceededError(Exception):
    """The space exceeds the budget or, when blocks is given, it splits
    into more than MAX_BLOCKS blocks."""

    def __init__(self, m: int, n: int, space: int, budget: int, blocks: int | None = None):
        self.m, self.n, self.space, self.budget, self.blocks = m, n, space, budget, blocks
        what = f"normalized space {m}^{(1 << n) - 1} = {space}"
        if blocks is None:
            super().__init__(f"{what} exceeds budget {budget}")
        else:
            super().__init__(f"{what} splits into {blocks} blocks, over the cap {MAX_BLOCKS}")


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
    base m with the smallest digit most significant: the groups are the
    digit multisets in lexicographic order, numbered as _HeadTable
    numbers them, and those whose smallest digit is at least d form a
    suffix.  The columns are then built one spectrum row at a time.

    The digits are sorted column-wise by an odd-even transposition
    network of np.minimum / np.maximum, which sorts any tail columns in
    tail rounds and costs a fraction of a row-wise np.sort."""
    size = 1 << n
    chi, zeta = _char_table(n), _roots(m)
    cols = np.indices((m,) * tail, dtype=np.int16).reshape(tail, m**tail)
    digits = cols.T.copy()
    cols = list(cols)
    for r in range(tail):
        for j in range(r % 2, tail - 1, 2):
            cols[j], cols[j + 1] = np.minimum(cols[j], cols[j + 1]), np.maximum(cols[j], cols[j + 1])
    key = np.zeros(m**tail, dtype=np.int64)
    for j, col in enumerate(cols):
        key += col * np.int64(m ** (tail - 1 - j))  # an int64 factor: the key outgrows int16
    del cols
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


def _multisets(m: int, k: int) -> np.ndarray:
    """The k-digit multisets over range(m) in lexicographic order, one
    sorted row each."""
    sets = list(combinations_with_replacement(range(m), k))
    return np.array(sets, dtype=np.intp).reshape(len(sets), k)


# what a head multiset with no passing tail group is given
_NO_GROUPS = np.zeros(0, dtype=np.intp)
_NO_GROUPS.flags.writeable = False


class _HeadTable:
    """The tail groups that pass the y = 0 screen, and the y = e screen
    when the tail is the top half, after each head multiset of
    2^n - 1 - tail digits, found lazily.

    An assignment's y = 0 value 1 + sum_j zeta^{d_j} depends only on the
    multiset P of its 2^n - 1 free digits, so each P is screened once, as
    its canonical split: the head H of its h smallest digits and the tail
    group T of the rest, min(T) >= max(H).  The canonical heads are
    taken by smallest digit, each against the suffix of groups whose
    smallest digit is at least its largest, one numpy pass per run of
    digits holding at least about 2^14 pairs.  Every P that passes is
    filed under each of its (head multiset, tail group) splits.  A head
    multiset of smallest digit d lies only in multisets P of smallest
    digit at most d, so once those are screened (d <= complete) its
    groups are final.

    When the tail is the top half of Z_2^n, the head the bottom half
    less the origin, a split (H, T) is filed only if it also passes
    y = e = 2^(n-1): F(e) = A - B = F(0) - 2B, where A = 1 + sum_H zeta
    and B = sum_T zeta, so F(e), unlike F(0), depends on the split.  All
    splits of the passing P are tested in one numpy pass.  A witness has
    |F(0)|^2 = |F(e)|^2 = 2^n exactly, so its split passes both."""

    def __init__(self, m: int, n: int, tail: int):
        self.m, self.size = m, 1 << n
        self.head = self.size - 1 - tail
        zeta = _roots(m)
        self.tails = _multisets(m, tail)
        self.rank = {tuple(t): g for g, t in enumerate(self.tails.tolist())}
        self.values = zeta[self.tails].sum(axis=1)
        # a canonical head is (a, *rest): rest sorted, its digits all >= a
        self.rests = _multisets(m, self.head - 1)
        self.rest_sums = 1 + zeta[self.rests].sum(axis=1)
        self.rest_tops = self.rests.max(axis=1, initial=0)
        digit = np.arange(m)
        if self.head > 1:
            # a rest meets the groups from _first(its largest digit) on,
            # after every lead up to its smallest digit
            meets = len(self.rank) - self._first(self.rest_tops)
            pairs = np.append(np.cumsum(meets[::-1])[::-1], 0)[self._start(digit)]
        else:
            pairs = len(self.rank) - self._first(digit)
        # upto[a]: the pairs of the canonical heads of smallest digit <= a
        self.upto = np.cumsum(pairs)
        self.complete = -1
        # groups found for heads not yet complete, by smallest digit
        self.pending: dict[int, dict[tuple[int, ...], list[int]]] = {}
        self.found: dict[tuple[int, ...], np.ndarray] = {}

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

    def groups(self, head: tuple[int, ...]) -> np.ndarray:
        """The sorted, read-only indices of the tail groups that pass
        after the head multiset head, a sorted tuple."""
        if head[0] > self.complete:
            self._screen(head[0])
        return self.found.get(head, _NO_GROUPS)

    def _screen(self, d: int) -> None:
        """Screen the canonical heads from the first smallest digit not
        yet complete through d, and on until the pass holds at least
        about 2^14 pairs: at n = 1, one new head per block, a pass serves
        many blocks."""
        a0 = self.complete + 1
        done = self.upto[a0 - 1] if a0 else 0
        step = max(1, _TAIL_CELLS >> 5)  # 2^14 at the default _TAIL_CELLS
        a1 = min(self.m, max(d, int(np.searchsorted(self.upto, done + step))) + 1)
        # the canonical heads (lead, *rests[rest]) of smallest digit a0 .. a1 - 1
        lead = np.arange(a0, a1)
        start = self._start(lead)
        per = len(self.rests) - start
        lead = np.repeat(lead, per)
        rest = np.arange(lead.size) + np.repeat(start - np.cumsum(per) + per, per)
        lo = self._first(np.maximum(lead, self.rest_tops[rest]))
        # pair k is head who[k] and group group[k]: the groups from lo on
        sizes = len(self.rank) - lo
        who = np.repeat(np.arange(lead.size), sizes)
        group = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(who.size)
        z = (_roots(self.m)[lead] + self.rest_sums[rest])[who] + self.values[group]
        keep = np.abs(z.real * z.real + z.imag * z.imag - self.size) <= _TOL
        who, group, z = who[keep], group[keep], z[keep]
        whole = np.concatenate([lead[who, None], self.rests[rest[who]], self.tails[group]], axis=1)
        heads, groups, owner = [], [], []
        for i, p in enumerate(whole.tolist()):
            for head, left in _splits(p, self.head):
                heads.append(head)
                groups.append(self.rank[left])
                owner.append(i)
        if self.tails.shape[1] == self.size // 2:
            # the tail is the top half: F(e) = A - B = F(0) - 2B, where B
            # is the tail group's sum of zeta^d
            z = z[owner] - 2 * _roots(self.m)[self.tails[groups]].sum(axis=1)
            keep = np.abs(z.real * z.real + z.imag * z.imag - self.size) <= _TOL
            heads, groups = compress(heads, keep), compress(groups, keep)
        for head, g in zip(heads, groups):
            self.pending.setdefault(head[0], {}).setdefault(head, []).append(g)
        self.complete = a1 - 1
        for a in [a for a in self.pending if a < a1]:
            for head, groups in self.pending.pop(a).items():
                groups = np.array(sorted(groups), dtype=np.intp)
                groups.flags.writeable = False
                self.found[head] = groups


def _splits(p: list[int], k: int):
    """Each distinct multiset of k digits taken from the sorted list p,
    with the digits left over, both as sorted tuples."""
    if k == 0:
        yield (), tuple(p)
        return
    if len(p) == k:
        yield tuple(p), ()
        return
    # take j copies of p's smallest digit v, then the rest from what follows
    v = p[0]
    c = p.count(v)
    for j in range(max(0, k - len(p) + c), min(c, k) + 1):
        for head, left in _splits(p[c:], k - j):
            yield (v,) * j + head, (v,) * (c - j) + left


# one per search: (m, n, tail) is fixed by the block size
@lru_cache(maxsize=8)
def _head_table(m: int, n: int, tail: int) -> _HeadTable:
    return _HeadTable(m, n, tail)


def _tail_len(m: int, n: int, free: int) -> int:
    """The tail of a block with free positions past its prefix: as many
    last positions as fit in _TAIL_CELLS, but no more than the top half
    of Z_2^n, so that _HeadTable can screen at y = 2^(n-1) too."""
    size = 1 << n
    tail = 0
    while tail < free and tail < size >> 1 and (m ** (tail + 1)) * size <= _TAIL_CELLS:
        tail += 1
    return tail


def _run_prefix(
    m: int, n: int, prefix: tuple[int, ...]
) -> tuple[tuple[int, ...] | None, int, int]:
    """Search every completion of (0, *prefix, mid..., tail...), taking
    the mid assignments in lexicographic chunks of at most _TAIL_CELLS /
    2^n and screening each chunk's tails as a few numpy batches.

    The tail is _tail_len positions long: as many as fit in
    _TAIL_CELLS, and no more than the top half of Z_2^n, which every
    n = 3 and n = 4 space inside DEFAULT_BUDGET gets exactly.  The y = 0
    screen runs once per digit multiset of the whole assignment, in
    _HeadTable, which gives each head (prefix and mid) the tail groups
    that pass after its digit multiset: all permutations share one exact
    y = 0 value, a witness has |F(0)|^2 = 2^n exactly, so its groups
    pass, and the few ulps between the float values of one multiset are
    far below the tolerance.  When the tail is the top half, the head
    the rest of the bottom half, F(e) = A - B at y = e = 2^(n-1) depends
    only on the head's multiset (through A) and the tail group (through
    B), so _HeadTable screens that too, and a witness passes it for the
    same reason.  Only a chunk with a passing group builds the tail
    table.  The rows of every passing (mid, group) pair of the chunk go
    through the screens at y = 1 .. 2^n - 1 together, in slabs of at
    most _TAIL_CELLS / 8 rows.  The survivors, sorted by mid and then by
    tail digits so that the first one confirmed is the least, go through
    the exact test.

    Returns the lexicographically least witness of this block (or None),
    the count of completions examined (every tail of each mid up to the
    witness's) and the count of screen survivors sent to the exact test."""
    size = 1 << n
    chi = _char_table(n)
    zeta = _roots(m)
    free = size - 1 - len(prefix)
    tail = _tail_len(m, n, free)
    table = _head_table(m, n, tail)
    rows = m**tail
    slab = max(1, _TAIL_CELLS >> 3)  # rows per y >= 1 screen: bounds its scratch

    mids = product(range(m), repeat=free - tail)
    chunk = max(1, _TAIL_CELLS // size)
    done = survivors = 0
    while batch := list(islice(mids, chunk)):
        heads = [prefix + mid for mid in batch]
        groups = [table.groups(tuple(sorted(head))) for head in heads]
        sizes = [g.size for g in groups]
        if any(sizes):
            digits, columns, _, starts, counts = _tail_tables(m, n, tail)
            # the chunk's spectra, one row per head: f(0) = 0 adds chi[0],
            # all ones, and each head position v its character times zeta^v
            spec = np.ones((len(heads), size), dtype=np.complex128)
            for pos, col in enumerate(np.array(heads, dtype=np.intp).T, start=1):
                spec += zeta[col, None] * chi[pos]
            passing = np.concatenate(groups)
            lengths = counts[passing]
            # the rows of the passing groups, and the mid each belongs to:
            # slot k of group g is row starts[g] + k
            owner = np.repeat(np.repeat(np.arange(len(batch)), sizes), lengths)
            sel = np.repeat(starts[passing] - np.cumsum(lengths) + lengths, lengths)
            sel += np.arange(sel.size)
            hits = []
            for lo in range(0, sel.size, slab):
                who, row = owner[lo : lo + slab], sel[lo : lo + slab]
                for y in range(1, size):
                    if row.size == 0:
                        break
                    z = spec[who, y] + columns[y][row]
                    keep = np.abs(z.real * z.real + z.imag * z.imag - size) <= _TOL
                    who, row = who[keep], row[keep]
                hits += zip(who.tolist(), digits[row].tolist())
            for i, tail_values in sorted(hits):
                survivors += 1
                values = (0, *heads[i], *tail_values)
                if is_gbf_exact(GbfFunction(n, m, values)):
                    return values, (done + i + 1) * rows, survivors
        done += len(batch)
    return None, done * rows, survivors


def brute_force(
    m: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
    *,
    workers: int = 1,
    progress=None,
) -> SearchOutcome:
    """Exhaustive search of the normalized space for an (m, n) witness.

    The space m^(2^n - 1) is rejected up front when it exceeds budget,
    and so is a space that would split into more than MAX_BLOCKS
    blocks.  Work splits into blocks by the first one or two free
    values.  One loop takes the block results in order, computed in
    process or, for workers > 1, on at most that many worker processes
    (no more than the blocks or the CPUs), a few chunks of blocks per
    worker.  The first block reporting a witness wins, which makes the
    returned witness the overall lexicographic minimum.  progress, when
    given, receives one event dict per finished block.  m < 2 is
    refused, as decide refuses it: m = 1 has a space of 1 at every n,
    so the budget would not stop the 4^n-cell character table.
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got ({m}, {n})")
    size = 1 << n
    space = m ** (size - 1)
    if space > budget:
        raise BudgetExceededError(m, n, space, budget)
    depth = min(2, size - 1)
    blocks = m**depth
    if blocks > MAX_BLOCKS:
        raise BudgetExceededError(m, n, space, budget, blocks=blocks)

    start = time.perf_counter()
    # product copies its pool to a tuple: share one between the two walks
    digits = tuple(range(m))

    def prefixes():
        return product(digits, repeat=depth)

    # fork starts every worker on the first submit, so ask for no more
    # than there are blocks and CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, blocks, cpus or 1)
    run = partial(_run_prefix, m, n)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    witness = None
    examined = 0
    try:
        if pool is None:
            results = map(run, prefixes())
        else:
            # a few chunks per worker: per-block futures cost more than a block
            results = pool.map(run, prefixes(), chunksize=ceil(blocks / (4 * workers)))
        for prefix, (values, ex, survivors) in zip(prefixes(), results):
            examined += ex
            if progress is not None:
                # "pruned" stays in the event so that existing readers keep working
                progress(
                    {"prefix": list(prefix), "examined": ex, "pruned": 0, "survivors": survivors}
                )
            if values is not None:
                witness = GbfFunction(n, m, values)
                break
    finally:
        if pool is not None:
            # wait for the running chunks, so that no worker outlives the call
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

