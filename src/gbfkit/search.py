"""Exhaustive search for generalized bent functions at desk scale, plus
the dimension-3 autocorrelation catalog experiment.

brute_force covers the normalized space (f(0) = 0, all other values
free) as a tree over the cosets of H_k = {x : the top k bits of x are
0}, level k = 1 .. n.  A level-k node fixes the digit multiset of f on
each of the 2^k cosets, one sorted row of values per coset, and stands
for every function with those multisets: the product of the cosets'
counts of orderings (coset 0 past f(0)).  Every character y supported
on the top k bits is constant on the cosets, so F(y) is the Walsh
transform of the coset sums S_c = sum of zeta^f over coset c, and
depends on the node alone.

Level 1 is a join.  Let e = 2^(n-1), A the sum of zeta^f over the bottom
half (f(0) = 0 included) and B the sum over the top half; F(0) = A + B
and F(e) = A - B.  A depends only on the digit multiset of the bottom
half (the head) and B only on that of the top half (the tail group,
_TailTable, whose first groups, those with a digit 0, are the heads).
|A|^2 + |B|^2 is the mean of |F(0)|^2 and |F(e)|^2, so each head
meets only the groups whose |B|^2 is within the tolerance of 2^n -
|A|^2, one slice of the groups sorted by |B|^2, and each such pair is
screened at y = 0 and y = e.  At n = 3 for m = 2, 3, 5, 6, 7, 9, 10,
11, 13, 14 and 15, at (3, 4), (13, 4) and (21, 4) no pair passes.

Level k to k + 1 splits every coset multiset into a lower and an upper
half (a split table per run pattern of equal digits, _Level).  The
characters y = (c', 1) on the top k + 1 bits take the Walsh transform of
size 2^k of the half differences S_(c,0) - S_(c,1); a child passes when
each has |F(y)|^2 within the tolerance of 2^n.  Level n holds single
points, so its nodes are functions, the leaves, which go to the exact
test in lexicographic order.

Screening is numeric with a one-sided tolerance far above attainable
float error, so a true witness can never be screened out; every
survivor is confirmed exactly before it is reported.  A node's row
read whole is the least function below it, so the nodes are taken in
the order of their rows, and a node whose row is not below the best
witness found so far is skipped: the witness reported is the least.
The heads are joined in runs, and each run's passing nodes are searched
under the best witness of the runs before it; runs whose least function
is not below it are not joined, which saves work: the witness does not
depend on it.
Each level counts the functions it cuts, and the leaves tested count
one each; exhaustion examines every function (examined ==
normalized_space), which certifies nonexistence.  The split tables
count the functions of every child they make, so the certificate fails
if a split is missing.

The catalog half lists every element of N[C_30] satisfying the five
arithmetic constraints an autocorrelation coefficient of a bent
function must satisfy at n = 3, and classifies each against the known
shape catalog.  It lists no v-sum it rejects: the v-sums of each norm
up to 8 are counted from the fibers the one exact enumerator,
vsum._vsums_under, groups (vsum._vsum_counts), and the inversion-fixed
elements of norm 8, a few thousand rows, are built directly and
zero-tested at once, exactly; those with an even g^0-coefficient are
the candidates.  The alternating projection follows from the others.
enumerate_autocorr_candidates takes the enumerator's walk instead, as
an independent cross-check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, lru_cache
from itertools import combinations
from math import comb, prod

import numpy as np

from .gbf import _TOL, GbfFunction, is_gbf_exact
from .ring import (
    CharacterSpec,
    CyclicRingElt,
    character_value_is_zero,
    cyclotomic_residue,
    punctured_subgroup_sum,
    subgroup_sum,
)
from .vsum import _vsum_counts, _vsums_under

# brute_force(15, 3) exhausts this budget in 0.002 to 0.003 s on one core
# of a 2-core Xeon VM (a fresh process, after the import): no (head, tail)
# multiset pair passes both screens at y = 0 and y = 2^(n-1), so the
# level-1 join is the whole search.  (553, 2), the largest n = 2 space
# inside it, takes 0.02 to 0.03 s
DEFAULT_BUDGET = 15**7

# the roots of unity and, at n = 1, the tail table hold m entries, and
# at n = 1, a space of m, the budget does not bound m: (524286, 1)
# takes 0.09 to 0.11 s and 61 MB on the same VM
MAX_MODULUS = 1 << 19

# the level-1 table holds every digit multiset of a half of Z_2^n (the
# heads are its first), so more than this many, C(m + 2^(n-1) - 1,
# 2^(n-1)), are refused whatever the budget: (21, 4), 3108105 of them,
# exhausts in 2.1 to 2.5 s at 297 MB VmHWM on the same VM, so the cap
# stays near 0.5 GB; (22, 4) needs 4292145 and (30, 4) 38.6 million
MAX_MULTISETS = 1 << 22

# a level-k node's cosets split through every choice of the lower half
# of their 2^(n-k) positions, C(16, 8) = 12870 at n = 5 and level 1;
# C(32, 16) at n = 6 is past reach, so n = 6 is refused
MAX_HALF = 16

# largest screen pass, in complex cells: 32 per pair of a level-1
# screen pass, and 2^k per child of a level-k node screened at once
_TAIL_CELLS = 1 << 19

# the first run of head multisets holds this many pairs in its windows,
# and the first chunk of nodes at each level this many children; each
# next one doubles, up to the caps above.  Head runs start larger, as a
# run costs some 15 numpy calls even when no pair passes: the witness of
# (12, 3) is 192 pairs in, that of (24, 3) 768
_FIRST_PAIRS = 1 << 10
_FIRST_RUN = 1 << 6

STATUS_WITNESS = "WitnessFound"
STATUS_EXHAUSTED = "ExhaustedNone"


class BudgetExceededError(Exception):
    """Refused up front: the space is over the budget, m over
    MAX_MODULUS, a half past MAX_HALF positions or its multisets over
    MAX_MULTISETS."""

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
    """chi[x, y] = (-1)^popcount(x & y), the characters of Z_2^n, built
    by doubling: [[chi, chi], [chi, -chi]]."""
    table = np.ones((1, 1))
    for _ in range(n):
        table = np.concatenate([np.concatenate([table, table], axis=1), np.concatenate([table, -table], axis=1)])
    return table


@lru_cache(maxsize=16)
def _roots(m: int) -> np.ndarray:
    """zeta^v = exp(2 pi i v / m) for v in range(m), read-only, each within
    2^-52.  The angle is taken past its nearest quarter turn, q pi / 2 for
    q = round(4 v / m), in integers: the rest, pi r / 2m with r = 4 v - q m,
    is at most pi / 4, so it carries no rounding error of an angle up to
    2 pi (up to 4 ulps of 1), and i^q is exact."""
    v = np.arange(m)
    q = (8 * v + m) // (2 * m)
    zeta = np.array([1, 1j, -1, -1j])[q % 4] * np.exp(0.5j * np.pi * ((4 * v - q * m) / m))
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


def _orderings(rows: np.ndarray) -> np.ndarray:
    """The distinct orderings of each sorted row, s! / prod(run length!),
    in int64, built a column at a time as the count of the row's prefix:
    each step multiplies by the prefix length and divides by the place
    of the new digit in its run, which stays exact.  A row of at most
    2^(n-1) <= 16 digits has at most m^(2^(n-1)) orderings, 10^16 at
    most within brute_force's caps, and no step passes that times 16."""
    count = np.ones(len(rows), dtype=np.int64)
    place = np.zeros(len(rows), dtype=np.int64)
    for i in range(rows.shape[1]):
        place = place + 1 if not i else np.where(rows[:, i] == rows[:, i - 1], place + 1, 1)
        count = count * (i + 1) // place
    return count


def _sum_of_products(factors: np.ndarray) -> int:
    """sum over rows of the product of the row's positive int64 factors,
    exactly: in int64 when the largest factor to the row length, times
    the rows, fits, else as Python ints."""
    if not factors.size:
        return len(factors)
    if int(factors.max()) ** factors.shape[1] * len(factors) < 1 << 62:
        return int(factors.prod(axis=1).sum())
    return sum(map(prod, factors.tolist()))


def _below(rows: np.ndarray, bound) -> np.ndarray:
    """Which rows are lexicographically less than the row bound."""
    bound = np.asarray(bound)
    differ = rows != bound
    first = differ.argmax(axis=1)
    return differ.any(axis=1) & (rows[np.arange(len(rows)), first] < bound[first])


def _lex_sorted(rows: np.ndarray) -> np.ndarray:
    """The rows in lexicographic order."""
    return rows[np.lexsort(rows.T[::-1])]


@lru_cache(maxsize=8)
def _halves(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every choice of a lower half among s positions, in lexicographic
    order: index rows with the lower half's positions first, and the
    masks of the lower halves; and the signs of a half difference, +1 on
    the lower half's positions of such a row and -1 on the upper's."""
    low = np.array(list(combinations(range(s), s // 2)), dtype=np.intp).reshape(-1, s // 2)
    mask = np.zeros((len(low), s), dtype=bool)
    mask[np.arange(len(low))[:, None], low] = True
    high = np.nonzero(~mask)[1].reshape(len(low), s - s // 2)
    signs = np.concatenate([np.ones(s // 2), -np.ones(s - s // 2)])
    return np.concatenate([low, high], axis=1), mask, signs


def _close(z: np.ndarray, size: int) -> np.ndarray:
    """|z|^2 within _TOL of size."""
    return np.abs(z.real * z.real + z.imag * z.imag - size) <= _TOL


class _TailTable:
    """The digit multisets of the top half of Z_2^n (the tail groups):
    group g is the g-th in lexicographic order, one sorted row tails[g],
    with B, the sum of zeta^d over its digits, in sums[g] and its count
    of orderings in counts[g].  norms holds every |B|^2 in increasing
    order, norms[i] that of group order[i].  The bottom half has as many
    points, so its multisets with a digit 0, the first groups, are the
    heads."""

    def __init__(self, m: int, n: int):
        self.m, self.size = m, 1 << n
        zeta = _roots(m)
        self.tails = _multisets(m, self.size >> 1)
        # accumulated in place: at n = 1 a table holds up to 2^19 groups
        self.sums = np.zeros(len(self.tails), complex)
        for col in self.tails.T:
            self.sums += zeta[col]
        self.counts = _orderings(self.tails)
        self.norms = np.abs(self.sums)
        self.norms *= self.norms
        self.order = np.argsort(self.norms)
        self.norms.sort()

    def windows(self, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A, the sum of zeta^d over each of the head groups heads (the
        digits of a bottom half, f(0) = 0 among them), and the slice
        first .. first + count of norms within _TOL of 2^n - |A|^2: the
        groups each head is screened against."""
        a = self.sums[heads]
        target = self.size - (a.real * a.real + a.imag * a.imag)
        first = np.searchsorted(self.norms, target - _TOL)
        return a, first, np.searchsorted(self.norms, target + _TOL, side="right") - first

    def screen(self, a, first, count) -> tuple[np.ndarray, np.ndarray]:
        """The (head, group) pairs of the windows that pass the screens at
        y = 0 and y = e, as each pair's head (its index in a) and group,
        by head, in passes of at most _TAIL_CELLS / 32 pairs."""
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


def _stats() -> dict:
    return dict.fromkeys(("nodes_in", "nodes_out", "examined", "pruned", "survivors", "seconds"), 0)


def _chunks(width: np.ndarray, first: int, step: int):
    """Chunks lo .. hi of the items, in order, by their widths, each
    counted up to step + 1: the first holds a width of at most first,
    each next at most twice the larger of the allowance and the width of
    the chunk before, up to step, or is one item with more.  A witness
    below one of the first items is found after a few small chunks, and
    then bounds the rest; an item with a large width is not followed by
    more chunks of one item each."""
    ends = np.cumsum(np.minimum(width, step + 1))
    lo, run = 0, min(step, first)
    while lo < len(width):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + run, side="right")))
        yield lo, hi
        lo, run = hi, min(step, 2 * max(run, int(ends[hi - 1]) - base))


class _Level:
    """The split tables of the cosets of the sorted level-k nodes rows
    (a node's row lists f at x = 0 .. 2^n - 1, coset c of level k at
    columns c 2^(n-k) .. (c + 1) 2^(n-k) - 1, each coset's digits
    sorted), each node's count of children (the product of its cosets'
    counts of splits), and the screen of those children at the 2^k
    characters that level k + 1 adds.  A coset's two halves at level
    k + 1 have sums S_0 and S_1; y = (c', 1) on the top k + 1 bits takes
    sum_c chi[c, c'] (S_0 - S_1) of coset c, the Walsh transform of the
    half differences."""

    def __init__(self, m: int, n: int, k: int, rows: np.ndarray):
        self.m, self.n, self.k, self.rows = m, n, k, rows
        cosets, s = 1 << k, 1 << (n - k)
        seg = rows.reshape(-1, s)
        same = seg[:, 1:] == seg[:, :-1]
        codes = same @ (1 << np.arange(s - 1, dtype=np.int64))
        # coset 0 holds f(0) = 0, which its splits keep in place
        codes[::cosets] |= 1 << (s - 1)
        # the patterns present, in code order, each with one of its cosets
        present = np.zeros(1 << s, dtype=bool)
        present[codes] = True
        holder = np.zeros(1 << s, dtype=np.intp)
        holder[codes] = np.arange(len(codes))
        first, which = holder[present], (np.cumsum(present) - 1)[codes]
        # the splits of each run pattern: a lower half that takes each
        # run's digits from its front (no position in it after an equal
        # one left out) and, in coset 0, keeps f(0)
        reps, pinned = seg[first], first % cosets == 0
        halves, mask, self.signs = _halves(s)
        gap = mask[:, 1:] & ~mask[:, :-1]
        step = max(1, (_TAIL_CELLS << 4) // gap.size)
        valid = np.concatenate([
            ~(gap & (reps[lo : lo + step, 1:] == reps[lo : lo + step, :-1])[:, None]).any(axis=2)
            for lo in range(0, len(reps), step)
        ])
        valid[pinned] &= mask[:, 0]
        pattern, split = np.nonzero(valid)
        self.sizes = np.bincount(pattern, minlength=len(reps)).astype(np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.perms = halves[split]
        # a split's functions: the orderings of its lower half, past f(0)
        # in coset 0, times those of its upper half
        digits = reps[pattern[:, None], self.perms]
        lows = _orderings(digits[:, : s // 2])
        # in coset 0 the lower half's z zeros, f(0) among them, order
        # past f(0) in z / (s / 2) of its orderings
        zeros = (digits[:, : s // 2] == 0).sum(axis=1)
        lows = np.where(pinned[pattern], lows * zeros // (s // 2), lows)
        self.weights = lows * _orderings(digits[:, s // 2 :])
        self.totals = np.add.reduceat(self.weights, self.offsets)
        self.which = which.reshape(len(rows), cosets)
        self.width = self.sizes[self.which].prod(axis=1)

    def children(self, nodes: np.ndarray, stats: dict) -> np.ndarray:
        """The children of the nodes (indices into rows) that pass the
        characters of level k + 1, sorted, screened in slices of at most
        _TAIL_CELLS / 2^k children; stats, level k + 1's, counts the
        children screened, those that pass and the functions cut."""
        cosets, s = 1 << self.k, 1 << (self.n - self.k)
        which = self.which[nodes]
        sizes = self.sizes[which]
        seg = self.rows[nodes].reshape(-1, s)
        # every split of every coset of the nodes, as its row in the
        # tables, and its half difference
        flat = sizes.ravel()
        owner = np.repeat(np.arange(flat.size), flat)
        start = np.cumsum(flat) - flat
        split = np.arange(owner.size) + (self.offsets[which.ravel()] - start)[owner]
        diff = _roots(self.m)[seg[owner[:, None], self.perms[split]]] @ self.signs
        start = start.reshape(sizes.shape)
        # a child is a node and a split per coset, coset 0 varying slowest
        count = self.width[nodes]
        stride = count[:, None] // np.cumprod(sizes, axis=1)
        ends = np.cumsum(count)
        total, step = int(ends[-1]), max(1, _TAIL_CELLS >> self.k)
        kept, passed = [], 0
        for lo in range(0, total, step):
            rank = np.arange(lo, min(lo + step, total))
            who = np.searchsorted(ends, rank, side="right")
            rank += count[who] - ends[who]
            pick = start[who] + rank[:, None] // stride[who] % sizes[who]
            keep = _close(diff[pick] @ _char_table(self.k), 1 << self.n).all(axis=1)
            row = split[pick[keep]]
            # each coset of a passing child: its parent's coset through the split
            at = who[keep, None] * cosets + np.arange(cosets)
            kept.append(seg[at[..., None], self.perms[row]].reshape(len(row), cosets * s))
            passed += _sum_of_products(self.weights[row])
        cut = _sum_of_products(self.totals[which])
        stats["nodes_in"] += total
        stats["nodes_out"] += sum(map(len, kept))
        stats["examined"] += cut - passed
        stats["pruned"] += cut - passed
        return _lex_sorted(np.concatenate(kept))


def _confirm(m: int, n: int, leaves: np.ndarray, bound, stats: dict):
    """The first of the sorted leaves (value lists) below bound that
    passes the exact test, or None; every leaf tested is counted as
    examined and as a survivor."""
    if bound is not None:
        leaves = leaves[_below(leaves, bound)]
    for leaf in leaves:
        row = leaf.tolist()
        stats["examined"] += 1
        stats["survivors"] += 1
        if is_gbf_exact(GbfFunction(n, m, tuple(row))):
            return row
    return None


def _descend(m: int, n: int, k: int, rows: np.ndarray, stats: dict, bound):
    """The least function below the sorted level-k nodes rows, less than
    bound (when not None), that passes the exact test, as its value
    list, or None.  The nodes are expanded a chunk at a time (_chunks),
    depth first; a node whose row (its least function) is not below the
    best found so far is skipped.  stats[j] accumulates level j."""
    if not len(rows):
        return None
    if k == n:
        start = time.perf_counter()
        found = _confirm(m, n, rows, bound, stats[k])
        stats[k]["seconds"] += time.perf_counter() - start
        return found
    level, best = _Level(m, n, k, rows), None
    for lo, hi in _chunks(level.width, _FIRST_RUN, max(1, _TAIL_CELLS >> k)):
        limit = bound if best is None else best
        nodes = np.arange(lo, hi)
        if limit is not None:
            nodes = nodes[_below(rows[lo:hi], limit)]
            if not nodes.size:
                break
        start = time.perf_counter()
        children = level.children(nodes, stats[k + 1])
        stats[k + 1]["seconds"] += time.perf_counter() - start
        found = _descend(m, n, k + 1, children, stats, limit)
        if found is not None:
            best = found
    return best


def _stream(m: int, n: int, best):
    """The runs of head multisets in order, each joined with the tail
    table, as (level 1's counts, its passing level-1 nodes, sorted), up
    to the first whose least function is not below best(), the best
    witness so far or None; that run and those after it are not joined.
    This only saves joins: a run's nodes are searched under the best
    witness anyway.  The runs are _chunks of the heads by the pairs in
    their windows, from _FIRST_PAIRS up to _TAIL_CELLS / 32 (or one head
    with more)."""
    start = time.perf_counter()
    table = _TailTable(m, n)
    half = table.tails.shape[1]
    # the digits of the bottom half, f(0) = 0 among them, are a group with
    # a digit 0, one of the first C(m + half - 2, half - 1) (the heads);
    # its orderings with f(0) first are z / half of its own, z its zeros
    heads = comb(m + half - 2, half - 1)
    head_counts = table.counts[:heads] * (table.tails[:heads] == 0).sum(axis=1) // half
    # a sum of orderings over a whole table is m^(its digits) < 2^63
    # when no multiset is missing
    tail_total = int(table.counts.sum())
    a, first, count = table.windows(np.arange(heads))
    for lo, hi in _chunks(count, _FIRST_PAIRS, max(1, _TAIL_CELLS >> 5)):
        bound = best()
        if bound is not None and table.tails[lo].tolist() + [0] * half >= bound:
            return
        owner, groups = table.screen(a[lo:hi], first[lo:hi], count[lo:hi])
        # by head, then by tail group: the lexicographic order of the rows
        order = np.argsort(owner * len(table.tails) + groups, kind="stable")
        owner, groups = owner[order] + lo, groups[order]
        rows = np.concatenate([table.tails[owner], table.tails[groups]], axis=1)
        cut = int(head_counts[lo:hi].sum()) * tail_total
        cut -= _sum_of_products(np.stack([head_counts[owner], table.counts[groups]], axis=1))
        stats = _stats()
        stats.update(nodes_in=(hi - lo) * len(table.tails), nodes_out=len(rows), examined=cut, pruned=cut)
        stats["seconds"] = time.perf_counter() - start
        yield stats, rows
        start = time.perf_counter()


def _refusal(m: int, n: int, budget: int) -> str | None:
    """Why (m, n) is refused at budget, or None."""
    # m >= 2, so the space exceeds budget once 2^n - 1 reaches budget's bit
    # length: no power is taken then, nor 1 << n where n alone reaches it
    bits = budget.bit_length()
    if n >= bits or (1 << n) - 1 >= bits or m ** ((1 << n) - 1) > budget:
        return f"normalized space {m}^(2^{n} - 1) exceeds budget {budget}"
    if m > MAX_MODULUS:
        return f"modulus {m} exceeds the cap {MAX_MODULUS}"
    # below both caps a half has at most m^(2^(n-1)) < 2^63 orderings
    # (10^16 at n = 5), so they are counted in int64
    half = 1 << (n - 1)
    if half > MAX_HALF:
        return f"halves of {half} positions exceed the {MAX_HALF} the split tables take"
    tails = comb(m + half - 1, half)
    if tails > MAX_MULTISETS:
        return f"{tails} digit multisets of the top half exceed the cap {MAX_MULTISETS}"
    return None


def brute_force(
    m: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
    *,
    # ignored: perfbench/probes.py still passes workers=2
    workers: int = 1,
    progress=None,
) -> SearchOutcome:
    """Exhaustive search of the normalized space for an (m, n) witness.

    Refused up front (BudgetExceededError, before any table is built):
    a space m^(2^n - 1) over budget, m > MAX_MODULUS, halves of more than
    MAX_HALF positions (n >= 6), and more than MAX_MULTISETS digit
    multisets of the top half.  The level-1 join runs a run of head
    multisets at a time, and each run's passing nodes are searched to
    their leaves by one _descend bounded by the best witness so far, so
    the returned witness is the overall lexicographic minimum.  Runs
    whose least function is not below that witness are not joined: that
    saves work, and the witness does not depend on it.
    progress, when given, receives one event dict per level per run:
    level 1 for every run, and levels 2 .. n for a run with level-1
    nodes.
    m < 2 is refused, as decide refuses it: m = 1 has a space of 1 at
    every n, so the budget would not stop the 4^n-cell character table.
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got ({m}, {n})")
    refusal = _refusal(m, n, budget)
    if refusal is not None:
        raise BudgetExceededError(m, n, budget, refusal)

    start = time.perf_counter()
    best, examined = None, 0
    for stats, rows in _stream(m, n, lambda: best):
        levels = {1: stats}
        if len(rows):
            levels.update((k, _stats()) for k in range(2, n + 1))
            found = _descend(m, n, 1, rows, levels, best)
            if found is not None:
                best = found
        for k, counts in levels.items():
            examined += counts["examined"]
            if progress is not None:
                progress({"level": k, **counts})
    witness = None if best is None else GbfFunction(n, m, tuple(best))
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
    enumerator's order: the walk that n3_catalog_check does not take,
    kept as the catalog's independent cross-check."""
    for c in _vsums_under((8,) * 30, 8):
        if _n3_rejection(c) is None:
            yield CyclicRingElt(30, c)


def _symmetric_vsums(m: int) -> np.ndarray:
    """The v-sums of N[C_m], m even, of norm exactly 8 that inversion
    fixes, one coefficient row each, in no particular order.

    Inversion fixes c_0 and c_h, h = m/2, and pairs c_i with c_(m-i), so
    such an element is a row of h + 1 free cells, c_j in cell min(j,
    m - j): a multiset of 4 digits over range(h), a digit i > 0 adding 1
    to cell i, and the s digits 0 leaving c_0 + c_h = 2s, split in each
    of the 2s + 1 ways.  The zero test multiplies the rows by the
    residues mod Phi_m of the h + 1 folded basis elements
    (cyclotomic_residue); with row sums at most 8 each entry is at most
    8 times the largest residue coefficient in size, far inside int64.
    """
    h = m // 2
    digits = _multisets(h, 4)
    free = np.zeros((len(digits), h + 1), dtype=np.int8)
    np.add.at(free, (np.arange(len(digits))[:, None], digits), 1)
    ways = 2 * free[:, 0].astype(np.int64) + 1
    free = np.repeat(free, ways, axis=0)
    free[:, 0] = np.arange(len(free)) - np.repeat(np.cumsum(ways) - ways, ways)
    free[:, h] = np.repeat(ways - 1, ways) - free[:, 0]
    cell = np.minimum(np.arange(m), m - np.arange(m))
    residues = cyclotomic_residue(np.eye(h + 1, dtype=np.int64)[:, cell], m)
    return free[~(free @ residues).any(axis=1)][:, cell]


def _n3_census(m: int) -> tuple[dict, list[tuple[int, ...]]]:
    """The v-sums of N[C_m], m even, of norm at most 8 without a walk:
    how many _n3_rejection rejects under each constraint, and those it
    passes, as coefficient tuples.

    The norm constraint rejects every v-sum of norm below 8
    (_vsum_counts), inversion the others of norm 8 but the symmetric
    ones (_symmetric_vsums), and even_identity those of odd c_0.
    """
    counts = _vsum_counts((8,) * m, 8)
    rows = _symmetric_vsums(m)
    odd = rows[:, 0] % 2 == 1
    rejected = dict(
        zip(_N3_CONSTRAINTS, (sum(counts[:8]), counts[8] - len(rows), int(odd.sum())))
    )
    return rejected, [tuple(c) for c in rows[~odd].tolist()]


def n3_catalog_check() -> dict:
    """Run the catalog experiment: classify every candidate of
    _n3_census(30), then validate the two order-42 punctured shapes
    separately: Form7 counts those that vanish at order 42 and pass
    _n3_rejection.  Any candidate matching no form lands in "mismatches"
    verbatim; every other v-sum of norm at most 8 is counted in
    "rejected" under the first constraint it fails."""
    counts = {tag.value: 0 for tag in FormTag}
    rejected, found = _n3_census(30)
    mismatches = []
    for c in found:
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
        "candidates": len(found),
        "rejected": rejected,
        "counts": counts,
        "mismatches": [e.to_json() for e in mismatches],
        "form7_vanish_order_42": seven_ok,
        "form7_psi": seven_psi,
    }

