"""Tests for the exhaustive search and the dimension-3 catalog."""

import decimal
import math
import os
import subprocess
import sys
import time
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbfkit import cli, search, vsum
from gbfkit.cli import main
from gbfkit.criteria import EXISTS, decide
from gbfkit.gbf import GbfFunction, is_gbf_exact, is_gbf_numeric
from gbfkit.ring import CharacterSpec, CyclicRingElt, character_value_is_zero, subgroup_sum
from gbfkit.search import (
    BudgetExceededError,
    FormTag,
    SearchOutcome,
    brute_force,
    enumerate_autocorr_candidates,
    match_n3_form,
    n3_catalog_check,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def g30(i: int) -> CyclicRingElt:
    return CyclicRingElt.monomial(30, i)


# -- brute force --------------------------------------------------------------


def test_witness_examples():
    out = brute_force(4, 1)
    assert out.status == "WitnessFound"
    assert out.witness.values == (0, 1)

    assert brute_force(2, 2).witness.values == (0, 0, 0, 1)
    assert brute_force(4, 2).witness.values == (0, 0, 0, 2)
    assert brute_force(4, 3).witness.values == (0, 0, 0, 2, 1, 1, 1, 3)

    for m, n in [(8, 3), (2, 4)]:
        out = brute_force(m, n)
        assert out.status == "WitnessFound"
        assert is_gbf_exact(out.witness)


def test_each_witness_is_tested_exactly_once(monkeypatch, capsys):
    # the exact test runs once per screen survivor, and the witness, the
    # last survivor, is not tested again by brute_force or by gbf search
    monkeypatch.delenv("GBF_STORE", raising=False)
    tested = []
    exact = search.is_gbf_exact

    def counting(fn):
        tested.append(fn.values)
        return exact(fn)

    monkeypatch.setattr(search, "is_gbf_exact", counting)
    for m, n in [(4, 2), (8, 3)]:
        del tested[:]
        events = []
        out = brute_force(m, n, progress=events.append)
        assert len(tested) == sum(ev["survivors"] for ev in events), (m, n)
        assert tested[-1] == out.witness.values, (m, n)

    def refuse(fn):
        raise AssertionError("gbf search re-ran the exact test")

    monkeypatch.setattr(cli, "is_gbf_exact", refuse)
    assert main(["search", "4", "2"]) == 0
    assert "  verified exact: true\n" in capsys.readouterr().out


def test_exhausted_examples():
    out = brute_force(3, 2)
    assert out.status == "ExhaustedNone"
    assert out.witness is None
    assert out.examined == out.normalized_space == 27

    assert brute_force(2, 1).status == "ExhaustedNone"
    assert brute_force(2, 3).examined == 128

    out = brute_force(6, 3)
    assert out.status == "ExhaustedNone"
    assert out.examined == out.normalized_space == 6**7


def test_witness_is_lex_min():
    # oracle: plain lexicographic enumeration with the exact test only
    for m, n in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 1), (4, 1), (6, 1), (9, 1)]:
        size = 1 << n
        naive = None
        for tail in product(range(m), repeat=size - 1):
            values = (0, *tail)
            if is_gbf_exact(GbfFunction(n, m, values)):
                naive = values
                break
        out = brute_force(m, n)
        if naive is None:
            assert out.witness is None, (m, n)
        else:
            assert out.witness is not None and out.witness.values == naive, (m, n)


def test_budget():
    with pytest.raises(BudgetExceededError) as info:
        brute_force(3, 5)
    assert info.value.space == 3**31
    assert str(info.value) == "normalized space 3^(2^5 - 1) exceeds budget 170859375"

    with pytest.raises(BudgetExceededError):
        brute_force(3, 2, budget=26)
    assert brute_force(3, 2, budget=27).examined == 27
    # 2^7 = 128: refused from 2^n - 1 >= budget.bit_length() alone at 127
    with pytest.raises(BudgetExceededError):
        brute_force(2, 3, budget=127)
    assert brute_force(2, 3, budget=128).examined == 128

    # 3^(2^n - 1) is never taken, nor 2^n at n = 10^12: both would take
    # far longer than the test, or all memory
    start = time.perf_counter()
    for n in (14, 40, 10**12):
        with pytest.raises(BudgetExceededError) as info:
            brute_force(3, n)
        assert str(info.value) == f"normalized space 3^(2^{n} - 1) exceeds budget {15**7}"
    assert time.perf_counter() - start < 1.0


def test_modulus_cap_refuses_before_any_block(monkeypatch, capsys):
    # at n = 1 the space is m, so the budget does not bound m; past
    # MAX_MODULUS the search is refused before any table is built
    def no_table(*args):
        raise AssertionError("a table was built")

    cap = search.MAX_MODULUS
    assert cap == 1 << 19
    with monkeypatch.context() as patch:
        patch.setattr(search, "_TailTable", no_table)
        with pytest.raises(BudgetExceededError) as info:
            brute_force(cap + 1, 1)
        assert str(info.value) == f"modulus {cap + 1} exceeds the cap {cap}"
        assert info.value.space == cap + 1
        assert main(["search", str(cap + 1), "1"]) == 3
        assert "exceeds the cap" in capsys.readouterr().err

    # MAX_MODULUS itself is admitted: its two level-1 nodes are the
    # leaves (0, m/4) and (0, 3m/4), and the first is the witness, so the
    # second is all the search leaves unexamined
    out = brute_force(cap, 1)
    assert out.witness.values == (0, cap // 4) and out.examined == cap - 1
    # and so is the n = 2 space with the largest m inside the budget
    out = brute_force(554, 2)
    assert out.witness.values == (0, 0, 0, 277) and out.examined == 613275


def test_refusals_come_before_any_table(monkeypatch, capsys):
    # halves past MAX_HALF positions (n >= 6) and more than MAX_MULTISETS
    # digit multisets of the top half are refused before any table is
    # built, also where the budget admits the space
    class Reached(Exception):
        pass

    def no_table(*args):
        raise Reached

    monkeypatch.setattr(search, "_TailTable", no_table)
    assert search.MAX_HALF == 16 and search.MAX_MULTISETS == 1 << 22
    for m, n in [(2, 6), (3, 6), (2, 7), (2, 8)]:
        with pytest.raises(BudgetExceededError) as info:
            brute_force(m, n, budget=m ** ((1 << n) - 1))
        half = 1 << (n - 1)
        assert str(info.value) == f"halves of {half} positions exceed the 16 the split tables take"
    for m in (22, 30):
        with pytest.raises(BudgetExceededError) as info:
            brute_force(m, 4, budget=m**15)
        assert str(info.value) == f"{comb(m + 7, 8)} digit multisets of the top half exceed the cap {1 << 22}"
    assert main(["search", "2", "8", "--budget", str(2**255)]) == 3
    assert "halves of 128 positions exceed" in capsys.readouterr().err
    assert main(["search", "30", "4", "--budget", str(30**15)]) == 3
    assert "38608020 digit multisets of the top half exceed" in capsys.readouterr().err
    # (21, 4), 3108105 multisets, and n = 5 reach their tables
    for m, n in [(21, 4), (10, 5), (2, 5)]:
        assert comb(m + (1 << (n - 1)) - 1, 1 << (n - 1)) <= 1 << 22
        with pytest.raises(Reached):
            brute_force(m, n, budget=m ** ((1 << n) - 1))


def test_modulus_one_refused_before_any_table(monkeypatch, capsys):
    # m = 1 has a space of 1 at every n, so the budget passes it; its
    # 4^n-cell character table (2 GB at n = 14) must never be built
    def no_table(n):
        raise AssertionError("a character table was built")

    monkeypatch.setattr(search, "_char_table", no_table)
    with pytest.raises(ValueError, match="need m >= 2"):
        brute_force(1, 14)
    assert main(["search", "1", "14"]) == 64
    assert "need m >= 2" in capsys.readouterr().err


def test_roots_are_built_once_per_modulus():
    # the blocks of (4001, 1) share one table of roots of unity; building
    # it per block of one value made the search quadratic in m
    search._roots.cache_clear()
    out = brute_force(4001, 1)
    assert out.status == "ExhaustedNone" and out.examined == 4001
    assert search._roots.cache_info().misses == 1


def test_smallest_runs_match_default(monkeypatch):
    # runs of one head multiset, chunks of one node, and screen passes of
    # a child or pair at a time find the same witness; an exhaustion
    # examines every function either way, and the events' examined
    # counts add up to the outcome's
    cells = [(3, 2), (4, 2), (5, 2), (4, 3), (2, 3), (3, 3), (12, 3), (7, 1), (2, 4), (8, 1), (6, 3)]
    for m, n in cells:
        flat = brute_force(m, n)
        events = []
        with monkeypatch.context() as patch:
            patch.setattr(search, "_TAIL_CELLS", 1 << n)
            patch.setattr(search, "_FIRST_PAIRS", 1)
            patch.setattr(search, "_FIRST_RUN", 1)
            deep = brute_force(m, n, progress=events.append)
        assert deep.witness == flat.witness, (m, n)
        assert sum(e["examined"] for e in events) == deep.examined, (m, n)
        if flat.witness is None:
            assert deep.examined == flat.examined == deep.normalized_space, (m, n)
        else:
            assert deep.examined < deep.normalized_space, (m, n)


def test_witness_is_least_when_every_run_is_joined(monkeypatch):
    # the stream's stop check only saves joins: with every run joined, the
    # runs after the witness's are searched under it, and a later run's
    # larger witness does not replace it.  Each cell has one: (8, 3),
    # (12, 3) and (362, 2) at the default run sizes, and the others with
    # runs and chunks that start at one pair and one child
    stream = search._stream
    for m, n, first in [(8, 3, None), (12, 3, None), (362, 2, None), (4, 3, 1), (2, 4, 1), (4, 2, 1), (6, 2, 1)]:
        with monkeypatch.context() as patch:
            if first is not None:
                patch.setattr(search, "_FIRST_PAIRS", first)
                patch.setattr(search, "_FIRST_RUN", first)
            want = brute_force(m, n).witness
            patch.setattr(search, "_stream", lambda m, n, best: stream(m, n, lambda: None))
            got = brute_force(m, n).witness
        assert want is not None and got == want, (m, n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=60), st.integers(1, 40), st.integers(1, 60))
@example([5, 1, 1, 1, 1, 1], 1, 100)
def test_chunks_keep_to_their_allowances(width, first, step):
    # _chunks, the one schedule of the head runs and of each level's
    # chunks of nodes: the chunks cover the items in order with no gap;
    # each holds at most its allowance of widths, each counted up to
    # step + 1, and as many items as fit, or is one item; the first
    # allowance is min(step, first), each next min(step, 2 max(the one
    # before, the widths taken))
    capped = [min(w, step + 1) for w in width]
    lo, allowance = 0, min(step, first)
    for start, hi in search._chunks(np.array(width, dtype=np.int64), first, step):
        assert start == lo < hi <= len(width)
        taken = sum(capped[lo:hi])
        assert taken <= allowance or hi == lo + 1, (lo, hi)
        assert hi == len(width) or taken + capped[hi] > allowance, (lo, hi)
        lo, allowance = hi, min(step, 2 * max(allowance, taken))
    assert lo == len(width)


def _plain(events):
    # the events without their times
    return [{k: v for k, v in e.items() if k != "seconds"} for e in events]


def _recorded_witness(m, n):
    # the witness the search reported at every Exists cell below before
    # it searched by coset multisets, recorded from that search
    if n == 1:
        return (0, m // 4)
    if n == 2:
        return (0, 0, 0, m // 2)
    if n == 3:
        return tuple(m // 4 * v for v in (0, 0, 0, 2, 1, 1, 1, 3))
    return {(2, 4): (0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0)}[m, n]


def test_search_agrees_with_decide():
    # the search is an exact route independent of the criteria, and
    # decide settles every cell here; n >= 3 runs past the default budget,
    # at budget m^(2^n - 1).  (6, 5) is decided by nonexist-2p-alpha-mod8,
    # the one criterion sourced from outside the paper
    cells = [(m, 1) for m in range(2, 1001)] + [(m, 2) for m in range(2, 201)]
    cells += [(m, 3) for m in range(2, 31)] + [(2, 4), (3, 4)]
    recorded = set(cells)
    cells += [(m, 4) for m in range(4, 15)] + [(m, 5) for m in (2, 3, 5, 6, 7)]
    assert len(cells) == 1245
    for m, n in cells:
        out = brute_force(m, n, max(search.DEFAULT_BUDGET, m ** ((1 << n) - 1)))
        assert (out.witness is not None) == (decide(m, n).outcome == EXISTS), (m, n)
        if out.witness is None:
            assert out.examined == out.normalized_space, (m, n)
        elif (m, n) in recorded:
            assert out.witness.values == _recorded_witness(m, n), (m, n)
        else:
            # no witness was recorded here before: check it by the float route
            assert out.witness.values[0] == 0 and is_gbf_numeric(out.witness), (m, n)


def _spectra(rows, m, n):
    # |F(y)|^2 of each row of values by a direct transform, built apart
    # from the search's tables and roots
    size = 1 << n
    chi = np.array([[(-1) ** bin(x & y).count("1") for y in range(size)] for x in range(size)])
    f = np.exp(2j * np.pi * np.asarray(rows) / m) @ chi
    return f.real**2 + f.imag**2


@lru_cache(maxsize=None)
def _lex_walk(m, n):
    # the oracle: every f with f(0) = 0 in lexicographic order, from
    # itertools, cut to those within 0.5 of 2^n at every character (a
    # rational |F(y)|^2 is an integer, so none sits at that bound), and
    # the first of them that passes the exact test
    rows = np.array(list(product(range(m), repeat=(1 << n) - 1)), dtype=np.int64)
    rows = np.column_stack([np.zeros(len(rows), dtype=np.int64), rows])
    close = (np.abs(_spectra(rows, m, n) - (1 << n)) <= 0.5).all(axis=1)
    for row in rows[close].tolist():
        if is_gbf_exact(GbfFunction(n, m, tuple(row))):
            return tuple(row)
    return None


_TREE_CELLS = [(m, 1) for m in range(2, 13)] + [(m, 2) for m in range(2, 13)]
_TREE_CELLS += [(m, 3) for m in range(2, 7)] + [(2, 4)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_TREE_CELLS),
    st.sampled_from([search._TOL, 0.5, 2.5]),
    st.integers(0, 12),
    st.sampled_from([1, 64]),
)
def test_tree_matches_lex_walk(cell, tol, cells, first):
    # the tree's witness is the lexicographically least bent function, as
    # the oracle walk finds it, at the search's tolerance and at larger
    # ones that let more nodes through, with screen passes of 2^cells cells
    # and first runs of one or 64; an exhaustion examines every function
    m, n = cell
    with (
        patch.object(search, "_TOL", tol),
        patch.object(search, "_TAIL_CELLS", 1 << cells),
        patch.object(search, "_FIRST_PAIRS", first),
        patch.object(search, "_FIRST_RUN", first),
    ):
        out = brute_force(m, n)
    want = _lex_walk(m, n)
    assert (out.witness and out.witness.values) == want
    if want is None:
        assert out.examined == out.normalized_space


def _orderings(digits) -> int:
    # the distinct orderings of a list of digits
    out = factorial(len(digits))
    for d in set(digits):
        out //= factorial(digits.count(d))
    return out


def _functions_below(row, n, k):
    # the functions below a level-k node: the product of its cosets'
    # orderings, coset 0 without f(0)
    s = 1 << (n - k)
    cosets = [list(row[c * s : (c + 1) * s]) for c in range(1 << k)]
    return prod(_orderings(c[1:] if not i else c) for i, c in enumerate(cosets))


def _halves_of(coset, pinned):
    # the distinct (sorted lower half, sorted upper half) splits of a
    # sorted coset, the lower half keeping f(0) first in coset 0
    half = len(coset) // 2
    out = set()
    for low in combinations(range(len(coset)), half):
        if pinned and 0 not in low:
            continue
        out.add((tuple(coset[i] for i in low), tuple(coset[i] for i in range(len(coset)) if i not in low)))
    return sorted(out)


def _level_one_rows(m, n):
    # the level-1 nodes of (m, n)'s runs, as the search's stream yields them
    for stats, rows in search._stream(m, n, lambda: None):
        if len(rows):
            yield rows


def test_count_identity_at_every_level(monkeypatch):
    # with every child let through, each node's children are the products
    # of its cosets' distinct splits (itertools), and their functions,
    # counted by factorials, sum to the node's own; the search's counts
    # agree, so nothing is cut, and an exhaustion with no exact test
    # passing examines every function, each leaf once
    monkeypatch.setattr(search, "_TOL", float("inf"))
    for m, n in [(3, 2), (4, 3), (3, 3), (5, 3), (2, 4), (3, 4)]:
        rows = next(kind_rows for kind_rows in _level_one_rows(m, n))
        for k in range(1, n):
            level = search._Level(m, n, k, rows)
            nxt = []
            for i, row in enumerate(rows.tolist()[:20]):
                stats = search._stats()
                children = level.children(np.array([i]), stats)
                s = 1 << (n - k)
                splits = [_halves_of(row[c * s : (c + 1) * s], not c) for c in range(1 << k)]
                want = sorted(sum(choice, ()) for choice in product(*(
                    [low + high for low, high in sp] for sp in splits)))
                assert sorted(map(tuple, children.tolist())) == want, (m, n, k, row)
                total = sum(_functions_below(c, n, k + 1) for c in children.tolist())
                assert total == _functions_below(row, n, k), (m, n, k, row)
                assert stats["nodes_in"] == stats["nodes_out"] == len(want)
                assert stats["examined"] == stats["pruned"] == 0
                nxt.append(children)
            rows = search._lex_sorted(np.concatenate(nxt))

    tested = []

    def never_bent(fn):
        tested.append(fn.values)
        return False

    monkeypatch.setattr(search, "is_gbf_exact", never_bent)
    for m, n in [(3, 3), (2, 4), (4, 2)]:
        del tested[:]
        events = []
        out = brute_force(m, n, progress=events.append)
        assert out.examined == out.normalized_space == len(tested) == len(set(tested)), (m, n)
        assert sum(e["survivors"] for e in events) == len(tested), (m, n)
        assert sum(e["pruned"] for e in events) == 0, (m, n)


def test_every_row_passing_the_screens_is_confirmed(monkeypatch):
    # with no tolerance limit every function passes the screens, so each
    # reaches the exact test once, also where the runs and chunks are
    # small.  With |F(y)|^2 allowed within 9.5 of 2^n, the functions
    # sent are those within it at every character, by a direct
    # transform: some fail only at the last one.  |F(y)|^2 is an integer
    # at m = 3 and 4, so no value sits at the bound
    sent = []

    def never_bent(fn):
        sent.append(fn.values)
        return False

    monkeypatch.setattr(search, "is_gbf_exact", never_bent)
    for tol in (float("inf"), 9.5):
        monkeypatch.setattr(search, "_TOL", tol)
        for m, cells, first in [(3, search._TAIL_CELLS, 64), (3, 1 << 8, 1), (4, 1 << 8, 1)]:
            monkeypatch.setattr(search, "_TAIL_CELLS", cells)
            monkeypatch.setattr(search, "_FIRST_PAIRS", first)
            monkeypatch.setattr(search, "_FIRST_RUN", first)
            del sent[:]
            out = brute_force(m, 3)
            every = [(0, *t) for t in product(range(m), repeat=7)]
            close = np.abs(_spectra(every, m, 3) - 8) <= tol
            if tol < float("inf"):
                assert 0 < close.all(axis=1).sum() < close[:, :-1].all(axis=1).sum(), (m, cells)
            want = [v for v, ok in zip(every, close.all(axis=1)) if ok]
            assert sorted(sent) == want and len(set(sent)) == len(sent), (m, cells, tol)
            assert out.witness is None and out.examined == m**7, (m, cells, tol)


def test_leaves_from_the_bound_on_are_not_tested(monkeypatch):
    # the bound is the best witness so far: leaves at or past it reach no
    # exact test, bent or not, and are not counted, while a bent leaf
    # below it is returned
    tested = []
    exact = search.is_gbf_exact

    def counting(fn):
        tested.append(fn.values)
        return exact(fn)

    monkeypatch.setattr(search, "is_gbf_exact", counting)
    bent = [(0, 0, 0, 2, 1, 1, 1, 3), (0, 0, 0, 2, 3, 3, 3, 1), (0, 0, 1, 3, 1, 1, 0, 2)]
    assert all(is_gbf_exact(GbfFunction(3, 4, v)) for v in bent)
    leaves = np.array(bent)
    for bound, found, count in [(None, bent[0], 1), (list(bent[1]), bent[0], 1), (list(bent[0]), None, 0)]:
        del tested[:]
        stats = search._stats()
        got = search._confirm(4, 3, leaves, bound, stats)
        assert (got and tuple(got)) == found and len(tested) == count, bound
        assert stats["examined"] == stats["survivors"] == count, bound


def test_join_screens_each_head_against_its_window(monkeypatch):
    # at (15, 3) the search builds one tail table, and its 680 head
    # multisets meet 3060 tail groups each, but the join screens only the
    # pairs in each head's window of |B|^2, a small share of the 2.1
    # million
    screened = []

    class Counting(np.ndarray):
        def __getitem__(self, key):
            screened.append(np.size(key))
            return np.asarray(self)[key]

    tables = []

    class CountingTable(search._TailTable):
        def __init__(self, m, n):
            super().__init__(m, n)
            tables.append(self)
            self.sums = self.sums.view(Counting)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_TailTable", CountingTable)
        out = brute_force(15, 3)
    assert out.status == "ExhaustedNone" and out.examined == out.normalized_space
    assert len(tables) == 1 and len(tables[0].tails) == comb(18, 4)
    # the heads' own sums once, then the pairs of their windows
    assert screened[0] == 680 and sum(screened[1:]) == 5340

    # at every exhausted rung of the ladder no (head, tail) multiset pair
    # passes both y = 0 and y = 2^(n-1), so no level-1 node is split
    def no_level(*args):
        raise AssertionError("a level-1 node was split")

    with monkeypatch.context() as patch:
        patch.setattr(search, "_Level", no_level)
        for m, n in [(m, 3) for m in (2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15)] + [(3, 4)]:
            out = brute_force(m, n)
            assert out.status == "ExhaustedNone" and out.examined == out.normalized_space

    # at a witness, examined counts the functions of the head runs joined
    # and searched before the search stopped
    witnesses = {
        (4, 1): ((0, 1), 3),
        (4, 2): ((0, 0, 0, 2), 49),
        (364, 2): ((0, 0, 0, 182), 397117),
        (4, 3): ((0, 0, 0, 2, 1, 1, 1, 3), 15609),
        (8, 3): ((0, 0, 0, 4, 2, 2, 2, 6), 1334545),
        (12, 3): ((0, 0, 0, 6, 3, 3, 3, 9), 3873699),
        (2, 4): ((0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0), 31225),
    }
    for (m, n), (values, examined) in witnesses.items():
        out = brute_force(m, n)
        assert (out.witness.values, out.examined) == (values, examined), (m, n)


_JOIN_CELLS = [(m, n) for n in (1, 2, 3) for m in range(2, 13)] + [(2, 4), (3, 4)]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_JOIN_CELLS),
    st.sampled_from([search._TOL, 0.25, 1.5, float("inf")]),
    st.integers(0, 12),
    st.data(),
)
def test_tail_table_join_matches_direct_screen(cell, tol, cells, data):
    # the join returns exactly the (head, tail multiset) pairs that a direct
    # screen of |F(0)|^2 and |F(2^(n-1))|^2 passes, over every multiset
    # of the top half, for heads in any order; a pass of 2^cells >> 5
    # pairs makes the join take many passes.  Within 1e-4 of these
    # tolerances no |F|^2 - 2^n or |A|^2 + |B|^2 - 2^n lies at these cells
    m, n = cell
    size, half = 1 << n, 1 << (n - 1)
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    head = st.lists(st.integers(0, m - 1), min_size=half - 1, max_size=half - 1)
    heads = data.draw(st.lists(head, min_size=1, max_size=12))
    want = set()
    for i, h in enumerate(heads):
        a = 1 + zeta[h].sum()
        for t in combinations_with_replacement(range(m), half):
            b = zeta[list(t)].sum()
            if abs(abs(a + b) ** 2 - size) <= tol and abs(abs(a - b) ** 2 - size) <= tol:
                want.add((i, t))
    with patch.object(search, "_TOL", tol), patch.object(search, "_TAIL_CELLS", 1 << cells):
        table = search._TailTable(m, n)
        # each head with f(0) = 0 is the group of its sorted bottom half
        group = {tuple(t): g for g, t in enumerate(table.tails.tolist())}
        owner, groups = table.screen(*table.windows(np.array([group[tuple(sorted([0, *h]))] for h in heads])))
    got = [(i, tuple(table.tails[g].tolist())) for i, g in zip(owner.tolist(), groups.tolist())]
    assert len(got) == len(set(got)) and set(got) == want
    assert (np.diff(owner) >= 0).all()


@st.composite
def _shifted_mm_functions(draw):
    # a Maiorana-McFarland bent function, (m/2)<x, perm(y)> + g(y) plus
    # (m/4) z at n = 3 (x low bits, y next, z on top), composed with a
    # random affine map of Z_2^n and shifted so that f(0) = 0: all three
    # keep it bent
    m, n = draw(st.sampled_from([(4, 3), (8, 3), (12, 3), (2, 4), (4, 4)]))
    size, half = 1 << n, n // 2
    mask = (1 << half) - 1
    perm = draw(st.permutations(range(1 << half)))
    g = draw(st.lists(st.integers(0, m - 1), min_size=1 << half, max_size=1 << half))

    def mm(p):
        x, y, z = p & mask, (p >> half) & mask, p >> (2 * half)
        return ((m // 2) * bin(x & perm[y]).count("1") + (m // 4) * z + g[y]) % m

    # the images of the unit vectors: the first n independent vectors of
    # a shuffle of the nonzero ones
    basis, span = [], {0}
    for v in draw(st.permutations(range(1, size))):
        if v not in span:
            basis.append(v)
            span |= {s ^ v for s in span}
    shift = draw(st.integers(0, size - 1))

    def image(p):
        out = shift
        for i, b in enumerate(basis):
            if p >> i & 1:
                out ^= b
        return out

    return GbfFunction(n, m, tuple((mm(image(p)) - mm(shift)) % m for p in range(size)))


@settings(max_examples=40, deadline=None)
@given(_shifted_mm_functions())
def test_tail_table_admits_bent_functions(f):
    # positive control for the join at y = 0 and y = 2^(n-1): the top
    # half of a bent function is a tail group that the join pairs with its
    # head, the rest of its bottom half
    assert is_gbf_exact(f)
    half = 1 << (f.n - 1)
    table = search._TailTable(f.m, f.n)
    group = table.tails.tolist().index(sorted(f.values[:half]))
    owner, groups = table.screen(*table.windows(np.array([group])))
    assert sorted(f.values[half:]) in table.tails[groups].tolist()


@settings(max_examples=40, deadline=None)
@given(_shifted_mm_functions())
def test_bent_functions_reach_a_leaf(f):
    # positive control for every level: searched from its own level-1
    # node, with no exact test passing, a bent function is among the
    # leaves that reach the exact test
    assert is_gbf_exact(f)
    half = 1 << (f.n - 1)
    row = [0, *sorted(f.values[1:half]), *sorted(f.values[half:])]
    tested = []

    def never_bent(fn):
        tested.append(fn.values)
        return False

    stats = {k: search._stats() for k in range(1, f.n + 1)}
    with patch.object(search, "is_gbf_exact", never_bent):
        found = search._descend(f.m, f.n, 1, np.array([row]), stats, None)
    assert found is None and f.values in tested
    assert stats[f.n]["survivors"] == len(tested)


def test_search_imports_no_masked_arrays():
    # np.unique without a return_* flag imports numpy.ma, about 13 ms in
    # a fresh process
    code = (
        "import sys\n"
        "from gbfkit.cli import main\n"
        "assert main(['search', '15', '3']) == 1\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "GBF_STORE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_tail_groups_are_digit_multisets():
    for m, n in [(4, 3), (6, 3), (8, 3), (3, 4), (3, 2), (2, 1), (5, 2), (9, 1)]:
        zeta = np.exp(2j * np.pi * np.arange(m) / m)
        tail = 1 << (n - 1)
        # group g is the g-th multiset of the top half in lexicographic
        # order, a sorted row, with B the sum of zeta^d over its digits and
        # its count of orderings; norms lists each |B|^2 in increasing
        # order, through order
        table = search._TailTable(m, n)
        got = [tuple(t) for t in table.tails.tolist()]
        assert got == list(combinations_with_replacement(range(m), tail)), (m, n)
        assert np.abs(table.sums - [zeta[list(t)].sum() for t in got]).max() <= 1e-12
        assert table.counts.tolist() == [_orderings(list(t)) for t in got], (m, n)
        assert sum(table.counts.tolist()) == m**tail, (m, n)
        assert sorted(table.order.tolist()) == list(range(len(got))), (m, n)
        assert np.abs(table.norms - np.abs(table.sums[table.order]) ** 2).max() <= 1e-12
        assert (np.diff(table.norms) >= 0).all(), (m, n)


def _exact_norms(tails, m):
    # |B|^2 of each sorted row of digits, exactly up to a few ulps: B B^-1
    # in Z[C_m] has the integer coefficients c_k = #{(i, j) : d_i - d_j = k
    # mod m}, and is fixed by inversion, so its value at zeta is real,
    # sum_k c_k cos(2 pi k / m), summed here by math.fsum once per
    # distinct c
    s, step = tails.shape[1], 1 << 15
    coeffs = []
    for lo in range(0, len(tails), step):
        block = tails[lo : lo + step]
        diff = (block[:, :, None] - block[:, None, :]) % m
        keys = diff.reshape(len(block), s * s) + m * np.arange(len(block))[:, None]
        counts = np.bincount(keys.ravel(), minlength=len(block) * m).reshape(len(block), m)
        # bytes per block, so that no int64 copy of every row is held
        assert counts.max() < 256
        coeffs.append(counts.astype(np.uint8))
    coeffs = np.concatenate(coeffs)
    # one void key per row of byte coefficients, for a fast np.unique
    keys = coeffs.view(f"V{m}").ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    cos = [math.cos(2 * math.pi * k / m) for k in range(m)]
    values = [math.fsum(c * x for c, x in zip(row, cos)) for row in coeffs[first].tolist()]
    return np.array(values)[inverse]


# pi to 50 digits
_PI = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")


def _root_error(z, v, m):
    # |z - exp(2 pi i v / m)|, against cos and sin by their Taylor series
    # at 50 digits, taken at the angle less than pi in size
    with decimal.localcontext() as context:
        context.prec = 50
        x = 2 * _PI * (v if 2 * v <= m else v - m) / m
        cos, sin, term = decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1)
        for k in range(60):
            if k % 2:
                sin += term if k % 4 == 1 else -term
            else:
                cos += term if k % 4 == 0 else -term
            term = term * x / (k + 1)
        return ((decimal.Decimal(z.real) - cos) ** 2 + (decimal.Decimal(z.imag) - sin) ** 2).sqrt()


def test_screen_float_error_is_within_its_bound():
    # the bound the tolerance rests on (gbf._TOL): every root of unity the
    # tables sum is within 2^-52 of its exact value, and every |B|^2 of a
    # tail table within 1e-11, over every n = 3 table with m <= 15 and the
    # 319770 groups of (15, 4)
    for m in [*range(1, 33), 4001, 524288]:
        zeta = search._roots(m).tolist()
        picks = range(m) if m <= 32 else range(0, m, m // 64)
        assert max(_root_error(zeta[v], v, m) for v in picks) <= decimal.Decimal(2) ** -52, m
    worst = 0.0
    for m, n in [(m, 3) for m in range(2, 16)] + [(15, 4)]:
        table = search._TailTable(m, n)
        exact = _exact_norms(table.tails, m)
        worst = max(worst, float(np.abs(table.norms - exact[table.order]).max()))
    assert len(table.tails) == 319770
    assert worst < 1e-11


def test_split_tables_match_itertools():
    # every run pattern of up to 8 digits, as one coset of a node whose
    # other cosets are single digits: its splits are the distinct (lower,
    # upper) halves of its digits, lower halves in lexicographic order,
    # each with the orderings of both halves (past f(0) in coset 0), and
    # they sum to the coset's own orderings
    for length in (2, 4, 8):
        for cuts in product((False, True), repeat=length - 1):
            coset = list(np.cumsum((0, *cuts)).tolist())
            for pinned in (True, False):
                # coset 0 holds f(0) = 0 first; otherwise coset 1, after a
                # coset 0 of zeros
                row = coset + [0] * length if pinned else [0] * length + coset
                level = search._Level(max(row) + 1, length.bit_length(), 1, np.array([row]))
                at = 0 if pinned else 1
                table = level.which[0, at]
                lo, size = level.offsets[table], level.sizes[table]
                perms = level.perms[lo : lo + size].tolist()
                got = [(tuple(coset[i] for i in p[: length // 2]), tuple(coset[i] for i in p[length // 2 :])) for p in perms]
                assert got == _halves_of(coset, pinned), (coset, pinned)
                weights = level.weights[lo : lo + size].tolist()
                want = [_orderings(list(low[pinned:])) * _orderings(list(high)) for low, high in got]
                assert weights == want, (coset, pinned)
                assert level.totals[table] == sum(want) == _orderings(coset[pinned:]), (coset, pinned)


def test_screen_passes_keep_to_their_pair_bound(monkeypatch):
    # each pass of the join holds at most _TAIL_CELLS / 32 pairs, also
    # where one head's window holds far more: at n = 1 the one empty head
    # meets all m groups, each of |B|^2 = 1.  The search finds the same
    # witness, and exhausts the same spaces, as with the default
    # _TAIL_CELLS
    cases = [(5000, 1), (40, 1), (12, 2), (31, 2), (5, 3), (8, 3), (2, 4)]
    default = {(m, n): brute_force(m, n) for m, n in cases}
    passes = []

    class Counting(np.ndarray):
        def __getitem__(self, key):
            passes.append(np.size(key))
            return np.asarray(self)[key]

    class CountingTable(search._TailTable):
        def __init__(self, m, n):
            super().__init__(m, n)
            self.sums = self.sums.view(Counting)

    monkeypatch.setattr(search, "_TailTable", CountingTable)
    monkeypatch.setattr(search, "_TAIL_CELLS", 1 << 9)
    for m, n in cases:
        del passes[:]
        out = brute_force(m, n)
        # the heads' own sums, then the passes
        assert passes.pop(0) == comb(m + (1 << (n - 1)) - 2, (1 << (n - 1)) - 1), (m, n)
        assert out.witness == default[m, n].witness, (m, n)
        assert out.witness or out.examined == out.normalized_space, (m, n)
        assert max(passes, default=0) <= 1 << 4, (m, n)
        if n == 1:
            assert sum(passes) == m and len(passes) == -(-m // 16), (m, n)


def test_progress_events():
    # one event per level per run of head multisets: level 1 always, and
    # each deeper level for a run with level-1 nodes; examined adds up to
    # the outcome's, and only the leaves (level n) have survivors
    keys = {"level", "nodes_in", "nodes_out", "examined", "pruned", "survivors", "seconds"}

    # (3, 2): 3 head multisets meet 6 tail multisets in one run, and no
    # pair passes: all 27 functions are cut at level 1
    events = []
    out = brute_force(3, 2, progress=events.append)
    assert all(set(e) == keys for e in events)
    assert _plain(events) == [
        {"level": 1, "nodes_in": 18, "nodes_out": 0, "examined": 27, "pruned": 27, "survivors": 0}
    ]
    assert out.examined == 27

    # n = 1: the level-1 nodes are the leaves, tested at level 1
    for m, examined in [(7, 7), (524288, 524287)]:
        events = []
        out = brute_force(m, 1, progress=events.append)
        assert [(e["level"], e["examined"], e["survivors"]) for e in events] == [(1, examined, m % 4 == 0)]
        assert out.examined == examined

    # (4, 3): the first run joins all 20 head multisets, and its 34
    # level-1 nodes hold the witness, the one leaf tested
    events = []
    out = brute_force(4, 3, progress=events.append)
    assert _plain(events) == [
        {"level": 1, "nodes_in": 700, "nodes_out": 34, "examined": 15440, "pruned": 15440, "survivors": 0},
        {"level": 2, "nodes_in": 60, "nodes_out": 30, "examined": 140, "pruned": 140, "survivors": 0},
        {"level": 3, "nodes_in": 64, "nodes_out": 36, "examined": 29, "pruned": 28, "survivors": 1},
    ]
    assert sum(e["examined"] for e in events) == out.examined == 15609

    # (30, 3) at 30^7: 18 runs, 15 of them with level-1 nodes
    events = []
    out = brute_force(30, 3, 30**7, progress=events.append)
    nodes = [len(rows) > 0 for stats, rows in search._stream(30, 3, lambda: None)]
    assert (len(nodes), sum(nodes)) == (18, 15)
    assert [e["level"] for e in events] == [k for has in nodes for k in ([1, 2, 3] if has else [1])]
    assert sum(e["examined"] for e in events) == out.examined == 30**7



def test_certificate():
    cert = brute_force(3, 2).certificate()
    assert cert == {
        "m": 3,
        "n": 2,
        "normalized_space": 27,
        "examined": 27,
        "witness": None,
    }
    assert brute_force(4, 1).certificate()["witness"] == [0, 1]


def test_outcome_fields():
    out = brute_force(2, 2)
    assert isinstance(out, SearchOutcome)
    assert out.wall_time >= 0.0
    assert out.normalized_space == 8


# -- form catalog -------------------------------------------------------------


def test_match_forms():
    form_b = subgroup_sum(30, 3) + subgroup_sum(30, 5)
    assert match_n3_form(form_b) is FormTag.FORM_B
    assert form_b.psi_projection() == 8
    assert match_n3_form(form_b.shift(15)) is FormTag.FORM_B

    form_c = (g30(0) + g30(6) + g30(24)) * (g30(10) + g30(20)) * g30(15) + g30(12) + g30(18)
    assert match_n3_form(form_c) is FormTag.FORM_C
    assert form_c.psi_projection() == -4
    assert not set(form_c.support()) & {0, 15}

    half = subgroup_sum(30, 2) * (g30(0) + g30(10) + g30(20) + g30(21))
    assert match_n3_form(half) is FormTag.FORM_A
    assert half.psi_projection() == 0

    from gbfkit.ring import punctured_subgroup_sum

    seven = punctured_subgroup_sum(42, 7) + punctured_subgroup_sum(42, 3).shift(21)
    assert match_n3_form(seven) is FormTag.FORM_7
    assert seven.psi_projection() == 4

    stray = subgroup_sum(30, 3).scale(2) + subgroup_sum(30, 2)
    assert match_n3_form(stray) is None


def test_enumeration_constraints():
    cands = list(enumerate_autocorr_candidates())
    assert len(cands) == 42
    assert len({c.coeffs for c in cands}) == 42
    chi = CharacterSpec(30, 30)
    for c in cands:
        assert c.norm == 8
        assert c.conj_inverse() == c
        assert c.coeffs[0] % 2 == 0
        assert character_value_is_zero(c, chi)
        # not filtered for: the three constraints above imply it
        assert c.psi_projection() % 4 == 0

    coeff_set = {c.coeffs for c in cands}
    assert (subgroup_sum(30, 3) + subgroup_sum(30, 5)).coeffs in coeff_set
    # a doubled-subgroup member with even identity coefficient
    half = subgroup_sum(30, 2).scale(2) + g30(1) + g30(14) + g30(16) + g30(29)
    assert match_n3_form(half) is FormTag.FORM_A
    assert half.coeffs in coeff_set
    stray = subgroup_sum(30, 3).scale(2) + subgroup_sum(30, 2)
    assert stray.coeffs not in coeff_set
    # half-period symmetric but with odd identity coefficient: filtered out
    odd_id = subgroup_sum(30, 2) * (g30(0) + g30(10) + g30(20) + g30(21))
    assert match_n3_form(odd_id) is FormTag.FORM_A
    assert odd_id.coeffs not in coeff_set


def test_form7_shapes_are_the_c42_candidates():
    # the catalog counts Form7 from the reference shapes; here the same
    # constraints, filtered over the v-sums of C_42, find exactly them
    cands = []
    rejected = dict.fromkeys(search._N3_CONSTRAINTS, 0)
    for c in vsum._vsums_under((8,) * 42, 8):
        failed = search._n3_rejection(c)
        if failed is None:
            cands.append(CyclicRingElt(42, c))
        else:
            rejected[failed] += 1
    assert len(cands) == 68
    assert rejected == {"norm": 5669, "inversion": 12650, "even_identity": 8}
    tags = [match_n3_form(c) for c in cands]
    assert None not in tags
    assert tags.count(FormTag.FORM_A) == 66
    assert {c.coeffs for c, t in zip(cands, tags) if t is FormTag.FORM_7} == search._form_7_refs()


def test_symmetric_rows_are_the_walks_filter():
    walked = [
        c for c in vsum._vsums_under((8,) * 30, 8) if sum(c) == 8 and c[1:] == c[:0:-1]
    ]
    rows = sorted(tuple(c) for c in search._symmetric_vsums(30).tolist())
    assert rows == sorted(walked)
    assert len(rows) == 50
    assert sum(c[0] % 2 for c in rows) == 8


def test_census_matches_walk_at_c42():
    # the numbers test_form7_shapes_are_the_c42_candidates pins through
    # the walk, here from the counts and the symmetric rows
    rejected, found = search._n3_census(42)
    assert rejected == {"norm": 5669, "inversion": 12650, "even_identity": 8}
    walked = [c for c in vsum._vsums_under((8,) * 42, 8) if search._n3_rejection(c) is None]
    assert sorted(found) == sorted(walked)
    assert len(found) == 68


def test_catalog_does_not_walk_c30(monkeypatch):
    def walk(box, budget, vanishing_fibers=True):
        raise AssertionError("the catalog walked the v-sums of C_30")

    # the counter walks only the v-sums of C_6 that its fibers of value
    # zero list (vsum._grouped_by_value)
    walked, inner = [], vsum._vsums_under

    def recorded(box, budget, vanishing_fibers=True):
        walked.append(len(box))
        return inner(box, budget, vanishing_fibers)

    monkeypatch.setattr(search, "_vsums_under", walk)
    monkeypatch.setattr(vsum, "_vsums_under", recorded)
    report = n3_catalog_check()
    assert report["candidates"] == 42
    assert set(walked) == {6}


def test_form7_count_checks_each_shape(monkeypatch):
    # a shape that vanishes at order 42 but is not inversion invariant,
    # g times the first Form7 shape, is not counted, though the count
    # reads from the same reference set
    first = CyclicRingElt(42, min(search._form_7_refs()))
    extra = first.shift(1)
    assert search._n3_rejection(extra.coeffs) == "inversion"
    assert character_value_is_zero(extra, CharacterSpec(42, 42))
    refs = search._form_7_refs() | {extra.coeffs}
    monkeypatch.setattr(search, "_form_7_refs", lambda: refs)
    report = n3_catalog_check()
    assert report["counts"]["Form7"] == 2
    assert report["form7_vanish_order_42"] is True
    assert len(report["form7_psi"]) == 3


def test_catalog_report():
    report = n3_catalog_check()
    assert report["candidates"] == 42
    # every other v-sum of norm at most 8 under its first failed constraint
    assert list(report["rejected"].items()) == [
        ("norm", 2411),
        ("inversion", 4300),
        ("even_identity", 8),
    ]
    assert report["candidates"] + sum(report["rejected"].values()) == sum(
        1 for _ in vsum._vsums_under((8,) * 30, 8)
    )
    assert report["counts"] == {"FormA": 36, "FormB": 2, "FormC": 4, "Form7": 2}
    assert report["mismatches"] == []
    assert report["form7_vanish_order_42"] is True
    assert report["form7_psi"] == [4, -4]

