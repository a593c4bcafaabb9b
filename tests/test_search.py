"""Tests for the exhaustive search and the dimension-3 catalog."""

import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations_with_replacement, islice, permutations, product
from math import comb
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbfkit import cli, search, vsum
from gbfkit.cli import main
from gbfkit.criteria import EXISTS, decide
from gbfkit.gbf import GbfFunction, is_gbf_exact
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
    # MAX_MODULUS the search is refused before any block runs
    def no_block(*args):
        raise AssertionError("a block was started")

    cap = search.MAX_MODULUS
    assert cap == 1 << 19
    with monkeypatch.context() as patch:
        patch.setattr(search, "_run_block", no_block)
        with pytest.raises(BudgetExceededError) as info:
            brute_force(cap + 1, 1)
        assert str(info.value) == f"modulus {cap + 1} exceeds the cap {cap}"
        assert info.value.space == cap + 1
        assert main(["search", str(cap + 1), "1"]) == 3
        assert "exceeds the cap" in capsys.readouterr().err

    # MAX_MODULUS itself is admitted, and its witness (0, m/4) found in
    # the one block of n = 1, after all m tails of its empty head
    out = brute_force(cap, 1)
    assert out.witness.values == (0, cap // 4) and out.examined == cap
    # and so is the n = 2 space with the largest m inside the budget,
    # whose witness's head (0) is the first
    out = brute_force(554, 2)
    assert out.witness.values == (0, 0, 0, 277) and out.examined == 554**2


def test_heads_past_int64_are_refused(monkeypatch, capsys):
    # head ranks are int64, so m^(2^(n-1) - 1) >= 2^63 heads are refused
    # before any block or table is built, also where the budget admits them
    class Reached(Exception):
        pass

    def no_block(*args):
        raise Reached

    monkeypatch.setattr(search, "_run_block", no_block)
    for m, n in [(2, 7), (2, 8), (5, 6)]:
        h = (1 << (n - 1)) - 1
        with pytest.raises(BudgetExceededError) as info:
            brute_force(m, n, budget=m ** ((1 << n) - 1))
        assert str(info.value) == f"{m}^{h} heads exceed the int64 head ranks", (m, n)
    assert main(["search", "2", "8", "--budget", str(2**255)]) == 3
    assert "heads exceed the int64 head ranks" in capsys.readouterr().err
    # 3^31 and 4^31 = 2^62 heads fit: both reach their first block
    for m in (3, 4):
        with pytest.raises(Reached):
            brute_force(m, 6, budget=m**63)


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


def test_deepest_mid_walk_matches_default(monkeypatch):
    # a batch ceiling of 2^n cells makes blocks of one head (and screen
    # passes of one pair, slabs of one row), so the walk emits one event
    # per head in lexicographic order, each with every tail of its head
    for m, n in [(3, 2), (4, 2), (5, 2), (4, 3), (2, 3), (3, 3), (12, 3), (7, 1)]:
        flat = brute_force(m, n)
        events = []
        with monkeypatch.context() as patch:
            patch.setattr(search, "_TAIL_CELLS", 1 << n)
            deep = brute_force(m, n, progress=events.append)
        assert deep == flat, (m, n)
        h, tails = (1 << (n - 1)) - 1, m ** (1 << (n - 1))
        walked = list(product(range(m), repeat=h))[: len(events)]
        assert [tuple(e["prefix"]) for e in events] == walked, (m, n)
        assert all(e["examined"] == tails for e in events), (m, n)
        assert deep.examined == len(events) * tails, (m, n)
        if flat.witness is None:
            assert len(events) == m**h, (m, n)
        else:
            assert flat.witness.values[1 : h + 1] == walked[-1], (m, n)


def test_pooled_search_matches_serial(monkeypatch):
    # report three CPUs, so that workers=3 runs three processes anywhere;
    # two workers have four blocks handed out at a time, and the witness
    # of (32, 3) at budget 32^7 has the head (0, 0, 16), in the fifth
    # block, heads 15 .. 30
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    default = search.DEFAULT_BUDGET
    for m, n, budget in [(32, 3, 32**7), (8, 1, default), (4, 3, default), (6, 3, default)]:
        runs = []
        for workers in (1, 2, 3):
            events = []
            out = brute_force(m, n, budget, workers=workers, progress=events.append)
            runs.append((out.certificate(), events))
        assert runs[1] == runs[0] and runs[2] == runs[0], (m, n)
        if (m, n) == (32, 3):
            assert runs[0][0]["witness"] == [0, 0, 0, 16, 8, 8, 8, 24]
            assert [e["prefix"] for e in runs[0][1]] == [[0, 0, r] for r in (0, 1, 3, 7, 15)]
            assert [e["examined"] for e in runs[0][1]] == [k * 32**4 for k in (1, 2, 4, 8, 2)]
    assert brute_force(4, 3, workers=3).witness.values == (0, 0, 0, 2, 1, 1, 1, 3)
    out = brute_force(5, 3, workers=3)
    assert out.status == "ExhaustedNone"
    assert out.examined == out.normalized_space


def test_pool_workers_end_with_the_search(monkeypatch):
    # the witness of (2, 4) and (4, 3) is in block (0, 0); the pool is
    # shut down before brute_force returns, its workers joined
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for m, n in [(2, 4), (4, 3)]:
        out = brute_force(m, n, workers=2)
        assert out.status == "WitnessFound", (m, n)
        assert multiprocessing.active_children() == [], (m, n)


def test_search_agrees_with_decide():
    # the search is an exact route independent of the criteria, and
    # decide settles every cell here; n = 3 runs past the default budget
    # up to m = 30, at budget m^7
    cells = [(m, 1) for m in range(2, 1001)] + [(m, 2) for m in range(2, 201)]
    cells += [(m, 3) for m in range(2, 31)] + [(2, 4), (3, 4)]
    assert len(cells) == 1229
    for m, n in cells:
        out = brute_force(m, n, max(search.DEFAULT_BUDGET, m ** ((1 << n) - 1)))
        assert (out.witness is not None) == (decide(m, n).outcome == EXISTS), (m, n)
        if out.witness is None:
            assert out.examined == out.normalized_space, (m, n)


def test_pool_size_is_bounded(monkeypatch):
    # a stand-in pool on threads records the size asked for; no process
    # pool is started here
    asked = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers)

    # (3, 3) walks its 27 heads in 5 blocks, of 1, 2, 4, 8 and 12; a
    # serial run first builds its tail table, which the threads then only
    # read
    serial = brute_force(3, 3)
    assert serial.status == "ExhaustedNone" and serial.examined == 3**7
    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert brute_force(3, 3, workers=10**6) == serial
    assert asked == [5]

    # no more workers than CPUs either, and none at all on one CPU or
    # for workers < 2
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert brute_force(3, 3, workers=10**6) == serial
    assert brute_force(3, 3, workers=-1) == serial
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert brute_force(3, 3, workers=10**6) == serial
    assert asked == [5, 2]


def test_pool_is_handed_two_blocks_per_worker_ahead(monkeypatch):
    # a stand-in pool that runs each block as it is handed out: with two
    # workers, at most four blocks are out and unread, so a witness in
    # block k is read after blocks 0 .. k + 3 were handed out, not all
    handed = []

    class InlinePool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def submit(self, fn, *args):
            handed.append(args)
            done = Future()
            done.set_result(fn(*args))
            return done

        def shutdown(self, wait, cancel_futures):
            pass

    # one head per block: (32, 3) at budget 32^7 has 32^3 blocks, and the
    # witness (0, 0, 0, 16, 8, 8, 8, 24) is in block 16
    monkeypatch.setattr(search, "_TAIL_CELLS", 1 << 3)
    serial = brute_force(32, 3, 32**7)
    monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert brute_force(32, 3, 32**7, workers=2) == serial
    assert serial.examined == 17 * 32**4
    assert handed == [(lo, lo + 1) for lo in range(20)]


def _characters(n):
    size = 1 << n
    return np.array([[(-1) ** bin(x & y).count("1") for y in range(size)] for x in range(size)])


@lru_cache(maxsize=None)
def _lex_tail_table(m, n):
    # every assignment of the top half in lexicographic order and its
    # contribution to the spectrum, built apart from search's own tables
    # and roots
    size, tail = 1 << n, 1 << (n - 1)
    chi = _characters(n)
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    digits = np.array(list(product(range(m), repeat=tail)), dtype=np.int64).reshape(m**tail, tail)
    columns = np.zeros((size, m**tail), dtype=np.complex128)
    for j in range(tail):
        columns += chi[tail + j][:, None] * zeta[digits[:, j]][None, :]
    return digits, columns


def _per_tail_run_block(m, n, lo, hi):
    # the block search without the join: y = 0 is screened once per tail
    # assignment of the top half, and the heads of ranks lo .. hi - 1 are
    # taken from a plain lexicographic enumeration
    size = 1 << n
    chi = _characters(n)
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    digits, columns = _lex_tail_table(m, n)

    examined = 0
    for head in islice(product(range(m), repeat=(size >> 1) - 1), lo, hi):
        spec = chi[0].astype(np.complex128)
        for pos, v in enumerate(head, start=1):
            spec = spec + zeta[v] * chi[pos]
        examined += digits.shape[0]
        z = spec[0] + columns[0]
        sel = np.flatnonzero(np.abs(z.real * z.real + z.imag * z.imag - size) <= search._TOL)
        for y in range(1, size):
            if sel.size == 0:
                break
            z = spec[y] + columns[y][sel]
            sel = sel[np.abs(z.real * z.real + z.imag * z.imag - size) <= search._TOL]
        for i in sel:
            values = (0, *head, *(int(d) for d in digits[i]))
            if search.is_gbf_exact(GbfFunction(n, m, values)):
                return values, examined
    return None, examined


def test_multiset_screen_matches_per_tail_screen(monkeypatch):
    # (m, n, batch ceiling): None keeps the default _TAIL_CELLS; a small
    # one makes blocks of few heads, screen passes of few pairs and slabs
    # of few rows.  At (12, 3, 2^4) blocks hold two heads, and the
    # witness's head (0, 0, 6) is in the fourth; at (3, 4, 2^9) and
    # (2, 4, 2^6) a block's passing pairs and rows are screened in pieces
    cases = [(m, n, None) for m, n in [(4, 3), (6, 3), (8, 3), (3, 4), (3, 2), (2, 1), (8, 1)]]
    cases += [(4, 3, 1 << 3), (3, 2, 1 << 2), (2, 1, 1 << 1), (9, 1, 1 << 1), (5, 2, 1 << 2)]
    cases += [(6, 3, 1 << 5), (12, 3, 1 << 4), (3, 4, 1 << 9), (2, 4, 1 << 6)]
    confirmed = []
    sent_total = 0
    exact = search.is_gbf_exact

    def recording(fn):
        confirmed.append(fn.values)
        return exact(fn)

    monkeypatch.setattr(search, "is_gbf_exact", recording)
    for m, n, cells in cases:
        with monkeypatch.context() as patch:
            if cells is not None:
                patch.setattr(search, "_TAIL_CELLS", cells)
            heads = m ** ((1 << (n - 1)) - 1)
            for lo, hi in search._blocks(heads, max(1, search._TAIL_CELLS >> n)):
                del confirmed[:]
                values, examined, survivors = search._run_block(m, n, lo, hi)
                sent = list(confirmed)
                del confirmed[:]
                assert (values, examined) == _per_tail_run_block(m, n, lo, hi), (m, n, cells, lo)
                # the same survivors reach the exact test, in the same order
                assert sent == confirmed and survivors == len(sent), (m, n, cells, lo)
                sent_total += len(sent)
                if values is not None:
                    break
    assert sent_total > 0


def test_every_row_passing_the_screens_is_confirmed(monkeypatch):
    # with no tolerance limit every completion passes the screens, so each
    # reaches the exact test once and in lexicographic order, also where a
    # block's pairs and rows outnumber a small _TAIL_CELLS and are
    # screened in pieces; the block of m^2 heads from rank m^2 - 1 carries
    # into the first head digit.  With |F(y)|^2 allowed within 9.5 of
    # 2^n, the completions sent are those within it at every character,
    # by a direct transform: some fail only at the last one.  |F(y)|^2 is
    # an integer at m = 3 and 4, so no value sits at the bound
    sent = []
    chi = _characters(3)

    def never_bent(fn):
        sent.append(fn.values)
        return False

    monkeypatch.setattr(search, "is_gbf_exact", never_bent)
    for tol in (float("inf"), 9.5):
        monkeypatch.setattr(search, "_TOL", tol)
        for m, cells in [(3, search._TAIL_CELLS), (3, 1 << 8), (4, 1 << 8)]:
            monkeypatch.setattr(search, "_TAIL_CELLS", cells)
            del sent[:]
            lo, hi = m**2 - 1, 2 * m**2 - 1
            values, examined, survivors = search._run_block(m, 3, lo, hi)
            heads = islice(product(range(m), repeat=3), lo, hi)
            want = [(0, *h, *t) for h in heads for t in product(range(m), repeat=4)]
            spectra = np.exp(2j * np.pi * np.array(want) / m) @ chi
            close = np.abs(np.abs(spectra) ** 2 - 8) <= tol
            if tol < float("inf"):
                assert 0 < close.all(axis=1).sum() < close[:, :-1].all(axis=1).sum(), (m, cells)
            want = [v for v, ok in zip(want, close.all(axis=1)) if ok]
            assert sent == want, (m, cells, tol)
            assert (values, examined, survivors) == (None, m**6, len(want)), (m, cells, tol)


def test_join_screens_each_head_against_its_window(monkeypatch):
    # at (15, 3) the search builds one tail table, and its 3375 heads meet
    # 3060 tail groups each, but the join screens only the pairs in each
    # head's window of |B|^2, a small share of the 10.3 million
    screened = []

    class Counting(np.ndarray):
        def __getitem__(self, key):
            screened.append(np.size(key))
            return np.asarray(self)[key]

    search._tail_table.cache_clear()
    try:
        table = search._tail_table(15, 3)
        assert len(table.tails) == comb(18, 4)
        monkeypatch.setattr(table, "sums", table.sums.view(Counting))
        out = brute_force(15, 3)
        assert out.status == "ExhaustedNone" and out.examined == out.normalized_space
        assert search._tail_table.cache_info().misses == 1
        assert sum(screened) == 24390
    finally:
        search._tail_table.cache_clear()

    # at every exhausted rung of the ladder no (head, tail group) pair
    # passes both y = 0 and y = 2^(n-1), so no block builds a tail row
    def no_rows(runs):
        raise AssertionError("tail rows were built")

    with monkeypatch.context() as patch:
        patch.setattr(search, "_arrangements", no_rows)
        for m, n in [(m, 3) for m in (2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15)] + [(3, 4)]:
            out = brute_force(m, n)
            assert out.status == "ExhaustedNone" and out.examined == out.normalized_space

    # at a witness, examined is (rank of the witness's head + 1) *
    # m^(2^(n-1)), the tail the top half of Z_2^n
    witnesses = {
        (4, 1): ((0, 1), 4),
        (4, 2): ((0, 0, 0, 2), 16),
        (364, 2): ((0, 0, 0, 182), 364**2),
        (4, 3): ((0, 0, 0, 2, 1, 1, 1, 3), 768),
        (8, 3): ((0, 0, 0, 4, 2, 2, 2, 6), 20480),
        (12, 3): ((0, 0, 0, 6, 3, 3, 3, 9), 145152),
        (2, 4): ((0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0), 1024),
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
    # find returns exactly the (head, tail multiset) pairs that a direct
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
        owner, groups = table.find(np.array(heads, dtype=np.int64).reshape(len(heads), half - 1))
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
    # half of a bent function is a tail group that find pairs with its
    # head, the rest of its bottom half
    assert is_gbf_exact(f)
    half = 1 << (f.n - 1)
    table = search._TailTable(f.m, f.n)
    owner, groups = table.find(np.array([f.values[1:half]]))
    assert sorted(f.values[half:]) in table.tails[groups].tolist()


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
        # order, a sorted row, with B the sum of zeta^d over its digits;
        # norms lists each |B|^2 in increasing order, through order
        table = search._TailTable(m, n)
        got = [tuple(t) for t in table.tails.tolist()]
        assert got == list(combinations_with_replacement(range(m), tail)), (m, n)
        assert np.abs(table.sums - [zeta[list(t)].sum() for t in got]).max() <= 1e-12
        assert sorted(table.order.tolist()) == list(range(len(got))), (m, n)
        assert np.abs(table.norms - np.abs(table.sums[table.order]) ** 2).max() <= 1e-12
        assert (np.diff(table.norms) >= 0).all(), (m, n)
        # the groups' arrangements are every assignment exactly once,
        # each group's its own digits in lexicographic order
        owner, rows = search._by_pattern(table.tails, search._arrangements)
        rows = [tuple(r) for r in rows.tolist()]
        assert (np.diff(owner) >= 0).all(), (m, n)
        for g, multiset in enumerate(got):
            group = [rows[i] for i in np.flatnonzero(owner == g)]
            assert group == sorted(group), (m, n, g)
            assert all(tuple(sorted(r)) == multiset for r in group), (m, n, g)
        assert sorted(rows) == list(product(range(m), repeat=tail)), (m, n)


def test_arrangement_tables_match_itertools():
    # every run pattern of up to 8 digits: a row of run labels 0, 1, ...
    # with those run lengths
    for length in range(9):
        for cuts in product((False, True), repeat=max(0, length - 1)):
            row = tuple(np.cumsum((0, *cuts)).tolist())[:length]
            runs = tuple(row.count(v) for v in sorted(set(row)))
            got = np.array(row, dtype=np.intp)[search._arrangements(runs)].tolist()
            assert list(map(tuple, got)) == sorted(set(permutations(row))), row


def test_screen_passes_keep_to_their_pair_bound(monkeypatch):
    # each pass of the join holds at most _TAIL_CELLS / 32 pairs, also
    # where one head's window holds far more: at n = 1 the one empty head
    # meets all m groups, each of |B|^2 = 1.  The search finds what it
    # finds with the default _TAIL_CELLS
    cases = [(5000, 1), (40, 1), (12, 2), (31, 2), (5, 3), (8, 3), (2, 4)]
    default = {(m, n): brute_force(m, n) for m, n in cases}
    passes = []

    class Counting(np.ndarray):
        def __getitem__(self, key):
            passes.append(np.size(key))
            return np.asarray(self)[key]

    monkeypatch.setattr(search, "_TAIL_CELLS", 1 << 9)
    for m, n in cases:
        table = search._tail_table(m, n)
        monkeypatch.setattr(table, "sums", table.sums.view(Counting))
        del passes[:]
        out = brute_force(m, n)
        assert out == default[m, n], (m, n)
        assert out.witness or out.examined == out.normalized_space, (m, n)
        assert max(passes, default=0) <= 1 << 4, (m, n)
        if n == 1:
            assert sum(passes) == m and len(passes) == -(-m // 16), (m, n)


def test_progress_events(monkeypatch):
    # (3, 2): a tail of the top half, two positions, after one head
    # position, so blocks of 1 and 2 heads of 9 completions each
    events = []
    out = brute_force(3, 2, progress=events.append)
    assert all(set(e) == {"prefix", "examined", "pruned", "survivors"} for e in events)
    assert all(e["pruned"] == 0 and e["survivors"] == 0 for e in events)
    assert [(e["prefix"], e["examined"]) for e in events] == [([0], 9), ([1], 18)]
    assert out.examined == 27

    # n = 1: the head is empty, so one block, one event with prefix []
    for m in (7, 524288):
        events = []
        out = brute_force(m, 1, progress=events.append)
        assert [(e["prefix"], e["examined"]) for e in events] == [([], m)], m
        assert out.examined == m

    # (15, 3): 3375 heads of three positions in blocks of 1, 2, 4, ..., 1024
    # and the last 1328, each event's prefix its first head
    events = []
    brute_force(15, 3, progress=events.append)
    sizes = [1 << k for k in range(11)] + [1328]
    assert [e["examined"] for e in events] == [size * 15**4 for size in sizes]
    firsts = [(1 << k) - 1 for k in range(12)]
    assert [e["prefix"] for e in events] == [[r // 225, r // 15 % 15, r % 15] for r in firsts]

    # (2, 3) with the blocks capped at 2 heads: 8 heads in blocks of 1,
    # then 2 until the last one, each head with 2^4 tails
    monkeypatch.setattr(search, "_TAIL_CELLS", 1 << 4)
    events = []
    out = brute_force(2, 3, progress=events.append)
    assert [e["examined"] for e in events] == [16 * k for k in (1, 2, 2, 2, 1)]
    assert out.examined == out.normalized_space == 128
    monkeypatch.undo()

    # (4, 3): the witness's head (0, 0, 2) is in the second block, heads
    # 1 and 2, and it is the only screen survivor there
    events = []
    brute_force(4, 3, progress=events.append)
    assert [(e["prefix"], e["survivors"]) for e in events] == [([0, 0, 0], 0), ([0, 0, 1], 1)]


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

