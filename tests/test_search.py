"""Tests for the exhaustive search and the dimension-3 catalog."""

import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations_with_replacement, product
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

    with pytest.raises(BudgetExceededError):
        brute_force(3, 2, budget=26)
    assert brute_force(3, 2, budget=27).examined == 27


def test_block_cap_refuses_before_any_block(monkeypatch, capsys):
    # n = 1 has one block per value of m, each a single assignment; past
    # MAX_BLOCKS blocks the search is refused before any block runs
    def no_block(*args):
        raise AssertionError("a block was started")

    monkeypatch.setattr(search, "_run_prefix", no_block)
    blocks = search.MAX_BLOCKS + 1
    with pytest.raises(BudgetExceededError) as info:
        brute_force(blocks, 1)
    assert info.value.blocks == blocks and str(blocks) in str(info.value)
    assert main(["search", str(blocks), "1"]) == 3
    assert f"{blocks} blocks" in capsys.readouterr().err

    # MAX_BLOCKS itself is admitted: every block runs
    monkeypatch.setattr(search, "_run_prefix", lambda m, n, prefix: (None, 1, 0))
    assert brute_force(search.MAX_BLOCKS, 1).examined == search.MAX_BLOCKS
    # and so is the n = 2 space with the most blocks inside the budget
    assert brute_force(554, 2).examined == 554**2


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
    # 4001 blocks at n = 1 share one table of roots of unity; building it
    # per block made the search quadratic in m
    search._roots.cache_clear()
    out = brute_force(4001, 1)
    assert out.status == "ExhaustedNone" and out.examined == 4001
    assert search._roots.cache_info().misses == 1


def test_deepest_mid_walk_matches_default(monkeypatch):
    # a batch ceiling of 2^n cells leaves no tail, so every position past
    # the prefix is walked as a mid level, one assignment at a time
    for m, n in [(3, 2), (4, 2), (5, 2), (4, 3), (6, 3)]:
        flat = brute_force(m, n)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_TAIL_CELLS", 1 << n)
            deep = brute_force(m, n)
        assert deep.status == flat.status, (m, n)
        assert deep.witness == flat.witness, (m, n)
        if flat.witness is None:
            assert deep.examined == flat.examined == flat.normalized_space, (m, n)
        else:
            # walked in lexicographic order, the deep search stops right
            # at the witness: its rank in the normalized space, plus one
            rank = 0
            for v in flat.witness.values[1:]:
                rank = rank * m + v
            assert deep.examined == rank + 1 <= flat.examined, (m, n)


def test_pooled_search_matches_serial(monkeypatch):
    # report three CPUs, so that workers=3 runs three processes anywhere;
    # (20, 1) maps its 20 blocks in chunks of 3 at two workers, and its
    # witness sits in block 5, past the first chunk
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for m, n in [(20, 1), (8, 1), (4, 3), (6, 3)]:
        runs = []
        for workers in (1, 2, 3):
            events = []
            out = brute_force(m, n, workers=workers, progress=events.append)
            runs.append((out.certificate(), events))
        assert runs[1] == runs[0] and runs[2] == runs[0], (m, n)
        if (m, n) == (20, 1):
            assert runs[0][0]["witness"] == [0, 5]
            assert [e["prefix"] for e in runs[0][1]] == [[v] for v in range(6)]
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
    # decide settles every cell here
    cells = [(m, 1) for m in range(2, 201)] + [(m, 2) for m in range(2, 41)]
    cells += [(m, 3) for m in range(2, 16)] + [(2, 4), (3, 4)]
    assert len(cells) == 254
    for m, n in cells:
        out = brute_force(m, n)
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

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    out = brute_force(3, 2, workers=10**6)
    assert asked == [9]
    assert out.status == "ExhaustedNone" and out.examined == 27

    # no more workers than CPUs either, and none at all on one CPU
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert brute_force(3, 2, workers=10**6).examined == 27
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert brute_force(3, 2, workers=10**6).examined == 27
    assert asked == [9, 2]


def _characters(n):
    size = 1 << n
    return np.array([[(-1) ** bin(x & y).count("1") for y in range(size)] for x in range(size)])


@lru_cache(maxsize=None)
def _lex_tail_table(m, n, tail):
    # every tail assignment in lexicographic order and its contribution to
    # the spectrum, built apart from search's own tables and roots
    size = 1 << n
    chi = _characters(n)
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    digits = np.array(list(product(range(m), repeat=tail)), dtype=np.int64).reshape(m**tail, tail)
    columns = np.zeros((size, m**tail), dtype=np.complex128)
    for j in range(tail):
        columns += chi[size - tail + j][:, None] * zeta[digits[:, j]][None, :]
    return digits, columns


def _per_tail_run_prefix(m, n, prefix):
    # the block search as it was before the multiset screen: y = 0 is
    # screened once per tail assignment, not once per digit multiset
    size = 1 << n
    chi = _characters(n)
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    free = size - 1 - len(prefix)
    tail = 0
    while tail < free and (m ** (tail + 1)) * size <= search._TAIL_CELLS:
        tail += 1
    digits, columns = _lex_tail_table(m, n, tail)

    spectrum = chi[0].astype(np.complex128)
    for j, v in enumerate(prefix):
        spectrum = spectrum + zeta[v] * chi[j + 1]

    examined = 0
    for mid in product(range(m), repeat=free - tail):
        spec = spectrum
        for pos, v in enumerate(mid, start=len(prefix) + 1):
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
            values = (0, *prefix, *mid, *(int(d) for d in digits[i]))
            if search.is_gbf_exact(GbfFunction(n, m, values)):
                return values, examined
    return None, examined


def test_multiset_screen_matches_per_tail_screen(monkeypatch):
    # (m, n, tail ceiling): None keeps the default _TAIL_CELLS, k caps the
    # tail at k positions, so k = 0 walks every position as a mid level
    cases = [(m, n, None) for m, n in [(4, 3), (6, 3), (8, 3), (3, 4), (3, 2), (2, 1)]]
    cases += [(4, 3, 0), (3, 2, 0), (2, 1, 0), (5, 2, 0), (6, 3, 2), (3, 4, 7)]
    # (4, 3, 1) takes its mids four to a chunk, and the witness's mid
    # (2, 1, 1, 1) has rank 149, past the first chunk; at (3, 4, 5) and
    # (3, 4, 7) the passing rows of a chunk outnumber _TAIL_CELLS, so they
    # are screened in pieces
    cases += [(4, 3, 1), (3, 4, 5)]
    confirmed = []
    sent_total = 0
    exact = search.is_gbf_exact

    def recording(fn):
        confirmed.append(fn.values)
        return exact(fn)

    monkeypatch.setattr(search, "is_gbf_exact", recording)
    for m, n, k in cases:
        size = 1 << n
        cells = search._TAIL_CELLS if k is None else m**k * size
        prefixes = product(range(m), repeat=min(2, size - 1))
        with monkeypatch.context() as patch:
            patch.setattr(search, "_TAIL_CELLS", cells)
            for prefix in prefixes:
                del confirmed[:]
                values, examined, survivors = search._run_prefix(m, n, prefix)
                sent = list(confirmed)
                del confirmed[:]
                assert (values, examined) == _per_tail_run_prefix(m, n, prefix), (m, n, k, prefix)
                # the same survivors reach the exact test, in the same order
                assert sent == confirmed and survivors == len(sent), (m, n, k, prefix)
                sent_total += len(sent)
    assert sent_total > 0


def test_every_row_passing_the_screens_is_confirmed(monkeypatch):
    # with no tolerance limit every completion passes the screens, so each
    # reaches the exact test once and in lexicographic order, also where a
    # chunk's rows outnumber _TAIL_CELLS and are screened in pieces
    sent = []

    def never_bent(fn):
        sent.append(fn.values)
        return False

    monkeypatch.setattr(search, "is_gbf_exact", never_bent)
    monkeypatch.setattr(search, "_TOL", float("inf"))
    search._head_table.cache_clear()
    try:
        for m, k in [(3, 2), (3, 3), (4, 2)]:
            monkeypatch.setattr(search, "_TAIL_CELLS", m**k << 3)
            del sent[:]
            assert search._run_prefix(m, 3, (1, 0)) == (None, m**5, m**5), (m, k)
            assert sent == [(0, 1, 0, *rest) for rest in product(range(m), repeat=5)], (m, k)
    finally:
        search._head_table.cache_clear()


def test_y0_screen_runs_once_per_whole_multiset(monkeypatch):
    # at (15, 3) the 15^7 assignments have C(21, 7) = 116280 multisets of
    # their 7 free digits, and each is screened at y = 0 once, as one
    # (canonical head, tail group) pair: a head of 3 digits, a tail of 4
    screened = []

    class Counting(np.ndarray):
        def __getitem__(self, key):
            screened.append(np.size(key))
            return np.asarray(self)[key]

    search._head_table.cache_clear()
    try:
        table = search._head_table(15, 3, 4)
        monkeypatch.setattr(table, "values", table.values.view(Counting))
        out = brute_force(15, 3)
        assert out.status == "ExhaustedNone" and out.examined == out.normalized_space
        assert search._head_table.cache_info().misses == 1
        assert sum(screened) == comb(21, 7)
    finally:
        search._head_table.cache_clear()

    # no multiset of (13, 3) or (9, 3) passes y = 0, so no block builds
    # the tail table
    for m in (13, 9):
        search._tail_tables.cache_clear()
        out = brute_force(m, 3)
        assert out.status == "ExhaustedNone" and out.examined == out.normalized_space
        assert search._tail_tables.cache_info().misses == 0, m


_SMALL_TABLES = [
    (m, n, tail)
    for n in (1, 2, 3)
    for m in range(2, 7)
    for tail in range((1 << n) - 1)
    if m**tail <= 1000
]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_SMALL_TABLES),
    st.sampled_from([search._TOL, float("inf")]),
    st.integers(0, 12),
    st.randoms(use_true_random=False),
)
def test_head_table_matches_per_head_screen(case, tol, cells, rng):
    # every head multiset's groups are the tail groups its own float
    # screen passes, asked for in any order; a pass of 2^cells >> 5
    # pairs makes the lazy screen take many passes
    m, n, tail = case
    size = 1 << n
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    values = search._tail_tables(m, n, tail).values
    heads = list(combinations_with_replacement(range(m), size - 1 - tail))
    rng.shuffle(heads)
    with patch.object(search, "_TOL", tol), patch.object(search, "_TAIL_CELLS", 1 << cells):
        table = search._HeadTable(m, n, tail)
        for head in heads:
            z = 1 + zeta[list(head)].sum() + values
            want = np.flatnonzero(np.abs(z.real * z.real + z.imag * z.imag - size) <= tol)
            got = table.groups(head)
            assert got.tolist() == want.tolist(), (m, n, tail, head)
            assert not got.flags.writeable


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
    for m, n in [(4, 3), (6, 3), (8, 3), (3, 4), (3, 2), (2, 1), (5, 2)]:
        free = (1 << n) - 1 - min(2, (1 << n) - 1)
        for tail in range(free + 1):
            if m**tail << n > search._TAIL_CELLS:
                break
            t = search._tail_tables(m, n, tail)
            # each row's rank in lexicographic order: the rows are every
            # assignment exactly once
            rank = t.digits.astype(np.int64) @ (m ** np.arange(tail - 1, -1, -1))
            assert np.array_equal(np.sort(rank), np.arange(m**tail)), (m, n, tail)
            # the groups are contiguous nonempty row ranges, one per multiset
            assert (t.counts > 0).all() and t.counts.sum() == m**tail, (m, n, tail)
            assert t.starts.tolist() == [0, *np.cumsum(t.counts)[:-1]], (m, n, tail)
            assert len(t.counts) == comb(m + tail - 1, tail), (m, n, tail)
            multisets = np.sort(t.digits, axis=1)
            group = np.repeat(np.arange(len(t.counts)), t.counts)
            assert (multisets == multisets[t.starts][group]).all(), (m, n, tail)
            # within a group, the rows are in lexicographic order
            rises = np.diff(rank) > 0
            assert (rises | (np.diff(group) > 0)).all(), (m, n, tail)
            # every row's y = 0 contribution is its group's value
            gap = np.abs(t.columns[0] - t.values[group])
            assert gap.max() <= 1e-12, (m, n, tail)


def test_progress_events():
    events = []
    out = brute_force(3, 2, progress=events.append)
    assert len(events) == 9
    assert all(set(e) == {"prefix", "examined", "pruned", "survivors"} for e in events)
    assert all(e["pruned"] == 0 for e in events)
    assert sum(e["examined"] for e in events) == out.examined == 27
    assert sum(e["survivors"] for e in events) == 0

    # (4, 3): the witness of block (0, 0) is the only screen survivor there
    events = []
    brute_force(4, 3, progress=events.append)
    assert [(e["prefix"], e["survivors"]) for e in events] == [([0, 0], 1)]


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

