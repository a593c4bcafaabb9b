"""Tests for the (m, n) decision pipeline."""

import functools
import hashlib
import json
from string import Formatter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbfkit import criteria
from gbfkit.cli import main
from gbfkit.criteria import (
    CRITERION_IDS,
    EXISTS,
    MAX_M,
    MAX_N,
    NONEXISTENT,
    TABLE_M_MAX,
    TABLE_N_MAX,
    UNKNOWN,
    CriterionStep,
    Verdict,
    decide,
    outcome_rows,
)
from gbfkit.ring import factorize


def ids(verdict: Verdict) -> list[str]:
    return [s.id for s in verdict.trace]


# -- existence side ---------------------------------------------------------


def test_exists_examples():
    for m, n in [(4, 1), (8, 3), (12, 7), (100, 9), (16, 2)]:
        v = decide(m, n)
        assert v.outcome == EXISTS
        assert ids(v) == ["exists-4-divides"]
    for m, n in [(6, 2), (10, 4), (2, 2), (30, 6), (2, 8)]:
        v = decide(m, n)
        assert v.outcome == EXISTS
        assert ids(v) == ["exists-both-even"]


def test_boolean_odd_dimension():
    for n in (1, 3, 5, 7):
        v = decide(2, n)
        assert v.outcome == NONEXISTENT
        assert ids(v) == ["exists-boolean-even-n"]


# -- frozen terminal examples -----------------------------------------------


def test_n3_examples():
    for m in (3, 5, 6, 7, 9, 10, 11, 13, 15, 21, 33, 105):
        v = decide(m, 3)
        assert v.outcome == NONEXISTENT
        assert ids(v) == ["nonexist-n3"]


def test_odd_prime_power():
    v = decide(27, 5)
    assert v.outcome == NONEXISTENT
    assert ids(v) == ["nonexist-s1-odd"]
    assert decide(3, 9).outcome == NONEXISTENT
    assert decide(125, 7).outcome == NONEXISTENT


def test_odd_two_primes_unknown():
    v = decide(45, 5)
    assert v.outcome == UNKNOWN
    assert v.trace == ()
    assert v.residual == (45, 5)


def test_odd_two_primes_small_space():
    # 3*11 + 13 = 46 > 32 while 11 + 13 stays below the strip threshold
    v = decide(143, 5)
    assert v.outcome == NONEXISTENT
    assert ids(v) == ["nonexist-3p1p2"]
    # boundary: 3*7 + 11 = 32 = 2^5 does not fire
    assert decide(77, 5).outcome == UNKNOWN


def test_odd_strip():
    # 93 = 3 * 31 and 3 + 31 > 2^5: only the 3-part survives
    v = decide(93, 5)
    assert v.outcome == NONEXISTENT
    assert ids(v) == ["strip-odd", "nonexist-s1-odd"]
    # 1905 = 3 * 5 * 127 at n = 7: strip 127, then 3 * 3 + 5 <= 128
    v = decide(1905, 7)
    assert v.outcome == UNKNOWN
    assert ids(v) == ["strip-odd"]
    assert v.residual == (15, 7)


def test_twice_odd_examples():
    v = decide(10, 5)
    assert v.outcome == NONEXISTENT
    assert ids(v) == ["nonexist-2p-alpha-non-mersenne"]

    v = decide(14, 5)
    assert v.outcome == UNKNOWN
    assert v.residual == (14, 5)

    v = decide(22, 5)
    assert v.outcome == NONEXISTENT
    assert ids(v) == ["nonexist-2p-alpha-large"]

    v = decide(18, 5)
    assert v.outcome == NONEXISTENT
    assert ids(v) == ["nonexist-2p-alpha-mod8"]

    # p^2 goes the same way as p
    assert decide(50, 5).outcome == NONEXISTENT
    assert decide(98, 5).outcome == UNKNOWN


def test_twice_odd_strip():
    # 222 = 2 * 3 * 37 and 3 + 37 > 2^5 + 2; the rest is 2 * 3 with 3 = 3 mod 8
    v = decide(222, 5)
    assert v.outcome == NONEXISTENT
    assert ids(v) == ["strip-even", "nonexist-2p-alpha-mod8"]


def test_mersenne_escape():
    # 7 = 2^3 - 1, 31 = 2^5 - 1 and 127 = 2^7 - 1 dodge the 2^(n-3) window
    assert decide(14, 5).outcome == UNKNOWN
    v = decide(62, 7)
    assert v.outcome == UNKNOWN
    assert v.residual == (62, 7)
    assert decide(254, 9).outcome == UNKNOWN


def test_strip_reports_only_what_rule_strips():
    # 3 + 31 > 2^5 strips 31 from odd m
    v = decide(93, 5)
    assert v.trace[0].params == {"stripped": [31], "kept_m": 3}
    assert ids(v) == ["strip-odd", "nonexist-s1-odd"]
    # 3 + 31 = 34 = 2^5 + 2 is not over the even-part bound
    assert ids(decide(186, 5)) == []
    assert decide(186, 5).residual == (186, 5)
    # the smallest prime never strips itself, though 5 + 5 > 2^1
    assert ids(decide(5, 1)) == ["nonexist-s1-odd"]


def test_strip_verdicts_pinned():
    # two primes stripped past a squared kept prime, for each parity of m
    assert decide(9 * 5 * 131 * 137, 7).to_json_str() == (
        '{"m": 807615, "n": 7, "outcome": "Unknown", "residual": {"m": 45, "n": 7}, '
        '"trace": [{"cite": "odd primes [131, 137] satisfy p_1 + p > 2^n; reduced to m = 45", '
        '"id": "strip-odd", "params": {"kept_m": 45, "stripped": [131, 137]}}]}'
    )
    assert decide(2 * 9 * 7 * 37 * 41, 5).to_json_str() == (
        '{"m": 191142, "n": 5, "outcome": "Unknown", "residual": {"m": 126, "n": 5}, '
        '"trace": [{"cite": "odd primes [37, 41] satisfy p_1 + p > 2^n + 2; reduced to m = 126", '
        '"id": "strip-even", "params": {"kept_m": 126, "stripped": [37, 41]}}]}'
    )


# -- bad inputs and serialization -------------------------------------------


# cells whose traces hold every step id between them
_CELL_PER_STEP = [
    (12, 7), (6, 4), (2, 5), (45, 3), (27, 5), (91, 5), (93, 5), (806, 5), (10, 5), (6, 5)
]


def test_cite_templates_name_exactly_their_params():
    seen = {}
    for m, n in _CELL_PER_STEP:
        for step in decide(m, n).trace:
            seen.setdefault(step.id, set(step.params))
    assert set(seen) == CRITERION_IDS
    assert all(type(cite) is str for cite in criteria.CITES.values())
    for sid, params in seen.items():
        fields = {name for _, name, _, _ in Formatter().parse(criteria.CITES[sid]) if name}
        assert fields - {"n"} == params, sid


def test_bad_inputs():
    with pytest.raises(ValueError):
        decide(1, 4)
    with pytest.raises(ValueError):
        decide(6, 0)
    with pytest.raises(ValueError):
        CriterionStep("bogus-id", "nope")


def test_oversized_inputs_refused_before_factorize(monkeypatch, capsys):
    def no_factorize(m):
        raise AssertionError(f"factorize({m}) ran")

    sieves = []
    sieve = criteria._two_smallest_odd_primes

    def counting_sieve(k_max):
        sieves.append(k_max)
        return sieve(k_max)

    monkeypatch.setattr(criteria, "factorize", no_factorize)
    monkeypatch.setattr(criteria, "_two_smallest_odd_primes", counting_sieve)
    for m, n in [(MAX_M + 1, 5), (2 * MAX_M + 2, 5), (15, MAX_N + 1), (MAX_M + 2, MAX_N + 2)]:
        with pytest.raises(ValueError, match="need"):
            decide(m, n)
        assert main(["decide", str(m), str(n)]) == 64
    assert "gbf decide: need m <= " in capsys.readouterr().err
    # outcome_rows refuses grids past the table caps before the sieve
    for m_max, n_max in [
        (TABLE_M_MAX + 1, 5),
        (15, TABLE_N_MAX + 1),
        (MAX_M, MAX_N),
        (1, 5),
        (15, 0),
    ]:
        with pytest.raises(ValueError, match="need 2 <= m_max"):
            outcome_rows(m_max, n_max)
    assert sieves == []
    # the caps themselves are admitted: 4 | 10^14, and (6, 10^8) is both
    # even; the grid at the table caps sieves once and factors nothing
    assert decide(MAX_M, 5).outcome == EXISTS
    assert decide(6, MAX_N).outcome == EXISTS
    assert len(outcome_rows(TABLE_M_MAX, TABLE_N_MAX)) == 7499
    assert sieves == [TABLE_M_MAX]


def test_verdict_json():
    v = decide(93, 5)
    blob = json.loads(v.to_json_str())
    assert blob["m"] == 93 and blob["n"] == 5
    assert blob["outcome"] == "Nonexistent"
    assert [s["id"] for s in blob["trace"]] == ["strip-odd", "nonexist-s1-odd"]
    assert blob["residual"] is None
    assert all(set(s) == {"id", "cite", "params"} for s in blob["trace"])
    assert [s["params"] for s in blob["trace"]] == [{"stripped": [31], "kept_m": 3}, {}]

    blob = json.loads(decide(1905, 7).to_json_str())
    assert blob["residual"] == {"m": 15, "n": 7}


def test_verdicts_pinned():
    # golden digest of every verdict with m <= 2000 and n <= 16, cite
    # prose included, computed before decide shared its rule with the table
    digest = hashlib.sha256()
    for m in range(2, 2001):
        for n in range(1, 17):
            digest.update((decide(m, n).to_json_str() + "\n").encode())
    assert digest.hexdigest() == "8090a5653d520905397665fc3a3ef5497ad2a00ee596fd9fed490a400bb3e178"


# -- the row route ----------------------------------------------------------


def _row_by_cells(m, n_max):
    return tuple(decide(m, n).outcome for n in range(1, n_max + 1))


def test_sieve_matches_factorize():
    # the sieve's two smallest primes of each odd part, against trial
    # division; 0 stands for a missing prime
    first, second = criteria._two_smallest_odd_primes(TABLE_M_MAX)
    for m in range(2, TABLE_M_MAX + 1):
        k = m // (m & -m)
        primes = factorize(k).primes
        assert (first[k], second[k]) == (tuple(primes[:2]) + (0, 0))[:2], m


_ROWS_M_MAX = 3000


@functools.cache
def _cells_by_decide():
    return {
        m: _row_by_cells(m, TABLE_N_MAX) for m in range(2, _ROWS_M_MAX + 1) if m % 4
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(2, _ROWS_M_MAX), st.integers(1, TABLE_N_MAX))
@example(2, 1)
@example(3, 1)
@example(2, 16)
@example(6, 3)
@example(_ROWS_M_MAX, TABLE_N_MAX)
def test_outcome_rows_match_cells(m_max, n_max):
    cells = _cells_by_decide()
    expected = [(m, row[:n_max]) for m, row in cells.items() if m <= m_max]
    assert outcome_rows(m_max, n_max) == expected


def test_outcome_rows_match_rule_per_prime_pair():
    # the oracle runs _rule once per distinct (m even, p, q), p and q from
    # trial division, where outcome_rows shares a row among the m of one
    # parity (and one p, for even m) whose p + q and 3p + q fall between
    # the same powers of 2
    ns = range(1, TABLE_N_MAX + 1)
    by_primes = {}
    expected = []
    for m in range(2, TABLE_M_MAX + 1):
        if m % 4 == 0:
            continue
        even = m % 2 == 0
        primes = factorize(m // 2 if even else m).primes
        p, q = (primes + (None, None))[:2]
        key = (m == 2, even, p, q)
        if key not in by_primes:
            by_primes[key] = tuple(
                criteria._OUTCOME[criteria._class_step(m, n) or criteria._rule(even, p, q, n)]
                for n in ns
            )
        expected.append((m, by_primes[key]))
    assert outcome_rows(TABLE_M_MAX, TABLE_N_MAX) == expected


def test_mersenne_escape_cells():
    # 8191 = 2^13 - 1 and 131071 = 2^17 - 1 dodge the 2^(n-3) window at
    # n = 15 and n = 19, with p = 7 mod 8, as 31 does at n = 7; all three
    # m lie past the table's caps, so the cells go through decide
    for m, n in [(2 * 8191, 15), (2 * 8191**2, 15), (2 * 131071, 19)]:
        row = _row_by_cells(m, n + 2)
        assert row[n - 1] == UNKNOWN
        assert decide(m, n).residual == (m, n)
        # two below, 4p > 2^(n-2); two above, the window has passed and
        # p = 7 mod 8 leaves the cell open
        assert row[n - 3] == NONEXISTENT
        assert row[n + 1] == UNKNOWN


# -- pipeline invariants ----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 500), st.integers(1, 12))
def test_pipeline_invariants(m, n):
    v = decide(m, n)
    assert v.outcome in (EXISTS, NONEXISTENT, UNKNOWN)
    assert all(s.id in CRITERION_IDS for s in v.trace)
    assert (v.residual is not None) == (v.outcome == UNKNOWN)
    if v.residual is not None:
        rm, rn = v.residual
        assert rn == n
        assert m % rm == 0
        assert rm > 1
        # the residual is fully reduced: deciding it again strips nothing
        again = decide(rm, rn)
        assert again.outcome == UNKNOWN
        assert again.residual == (rm, rn)
        assert again.trace == ()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 500))
def test_small_dimensions_settle(m):
    # n <= 2 always resolves: the one existence family is 4 | m or both even
    for n in (1, 2):
        v = decide(m, n)
        if m % 4 == 0 or (m % 2 == 0 and n % 2 == 0):
            assert v.outcome == EXISTS
        else:
            assert v.outcome == NONEXISTENT

