"""Tests for the (m, n) decision pipeline."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbfkit.criteria import (
    CRITERION_IDS,
    EXISTS,
    NONEXISTENT,
    UNKNOWN,
    CriterionStep,
    Verdict,
    decide,
    i_set_reduction,
    is_mersenne_for,
    strip_primes,
)
from gbfkit.gbf import GbfFunction, compute_autocorr


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
    # 31 = 2^5 - 1 and 127 = 2^7 - 1 dodge the 2^(n-3) window
    v = decide(62, 7)
    assert v.outcome == UNKNOWN
    assert v.residual == (62, 7)
    assert decide(254, 9).outcome == UNKNOWN


def test_is_mersenne_for():
    assert is_mersenne_for(5, 7)
    assert is_mersenne_for(7, 31)
    assert is_mersenne_for(9, 127)
    assert not is_mersenne_for(5, 5)
    assert not is_mersenne_for(3, 1)
    assert not is_mersenne_for(11, 511)
    assert not is_mersenne_for(13, 2047)


def test_strip_primes_direct():
    kept, stripped = strip_primes([3, 31], 5, even_part=False)
    assert (kept, stripped) == ([3], [31])
    # 3 + 31 = 34 = 2^5 + 2 is not over the even-part threshold
    kept, stripped = strip_primes([3, 31], 5, even_part=True)
    assert (kept, stripped) == ([3, 31], [])
    # the smallest prime never strips itself
    kept, stripped = strip_primes([5], 1, even_part=False)
    assert (kept, stripped) == ([5], [])


# -- bad inputs and serialization -------------------------------------------


def test_bad_inputs():
    with pytest.raises(ValueError):
        decide(1, 4)
    with pytest.raises(ValueError):
        decide(6, 0)
    with pytest.raises(ValueError):
        CriterionStep("bogus-id", "nope")


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


# -- autocorrelation diagnostic ---------------------------------------------


def test_i_set_reduction():
    # values {0, 3} in Z_12 only ever use the order-4 part
    fn = GbfFunction.from_values(1, 12, [0, 3])
    removable, reduced = i_set_reduction(compute_autocorr(fn))
    assert removable == [3]
    assert reduced == 4

    fn = GbfFunction.from_values(1, 4, [0, 1])
    removable, reduced = i_set_reduction(compute_autocorr(fn))
    assert removable == []
    assert reduced == 4
