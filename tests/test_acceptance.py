"""End-to-end acceptance battery.

One test per acceptance criterion, so `pytest -v tests/test_acceptance.py`
prints exactly one pass/fail line for each.  Wall-time budgets are
asserted inside the tests; exact checks use no tolerance, numeric
cross-checks use 1e-6.
"""

import json
import random
import time

from gbfkit.cli import main
from gbfkit.criteria import EXISTS, NONEXISTENT, UNKNOWN, decide
from gbfkit.gbf import (
    GbfFunction,
    autocorr_invariants,
    compute_autocorr,
    is_gbf_exact,
    is_gbf_numeric,
    walsh_spectrum_numeric,
)
from gbfkit.ring import (
    CharacterSpec,
    CyclicRingElt,
    character_value_is_zero,
    punctured_subgroup_sum,
    subgroup_sum,
)
from gbfkit.search import STATUS_EXHAUSTED, STATUS_WITNESS, brute_force, n3_catalog_check
from gbfkit.vsum import (
    c_exponent,
    enumerate_minimal_vsums,
    exponent,
    is_minimal_vsum,
    minimal_norm_lower_bound,
    reduced_exponent,
)


def _run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_exhaustive_search_confirms_n3_nonexistence(capsys, monkeypatch):
    monkeypatch.delenv("GBF_STORE", raising=False)
    for m in (3, 5, 6, 7, 9, 10, 11, 13, 15):
        start = time.monotonic()
        rc, out, _ = _run_cli(capsys, ["search", str(m), "3", "--json"])
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"m={m} took {elapsed:.1f}s"
        assert rc == 1
        payload = json.loads(out)["outcome"]
        assert payload["status"] == STATUS_EXHAUSTED
        assert payload["witness"] is None
        assert payload["normalized_space"] == m ** 7
        assert payload["examined"] + payload["pruned"] == m ** 7
        assert decide(m, 3).outcome == NONEXISTENT


def test_search_finds_witnesses_for_divisible_by_four():
    for m, n in ((4, 1), (4, 2), (4, 3), (8, 3)):
        start = time.monotonic()
        outcome = brute_force(m, n)
        assert time.monotonic() - start < 60.0
        assert outcome.status == STATUS_WITNESS
        fn = outcome.witness
        assert is_gbf_exact(fn)
        chi = CharacterSpec(m, m)
        table = compute_autocorr(fn)
        for x in range(1 << n):
            ex = CyclicRingElt(m, tuple(table[x].tolist()))
            assert ex.conj_inverse() == ex
            assert ex.coeffs[0] % 2 == 0
            if x:
                assert character_value_is_zero(ex, chi)
        flat = float(1 << n)
        assert max(abs(v - flat) for v in walsh_spectrum_numeric(fn)) <= 1e-6


def test_boolean_baseline_even_n_only():
    for n, expect in ((1, STATUS_EXHAUSTED), (2, STATUS_WITNESS),
                      (3, STATUS_EXHAUSTED), (4, STATUS_WITNESS)):
        start = time.monotonic()
        outcome = brute_force(2, n)
        assert time.monotonic() - start < 1.0
        assert outcome.status == expect
        if outcome.witness is not None:
            assert is_gbf_exact(outcome.witness)


def test_odd_support_autocorr_identity_random():
    rng = random.Random(47)
    for m, n in ((4, 2), (6, 3), (10, 3)):
        size = 1 << n
        for _ in range(1000):
            fn = GbfFunction.from_values(
                n, m, [rng.randrange(m) for _ in range(size)]
            )
            invariants = autocorr_invariants(fn, compute_autocorr(fn))
            assert invariants["even_m_identity"] is True


def test_worked_exponent_values():
    full = subgroup_sum(10, 10)
    k, decomp = c_exponent(full)
    assert k == 2
    assert decomp.lcm_exponent == 2

    shifted = subgroup_sum(15, 5).shift(5)
    assert reduced_exponent(shifted) == 5
    assert exponent(shifted) == 15

    assert minimal_norm_lower_bound(30) == 6


def test_minimal_vsum_census_modulus_30():
    cosets = set()
    for p in (2, 3, 5):
        period = 30 // p
        for i in range(period):
            cosets.add(subgroup_sum(30, p).shift(i))
    sporadic_base = (
        punctured_subgroup_sum(30, 2) * punctured_subgroup_sum(30, 3)
        + punctured_subgroup_sum(30, 5)
    )
    sporadic = {sporadic_base.shift(i) for i in range(30)}
    assert len(sporadic) == 30
    expected = cosets | sporadic
    assert len(expected) == len(cosets) + 30

    start = time.monotonic()
    found = enumerate_minimal_vsums(30, 6)
    assert time.monotonic() - start < 300.0
    for mv in found:
        assert mv.elt.norm <= 6
        assert is_minimal_vsum(mv.elt)
    assert {mv.elt for mv in found} == expected


def test_autocorr_candidate_catalog_is_complete():
    start = time.monotonic()
    report = n3_catalog_check()
    assert time.monotonic() - start < 600.0
    assert report["mismatches"] == []
    assert report["candidates"] == 42
    assert report["counts"] == {"FormA": 36, "FormB": 2, "FormC": 4, "Form7": 2}
    assert report["form7_vanish_order_42"] is True


def test_criteria_spot_checks_and_table(capsys, monkeypatch):
    monkeypatch.delenv("GBF_STORE", raising=False)
    assert decide(27, 5).outcome == NONEXISTENT
    assert decide(45, 5).outcome == UNKNOWN
    assert decide(10, 5).outcome == NONEXISTENT
    assert decide(14, 5).outcome == UNKNOWN
    # n = 3 settles negatively on the whole in-scope range (4 does not
    # divide m); multiples of 4 settle positively instead.
    for m in range(2, 1001):
        want = EXISTS if m % 4 == 0 else NONEXISTENT
        assert decide(m, 3).outcome == want

    start = time.monotonic()
    rc, out, _ = _run_cli(capsys, ["table", "--m-max", "1000", "--n-max", "9"])
    elapsed = time.monotonic() - start
    assert rc == 0
    assert elapsed < 10.0, f"table took {elapsed:.1f}s"
    lines = out.strip().splitlines()
    assert lines[0].startswith("m,n=1,")
    assert len(lines) == 1 + sum(1 for m in range(2, 1001) if m % 4 != 0)


def test_exact_and_numeric_bent_tests_agree():
    rng = random.Random(90210)
    cases = [
        GbfFunction.from_values(1, 4, (0, 1)),
        GbfFunction.from_values(2, 2, (0, 0, 0, 1)),
        GbfFunction.from_values(2, 4, (0, 0, 0, 2)),
        GbfFunction.from_values(3, 4, (0, 0, 0, 2, 1, 1, 1, 3)),
    ]
    for _ in range(10_000):
        m = rng.randrange(2, 13)
        n = rng.randrange(1, 4)
        cases.append(
            GbfFunction.from_values(n, m, [rng.randrange(m) for _ in range(1 << n)])
        )
    bent = 0
    for fn in cases:
        exact = is_gbf_exact(fn)
        assert exact == is_gbf_numeric(fn)
        bent += exact
    assert bent >= 4
