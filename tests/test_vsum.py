"""Vanishing-sum analysis: minimality, exponents, decompositions."""

import random
from itertools import combinations, product
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbfkit import vsum
from gbfkit.ring import (
    CharacterSpec,
    CyclicRingElt,
    character_value_is_zero,
    factorize,
    punctured_subgroup_sum,
    subgroup_sum,
)
from gbfkit.vsum import (
    MinimalDecomposition,
    MinimalVsum,
    c_exponent,
    enumerate_minimal_vsums,
    exponent,
    is_minimal_vsum,
    is_vsum,
    minimal_norm_lower_bound,
    reduced_exponent,
    structure_decompose,
)


def elt(m, pairs):
    coeffs = [0] * m
    for i, c in pairs.items():
        coeffs[i % m] += c
    return CyclicRingElt(m, tuple(coeffs))


def full_sum(m):
    return CyclicRingElt(m, (1,) * m)


def composite_mini_30():
    # P_2^* P_3^* + P_5^*: the norm-6 minimal v-sum of C_30 that is not a coset
    p2s = punctured_subgroup_sum(30, 2)
    p3s = punctured_subgroup_sum(30, 3)
    return p2s * p3s + punctured_subgroup_sum(30, 5)


def random_vsum(rng, m, max_parts=3):
    """Sum of random shifted subgroup cosets; always a v-sum."""
    primes = [p for p in (2, 3, 5, 7) if m % p == 0]
    out = CyclicRingElt.zero(m)
    for _ in range(rng.randint(1, max_parts)):
        p = rng.choice(primes)
        out = out + subgroup_sum(m, p).shift(rng.randrange(m))
    return out


# ---------------------------------------------------------------------------
# membership


def test_is_vsum_examples():
    assert is_vsum(subgroup_sum(10, 2).shift(3))
    assert not is_vsum(elt(10, {i: 1 for i in range(1, 10)}))
    assert is_vsum(subgroup_sum(15, 3) + subgroup_sum(15, 5))
    assert is_vsum(CyclicRingElt.zero(12))


def test_is_vsum_rejects_negative():
    with pytest.raises(ValueError):
        is_vsum(elt(6, {0: -1, 3: 1}))


# ---------------------------------------------------------------------------
# exponents


def test_exponent_examples():
    shifted = subgroup_sum(15, 5).shift(5)
    assert exponent(shifted) == 15
    assert reduced_exponent(shifted) == 5
    p2g = subgroup_sum(10, 2).shift(1)
    assert exponent(p2g) == 10
    assert reduced_exponent(p2g) == 2


def test_exponent_shift_changes_only_plain_exponent():
    rng = random.Random(2)
    for _ in range(30):
        m = rng.choice([10, 15, 30])
        d = random_vsum(rng, m)
        k = reduced_exponent(d)
        for j in (1, m // 2, m - 1):
            assert reduced_exponent(d.shift(j)) == k


def test_exponent_zero_rejected():
    with pytest.raises(ValueError):
        exponent(CyclicRingElt.zero(6))
    with pytest.raises(ValueError):
        reduced_exponent(CyclicRingElt.zero(6))


# ---------------------------------------------------------------------------
# minimality


def test_minimal_examples():
    assert is_minimal_vsum(subgroup_sum(10, 2).shift(7))
    assert not is_minimal_vsum(subgroup_sum(6, 2) + subgroup_sum(6, 3))
    assert is_minimal_vsum(composite_mini_30())


def test_minimal_rejects_non_vsum_and_zero():
    with pytest.raises(ValueError):
        is_minimal_vsum(elt(10, {0: 1}))
    with pytest.raises(ValueError):
        is_minimal_vsum(CyclicRingElt.zero(10))


def test_minimal_matches_brute_force_subsets():
    # independent check on multiplicity-free examples: scan all proper
    # nonempty support subsets for a vanishing one
    cases = [
        subgroup_sum(10, 5),
        subgroup_sum(30, 2) + subgroup_sum(30, 3).shift(1),
        composite_mini_30(),
        subgroup_sum(30, 3).shift(4),
        full_sum(6),
    ]
    for d in cases:
        supp = d.support()
        assert all(c == 1 for c in (d.coeffs[i] for i in supp))
        brute = True
        for size in range(1, len(supp)):
            for sub in combinations(supp, size):
                cand = elt(d.m, {i: 1 for i in sub})
                if character_value_is_zero(cand, CharacterSpec(d.m, d.m)):
                    brute = False
                    break
            if not brute:
                break
        assert is_minimal_vsum(d) == brute, d


def test_minimal_norm_lower_bound_values():
    assert minimal_norm_lower_bound(30) == 6
    assert minimal_norm_lower_bound(7) == 7
    assert minimal_norm_lower_bound(105) == 14
    assert minimal_norm_lower_bound(2) == 2
    assert minimal_norm_lower_bound(6) == 3
    with pytest.raises(ValueError):
        minimal_norm_lower_bound(12)


# ---------------------------------------------------------------------------
# c-exponent


def test_c_exponent_full_sum_c10():
    k, decomp = c_exponent(full_sum(10))
    assert k == 2
    assert decomp.lcm_exponent == 2
    assert len(decomp.parts) == 5
    assert all(p.reduced_exponent == 2 for p in decomp.parts)
    assert decomp.total() == full_sum(10)


def test_c_exponent_examples():
    k, _ = c_exponent(subgroup_sum(15, 3).shift(2))
    assert k == 3
    k, decomp = c_exponent(composite_mini_30())
    assert k == 30
    assert len(decomp.parts) == 1


def test_c_exponent_prime_coset_is_prime():
    for m, p, j in [(10, 2, 3), (15, 5, 7), (30, 3, 11), (14, 7, 2)]:
        k, decomp = c_exponent(subgroup_sum(m, p).shift(j))
        assert k == p
        assert [q.elt for q in decomp.parts] == [subgroup_sum(m, p).shift(j)]


def test_c_exponent_minimizes_over_decompositions():
    # P_2 + P_2 g: decomposes into two shifted order-2 cosets, so the
    # c-exponent stays 2 even though a wilder cover might mix in P_5
    d = subgroup_sum(10, 2) + subgroup_sum(10, 2).shift(1)
    k, decomp = c_exponent(d)
    assert k == 2 and len(decomp.parts) == 2


def test_c_exponent_errors():
    with pytest.raises(ValueError):
        c_exponent(elt(10, {0: 1}))
    with pytest.raises(ValueError):
        c_exponent(CyclicRingElt.zero(10))
    with pytest.raises(ValueError):
        c_exponent(full_sum(30), max_norm=16)


def test_c_exponent_deterministic_and_json_roundtrip():
    k1, d1 = c_exponent(full_sum(10))
    k2, d2 = c_exponent(full_sum(10))
    assert (k1, d1) == (k2, d2)
    assert MinimalDecomposition.from_json(d1.to_json()) == d1


def test_every_vsum_decomposes():
    rng = random.Random(9)
    for _ in range(25):
        m = rng.choice([6, 10, 12, 15, 30])
        d = random_vsum(rng, m)
        if d.norm > 16:
            continue
        k, decomp = c_exponent(d)
        assert decomp.total() == d
        assert all(is_minimal_vsum(p.elt) for p in decomp.parts)
        assert lcm(*(p.reduced_exponent for p in decomp.parts)) == k


# ---------------------------------------------------------------------------
# minimal parts under an element, against test-local oracles

TWO_PRIME_MODULI = [4, 8, 9, 6, 10, 12, 14, 15, 18, 20, 21]
THREE_PRIME_MODULI = [30, 42, 70, 105]


def _parts(m, coeff_tuples):
    return [MinimalVsum(CyclicRingElt(m, c), reduced_exponent(CyclicRingElt(m, c)))
            for c in sorted(coeff_tuples)]


def coset_parts(d):
    """For m = p^a q^b every v-sum is a nonnegative combination of
    shifted P_p and P_q (de Bruijn 1953; Lam and Leung 2000), so the
    minimal ones under d are the prime-order cosets that fit under d."""
    m = d.m
    return _parts(m, {
        subgroup_sum(m, p).shift(j).coeffs
        for p in factorize(m).primes
        for j in range(m // p)
        if all(d.coeffs[i] >= 1 for i in range(j, m, m // p))
    })


def box_scan_vsums(d):
    """Every nonzero v-sum B <= d, by a zero-test of each B."""
    spec = CharacterSpec(d.m, d.m)
    return [
        b for b in product(*(range(c + 1) for c in d.coeffs))
        if any(b) and character_value_is_zero(CyclicRingElt(d.m, b), spec)
    ]


def box_scan_parts(d):
    """The v-sums B <= d that lie above no other one."""
    vanishing = box_scan_vsums(d)
    return _parts(d.m, [
        b for b in vanishing
        if not any(c != b and all(x <= y for x, y in zip(c, b)) for c in vanishing)
    ])


@st.composite
def coset_sums(draw, moduli, max_norm, composites=False):
    """Nonnegative combinations of shifted prime-order cosets (and, with
    composites, shifted P_p1^* P_p2^* + P_p3^*), with norm <= max_norm."""
    m = draw(st.sampled_from(moduli))
    primes = factorize(m).primes
    pieces = [subgroup_sum(m, p) for p in primes]
    if composites:
        p1, p2, p3 = primes
        pieces.append(punctured_subgroup_sum(m, p1) * punctured_subgroup_sum(m, p2)
                      + punctured_subgroup_sum(m, p3))
    terms = draw(
        st.lists(st.tuples(st.sampled_from(pieces), st.integers(0, m - 1)), min_size=1, max_size=8)
    )
    out = CyclicRingElt.zero(m)
    for piece, j in terms:
        if out.norm + piece.norm <= max_norm:
            out = out + piece.shift(j)
    return out


def check_against(oracle, d):
    parts = vsum._minimal_parts_within(d)
    assert parts == oracle(d)
    for part in parts:
        assert is_vsum(part.elt) and is_minimal_vsum(part.elt)
    if d:
        got = c_exponent(d)
        with mock.patch.object(vsum, "_minimal_parts_within", oracle):
            assert c_exponent(d) == got


@settings(max_examples=50, deadline=None)
@given(coset_sums(TWO_PRIME_MODULI, 16))
def test_parts_match_coset_listing(d):
    check_against(coset_parts, d)


@settings(max_examples=30, deadline=None)
@given(
    coset_sums(THREE_PRIME_MODULI, 12, composites=True),
    st.lists(st.integers(0, 104), max_size=3),
)
def test_parts_match_box_scan(d, extra):
    # extra monomials make boxes that are not v-sums themselves
    coeffs = list(d.coeffs)
    for i in extra:
        if sum(coeffs) < 12:
            coeffs[i % d.m] += 1
    box = CyclicRingElt(d.m, tuple(coeffs))
    vanishing = box_scan_vsums(box)
    for budget in (8, box.norm):
        got = list(vsum._vsums_under(box.coeffs, budget))
        assert sorted(got) == sorted(b for b in vanishing if sum(b) <= budget)
    assert vsum._minimal_parts_within(box) == box_scan_parts(box)
    check_against(box_scan_parts, d)


def test_c_exponent_full_sum_c30():
    # 2^30 sub-elements under P_30, 146854 of them v-sums
    k, decomp = c_exponent(full_sum(30), max_norm=30)
    assert k == 2
    assert len(decomp.parts) == 15
    assert {p.elt.coeffs for p in decomp.parts} == coset_shifts(30, 2)


def test_full_sums_of_three_primes_are_not_minimal():
    assert not is_minimal_vsum(full_sum(70))
    assert not is_minimal_vsum(full_sum(105))


def test_oversized_fibers_refused():
    # P_210 splits into C_7 x C_30 fibers with 2^30 sub-elements each
    with pytest.raises(ValueError, match="sub-elements"):
        is_minimal_vsum(full_sum(210))
    # the largest census the guards admit stays under the cap
    assert len(enumerate_minimal_vsums(vsum.MAX_ENUM_MODULUS, vsum.MAX_ENUM_NORM)) == 362


@pytest.mark.parametrize(
    "d",
    [
        subgroup_sum(3072, 2).shift(5),
        subgroup_sum(3072, 16).shift(7),
        (subgroup_sum(3072, 4) + subgroup_sum(3072, 2).shift(3)).shift(1),
    ],
    ids=["P_2", "P_16", "in_C_1024"],
)
def test_wide_moduli_match_coset_listing(d):
    # m = 3 * 2^10 with small supports: the walk runs in the smallest
    # subgroup coset holding the support, of order 2, 16 and 1024
    check_against(coset_parts, d)
    assert is_minimal_vsum(d) == (d.norm == 2)
    assert [p for p, _ in structure_decompose(d)] == [2]


def test_coset_listing_wide_case():
    k, decomp = c_exponent(full_sum(12).scale(2), max_norm=32)
    assert k == 2
    assert len(decomp.parts) == 12
    assert decomp.total() == full_sum(12).scale(2)
    with pytest.raises(ValueError):
        c_exponent(full_sum(18))


# ---------------------------------------------------------------------------
# structure peeling


def test_structure_full_sum_c10():
    out = structure_decompose(full_sum(10))
    assert out == [(2, CyclicRingElt.from_coeffs(10, [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]))]


def test_structure_examples():
    assert structure_decompose(subgroup_sum(15, 3).shift(2)) == [
        (3, CyclicRingElt.monomial(15, 2))
    ]
    d = subgroup_sum(10, 2) + subgroup_sum(10, 5).shift(1)
    assert structure_decompose(d) == [
        (2, CyclicRingElt.monomial(10, 0)),
        (5, CyclicRingElt.monomial(10, 1)),
    ]


def test_structure_remultiplies_on_random_vsums():
    rng = random.Random(21)
    for _ in range(20):
        m = rng.choice([10, 15, 30])
        d = random_vsum(rng, m)
        if d.norm > 16:
            continue
        out = structure_decompose(d)
        total = CyclicRingElt.zero(m)
        for p, e in out:
            total = total + subgroup_sum(m, p) * e
        assert total == d
        ks, _ = c_exponent(d)
        assert set(p for p, _ in out) <= {q for q in (2, 3, 5, 7) if ks % q == 0}


def test_structure_composite_minimal():
    out = structure_decompose(composite_mini_30())
    total = CyclicRingElt.zero(30)
    for p, e in out:
        total = total + subgroup_sum(30, p) * e
    assert total == composite_mini_30()
    assert [p for p, _ in out] == [2, 3, 5]


# ---------------------------------------------------------------------------
# exhaustive enumeration


def coset_shifts(m, p):
    seen = set()
    for j in range(m):
        seen.add(subgroup_sum(m, p).shift(j).coeffs)
    return seen


def test_enumerate_c6_norm3():
    got = {v.elt.coeffs for v in enumerate_minimal_vsums(6, 3)}
    assert got == coset_shifts(6, 2) | coset_shifts(6, 3)


def test_enumerate_c30_norm5_only_prime_cosets():
    got = enumerate_minimal_vsums(30, 5)
    expected = coset_shifts(30, 2) | coset_shifts(30, 3) | coset_shifts(30, 5)
    assert {v.elt.coeffs for v in got} == expected
    assert len(got) == 15 + 10 + 6
    for v in got:
        assert v.reduced_exponent in (2, 3, 5)


def test_enumerate_c30_norm6_adds_composite_shifts():
    got = enumerate_minimal_vsums(30, 6)
    prime = coset_shifts(30, 2) | coset_shifts(30, 3) | coset_shifts(30, 5)
    comp = {composite_mini_30().shift(j).coeffs for j in range(30)}
    assert len(comp) == 30
    assert {v.elt.coeffs for v in got} == prime | comp
    for v in got:
        if v.elt.coeffs in comp:
            assert v.reduced_exponent == 30
            assert v.elt.norm == minimal_norm_lower_bound(30)


def test_enumerate_sorted_and_unique():
    got = enumerate_minimal_vsums(30, 6)
    keys = [v.elt.coeffs for v in got]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_enumerate_guards(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_minimal_vsums(61, 4)
    with pytest.raises(ValueError):
        enumerate_minimal_vsums(30, 9)
    monkeypatch.setattr(vsum, "MAX_ENUM_MODULUS", 61)
    assert enumerate_minimal_vsums(61, 4) is not None


def test_enumerate_norm_bounds_hold():
    # lower bound certified on everything the enumerator finds
    for m in (10, 30):
        for v in enumerate_minimal_vsums(m, 6):
            assert v.elt.norm >= minimal_norm_lower_bound(v.reduced_exponent)


def test_enumerate_no_two_prime_reduced_exponents():
    # reduced exponents of minimal v-sums never have exactly two distinct
    # prime factors (checked at desk scale rather than assumed)
    for m in (30, 42):
        for v in enumerate_minimal_vsums(m, 8):
            n_primes = len([p for p in (2, 3, 5, 7) if v.reduced_exponent % p == 0])
            assert n_primes != 2, (m, v)


def test_enumerate_support_sits_in_one_coset():
    for v in enumerate_minimal_vsums(30, 6):
        m, k = v.elt.m, v.reduced_exponent
        supp = v.elt.support()
        j = supp[0]
        assert all((i - j) % (m // k) == 0 for i in supp)
