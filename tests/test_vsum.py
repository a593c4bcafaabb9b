"""Vanishing-sum analysis: minimality, exponents, decompositions."""

import hashlib
import random
import time
from collections import Counter
from itertools import combinations, product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbfkit import vsum
from gbfkit.ring import (
    CharacterSpec,
    CyclicRingElt,
    character_value_is_zero,
    cyclotomic_residue,
    factorize,
    punctured_subgroup_sum,
    subgroup_sum,
)
from gbfkit.vsum import (
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


def total(decomp):
    """The sum of a decomposition's parts."""
    return sum((p.elt for p in decomp.parts[1:]), decomp.parts[0].elt)


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
    assert total(decomp) == full_sum(10)


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


def test_c_exponent_cover_of_many_parts():
    # 1000 copies of P_2: the peel finds the one minimal part and
    # subtracts it 1000 times
    k, decomp = c_exponent(CyclicRingElt(2, (1000, 1000)), max_norm=2000)
    assert k == 2
    assert len(decomp.parts) == 1000
    assert total(decomp) == CyclicRingElt(2, (1000, 1000))


def test_c_exponent_deterministic_and_json_roundtrip():
    k1, d1 = c_exponent(full_sum(10))
    k2, d2 = c_exponent(full_sum(10))
    assert (k1, d1) == (k2, d2)
    # the five cosets g^i + g^(i+5) of the order-2 subgroup
    assert d1.to_json() == {
        "parts": [
            {"elt": {"m": 10, "coeffs": [int(j % 5 == i) for j in range(10)]}, "k": 2}
            for i in (4, 3, 2, 1, 0)
        ],
        "lcm": 2,
    }


def check_witness(d, k, decomp):
    """The witness sums to d, in minimal parts listed in coefficient
    order, each inside one coset of the order-k subgroup, with lcm k."""
    assert total(decomp) == d
    assert decomp.lcm_exponent == k
    assert lcm(*(p.reduced_exponent for p in decomp.parts)) == k
    keys = [p.elt.coeffs for p in decomp.parts]
    assert keys == sorted(keys)
    for p in decomp.parts:
        assert is_minimal_vsum(p.elt)
        supp = p.elt.support()
        assert all((i - supp[0]) % (d.m // k) == 0 for i in supp)


def test_every_vsum_decomposes():
    rng = random.Random(9)
    for _ in range(25):
        m = rng.choice([6, 10, 12, 15, 30])
        d = random_vsum(rng, m)
        if d.norm > 16:
            continue
        k, decomp = c_exponent(d)
        check_witness(d, k, decomp)


# ---------------------------------------------------------------------------
# minimal parts under an element, against test-local oracles

TWO_PRIME_MODULI = [4, 8, 9, 6, 10, 12, 14, 15, 18, 20, 21]
THREE_PRIME_MODULI = [30, 42, 70, 105]


def coset_parts(d):
    """For m = p^a q^b every v-sum is a nonnegative combination of
    shifted P_p and P_q (de Bruijn 1953; Lam and Leung 2000), so the
    minimal ones under d are the prime-order cosets that fit under d."""
    m = d.m
    return sorted({
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
    return sorted(
        b for b in vanishing
        if not any(c != b and all(x <= y for x, y in zip(c, b)) for c in vanishing)
    )


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


def minimal_under(box):
    """The minimal v-sums below box, by the package's enumerator."""
    return vsum._minimal_among(list(vsum._vsums_under(box.coeffs, box.norm)))


def exact_cover(total, parts):
    """First non-decreasing multiset of parts summing to total, or None.

    Depth-first with an explicit stack of [residual, start, next index]
    frames; frame k + 1 was entered through part next index - 1 of frame
    k.  A (residual, start) pair found to have no cover is remembered.
    """
    vecs = [p.elt.coeffs for p in parts]
    dead = set()
    stack = [[total, 0, 0]]
    while stack:
        frame = stack[-1]
        residual, start, idx = frame
        if not any(residual):
            return [parts[f[2] - 1] for f in stack[:-1]]
        while idx < len(vecs) and not all(x <= r for x, r in zip(vecs[idx], residual)):
            idx += 1
        if idx == len(vecs):
            dead.add((residual, start))
            stack.pop()
            continue
        frame[2] = idx + 1
        rest = tuple(r - x for r, x in zip(residual, vecs[idx]))
        if (rest, idx) not in dead:
            stack.append([rest, idx, idx])
    return None


def cover_c_exponent(d, minimal):
    """The c-exponent of d by exact cover: the least lcm of reduced
    exponents of the minimal v-sums below d for which the parts of
    reduced exponent dividing it cover d exactly."""
    parts = [MinimalVsum(CyclicRingElt(d.m, c), reduced_exponent(CyclicRingElt(d.m, c)))
             for c in minimal]
    targets = {1}
    for k in sorted({p.reduced_exponent for p in parts}):
        targets |= {lcm(k, t) for t in targets}
    for target in sorted(targets):
        usable = [p for p in parts if target % p.reduced_exponent == 0]
        if usable and exact_cover(d.coeffs, usable) is not None:
            return target
    raise AssertionError("no cover")


def check_against(oracle, d):
    minimal = oracle(d)
    assert minimal_under(d) == minimal
    for b in minimal:
        part = CyclicRingElt(d.m, b)
        assert is_vsum(part) and is_minimal_vsum(part)
    if d:
        k, decomp = c_exponent(d)
        assert k == cover_c_exponent(d, minimal)
        check_witness(d, k, decomp)


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
    assert minimal_under(box) == box_scan_parts(box)
    check_against(box_scan_parts, d)


def sequence_digest(seq):
    return hashlib.sha256(repr(seq).encode()).hexdigest()


# the fibers of C_30 = C_5 x C_6 are the residues of j mod 5
HOLED_30 = tuple(0 if j % 5 == 4 else 2 for j in range(30))
ODD_60 = tuple(3 if j % 2 else 0 for j in range(60))
SPARSE_30 = tuple(1 if j % 5 in (0, 3, 4) and j < 27 else 0 for j in range(30))

# (box, budget, yields, sha256 of the repr of the yield list), recorded
# from the explicit-stack walk that filled each v-sum cell by cell
PINNED_SEQUENCES = [
    ((8,) * 30, 8, 6761, "8dee1fe8a10b4dffd7efd8a6aa95738a629681b3a6d656829d654212f85a47a5"),
    ((5,) * 60, 5, 1127, "f8b8e455d1569e03bf0ab8fc8ad2d1b239a2324834a289528f3d79bc1f01862f"),
    ((6,) * 42, 6, 2429, "2a113f3f8646cca29bf696eff594b82d1e7b2151d0d1e1327df6d560412163a8"),
    ((7,) * 30, 7, 2411, "70b83cc2ea91f32c1096b8e1e6de35989ced4b4fb8e1b0a267d6ddf313ee28b7"),
    ((7,) * 30, 6, 1061, "1fcf597850cf0a452e2886d369fac95e5021184ec00e47c8bc9e4234d283f325"),
    # a whole fiber outside the box
    (HOLED_30, 8, 2759, "2dcf3c3a0201385c7c3d2705fd8110a9223fe8fe3f7fe75d2f2c4530d1fc2909"),
    # support in the coset 1 + 2Z, so the walk runs in C_30
    (ODD_60, 6, 1061, "aed697b1fb61140c0a725aaa830757c5c9ef3223b5529b92144e7d5f897f5b46"),
    (SPARSE_30, 7, 122, "9a9f6af8746d7f2bb5d2ef6f786b974a2c75cee85752ad80ee187b1afe372ab2"),
    (SPARSE_30, 6, 90, "897a7aeeea8071a757ca3085c83505cd4b103861f7970645f865c6c4afd0a5d6"),
]


@pytest.mark.parametrize(
    "box, budget, count, digest",
    PINNED_SEQUENCES,
    ids=["c30_8", "c60_5", "c42_6", "c30_7", "c30_7_at_6", "holed_30", "odd_60",
         "sparse_30", "sparse_30_at_6"],
)
def test_yield_order_is_pinned(box, budget, count, digest):
    # the census, the peel and the minimality test take the first v-sums
    # the walk yields, so the order is part of the contract
    seq = list(vsum._vsums_under(box, budget))
    assert len(seq) == count
    assert sequence_digest(seq) == digest


def test_last_level_keeps_the_norm_cut():
    # the last fiber's list runs past the slack at these budgets, 34 and
    # 32 times under SPARSE_30 and over 600 times under (7,) * 30
    vanishing = box_scan_vsums(CyclicRingElt(30, SPARSE_30))
    for budget in (7, 6):
        got = list(vsum._vsums_under(SPARSE_30, budget))
        assert sorted(got) == sorted(b for b in vanishing if sum(b) <= budget)
    # lowering the budget only drops the v-sums past it, in order
    wide = list(vsum._vsums_under((7,) * 30, 7))
    assert list(vsum._vsums_under((7,) * 30, 6)) == [b for b in wide if sum(b) <= 6]


def test_c_exponent_full_sum_c30():
    # every order-2 coset of P_30 vanishes, so the 146854 v-sums under
    # P_30 are never listed
    k, decomp = c_exponent(full_sum(30), max_norm=30)
    assert k == 2
    assert len(decomp.parts) == 15
    assert {p.elt.coeffs for p in decomp.parts} == coset_shifts(30, 2)


def test_c_exponent_full_sum_c210():
    # the fibers of P_210 are refused by _vsums_under, but its order-2
    # cosets are peeled one at a time
    d = full_sum(210)
    k, decomp = c_exponent(d, max_norm=210)
    assert k == 2
    assert len(decomp.parts) == 105
    check_witness(d, k, decomp)


def test_full_sums_of_three_primes_are_not_minimal():
    assert not is_minimal_vsum(full_sum(70))
    assert not is_minimal_vsum(full_sum(105))
    # the coset scan answers P_210 without listing its fibers
    start = time.perf_counter()
    assert is_minimal_vsum(full_sum(210)) is False
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("m", [30, 42, 60, 70])
def test_coset_scan_agrees_with_enumerator(m):
    # the scan may only answer False where the enumerator finds a proper
    # sub-v-sum; minimal pieces and their sums both occur here
    rng = random.Random(m)
    cases = [random_vsum(rng, m) for _ in range(40)]
    cases += [composite_mini_30()] if m == 30 else []
    for d in cases:
        by_enumerator = next(vsum._vsums_under(d.coeffs, d.norm - 1), None) is None
        assert is_minimal_vsum(d) == by_enumerator, d


def test_oversized_fibers_refused(monkeypatch):
    # the largest census the guards admit stays under the cap
    assert len(enumerate_minimal_vsums(vsum.MAX_ENUM_MODULUS, vsum.MAX_ENUM_NORM)) == 362
    # P_210 splits into C_7 x C_30 fibers with 2^30 sub-elements each,
    # refused by their count before any is listed
    def listed(bound, budget):
        raise AssertionError("sub-elements listed before the refusal")

    monkeypatch.setattr(vsum, "_sub_elements", listed)
    with pytest.raises(ValueError, match="sub-elements"):
        next(vsum._vsums_under(full_sum(210).coeffs, 209))
    # the counter reads the same grouped fibers, and refuses alike
    with pytest.raises(ValueError, match="sub-elements"):
        vsum._vsum_counts(full_sum(210).coeffs, 209)


def check_counts(box):
    # the counter against the walk's histogram at every budget up to 8
    for budget in range(9):
        norms = Counter(sum(c) for c in vsum._vsums_under(box, budget))
        assert vsum._vsum_counts(box, budget) == [norms[n] for n in range(budget + 1)]


@st.composite
def sparse_boxes(draw, moduli):
    m = draw(moduli)
    return tuple(draw(st.lists(st.sampled_from((0, 0, 0, 1, 2, 3)), min_size=m, max_size=m)))


@settings(max_examples=40, deadline=None)
# 18, 36, 50 and 54 split into 3, 3, 5 and 9 classes
@given(sparse_boxes(st.sampled_from([18, 36, 50, 54]) | st.integers(1, 60)))
def test_counts_match_walk(box):
    check_counts(box)


@settings(max_examples=25, deadline=None)
@given(sparse_boxes(st.integers(1, 20)), st.integers(2, 6), st.data())
def test_counts_match_walk_in_a_coset(sub, d, data):
    # the support in one coset of the subgroup of order m/d, d > 1
    j0 = data.draw(st.integers(0, d - 1))
    box = [0] * (len(sub) * d)
    box[j0::d] = sub
    check_counts(tuple(box))


def test_counts_of_empty_boxes():
    # the all-zero box and m = 1 hold no nonzero v-sum
    check_counts((0,) * 30)
    check_counts((5,))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=7), st.integers(0, 12))
def test_sub_element_count_is_exact(bound, cut):
    bound = tuple(bound)
    assert vsum._count_within(bound, cut) == sum(1 for _ in vsum._sub_elements(bound, cut))


def test_zero_value_list_is_charged(monkeypatch):
    # the fibers of (8,) * 30 are C_6 boxes (8,) * 6: their nonzero values
    # are grouped within norm 4, and the zero value's v-sums of C_6 up
    # to norm 8 come from the recursion, on top of those words
    bound, betas = (8,) * 6, tuple(range(6))
    args = (6, betas, bound, 8, 4)
    groups, used = vsum._grouped_by_value(*args, True, vsum.MAX_FIBER_WORDS)
    census_groups, census_used = vsum._grouped_by_value(*args, False, vsum.MAX_FIBER_WORDS)
    zero = (0,) * 2
    assert max(n for n, _ in groups[zero]) == 8
    assert max(n for key, lst in groups.items() if key != zero for n, _ in lst) == 4
    assert census_groups[zero] == [(0, (0,) * 6)]
    assert used == census_used + len(groups[zero]) * (20 + 6)
    with pytest.raises(ValueError, match="sub-elements"):
        vsum._grouped_by_value(*args, True, used - 1)
    monkeypatch.setattr(vsum, "MAX_FIBER_WORDS", used - 1)
    with pytest.raises(ValueError, match="sub-elements"):
        next(vsum._vsums_under((8,) * 30, 8))
    # the counter reads the same grouped fibers, so it refuses there too
    with pytest.raises(ValueError, match="sub-elements"):
        vsum._vsum_counts((8,) * 30, 8)
    monkeypatch.setattr(vsum, "MAX_FIBER_WORDS", used)
    assert next(vsum._vsums_under((8,) * 30, 8)) is not None
    assert sum(vsum._vsum_counts((8,) * 30, 8)) == 6761


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
    assert total(decomp) == full_sum(12).scale(2)
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
    # an empty box (norm 0) and N[C_1] hold no nonzero v-sum
    assert enumerate_minimal_vsums(6, 0) == []
    assert enumerate_minimal_vsums(1, 8) == []


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


def census_by_full_walk(m, k):
    """The minimal v-sums of norm <= k by the route the census replaced:
    every v-sum under the box (k,) * m, then the minimality filter."""
    return vsum._minimal_among(list(vsum._vsums_under((k,) * m, k)))


def test_census_matches_full_walk():
    # every m <= 60 at norm <= 4 (r = 1 and single classes among them),
    # then sizes with several classes per fiber and larger norms
    for m in range(1, 61):
        oracle = census_by_full_walk(m, 4)
        for k in range(5):
            got = [v.elt.coeffs for v in enumerate_minimal_vsums(m, k)]
            assert got == [b for b in oracle if sum(b) <= k], (m, k)
    for m, k in [(30, 8), (32, 6), (36, 6), (42, 8), (50, 5), (54, 5), (60, 6)]:
        got = [v.elt.coeffs for v in enumerate_minimal_vsums(m, k)]
        assert got == census_by_full_walk(m, k), (m, k)


@pytest.mark.parametrize("m, k", [(60, 8), (36, 6), (42, 8), (32, 6), (16, 8), (7, 8)])
def test_census_candidates(m, k):
    cands = vsum._census_candidates(m, k)
    if (m, k) == (60, 8):
        # the full walk under (8,) * 60 yields 65147 v-sums
        assert len(cands) == 2702
    assert len(set(cands)) == len(cands)
    assert all(0 < sum(b) <= k for b in cands)
    assert not np.count_nonzero(cyclotomic_residue(np.array(cands), m))
    # the split of _vsums_under: fiber alpha holds the cells r*alpha + q*beta
    p, a = factorize(m).factors[-1]
    q, r = p**a, m // p**a
    fibers = np.array([[b[(r * alpha + q * beta) % m] for beta in range(r)]
                       for b in cands for alpha in range(q)]).reshape(len(cands), q, r)
    values = cyclotomic_residue(fibers, r)
    nonzero = fibers.any(axis=2)
    for cls in range(q // p):
        alphas = list(range(cls, q, q // p))
        vanishing = nonzero[:, alphas] & ~values[:, alphas].any(axis=2)
        # a nonzero fiber of value zero is the whole candidate
        lone = vanishing.any(axis=1)
        assert (nonzero[lone].sum(axis=1) == 1).all()
