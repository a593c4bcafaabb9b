"""Group-ring arithmetic and the exact character zero-test."""

import cmath
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbfkit import ring
from gbfkit.ring import (
    MAX_REDUCTION_ENTRIES,
    CharacterSpec,
    CyclicRingElt,
    character_value_is_zero,
    character_values_numeric,
    cyclotomic_polynomial,
    cyclotomic_residue,
    PrimeFactorization,
    factorize,
    punctured_subgroup_sum,
    reduction_matrix,
    reduction_radical,
    subgroup_sum,
)


def elt(m, pairs):
    coeffs = [0] * m
    for i, c in pairs.items():
        coeffs[i % m] = c
    return CyclicRingElt.from_coeffs(m, coeffs)


def random_elt(rng, m, lo=-4, hi=4):
    return CyclicRingElt.from_coeffs(m, [rng.randint(lo, hi) for _ in range(m)])


# ---------------------------------------------------------------------------
# factorization helpers


def test_factorize_basic():
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(1).factors == ()
    assert factorize(97).factors == ((97, 1),)
    assert factorize(30).radical == 30
    assert factorize(12).radical == 6


def test_factorization_fields():
    # m and its (p, a) pairs are all a factorization holds; the rest is read
    assert list(PrimeFactorization.__dataclass_fields__) == ["m", "factors"]
    assert factorize(360).primes == (2, 3, 5)
    assert factorize(1).primes == () and factorize(1).radical == 1
    with pytest.raises(ValueError, match="do not multiply"):
        PrimeFactorization(12, ((2, 1), (3, 1)))


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(105)[7] == -2  # first order with coefficient 2


def test_cyclotomic_product_recovers_xd_minus_1():
    for d in range(1, 121):
        prod = [1]
        for e in range(1, d + 1):
            if d % e == 0:
                phi = cyclotomic_polynomial(e)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expected = [0] * (d + 1)
        expected[0], expected[d] = -1, 1
        assert prod == expected


def test_cyclotomic_root_numeric():
    for d in (5, 8, 30):
        z = cmath.exp(2j * cmath.pi / d)
        val = sum(c * z**k for k, c in enumerate(cyclotomic_polynomial(d)))
        assert abs(val) < 1e-9


# ---------------------------------------------------------------------------
# element construction and multiplication


def test_multiply_subgroup_examples():
    p2 = subgroup_sum(10, 2)
    assert (p2 * p2).coeffs == tuple(2 if i in (0, 5) else 0 for i in range(10))
    five = CyclicRingElt.from_coeffs(10, [1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    assert (p2 * five).coeffs == (1,) * 10


def test_multiply_norm_submultiplicative():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.choice([4, 6, 9, 10, 15])
        a, b = random_elt(rng, m), random_elt(rng, m)
        assert (a * b).norm <= a.norm * b.norm


def test_multiply_overflow_guard():
    big = CyclicRingElt.from_coeffs(2, [2**40, 2**40])
    with pytest.raises(OverflowError):
        big * big


def test_subgroup_sum_indices():
    assert subgroup_sum(30, 5).support() == (0, 6, 12, 18, 24)
    assert subgroup_sum(30, 1).support() == (0,)
    assert punctured_subgroup_sum(42, 7).support() == (6, 12, 18, 24, 30, 36)
    with pytest.raises(ValueError):
        subgroup_sum(10, 4)


def test_shift_and_conj_inverse():
    a = elt(10, {1: 3, 4: -2})
    assert a.shift(3).support() == (4, 7)
    assert a.conj_inverse().coeffs == elt(10, {9: 3, 6: -2}).coeffs
    assert a.conj_inverse().conj_inverse() == a


def test_galois_twist():
    a = elt(5, {0: 1, 2: 1})
    assert a.galois_twist(2).coeffs == elt(5, {0: 1, 4: 1}).coeffs
    with pytest.raises(ValueError):
        elt(10, {1: 1}).galois_twist(5)


@st.composite
def elt_pairs_and_unit(draw):
    """Two elements of one Z[C_m], m <= 42, and a unit t of Z_m."""
    m = draw(st.integers(1, 42))
    coeffs = st.lists(st.integers(-4, 4), min_size=m, max_size=m)
    a, b = (CyclicRingElt(m, tuple(draw(coeffs))) for _ in range(2))
    return a, b, draw(st.sampled_from([t for t in range(1, m + 1) if gcd(t, m) == 1]))


@settings(max_examples=100, deadline=None)
@given(elt_pairs_and_unit())
def test_galois_twist_and_conj_inverse_are_ring_homs(case):
    a, b, t = case
    for hom in (lambda x: x.galois_twist(t), CyclicRingElt.conj_inverse):
        assert hom(a + b) == hom(a) + hom(b)
        assert hom(a * b) == hom(a) * hom(b)


@settings(max_examples=100, deadline=None)
@given(elt_pairs_and_unit())
def test_galois_twist_inverse_roundtrip(case):
    a, _, t = case
    assert a.galois_twist(t).galois_twist(pow(t, -1, a.m)) == a
    assert a.conj_inverse().conj_inverse() == a


# ---------------------------------------------------------------------------
# projections


def test_natural_projection_example():
    p5 = subgroup_sum(30, 5)
    assert p5.natural_projection(6).coeffs == (5, 0, 0, 0, 0, 0)


@settings(max_examples=100, deadline=None)
@given(elt_pairs_and_unit())
def test_natural_projection_is_ring_hom(case):
    a, b, _ = case
    for d in [d for d in range(1, a.m + 1) if a.m % d == 0]:
        assert (a * b).natural_projection(d) == a.natural_projection(d) * b.natural_projection(d)
        assert (a + b).natural_projection(d) == a.natural_projection(d) + b.natural_projection(d)


# ---------------------------------------------------------------------------
# reduction modulo Phi_d


def long_division_residue(coeffs, d):
    """Remainder of sum coeffs[i] x^i by Phi_d, by schoolbook division."""
    phi = cyclotomic_polynomial(d)
    deg = len(phi) - 1
    rem = list(coeffs) + [0] * max(0, deg - len(coeffs))
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        for j, b in enumerate(phi):
            rem[top - deg + j] -= c * b
    return rem[:deg]


def at_primitive_roots(coeffs, d):
    """sum coeffs[i] z^i at every primitive d-th root of unity z."""
    ks = [k for k in range(1, d + 1) if gcd(k, d) == 1]
    powers = np.exp(2j * np.pi * np.outer(ks, np.arange(len(coeffs))) / d)
    return powers @ np.asarray(coeffs, dtype=np.float64)


def test_reduction_matrix_rows_are_powers_of_x():
    for d in (1, 2, 7, 12, 30, 105):
        deg = len(cyclotomic_polynomial(d)) - 1
        tail = reduction_matrix(d)
        assert tail.shape == (d - deg, deg)
        assert not tail.flags.writeable
        for i in range(deg, d):
            assert tail[i - deg].tolist() == long_division_residue([0] * i + [1], d)
    assert reduction_matrix(7).tolist() == [[-1] * 6]


def test_reduction_cap(monkeypatch):
    # the stored rows number (r - phi(r)) * phi(r) for the radical r
    for d in (1, 2, 7, 30, 105, 210):
        deg = len(cyclotomic_polynomial(d)) - 1
        assert reduction_matrix(d).size == (d - deg) * deg <= MAX_REDUCTION_ENTRIES
    # every squarefree order below 4106 = 2 * 2053 fits under the cap
    for r in range(1, 4106):
        if factorize(r).radical == r:
            assert reduction_radical(r) == r
    assert reduction_radical(9973) == 9973  # a prime stores one row
    assert reduction_radical(2**10 * 3**4) == 6  # only the radical counts

    def no_build(d):
        raise AssertionError(f"R_{d} was built for a refused order")

    monkeypatch.setattr(ring, "reduction_matrix", no_build)
    for d in (4106, 30026, 2 * 30026, 30030):
        with pytest.raises(ValueError, match="over the cap"):
            reduction_radical(d)
        with pytest.raises(ValueError, match="over the cap"):
            cyclotomic_residue([1] + [0] * (d - 1), d)


@st.composite
def orders_and_coeffs(draw):
    d = draw(st.integers(1, 210))
    return d, draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))


@settings(max_examples=100, deadline=None)
@given(orders_and_coeffs())
@example((105, [1] * 105))
@example((105, [0] * 7 + [1] + [0] * 97))
def test_residue_agrees_with_numeric_evaluation(case):
    d, coeffs = case
    rem = cyclotomic_residue(coeffs, d).tolist()
    assert len(rem) == len(cyclotomic_polynomial(d)) - 1
    # coeffs - rem vanishes at every primitive d-th root, so Phi_d divides it
    scale = 1 + sum(map(abs, coeffs)) + sum(map(abs, rem))
    gap = at_primitive_roots(coeffs, d) - at_primitive_roots(rem, d)
    assert np.abs(gap).max() < 1e-9 * scale


@st.composite
def vanishing_or_perturbed(draw):
    """Integer combinations of shifted prime subgroup sums (which vanish
    under an order-d character), optionally plus one monomial."""
    d = draw(st.integers(2, 210))
    coeffs = [0] * d
    for p in factorize(d).primes:
        for _ in range(draw(st.integers(0, 3))):
            shift, c = draw(st.integers(0, d - 1)), draw(st.integers(-3, 3))
            for k in range(p):
                coeffs[(shift + k * (d // p)) % d] += c
    if draw(st.booleans()):
        coeffs[draw(st.integers(0, d - 1))] += draw(st.sampled_from([-1, 1]))
    return CyclicRingElt.from_coeffs(d, coeffs)


@settings(max_examples=150, deadline=None)
@given(vanishing_or_perturbed())
@example(subgroup_sum(105, 3) + subgroup_sum(105, 5).shift(1) - subgroup_sum(105, 7).shift(2))
def test_zero_test_agrees_with_numeric_evaluation(a):
    zero = np.abs(at_primitive_roots(a.coeffs, a.m)).max() < 1e-8 * (1 + a.norm)
    assert character_value_is_zero(a, CharacterSpec(a.m, a.m)) == zero


@pytest.mark.parametrize("d", [30, 12, 72])
def test_residue_batch_matches_rows(d):
    rng = random.Random(d)
    rows = np.array([[rng.randint(-9, 9) for _ in range(d)] for _ in range(20)])
    batch = cyclotomic_residue(rows, d)
    assert batch.dtype == np.int64
    for row, rem in zip(rows.tolist(), batch.tolist()):
        assert rem == long_division_residue(row, d)
    stacked = cyclotomic_residue(rows.reshape(4, 5, d), d)
    assert stacked.tolist() == batch.reshape(4, 5, -1).tolist()


def test_residue_switches_to_python_ints_near_int64_limit():
    big = 2**62 + 12345
    vanishing = subgroup_sum(105, 3).scale(big) + subgroup_sum(105, 5).shift(1).scale(big - 1)
    assert character_value_is_zero(vanishing, CharacterSpec(105, 105))
    assert not character_value_is_zero(vanishing + CyclicRingElt.monomial(105, 7), CharacterSpec(105, 105))
    coeffs = list((vanishing + CyclicRingElt.monomial(105, 7)).coeffs)
    rem = cyclotomic_residue(coeffs, 105)
    assert rem.dtype == object
    assert rem.tolist() == long_division_residue(coeffs, 105)
    # an int64 array of large entries takes the same exact route
    rows = np.array([coeffs, [0] * 105], dtype=np.int64)
    rem = cyclotomic_residue(rows, 105)
    assert rem.dtype == object
    assert rem.tolist() == [long_division_residue(coeffs, 105), [0] * 48]


def test_psi_projection_examples():
    assert subgroup_sum(10, 2).psi_projection() == 0
    assert subgroup_sum(30, 3).psi_projection() == 3
    form7 = punctured_subgroup_sum(42, 7) + punctured_subgroup_sum(42, 3).shift(21)
    assert form7.psi_projection() == 4
    with pytest.raises(ValueError):
        subgroup_sum(15, 3).psi_projection()


# ---------------------------------------------------------------------------
# character zero-test


def test_character_zero_examples():
    assert not character_value_is_zero(elt(5, {0: 1, 1: 1}), CharacterSpec(5, 5))
    assert character_value_is_zero(subgroup_sum(5, 5), CharacterSpec(5, 5))
    assert character_value_is_zero(elt(10, {0: 1, 5: 1}), CharacterSpec(10, 10))


def test_character_zero_subgroups():
    # chi of order d kills P_s exactly when s does not divide m/d... the
    # elementary fact used everywhere: chi(P_s) = 0 iff chi is nontrivial
    # on the subgroup, i.e. iff d does not divide m/s.
    m = 30
    for s in (2, 3, 5, 6, 10, 15, 30):
        for d in (2, 3, 5, 6, 10, 15, 30):
            expected = (m // s) % d != 0
            got = character_value_is_zero(subgroup_sum(m, s), CharacterSpec(m, d))
            assert got == expected, (s, d)


def test_character_zero_galois_invariant():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.choice([12, 30, 42])
        a = random_elt(rng, m, lo=-2, hi=2)
        d = rng.choice([e for e in range(2, m + 1) if m % e == 0])
        base = character_value_is_zero(a, CharacterSpec(m, d))
        projected = a.natural_projection(d)
        for t in range(2, d):
            if gcd(t, d) == 1:
                twisted = projected.galois_twist(t)
                assert character_value_is_zero(twisted, CharacterSpec(d, d)) == base


def test_character_zero_matches_numeric():
    rng = random.Random(13)
    for _ in range(200):
        m = rng.choice([4, 6, 9, 10, 12, 15, 30])
        a = random_elt(rng, m, lo=-2, hi=2)
        exact = character_value_is_zero(a, CharacterSpec(m, m))
        z = cmath.exp(2j * cmath.pi / m)
        numeric = abs(sum(c * z**i for i, c in enumerate(a.coeffs))) < 1e-9
        assert exact == numeric


def test_character_spec_validation():
    with pytest.raises(ValueError):
        CharacterSpec(10, 3)
    with pytest.raises(ValueError):
        character_value_is_zero(subgroup_sum(10, 2), CharacterSpec(20, 4))


# ---------------------------------------------------------------------------
# numeric character table: orthogonality and Fourier inversion


def test_orthogonality_and_inversion():
    rng = random.Random(17)
    for m in (6, 10, 21, 30, 60):
        # orthogonality of the character table columns
        root = [cmath.exp(2j * cmath.pi * k / m) for k in range(m)]
        for i in range(0, m, max(1, m // 7)):
            total = sum(root[(i * j) % m] for j in range(m))
            assert abs(total - (m if i == 0 else 0)) < 1e-8
        # Fourier inversion recovers the coefficients
        a = random_elt(rng, m)
        vals = character_values_numeric(a)
        for i in range(m):
            rec = sum(vals[j] * root[(-i * j) % m] for j in range(m)) / m
            assert abs(rec - a.coeffs[i]) < 1e-6


# ---------------------------------------------------------------------------
# serialization


def test_elt_json_roundtrip():
    a = elt(10, {0: 2, 3: -1, 7: 5})
    import json

    assert CyclicRingElt.from_json(json.dumps(a.to_json())) == a


def test_elt_json_needs_integers():
    # int() would have read each of these as a valid element of Z[C_2]
    for obj in [
        {"m": 2, "coeffs": [1.9, 1]},
        {"m": 2, "coeffs": "11"},
        {"m": 2, "coeffs": [True, True]},
        {"m": 2, "coeffs": [1, "1"]},
        {"m": 2.0, "coeffs": [1, 1]},
        {"m": True, "coeffs": [1]},
        {"m": "2", "coeffs": [1, 1]},
    ]:
        with pytest.raises(ValueError, match="must be"):
            CyclicRingElt.from_json(obj)
    assert CyclicRingElt.from_json('{"m": 2, "coeffs": [-1, 3]}').coeffs == (-1, 3)


def test_elt_validation():
    with pytest.raises(ValueError):
        CyclicRingElt(3, (1, 2))
    with pytest.raises(ValueError):
        elt(6, {0: 1}) + elt(10, {0: 1})
