"""Bent functions: autocorrelation, exact criterion, numeric cross-checks."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbfkit import gbf
from gbfkit.gbf import (
    GbfFunction,
    autocorr_invariants,
    autocorr_tables,
    compute_autocorr,
    is_gbf_exact,
    is_gbf_numeric,
    normalize_modulus,
    walsh_spectrum_numeric,
)
from gbfkit.ring import CyclicRingElt


def fn(m, n, values):
    return GbfFunction.from_values(n, m, values)


def random_fn(rng, m, n):
    return fn(m, n, [rng.randrange(m) for _ in range(1 << n)])


def reference_autocorr(f):
    """E_x by the defining per-x loop, one coefficient list per x."""
    size = 1 << f.n
    table = []
    for x in range(size):
        coeffs = [0] * f.m
        for y in range(size):
            coeffs[(f.values[y ^ x] - f.values[y]) % f.m] += 1
        table.append(coeffs)
    return table


def reference_pair_counts(f):
    """#{(u, v) : f(u), f(v) odd, u ^ v = x} for every x."""
    support = [x for x, v in enumerate(f.values) if v % 2]
    square = [0] * (1 << f.n)
    for u in support:
        for v in support:
            square[u ^ v] += 1
    return support, square


def expected_invariants(f):
    """The four verify invariants, from the per-x reference table."""
    size, m = 1 << f.n, f.m
    table = reference_autocorr(f)
    identity = None
    if m % 2 == 0:
        support, square = reference_pair_counts(f)
        psi = [sum(c if k % 2 == 0 else -c for k, c in enumerate(row)) for row in table]
        identity = all(
            psi[x] == size - 4 * len(support) + 8 * (square[x] // 2) for x in range(1, size)
        )
    return {
        "origin_mass": table[0][0] == size and sum(table[0]) == size,
        "inversion_symmetric": all(row[-k % m] == row[k] for row in table for k in range(m)),
        "even_identity_coeff": all(row[0] % 2 == 0 for row in table[1:]),
        "even_m_identity": identity,
    }


def mm_function(m, n, perm, g, z_bit=0):
    """Maiorana-McFarland: (m/2)<x, perm(y)> + g(y), plus (m/4) z for odd n.

    Bent for every g when m is even and n is even, and for odd n when
    4 | m.  Point bits: x low, y next, z on top.
    """
    half = n // 2
    mask = (1 << half) - 1
    values = []
    for p in range(1 << n):
        x, y, z = p & mask, (p >> half) & mask, p >> (2 * half)
        dot = bin(x & perm[y]).count("1") % 2
        values.append(((m // 2) * dot + (m // 4) * z * z_bit + g[y]) % m)
    return fn(m, n, values)


@st.composite
def random_functions(draw):
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 6))
    return fn(m, n, draw(st.lists(st.integers(0, m - 1), min_size=1 << n, max_size=1 << n)))


@st.composite
def mm_functions(draw):
    n = draw(st.integers(2, 6))
    step = 4 if n % 2 else 2
    m = draw(st.sampled_from(range(step, 31, step)))
    half = n // 2
    perm = draw(st.permutations(range(1 << half)))
    g = draw(st.lists(st.integers(0, m - 1), min_size=1 << half, max_size=1 << half))
    return mm_function(m, n, perm, g, z_bit=n % 2)


# ---------------------------------------------------------------------------
# construction and serialization


def test_validation():
    with pytest.raises(ValueError):
        fn(4, 1, [0, 1, 2])
    with pytest.raises(ValueError):
        fn(4, 1, [0, 4])
    with pytest.raises(ValueError):
        fn(0, 1, [0, 1])


def test_line_and_json_roundtrip():
    f = fn(4, 2, [0, 1, 2, 3])
    assert GbfFunction.from_line(f.to_line()) == f
    assert GbfFunction.from_line("4 1 0,1") == fn(4, 1, [0, 1])
    assert f.to_json() == {"m": 4, "n": 2, "values": [0, 1, 2, 3]}
    # each field (m, then n, then values) takes only an optional - and
    # ASCII digits, though int() also reads digit-group underscores, a +
    # and non-ASCII digits
    for line in [
        "1_2 1 0,1",
        "\u0664 1 0,1",
        "4 +1 0,1",
        "4 \u0661 0,1",
        "4 1 0,1_1",
        "4 1 0,\u0661",
        "4 1 0,,1",
        "4 1 0,1,",
    ]:
        with pytest.raises(ValueError, match="not .*decimal"):
            GbfFunction.from_line(line)
    with pytest.raises(ValueError):
        GbfFunction.from_line("4 0,1")
    # runs of ASCII space or tab separate the fields, and nothing else
    # does: str.split() also split at these and read "4 1 0,1"
    assert GbfFunction.from_line("4\t 1  \t0,1") == fn(4, 1, [0, 1])
    for line in [
        "4\u20031\u00a00,1",
        "4\u30001 0,1",
        "4\v1 0,1",
        "4 1\u00a00,1",
        "\u00a04 1 0,1",
    ]:
        with pytest.raises(ValueError):
            GbfFunction.from_line(line)


def test_line_error_quotes_at_most_40_characters():
    # a line of 2^16 values whose first separator is an em space splits
    # into two fields; its error quoted all 131 KB of it
    line = "4\u20031 0," + ",".join(["1"] * ((1 << 16) - 1))
    with pytest.raises(ValueError, match="expected 'm n v0,v1,...'") as info:
        GbfFunction.from_line(line)
    assert str(info.value).endswith(repr(line)[:40])
    assert len(str(info.value)) < 100


# ---------------------------------------------------------------------------
# autocorrelation table


def test_autocorr_example_quaternary():
    table = compute_autocorr(fn(4, 1, [0, 1]))
    assert table.tolist() == [[2, 0, 0, 0], [0, 1, 0, 1]]
    assert table.dtype == np.int64 and not table.flags.writeable


def test_autocorr_example_boolean():
    table = compute_autocorr(fn(2, 2, [0, 0, 0, 1]))
    assert table.tolist() == [[4, 0], [2, 2], [2, 2], [2, 2]]


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_functions(), mm_functions()))
def test_table_and_exact_test_match_independent_routes(f):
    table = compute_autocorr(f)
    assert table.tolist() == reference_autocorr(f)
    assert is_gbf_exact(f) == is_gbf_exact(table) == is_gbf_numeric(f)


@settings(max_examples=40, deadline=None)
@given(mm_functions())
def test_maiorana_mcfarland_functions_are_bent(f):
    assert is_gbf_exact(f)


@pytest.mark.parametrize("cells", [1, 7, 100, 1 << 14])
def test_block_size_never_changes_table_or_support_data(monkeypatch, cells):
    # n = 5 and 7 split the table and the odd-support pair count into
    # several gather blocks, the last one partial
    monkeypatch.setattr(gbf, "_BLOCK_CELLS", cells)
    rng = random.Random(cells)
    for m, n in ((6, 5), (10, 7), (15, 5)):
        f = random_fn(rng, m, n)
        table = compute_autocorr(f)
        assert table.tolist() == reference_autocorr(f)
        assert autocorr_invariants(f, table) == expected_invariants(f)


@st.composite
def value_stacks(draw):
    """k rows of values of one (n, m), k from 1 to 6."""
    m, n, k = draw(st.integers(1, 40)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.integers(0, m - 1), min_size=1 << n, max_size=1 << n)
    return m, n, draw(st.lists(row, min_size=k, max_size=k))


@pytest.mark.parametrize("cells", [1, 7, 100, 1 << 13, 1 << 14])
@settings(max_examples=40, deadline=None)
@given(value_stacks())
def test_stacked_tables_match_reference(cells, stack):
    # a block is a power of two of the rows (i, x) within the cells: one
    # row at 1 and 7 cells; at 100, whole functions to n = 3 and a run of
    # 4 or fewer rows inside one past it; at 2^13 and 2^14 whole
    # functions, 2 and 4 at n = 6, so blocks both split and span them
    m, n, rows = stack
    fns = [fn(m, n, values) for values in rows]
    with mock.patch.object(gbf, "_BLOCK_CELLS", cells):
        tables = autocorr_tables(rows, m)
    assert tables.shape == (len(rows), 1 << n, m) and not tables.flags.writeable
    assert tables.tolist() == [reference_autocorr(f) for f in fns]
    assert autocorr_invariants(np.array(rows), tables) == [expected_invariants(f) for f in fns]


def test_autocorr_invariants_hold_for_arbitrary_f():
    rng = random.Random(4)
    for _ in range(40):
        m, n = rng.choice([(3, 2), (4, 2), (6, 3), (10, 3), (12, 2)])
        f = random_fn(rng, m, n)
        table = compute_autocorr(f)
        assert CyclicRingElt(m, tuple(table[0].tolist())) == CyclicRingElt.monomial(m, 0, 1 << n)
        for x in range(1, 1 << n):
            e = CyclicRingElt(m, tuple(table[x].tolist()))
            assert e == e.conj_inverse()
            assert e.coeffs[0] % 2 == 0
            assert e.norm == 1 << n
            assert e.is_nonnegative()


# ---------------------------------------------------------------------------
# exact bent criterion


def test_exact_examples():
    assert is_gbf_exact(fn(4, 1, [0, 1]))
    assert is_gbf_exact(fn(2, 2, [0, 0, 0, 1]))
    assert not is_gbf_exact(fn(3, 3, [0] * 8))
    # tested at the order the values generate: R_4106 is over the cap
    assert is_gbf_exact(fn(8212, 1, [0, 2053]))


def test_exact_agrees_with_numeric_spot():
    rng = random.Random(8)
    for _ in range(500):
        m = rng.randint(2, 12)
        n = rng.randint(1, 3)
        f = random_fn(rng, m, n)
        assert is_gbf_exact(f) == is_gbf_numeric(f), f


def test_scaling_invariance():
    # composing with x -> x + c and multiplying values by a unit of Z_m
    # preserves bentness
    rng = random.Random(15)
    base = fn(4, 1, [0, 1])
    cases = [base, fn(2, 2, [0, 0, 0, 1]), fn(4, 2, [0, 0, 0, 2])]
    for f in cases:
        was = is_gbf_exact(f)
        for _ in range(10):
            c = rng.randrange(f.m)
            units = [u for u in range(1, f.m) if np.gcd(u, f.m) == 1]
            u = rng.choice(units)
            g = fn(f.m, f.n, [(u * v + c) % f.m for v in f.values])
            assert is_gbf_exact(g) == was


# ---------------------------------------------------------------------------
# numeric spectrum


def test_walsh_spectrum_examples():
    spec = walsh_spectrum_numeric(fn(4, 1, [0, 1]))
    assert np.allclose(spec, [2.0, 2.0])
    spec = walsh_spectrum_numeric(fn(5, 2, [0] * 4))
    assert np.allclose(spec, [16.0, 0.0, 0.0, 0.0])


def test_walsh_parseval():
    rng = random.Random(23)
    for _ in range(30):
        m, n = rng.choice([(5, 2), (7, 3), (12, 4)])
        f = random_fn(rng, m, n)
        assert abs(walsh_spectrum_numeric(f).sum() - 4.0**n) < 1e-6


# ---------------------------------------------------------------------------
# modulus normalization


def test_normalize_examples():
    f = normalize_modulus(fn(12, 1, [3, 9]))
    assert (f.m, f.values) == (2, (0, 1))
    f = normalize_modulus(fn(10, 1, [7, 7]))
    assert (f.m, f.values) == (1, (0, 0))
    f = normalize_modulus(fn(4, 1, [1, 2]))
    assert (f.m, f.values) == (4, (0, 1))


def test_normalize_fixes_origin_and_gcd():
    rng = random.Random(42)
    from math import gcd

    for _ in range(50):
        f = random_fn(rng, rng.randint(2, 12), rng.randint(1, 3))
        g = normalize_modulus(f)
        assert g.values[0] == 0
        d = g.m
        for v in g.values:
            d = gcd(d, v)
        assert d == 1 or g.m == 1


# ---------------------------------------------------------------------------
# table invariants


def test_autocorr_invariants_example():
    f = fn(4, 1, [0, 1])
    table = compute_autocorr(f)
    ok = dict.fromkeys(expected_invariants(f), True)
    assert autocorr_invariants(f, table) == expected_invariants(f) == ok
    # G_f = {1}, no pair of it sums to 1, and E_1 = g + g^3 maps to
    # a_1 = -2 = 2^1 - 4 * 1 + 8 * 0.  Each row below breaks one
    # invariant and keeps the other three
    for x, row, broken in [
        (0, [1, 0, 1, 0], "origin_mass"),
        (0, [2, 0, 1, 0], "origin_mass"),
        (1, [0, 2, 0, 0], "inversion_symmetric"),
        (1, [1, 2, 1, 2], "even_identity_coeff"),
        (1, [0, 0, 2, 0], "even_m_identity"),
    ]:
        bad = table.copy()
        bad[x] = row
        assert autocorr_invariants(f, bad) == {**ok, broken: False}, broken
    # in a stack of f, g = 2x and f again, the same fault in one f's
    # table flips that function's invariant alone
    g = fn(4, 1, [0, 2])
    stack = np.array([f.values, g.values, f.values])
    tables = autocorr_tables(stack, 4)
    expected = [expected_invariants(f), expected_invariants(g), expected_invariants(f)]
    assert autocorr_invariants(stack, tables) == expected
    for x, row, broken in [
        (0, [1, 0, 1, 0], "origin_mass"),
        (1, [0, 2, 0, 0], "inversion_symmetric"),
        (1, [1, 2, 1, 2], "even_identity_coeff"),
        (1, [0, 0, 2, 0], "even_m_identity"),
    ]:
        for i in (0, 2):
            bad = tables.copy()
            bad[i, x] = row
            want = [dict(e, **{broken: False}) if j == i else e for j, e in enumerate(expected)]
            assert autocorr_invariants(stack, bad) == want, (broken, i)


def test_autocorr_invariants_match_reference_for_all_f():
    rng = random.Random(31)
    for _ in range(60):
        m, n = rng.choice([(4, 2), (6, 3), (10, 3), (2, 4), (3, 2), (15, 3)])
        f = random_fn(rng, m, n)
        got = autocorr_invariants(f, compute_autocorr(f))
        assert got == expected_invariants(f)
        assert all(type(v) is bool for v in got.values() if v is not None)
        assert got["even_m_identity"] is (True if m % 2 == 0 else None)


def test_even_m_identity_is_none_for_odd_m():
    f = fn(15, 2, [0, 1, 2, 3])
    assert autocorr_invariants(f, compute_autocorr(f)) == {
        "origin_mass": True,
        "inversion_symmetric": True,
        "even_identity_coeff": True,
        "even_m_identity": None,
    }
