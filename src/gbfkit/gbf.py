"""Functions f: Z_2^n -> Z_m and their exact bent criterion.

Points of Z_2^n are n-bit integers; the group operation is XOR and the
characters are chi_y(x) = (-1)^{popcount(y & x)}.  The Fourier transform
F(y) = sum_x zeta_m^{f(x)} chi_y(x) makes f generalized bent exactly when
|F(y)|^2 = 2^n for every y.

The exact route never touches F directly.  The autocorrelation elements

    E_x = sum_y g^{f(y + x) - f(y)}   in  N[C_m]

satisfy E_0 = 2^n g^0, and f is generalized bent if and only if an
order-m character kills E_x for every x != 0.  The table is built once
per function as one read-only (2^n, m) int64 array of counts, row x the
coefficients of E_x, by an XOR gather and one bincount per block of
rows, and the bent test reduces rows 1..2^n-1 modulo Phi_m in a single
matmul with the cached matrix R_m (see ring.cyclotomic_residue).
autocorr_invariants checks the identities every table satisfies, bent
or not, on the same array; gbf verify reports them.  Everything stays
integer-exact.  A numeric Walsh spectrum is kept alongside for
cross-validation only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

import numpy as np

from .ring import cyclotomic_residue, decimal_int, decimal_ints
# re-exported: perfbench/spans.py traces the zero-test under this name too
from .ring import character_value_is_zero  # noqa: F401

# the bound on | |F(y)|^2 - 2^n | of is_gbf_numeric and of search's
# screens.  Each |F(y)|^2 the search compares is a signed sum of at most
# 2^n <= 32 unit roots, each within 2^-52 (search._roots) and added in
# at most 32 steps, so its float error stays below 1e-11, and |B|^2 and
# 2^n - |A|^2 at the level-1 windows likewise; 1e-6 cannot lose a
# witness, and survivors are confirmed exactly
_TOL = 1e-6

# (x, y) cells per gather block: the block's scratch arrays (128 KB
# each) stay in cache, and a table build needs no memory beyond them
# and its (2^n, m) result
_BLOCK_CELLS = 1 << 14

# the fields of a function line are split by runs of ASCII space or tab
# only, not by str.split()'s Unicode whitespace (no-break space, em space)
_FIELD_SEP = re.compile(r"[ \t]+")


@dataclass(frozen=True)
class GbfFunction:
    """Truth table of f: Z_2^n -> Z_m, indexed by the n-bit integer x."""

    n: int
    m: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got {self.m}")
        if len(self.values) != 1 << self.n:
            raise ValueError(f"need {1 << self.n} values, got {len(self.values)}")
        if min(self.values) < 0 or max(self.values) >= self.m:
            raise ValueError(f"values must lie in 0..{self.m - 1}")

    @classmethod
    def from_values(cls, n: int, m: int, values) -> "GbfFunction":
        return cls(n, m, tuple(map(int, values)))

    # line format: "m n v0,v1,...,v_{2^n-1}"
    @classmethod
    def from_line(cls, line: str) -> "GbfFunction":
        parts = _FIELD_SEP.split(line.strip(" \t"))
        if len(parts) != 3:
            raise ValueError(f"expected 'm n v0,v1,...', got {line!r:.40}")
        m, n = decimal_int(parts[0]), decimal_int(parts[1])
        return cls(n, m, decimal_ints(parts[2]))

    def to_line(self) -> str:
        return f"{self.m} {self.n} " + ",".join(str(v) for v in self.values)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "values": list(self.values)}


def compute_autocorr(fn: GbfFunction) -> np.ndarray:
    """E_x = sum_y g^{f(y+x) - f(y)} for every x, as one read-only
    (2^n, m) int64 array: row x holds the coefficients of E_x."""
    size, m = 1 << fn.n, fn.m
    values = np.asarray(fn.values, dtype=np.int64)
    points = np.arange(size)
    counts = np.empty((size, m), dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // size)
    for start in range(0, size, rows):
        xs = points[start : start + rows]
        # cell (x, y) lands in bin 2m (x - start) + m + f(y ^ x) - f(y);
        # the two bins of a residue mod m are then summed, which is
        # cheaper than reducing every cell mod m
        bins = values[xs[:, None] ^ points]
        bins -= values
        bins += (2 * m * (xs - start) + m)[:, None]
        pairs = np.bincount(bins.ravel(), minlength=xs.size * 2 * m)
        counts[start : start + rows] = pairs.reshape(-1, 2, m).sum(axis=1)
    counts.flags.writeable = False
    return counts


def is_gbf_exact(fn: GbfFunction | np.ndarray) -> bool:
    """Exact bent test: an order-m character kills E_x for all x != 0.

    Takes the function or a count array already built for it.  A
    function is normalized first, which leaves |F(y)| unchanged, so the
    test runs at the order its values generate; an array is tested at
    its own m, counts.shape[1].
    """
    counts = fn if isinstance(fn, np.ndarray) else compute_autocorr(normalize_modulus(fn))
    return not cyclotomic_residue(counts[1:], counts.shape[1]).any()


def autocorr_invariants(fn: GbfFunction, counts: np.ndarray) -> dict:
    """The identities of fn's table counts that gbf verify reports.

    They hold for every f, bent or not, so a False flags a faulty table:
    origin_mass, E_0 = 2^n g^0; inversion_symmetric, every E_x is fixed
    by g -> g^{-1}; even_identity_coeff, the g^0 coefficient of E_x is
    even for x != 0; and even_m_identity, for even m only (None for odd
    m), a_x = 2^n - 4|G_f| + 8 b_x for x != 0.  There G_f = {x : f(x)
    odd}, G_f^2 = |G_f| + 2 sum b_x x in the group algebra of Z_2^n, and
    a_x is the image of E_x under g -> -1.
    """
    size, m = counts.shape
    identity = None
    if m % 2 == 0:
        support = np.flatnonzero(np.asarray(fn.values) % 2)
        # square[x] counts the ordered pairs of G_f with u ^ v = x, 2 b_x
        square = np.zeros(size, dtype=np.int64)
        rows = max(1, _BLOCK_CELLS // max(1, support.size))
        for start in range(0, support.size, rows):
            pairs = support[start : start + rows, None] ^ support
            square += np.bincount(pairs.ravel(), minlength=size)
        psi = counts[:, 0::2].sum(axis=1) - counts[:, 1::2].sum(axis=1)
        identity = bool(np.array_equal(psi[1:], size - 4 * support.size + 4 * square[1:]))
    return {
        "origin_mass": bool(counts[0, 0] == size and counts[0].sum() == size),
        "inversion_symmetric": bool(np.array_equal(counts[:, -np.arange(m) % m], counts)),
        "even_identity_coeff": not (counts[1:, 0] % 2).any(),
        "even_m_identity": identity,
    }


def walsh_spectrum_numeric(fn: GbfFunction) -> np.ndarray:
    """|F(y)|^2 for all y, via a complex Walsh-Hadamard butterfly."""
    buf = np.exp(2j * np.pi * np.asarray(fn.values, dtype=np.float64) / fn.m)
    h = 1
    size = buf.size
    while h < size:
        buf = buf.reshape(-1, 2, h)
        top, bot = buf[:, 0, :].copy(), buf[:, 1, :].copy()
        buf[:, 0, :] = top + bot
        buf[:, 1, :] = top - bot
        buf = buf.reshape(size)
        h *= 2
    return np.abs(buf) ** 2


def is_gbf_numeric(fn: GbfFunction) -> bool:
    """Float cross-check of the bent property; never authoritative."""
    flat = 1 << fn.n
    return bool(np.max(np.abs(walsh_spectrum_numeric(fn) - flat)) <= _TOL)


def normalize_modulus(fn: GbfFunction) -> GbfFunction:
    """Shift f(0) to 0, then divide m and all values by their common gcd.

    The result generates the full value group: gcd(m', values') = 1.  An
    all-constant function collapses to m' = 1 with every value 0.
    """
    shifted = [(v - fn.values[0]) % fn.m for v in fn.values]
    d = gcd(fn.m, *shifted)
    return GbfFunction(fn.n, fn.m // d, tuple(v // d for v in shifted))
