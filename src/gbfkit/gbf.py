"""Functions f: Z_2^n -> Z_m and their exact bent criterion.

Points of Z_2^n are n-bit integers; the group operation is XOR and the
characters are chi_y(x) = (-1)^{popcount(y & x)}.  The Fourier transform
F(y) = sum_x zeta_m^{f(x)} chi_y(x) makes f generalized bent exactly when
|F(y)|^2 = 2^n for every y.

The exact route never touches F directly.  The autocorrelation elements

    E_x = sum_y g^{f(y + x) - f(y)}   in  N[C_m]

satisfy E_0 = 2^n g^0, and f is generalized bent if and only if an
order-m character kills E_x for every x != 0.  The table is built once
per function as a (2^n, m) int64 array of counts, by an XOR gather and
one bincount per block of rows, and the bent test reduces rows 1..2^n-1
modulo Phi_m in a single matmul with the cached matrix R_m (see
ring.cyclotomic_residue).  Everything stays integer-exact.  A numeric
Walsh spectrum is kept alongside for cross-validation only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

import numpy as np

from .ring import CyclicRingElt, cyclotomic_residue
# re-exported: perfbench/spans.py traces the zero-test under this name too
from .ring import character_value_is_zero  # noqa: F401

# (x, y) cells per gather block: the block's scratch arrays (128 KB
# each) stay in cache, and a table build needs no memory beyond them
# and its (2^n, m) result
_BLOCK_CELLS = 1 << 14


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
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'm n v0,v1,...', got {line!r}")
        m, n = int(parts[0]), int(parts[1])
        return cls.from_values(n, m, [int(v) for v in parts[2].split(",")])

    def to_line(self) -> str:
        return f"{self.m} {self.n} " + ",".join(str(v) for v in self.values)

    @classmethod
    def from_json(cls, text: str | dict) -> "GbfFunction":
        obj = json.loads(text) if isinstance(text, str) else text
        return cls.from_values(int(obj["n"]), int(obj["m"]), obj["values"])

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "values": list(self.values)}


@dataclass(frozen=True, eq=False)
class AutocorrTable:
    """E_x for every x: counts[x, k] is the coefficient of g^k in E_x."""

    fn: GbfFunction
    counts: np.ndarray

    def __getitem__(self, x: int) -> CyclicRingElt:
        return CyclicRingElt(self.fn.m, tuple(self.counts[x].tolist()))


def compute_autocorr(fn: GbfFunction) -> AutocorrTable:
    """E_x = sum_y g^{f(y+x) - f(y)} for every x, as one count array."""
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
    return AutocorrTable(fn, counts)


def _table(arg: GbfFunction | AutocorrTable) -> AutocorrTable:
    return arg if isinstance(arg, AutocorrTable) else compute_autocorr(arg)


def is_gbf_exact(fn: GbfFunction | AutocorrTable) -> bool:
    """Exact bent test: an order-m character kills E_x for all x != 0.

    Takes the function or a table already built for it.  Callers
    comparing different moduli should normalize_modulus first so that m
    matches the order actually generated by the values.
    """
    table = _table(fn)
    return not cyclotomic_residue(table.counts[1:], table.fn.m).any()


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


def is_gbf_numeric(fn: GbfFunction, tol: float = 1e-6) -> bool:
    """Float cross-check of the bent property; never authoritative."""
    flat = 1 << fn.n
    return bool(np.max(np.abs(walsh_spectrum_numeric(fn) - flat)) <= tol)


def normalize_modulus(fn: GbfFunction) -> GbfFunction:
    """Shift f(0) to 0, then divide m and all values by their common gcd.

    The result generates the full value group: gcd(m', values') = 1.  An
    all-constant function collapses to m' = 1 with every value 0.
    """
    shifted = [(v - fn.values[0]) % fn.m for v in fn.values]
    d = gcd(fn.m, *shifted)
    return GbfFunction(fn.n, fn.m // d, tuple(v // d for v in shifted))


@dataclass(frozen=True)
class GfData:
    """Odd-value support data for even m.

    support: the set G_f = {x : f(x) odd}; b counts XOR pairs,
    G_f^2 = |G_f| + 2 * sum b_x x in the group algebra of Z_2^n; and
    a_x is the psi-image of E_x.  For every f (bent or not) these tie
    together as a_x = 2^n - 4|G_f| + 8 b_x.
    """

    support: tuple[int, ...]
    b: dict[int, int]
    a: dict[int, int]


def gf_data(fn: GbfFunction | AutocorrTable) -> GfData:
    """G_f, b and a for even m; takes the function or its table."""
    table = _table(fn)
    fn = table.fn
    if fn.m % 2 != 0:
        raise ValueError(f"odd-support data needs even m, got {fn.m}")
    size = 1 << fn.n
    support = np.flatnonzero(np.asarray(fn.values) % 2)
    square = np.zeros(size, dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // max(1, support.size))
    for start in range(0, support.size, rows):
        pairs = support[start : start + rows, None] ^ support
        square += np.bincount(pairs.ravel(), minlength=size)
    assert square[0] == support.size
    assert not (square[1:] % 2).any(), "off-identity pair counts come in XOR pairs"
    psi = table.counts[:, 0::2].sum(axis=1) - table.counts[:, 1::2].sum(axis=1)
    b = dict(zip(range(1, size), (square[1:] // 2).tolist()))
    a = dict(zip(range(1, size), psi[1:].tolist()))
    return GfData(tuple(support.tolist()), b, a)
