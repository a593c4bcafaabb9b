"""Functions f: Z_2^n -> Z_m and their exact bent criterion.

Points of Z_2^n are n-bit integers; the group operation is XOR and the
characters are chi_y(x) = (-1)^{popcount(y & x)}.  The Fourier transform
F(y) = sum_x zeta_m^{f(x)} chi_y(x) makes f generalized bent exactly when
|F(y)|^2 = 2^n for every y.

The exact route never touches F directly.  The autocorrelation elements

    E_x = sum_y g^{f(y + x) - f(y)}   in  N[C_m]

satisfy E_0 = 2^n g^0, and f is generalized bent if and only if an
order-m character kills E_x for every x != 0.  autocorr_tables builds
the tables of a stack of k functions of one (n, m) at once, as one
read-only (k, 2^n, m) int64 array of counts, [i, x] the coefficients of
E_x, by an XOR gather and one bincount per block of rows; the bent test
reduces rows 1..2^n-1 of the whole stack modulo Phi_m in one matmul
with the cached matrix R_m (see ring.cyclotomic_residue), and
autocorr_invariants checks the identities every table satisfies, bent
or not, on the same array.  Everything stays integer-exact.  A numeric
Walsh spectrum is kept alongside for cross-validation only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .ring import INT64_MAX, cyclotomic_residue, decimal_int, decimal_ints
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
# and its (k, 2^n, m) result
_BLOCK_CELLS = 1 << 14

# the Sylvester Hadamard matrix H_16, (-1)^{popcount(i & j)}
_H16 = np.array([[1 - 2 * (bin(i & j).count("1") & 1) for j in range(16)] for i in range(16)])

_INVARIANTS = ("origin_mass", "inversion_symmetric", "even_identity_coeff", "even_m_identity")

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


def autocorr_tables(values, m: int) -> np.ndarray:
    """E_x = sum_y g^{f(y+x) - f(y)} for every x and every f of a (k, 2^n)
    stack of value rows in 0..m-1, as one read-only (k, 2^n, m) int64
    array: [i, x] holds the coefficients of E_x for row i."""
    values = np.asarray(values, dtype=np.int64)
    k, size = values.shape
    # a block is a power of two of the k 2^n rows (i, x): whole functions,
    # or an aligned run x = s ^ r, r < span, inside one.  So one index,
    # XOR inside each function's values, serves every block
    rows = min(1 << (max(1, _BLOCK_CELLS // size).bit_length() - 1), k * size)
    span = min(rows, size)
    points = np.arange(size)
    index = (points[:span, None] ^ points) + size * np.arange(rows // span)[:, None, None]
    # cell (i, x, y) lands in bin 2m (row in block) + m + f_i(x ^ y) - f_i(y);
    # the two bins of a residue mod m are then added, which is cheaper
    # than reducing every cell mod m
    lift = (2 * m * np.arange(rows) + m).reshape(-1, span, 1)
    counts = np.empty((k * size, m), dtype=np.int64)
    for start in range(0, k * size, rows):
        i, s = divmod(start, size)
        block = values[i : i + rows // span]
        if s:  # f_i(s ^ y) once, then the index, which is y at one row
            bins = block[0, s ^ points]
            bins = bins[index[:1]] if span > 1 else bins[None, None]
        else:  # f_i(y) - lift serves every block of these functions
            base = block[:, None, :] - lift[: len(block)]
            bins = block.ravel()[index[: len(block)]]
        bins -= base
        pairs = np.bincount(bins.ravel(), minlength=bins.size // size * 2 * m).reshape(-1, 2, m)
        np.add(pairs[:, 0], pairs[:, 1], out=counts[start : start + len(pairs)])
    counts.flags.writeable = False
    return counts.reshape(k, size, m)


def compute_autocorr(fn: GbfFunction) -> np.ndarray:
    """fn's (2^n, m) table: autocorr_tables of a stack of one."""
    return autocorr_tables([fn.values], fn.m)[0]


def is_gbf_exact(fn: GbfFunction | np.ndarray) -> bool:
    """Exact bent test: an order-m character kills E_x for all x != 0.

    Takes the function or a count array already built for it.  A
    function is normalized first, which leaves |F(y)| unchanged, so the
    test runs at the order its values generate; an array is tested at
    its own m, counts.shape[1].
    """
    counts = fn if isinstance(fn, np.ndarray) else compute_autocorr(normalize_modulus(fn))
    return not cyclotomic_residue(counts[1:], counts.shape[1]).any()


def autocorr_invariants(fn, counts: np.ndarray):
    """The identities of table counts that gbf verify reports: a dict for
    a GbfFunction and its (2^n, m) table, a list of k for a (k, 2^n)
    value stack and its (k, 2^n, m) tables.

    They hold for every f, bent or not, so a False flags a faulty table:
    origin_mass, E_0 = 2^n g^0; inversion_symmetric, every E_x is fixed
    by g -> g^{-1}; even_identity_coeff, the g^0 coefficient of E_x is
    even for x != 0; and even_m_identity, for even m only (None for odd
    m), a_x = 2^n - 4|G_f| + 8 b_x for x != 0.  There G_f = {x : f(x)
    odd}, G_f^2 = |G_f| + 2 sum b_x x in the group algebra of Z_2^n, and
    a_x is the image of E_x under g -> -1.  2 b_x comes from G_f, not
    from the table: H(W W) / 2^n for W = H 1_{G_f}, in int64 to n = 20.
    """
    if isinstance(fn, GbfFunction):
        return autocorr_invariants(np.asarray([fn.values]), counts[None])[0]
    k, size, m = counts.shape
    identity = [None] * k
    if m % 2 == 0:
        odd = np.asarray(fn, dtype=np.int64) & 1
        walsh = _walsh(odd)
        target = size - 4 * odd.sum(axis=1, keepdims=True) + 4 * (_walsh(walsh * walsh) // size)
        psi = np.einsum("kxa,a->kx", counts, np.resize([1, -1], m))
        identity = (psi[:, 1:] == target[:, 1:]).all(axis=1).tolist()
    origin = (counts[:, 0, 0] == size) & (counts[:, 0].sum(axis=1) == size)
    inversion = (counts[..., 1:] == counts[..., :0:-1]).all(axis=(1, 2))
    even = ~(counts[:, 1:, 0] & 1).any(axis=1)
    rows = zip(origin.tolist(), inversion.tolist(), even.tolist(), identity)
    return [dict(zip(_INVARIANTS, row)) for row in rows]


def _walsh(buf: np.ndarray) -> np.ndarray:
    """H buf along the last axis, of length 2^n, up to four bits at a
    time: H_r is the leading r x r block of _H16."""
    shape, h = buf.shape, 1
    while h < shape[-1]:
        r = min(16, shape[-1] // h)
        buf = np.matmul(_H16[:r, :r], buf.reshape(-1, r, h))
        h *= r
    return buf.reshape(shape)


def walsh_spectrum_numeric(fn: GbfFunction) -> np.ndarray:
    """|F(y)|^2 for all y, via the complex Walsh-Hadamard transform."""
    return np.abs(_walsh(np.exp(2j * np.pi * np.asarray(fn.values, dtype=np.float64) / fn.m))) ** 2


def is_gbf_numeric(fn: GbfFunction) -> bool:
    """Float cross-check of the bent property; never authoritative."""
    flat = 1 << fn.n
    return bool(np.max(np.abs(walsh_spectrum_numeric(fn) - flat)) <= _TOL)


def normalize_modulus(fn: GbfFunction) -> GbfFunction:
    """Shift f(0) to 0, then divide m and all values by their common gcd;
    fn itself when that changes nothing.

    The result generates the full value group: gcd(m', values') = 1.  An
    all-constant function collapses to m' = 1 with every value 0.
    """
    values = np.asarray(fn.values, dtype=np.int64 if fn.m <= INT64_MAX else object)
    shifted = (values - values[0]) % fn.m
    d = int(np.gcd.reduce(shifted, initial=fn.m))
    if d == 1 and fn.values[0] == 0:
        return fn
    return GbfFunction(fn.n, fn.m // d, tuple((shifted // d).tolist()))
