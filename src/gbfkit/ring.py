"""Integer group ring Z[C_m] of a cyclic group, with exact character tests.

An element is a length-m vector of integer coefficients: coeffs[i] is the
coefficient of g^i for a fixed generator g.  Multiplication is cyclic
convolution.  A character chi of order d | m sends g to zeta_d (its Galois
conjugates kill the same elements), and chi(D) = 0 is decided *exactly*:
fold the coefficients into a polynomial of degree < d via i -> i mod d,
then reduce it modulo the d-th cyclotomic polynomial and test the residue
for zero.  No floating point is involved; the float character evaluation
below exists only for cross-checks, never for verdicts.

The one reduction primitive is a matrix product.  R_d, the integer matrix
whose row i holds x^i mod Phi_d, is built on first use and cached per d;
the residue of a coefficient vector c (length d) is c @ R_d, the unique
representative of degree < phi(d).  A whole batch of vectors, such as an
autocorrelation table, reduces in one matmul.  Only squarefree d need a
matrix, because Phi_d(x) = Phi_r(x^{d/r}) for r the radical of d, and
only its rows past phi(r) are stored, since the ones before are the
identity.  The product runs in int64 only when no partial sum can reach
2^63, and over Python ints otherwise.  Orders whose stored rows would
exceed MAX_REDUCTION_ENTRIES are refused before anything is built.

Cyclotomic polynomials are computed from the binomials x^e - 1, e | d,
by Moebius inversion (multiplications, then exact divisions), and
cached per d.

factorize is trial division, uncached: no caller factors the same number
often enough to need a cache, and `gbf table` factors nothing
(criteria.outcome_rows sieves).  A PrimeFactorization holds m and its
(p, a) pairs only; its primes and radical are read from those pairs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache
from math import gcd, prod

import numpy as np

# Coefficients are kept inside signed 64-bit range so that misuse (for
# example repeated squaring of a large element) fails loudly instead of
# silently leaving the intended domain.
INT64_MAX = 2**63 - 1

# Entries of R_r past its identity rows, (r - phi(r)) * phi(r): 2^22 int64
# are 32 MB, built in under a second, and admit every squarefree r < 4106
MAX_REDUCTION_ENTRIES = 1 << 22


def factorize(m: int) -> "PrimeFactorization":
    """Prime factorization by trial division.  A prime near 10^14
    takes 0.65 s, and the time grows tenfold per hundredfold of m."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    factors = []
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return PrimeFactorization(m, tuple(factors))


@dataclass(frozen=True, slots=True)
class PrimeFactorization:
    """m = prod p_i^{a_i} with p_1 < p_2 < ..., as the pairs (p_i, a_i)."""

    m: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if prod(p**a for p, a in self.factors) != self.m:
            raise ValueError(f"factors {self.factors} do not multiply to {self.m}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def radical(self) -> int:
        return prod(p for p, _ in self.factors)


# ---------------------------------------------------------------------------
# cyclotomic polynomials, as integer coefficient lists (index = degree)


@cache
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, low degree first.  Phi_1 = x - 1.

    Phi_d is the product of (x^{d/s} - 1)^{mu(s)} over the squarefree
    divisors s of d.  The binomials with mu(s) = 1 are multiplied in
    first, so that each division by one with mu(s) = -1 is exact.
    """
    if d < 1:
        raise ValueError(f"order must be positive, got {d}")
    terms = [(1, 1)]  # (s, mu(s))
    for p in factorize(d).primes:
        terms += [(s * p, -mu) for s, mu in terms]
    poly = [1]
    for s, mu in sorted(terms, key=lambda t: -t[1]):
        e = d // s
        if mu == 1:
            # poly * (x^e - 1)
            out = [-c for c in poly] + [0] * e
            for i, c in enumerate(poly):
                out[i + e] += c
        else:
            # poly / (x^e - 1): poly[i] = out[i - e] - out[i]
            out = [0] * (len(poly) - e)
            for i in range(len(out)):
                out[i] = (out[i - e] if i >= e else 0) - poly[i]
        poly = out
    return tuple(poly)


@cache
def reduction_matrix(d: int) -> np.ndarray:
    """The rows of R_d that are not the identity, read-only int64.

    R_d has row i = x^i mod Phi_d for i < d.  Its first phi(d) rows are
    the unit vectors, so only the d - phi(d) rows i >= phi(d) are stored:
    a prime d needs one row, not d.
    """
    phi = cyclotomic_polynomial(d)
    deg = len(phi) - 1
    tail = np.empty((d - deg, deg), dtype=np.int64)
    row = [-c for c in phi[:-1]]  # x^deg == x^deg - Phi_d  (mod Phi_d)
    for i in range(d - deg):
        tail[i] = row  # Python ints: an entry past int64 raises OverflowError
        # x * row: the x^deg term wraps around as -top * (Phi_d - x^deg)
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, phi[:-1])]
    tail.flags.writeable = False
    return tail


def reduction_radical(d: int) -> int:
    """The radical r of d, whose R_r reduces modulo Phi_d.  Only
    factorizes d; ValueError if R_r would exceed MAX_REDUCTION_ENTRIES."""
    fact = factorize(d)
    r, phi = fact.radical, prod(p - 1 for p in fact.primes)
    if (r - phi) * phi > MAX_REDUCTION_ENTRIES:
        raise ValueError(
            f"order {d}: R_{r} needs {(r - phi) * phi} entries, over the cap of "
            f"{MAX_REDUCTION_ENTRIES}"
        )
    return r


@cache
def _reduction(d: int) -> tuple[int, int, np.ndarray, int]:
    """(s, phi(r), tail of R_r, max|R_r|) for d = r * s, r the radical of d."""
    r = reduction_radical(d)
    tail = reduction_matrix(r)
    return d // r, tail.shape[1], tail, int(np.abs(tail).max(initial=1))


def cyclotomic_residue(coeffs, d: int) -> np.ndarray:
    """Exact residue modulo Phi_d of coeffs (last axis of length d).

    coeffs is a sequence of Python ints or an integer array of any number
    of rows; entry i of a result row is the coefficient of x^i.  Since
    Phi_d(x) = Phi_r(x^s) for r the radical of d and s = d / r, only R_r
    is used: coefficient k*s + j is coefficient k of slice j, each slice
    reduces by one matmul with R_r, and the residue keeps that layout.
    The product runs in int64 when the coefficient norm times max|R_r|
    stays below 2^63, so that no partial sum can overflow, and over
    Python ints (dtype object) otherwise.
    """
    s, deg, tail, peak = _reduction(d)
    if isinstance(coeffs, np.ndarray):
        norm = d * max(int(coeffs.max(initial=0)), -int(coeffs.min(initial=0)))
    else:
        norm = sum(map(abs, coeffs))
    if norm * peak <= INT64_MAX:
        arr = np.asarray(coeffs, dtype=np.int64)
    else:
        arr, tail = np.asarray(coeffs, dtype=object), tail.astype(object)
    lead = arr.shape[:-1]
    if s > 1:
        arr = np.swapaxes(arr.reshape(lead + (-1, s)), -1, -2)
    # coeffs @ R_r, with the identity rows of R_r taken as they are
    out = arr[..., :deg] + arr[..., deg:] @ tail
    if s > 1:
        out = np.swapaxes(out, -1, -2).reshape(lead + (-1,))
    return out


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class CharacterSpec:
    """Character of C_m of order d | m, sending g to zeta_d.

    Its Galois conjugates g -> zeta_d^t, gcd(t, d) = 1, kill exactly the
    same elements, so the zero-test needs no t; CyclicRingElt.galois_twist
    realizes them where a cross-check wants one.
    """

    m: int
    order: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"modulus must be positive, got {self.m}")
        if self.order < 1 or self.m % self.order != 0:
            raise ValueError(f"character order {self.order} must divide m={self.m}")


def json_int(value, what: str) -> int:
    """value, which must be a JSON integer; ValueError otherwise.

    Python counts bool as int, but true is not an integer in JSON, and
    int() would turn 1.9, "1" or true into 1 without complaint.
    """
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r:.40}")
    return value


def json_ints(values, what: str) -> tuple[int, ...]:
    """values, which must be a JSON array of integers, as a tuple."""
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError(f"{what} must be a list of integers, got {values!r:.40}")
    return tuple(values)


# a plain decimal: int() also takes "1_2", "+5", " 5" and non-ASCII digits
_DECIMAL = re.compile(r"-?[0-9]+")
_DECIMALS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def decimal_int(text: str) -> int:
    """text, which must be an optional - and ASCII digits 0-9, as an int;
    ValueError otherwise."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r:.40}")
    return int(text)


def decimal_ints(text: str) -> tuple[int, ...]:
    """text, which must be decimal integers (as decimal_int) joined by
    commas, as a tuple; ValueError otherwise."""
    if not _DECIMALS.fullmatch(text):
        raise ValueError(f"not comma-separated decimal integers: {text!r:.40}")
    return tuple(map(int, text.split(",")))


@dataclass(frozen=True)
class CyclicRingElt:
    """Immutable element of Z[C_m]; coeffs[i] is the coefficient of g^i."""

    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"modulus must be positive, got {self.m}")
        if len(self.coeffs) != self.m:
            raise ValueError(f"need {self.m} coefficients, got {len(self.coeffs)}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, m: int, coeffs) -> "CyclicRingElt":
        return cls(m, tuple(int(c) for c in coeffs))

    @classmethod
    def zero(cls, m: int) -> "CyclicRingElt":
        return cls(m, (0,) * m)

    @classmethod
    def monomial(cls, m: int, i: int, c: int = 1) -> "CyclicRingElt":
        coeffs = [0] * m
        coeffs[i % m] = c
        return cls(m, tuple(coeffs))

    @classmethod
    def from_json(cls, text: str | dict) -> "CyclicRingElt":
        obj = json.loads(text) if isinstance(text, str) else text
        return cls(json_int(obj["m"], "m"), json_ints(obj["coeffs"], "coeffs"))

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": list(self.coeffs)}

    # -- basic structure -----------------------------------------------------

    @property
    def norm(self) -> int:
        """Sum of absolute values of coefficients."""
        return sum(abs(c) for c in self.coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _same_group(self, other: "CyclicRingElt"):
        if self.m != other.m:
            raise ValueError(f"mixed moduli {self.m} and {other.m}")

    def __add__(self, other: "CyclicRingElt") -> "CyclicRingElt":
        self._same_group(other)
        return CyclicRingElt(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclicRingElt") -> "CyclicRingElt":
        self._same_group(other)
        return CyclicRingElt(self.m, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclicRingElt":
        return CyclicRingElt(self.m, tuple(-a for a in self.coeffs))

    def scale(self, c: int) -> "CyclicRingElt":
        return CyclicRingElt(self.m, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "CyclicRingElt") -> "CyclicRingElt":
        """Cyclic convolution, with an explicit 64-bit overflow guard."""
        self._same_group(other)
        m = self.m
        out = [0] * m
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % m] += a * b
        if any(abs(c) > INT64_MAX for c in out):
            raise OverflowError("group-ring product left the signed 64-bit range")
        return CyclicRingElt(m, tuple(out))

    def shift(self, j: int) -> "CyclicRingElt":
        """Multiply by g^j (rotate coefficients)."""
        j %= self.m
        return CyclicRingElt(self.m, self.coeffs[-j:] + self.coeffs[:-j])

    def conj_inverse(self) -> "CyclicRingElt":
        """The involution g -> g^{-1}, i.e. coeffs[i] -> coeffs[-i mod m]."""
        m = self.m
        return CyclicRingElt(m, tuple(self.coeffs[(m - i) % m] for i in range(m)))

    def galois_twist(self, t: int) -> "CyclicRingElt":
        """Index map i -> t*i mod m for gcd(t, m) = 1.

        Realizes the Galois action zeta_m -> zeta_m^t on character values.
        """
        if gcd(t, self.m) != 1:
            raise ValueError(f"twist {t} not coprime to modulus {self.m}")
        out = [0] * self.m
        for i, c in enumerate(self.coeffs):
            out[(t * i) % self.m] = c
        return CyclicRingElt(self.m, tuple(out))

    def natural_projection(self, d: int) -> "CyclicRingElt":
        """Ring homomorphism onto Z[C_d] for d | m: g -> generator of C_d."""
        if d < 1 or self.m % d != 0:
            raise ValueError(f"projection target {d} must divide modulus {self.m}")
        out = [0] * d
        for i, c in enumerate(self.coeffs):
            out[i % d] += c
        return CyclicRingElt(d, tuple(out))

    def psi_projection(self) -> int:
        """Image under the order-2 character g -> -1; modulus must be even."""
        if self.m % 2 != 0:
            raise ValueError(f"psi projection needs an even modulus, got {self.m}")
        return sum(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))


def subgroup_sum(m: int, s: int) -> CyclicRingElt:
    """P_s: the sum over the (unique) subgroup of order s | m."""
    if s < 1 or m % s != 0:
        raise ValueError(f"subgroup order {s} must divide {m}")
    coeffs = [0] * m
    for i in range(s):
        coeffs[i * (m // s)] = 1
    return CyclicRingElt(m, tuple(coeffs))


def punctured_subgroup_sum(m: int, s: int) -> CyclicRingElt:
    """P_s minus the identity term."""
    elt = subgroup_sum(m, s)
    coeffs = list(elt.coeffs)
    coeffs[0] -= 1
    return CyclicRingElt(m, tuple(coeffs))


def character_value_is_zero(elt: CyclicRingElt, chi: CharacterSpec) -> bool:
    """Exact test chi(elt) == 0.

    chi(g^i) = zeta_d^i, so the value is q(zeta_d) for the folded
    polynomial q[i mod d] += coeffs[i], and q(zeta_d) = 0 iff the
    residue of q modulo Phi_d, the minimal polynomial of zeta_d, is zero.
    """
    if chi.m != elt.m:
        raise ValueError(f"character on C_{chi.m} applied to element of C_{elt.m}")
    d = chi.order
    if d == elt.m:
        folded = elt.coeffs
    else:
        folded = [0] * d
        for i, c in enumerate(elt.coeffs):
            if c:
                folded[i % d] += c
    return not np.count_nonzero(cyclotomic_residue(folded, d))


def character_values_numeric(elt: CyclicRingElt) -> list[complex]:
    """All m character values chi_j(elt) = sum_i coeffs[i] zeta_m^{ij}.

    Floating point; for cross-checks only.
    """
    m = elt.m
    root = np.exp(2j * np.pi * np.arange(m) / m).tolist()
    return [sum(c * root[(i * j) % m] for i, c in enumerate(elt.coeffs)) for j in range(m)]
