"""Vanishing sums of m-th roots of unity inside N[C_m].

A *v-sum* is an element D of N[C_m] killed by a character of order m
(equivalently by all of them, since they are Galois conjugate).  A v-sum
is *minimal* when no nonzero proper sub-element, componentwise between 0
and D, is itself a v-sum; the zero sub-element never counts.  Every
v-sum splits into minimal ones, and the shape of the minimal pieces is
what the nonexistence criteria consume:

- exponent(D): lcm of the orders of the support elements,
- reduced_exponent(D): the same after the best shift of the support,
  always squarefree for minimal v-sums,
- c_exponent(D): the smallest achievable lcm of reduced exponents over
  all decompositions of D into minimal v-sums,
- structure_decompose(D): integer elements E_p with D = sum_p P_p E_p,
  p running over the primes of the c-exponent.

The minimal parts under D, which c_exponent covers D with, come from one
of two exact routes.  When m = p^a q^b has at most two prime factors,
every v-sum is a nonnegative combination of shifted P_p and P_q (de
Bruijn 1953; Lam and Leung 2000), so the parts are just the prime-order
cosets g^j P_p that fit under D, listed in O(m) with no zero-test.  With
three or more primes, and for minimality tests, a sub-sum walk runs:
backtracking with a triangle-inequality float prune and an exact
zero-test (residue mod Phi_m) at the leaves.  c_exponent refuses
elements above its max_norm on both routes.

The enumerator of all minimal v-sums up to a norm bound assembles
candidates fiberwise over a coprime splitting C_m = C_q x C_r (q the
largest prime-power factor), which keeps it exhaustive while avoiding a
blind walk over all coefficient vectors.  The C_r fibers are grouped by
exact value, their residues mod Phi_r, which a matmul reduces in chunks.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import gcd, lcm

import numpy as np

from .ring import (
    CharacterSpec,
    CyclicRingElt,
    character_value_is_zero,
    cyclotomic_polynomial,
    cyclotomic_residue,
    factorize,
    subgroup_sum,
)

_EPS = 1e-9


def is_vsum(elt: CyclicRingElt) -> bool:
    """True iff elt lies in N[C_m] and an order-m character kills it."""
    if not elt.is_nonnegative():
        raise ValueError("v-sums need nonnegative coefficients")
    return character_value_is_zero(elt, CharacterSpec(elt.m, elt.m))


def exponent(elt: CyclicRingElt) -> int:
    """lcm of the orders m/gcd(i, m) over the support of elt."""
    supp = elt.support()
    if not supp:
        raise ValueError("the zero element has no exponent")
    return lcm(*(elt.m // gcd(i, elt.m) for i in supp))


def reduced_exponent(elt: CyclicRingElt) -> int:
    return _reduced_exponent_anchor(elt)[0]


def _reduced_exponent_anchor(elt: CyclicRingElt) -> tuple[int, int]:
    """(k, j): the minimal exponent after dividing by g^j, j in the support."""
    supp = elt.support()
    if not supp:
        raise ValueError("the zero element has no reduced exponent")
    m = elt.m
    best, anchor = None, None
    for j in supp:
        k = lcm(*(m // gcd((i - j) % m, m) for i in supp))
        if best is None or k < best:
            best, anchor = k, j
    return best, anchor


@lru_cache(maxsize=None)
def _prune_roots(m: int) -> tuple[tuple[int, ...], tuple[tuple[complex, ...], ...]]:
    """Rows zeta_m^{t*i} for units t up to m/2 (conjugates add nothing)."""
    ts = tuple(t for t in range(1, m // 2 + 1) if gcd(t, m) == 1) or ((1,) if m == 1 else ())
    rows = tuple(
        tuple(cmath.exp(2j * cmath.pi * t * i / m) for i in range(m)) for t in ts
    )
    return ts, rows


def _vanishing_subsums(elt: CyclicRingElt, find_proper_only: bool = False):
    """All nonzero B <= elt with tau(B) = 0, as coefficient tuples.

    With find_proper_only the walk stops at the first proper one (B != elt)
    and returns a one-element or empty list.  Backtracking over support
    multiplicities; a partial sum whose modulus under some order-m
    character exceeds the remaining mass can never cancel, which is the
    only pruning; acceptance at a leaf is the exact zero-test.
    """
    m = elt.m
    supp = elt.support()
    mults = [elt.coeffs[i] for i in supp]
    _, rows = _prune_roots(m)
    tail = [0] * (len(supp) + 1)
    for idx in range(len(supp) - 1, -1, -1):
        tail[idx] = tail[idx + 1] + mults[idx]
    found: list[tuple[int, ...]] = []
    chosen = [0] * len(supp)

    def leaf_ok() -> tuple[int, ...] | None:
        if not any(chosen):
            return None
        coeffs = [0] * m
        for pos, b in zip(supp, chosen):
            coeffs[pos] = b
        cand = CyclicRingElt(m, tuple(coeffs))
        if find_proper_only and cand == elt:
            return None
        if character_value_is_zero(cand, CharacterSpec(m, m)):
            return cand.coeffs
        return None

    def walk(idx: int, vals: list[complex]) -> bool:
        if idx == len(supp):
            got = leaf_ok()
            if got is not None:
                found.append(got)
                return find_proper_only
            return False
        rem = tail[idx + 1]
        for b in range(mults[idx] + 1):
            chosen[idx] = b
            nxt = [v + b * row[supp[idx]] for v, row in zip(vals, rows)]
            if all(abs(v) <= rem + _EPS for v in nxt):
                if walk(idx + 1, nxt):
                    return True
        chosen[idx] = 0
        return False

    walk(0, [0j] * len(rows))
    return found


def is_minimal_vsum(elt: CyclicRingElt) -> bool:
    """No nonzero proper sub-element of elt is itself a v-sum."""
    if not is_vsum(elt):
        raise ValueError("not a v-sum")
    if not elt:
        raise ValueError("the zero element is not decomposed")
    return not _vanishing_subsums(elt, find_proper_only=True)


def minimal_norm_lower_bound(k: int) -> int:
    """Largest known lower bound for the norm of a minimal v-sum of
    reduced exponent k (k squarefree).

    Two bounds are combined: 2 + sum over p | k of (p - 2), and, when k
    has at least three prime factors p1 < p2 < p3 <= ...,
    (p1 - 1)(p2 - 1) + (p3 - 1).
    """
    fact = factorize(k)
    if fact.radical != k:
        raise ValueError(f"reduced exponents are squarefree; got {k}")
    primes = fact.primes
    bound = 2 + sum(p - 2 for p in primes)
    if len(primes) >= 3:
        bound = max(bound, (primes[0] - 1) * (primes[1] - 1) + (primes[2] - 1))
    return bound


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class MinimalVsum:
    elt: CyclicRingElt
    reduced_exponent: int

    def to_json(self) -> dict:
        return {"elt": self.elt.to_json(), "k": self.reduced_exponent}

    @classmethod
    def from_json(cls, obj: dict) -> "MinimalVsum":
        return cls(CyclicRingElt.from_json(obj["elt"]), int(obj["k"]))


@dataclass(frozen=True)
class MinimalDecomposition:
    """D = sum of parts, each a minimal v-sum; lcm of their reduced exponents."""

    parts: tuple[MinimalVsum, ...]
    lcm_exponent: int

    def to_json(self) -> dict:
        return {"parts": [p.to_json() for p in self.parts], "lcm": self.lcm_exponent}

    @classmethod
    def from_json(cls, text: str | dict) -> "MinimalDecomposition":
        obj = json.loads(text) if isinstance(text, str) else text
        return cls(tuple(MinimalVsum.from_json(p) for p in obj["parts"]), int(obj["lcm"]))

    def total(self) -> CyclicRingElt:
        out = CyclicRingElt.zero(self.parts[0].elt.m)
        for p in self.parts:
            out = out + p.elt
        return out


def _minimal_parts_within(elt: CyclicRingElt) -> list[MinimalVsum]:
    """Every minimal v-sum B <= elt, sorted by coefficient tuple.

    For m = p^a q^b the minimal v-sums are exactly the prime-order
    cosets g^j P_p (see the module docstring), so they are listed
    directly: a coset fits under elt iff elt is >= 1 on each of its p
    points, and its reduced exponent is p.  Three or more primes fall
    back to the sub-sum walk.
    """
    m = elt.m
    primes = factorize(m).primes
    if len(primes) > 2:
        return _minimal_parts_by_walk(elt)
    parts = [
        MinimalVsum(subgroup_sum(m, p).shift(j), p)
        for p in primes
        for j in range(m // p)
        if all(elt.coeffs[i] >= 1 for i in range(j, m, m // p))
    ]
    parts.sort(key=lambda part: part.elt.coeffs)
    return parts


def _minimal_parts_by_walk(elt: CyclicRingElt) -> list[MinimalVsum]:
    """Every minimal v-sum B <= elt, sorted by coefficient tuple: the
    vanishing sub-sums of elt that dominate no other one."""
    subs = _vanishing_subsums(elt)
    minimal = []
    for b in subs:
        dominated = any(
            c != b and all(x <= y for x, y in zip(c, b)) for c in subs
        )
        if not dominated:
            minimal.append(b)
    minimal.sort()
    m = elt.m
    return [
        MinimalVsum(CyclicRingElt(m, b), reduced_exponent(CyclicRingElt(m, b)))
        for b in minimal
    ]


def c_exponent(elt: CyclicRingElt, max_norm: int = 16) -> tuple[int, MinimalDecomposition]:
    """Smallest lcm of reduced exponents over all decompositions of elt
    into minimal v-sums, together with a witnessing decomposition.

    The minimal sub-v-sums of elt are listed first.  For m with at most
    two prime factors they are the prime-order cosets g^j P_p under elt,
    since every v-sum there is a nonnegative combination of shifted P_p
    and P_q (de Bruijn 1953; Lam and Leung 2000); otherwise a sub-sum
    walk finds them.  Both routes give the same parts in the same order.
    Candidate lcm targets are then scanned in increasing order; for each,
    an exact-cover search runs over the parts whose reduced exponent
    divides the target.  The first target admitting a cover is the
    answer (any cover then has that exact lcm).  Parts are tried in
    lexicographic order, so the witness is deterministic.  Elements of
    norm above max_norm are refused on both routes.
    """
    if not is_vsum(elt):
        raise ValueError("not a v-sum")
    if not elt:
        raise ValueError("the zero element is not decomposed")
    if elt.norm > max_norm:
        raise ValueError(f"norm {elt.norm} exceeds the configured bound {max_norm}")

    parts = _minimal_parts_within(elt)
    exps = sorted({p.reduced_exponent for p in parts})
    targets = {1}
    for k in exps:
        targets |= {lcm(k, t) for t in targets}
    for target in sorted(targets):
        usable = [p for p in parts if target % p.reduced_exponent == 0]
        if not usable:
            continue
        cover = _exact_cover(elt.coeffs, usable)
        if cover is not None:
            return target, MinimalDecomposition(tuple(cover), target)
    raise AssertionError("a v-sum always decomposes into minimal v-sums")


def _exact_cover(
    total: tuple[int, ...], parts: list[MinimalVsum]
) -> list[MinimalVsum] | None:
    """First non-decreasing multiset of parts summing to total, or None."""
    vecs = [p.elt.coeffs for p in parts]
    dead: set[tuple[tuple[int, ...], int]] = set()

    def walk(residual: tuple[int, ...], start: int) -> list[int] | None:
        if not any(residual):
            return []
        key = (residual, start)
        if key in dead:
            return None
        for idx in range(start, len(vecs)):
            v = vecs[idx]
            if all(x <= r for x, r in zip(v, residual)):
                rest = walk(tuple(r - x for r, x in zip(residual, v)), idx)
                if rest is not None:
                    return [idx] + rest
        dead.add(key)
        return None

    picked = walk(total, 0)
    if picked is None:
        return None
    return [parts[i] for i in picked]


# ---------------------------------------------------------------------------
# peeling D = sum_p P_p E_p with integer E_p


def structure_decompose(
    elt: CyclicRingElt, max_norm: int = 16
) -> list[tuple[int, CyclicRingElt]]:
    """Integer elements E_p with elt = sum P_p E_p, primes p from the
    c-exponent.

    Each minimal part sits, after a shift, inside the subgroup of order
    equal to its (squarefree) reduced exponent; there it is peeled one
    prime at a time: splitting C_k = P_p x C_r groups the coefficients
    into p fibers over C_r, an order-k character forces the fiber values
    to agree, so the common fiber feeds P_p and the fiber differences
    are v-sums over C_r handled recursively.
    """
    k, decomp = c_exponent(elt, max_norm)
    m = elt.m
    acc: dict[int, CyclicRingElt] = {}
    for part in decomp.parts:
        kp, anchor = _reduced_exponent_anchor(part.elt)
        if factorize(kp).radical != kp:
            raise AssertionError(f"minimal v-sum with non-squarefree exponent {kp}")
        shifted = part.elt.shift(-anchor)
        step = m // kp
        inner = [0] * kp
        for i in shifted.support():
            if i % step:
                raise AssertionError("anchored minimal part left its subgroup")
            inner[i // step] = shifted.coeffs[i]
        for p, piece in _peel(CyclicRingElt(kp, tuple(inner))).items():
            lifted = [0] * m
            for u, c in enumerate(piece.coeffs):
                lifted[(anchor + u * step) % m] += c
            lift = CyclicRingElt(m, tuple(lifted))
            acc[p] = acc.get(p, CyclicRingElt.zero(m)) + lift
    out = sorted(acc.items())
    check = CyclicRingElt.zero(m)
    for p, e in out:
        check = check + subgroup_sum(m, p) * e
    if check != elt:
        raise AssertionError("structure decomposition failed to re-multiply")
    return out


def _peel(v: CyclicRingElt) -> dict[int, CyclicRingElt]:
    """v in Z[C_k], k squarefree, killed by an order-k character ->
    dict p -> E_p over Z[C_k] with v = sum_p P_p E_p."""
    k = v.m
    if k == 1:
        if v.coeffs != (0,):
            raise AssertionError("peel reached C_1 with a nonzero remainder")
        return {}
    p = factorize(k).primes[0]
    r = k // p
    rinv = pow(r, -1, p)
    fibers = [[0] * r for _ in range(p)]
    for j, c in enumerate(v.coeffs):
        alpha = (j * rinv) % p
        beta = (j * pow(p, -1, r)) % r if r > 1 else 0
        fibers[alpha][beta] = c

    def embed(alpha: int, coeffs_r) -> CyclicRingElt:
        out = [0] * k
        for beta, c in enumerate(coeffs_r):
            out[(r * alpha + p * beta) % k] += c
        return CyclicRingElt(k, tuple(out))

    acc: dict[int, CyclicRingElt] = {p: embed(0, fibers[0])}
    for alpha in range(1, p):
        diff = CyclicRingElt(r, tuple(a - b for a, b in zip(fibers[alpha], fibers[0])))
        if not diff:
            continue
        if not character_value_is_zero(diff, CharacterSpec(r, r)):
            raise AssertionError("fiber difference is not a vanishing sum")
        for q, piece in _peel(diff).items():
            lifted = embed(alpha, piece.coeffs)
            acc[q] = acc.get(q, CyclicRingElt.zero(k)) + lifted
    return {q: e for q, e in acc.items() if e}


# ---------------------------------------------------------------------------
# exhaustive enumeration of minimal v-sums


def _compositions(length: int, budget: int):
    """All nonnegative integer vectors of the given length with sum <= budget."""
    vec = [0] * length

    def walk(idx: int, left: int):
        if idx == length:
            yield tuple(vec)
            return
        for c in range(left + 1):
            vec[idx] = c
            yield from walk(idx + 1, left - c)
        vec[idx] = 0

    yield from walk(0, budget)


def _grouped_by_value(r: int, budget: int) -> dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]:
    """Elements of N[C_r] of norm <= budget, grouped by exact character value.

    The key is the residue mod Phi_r, reduced by one matmul per chunk of
    elements.  Values are (norm, coeffs) pairs sorted by norm so that
    assembly can cut early on the norm budget.
    """
    groups: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    comps = _compositions(r, budget)
    # reduced in chunks, so the scratch arrays stay small next to groups
    while chunk := list(islice(comps, 256)):
        keys = cyclotomic_residue(np.array(chunk, dtype=np.int64), r).tolist()
        for coeffs, key in zip(chunk, keys):
            groups.setdefault(tuple(key), []).append((sum(coeffs), coeffs))
    for lst in groups.values():
        lst.sort()
    return groups


def _all_vsums(m: int, max_norm: int) -> list[tuple[int, ...]]:
    """Every nonzero v-sum in N[C_m] with norm <= max_norm, exactly once.

    Split m = q * r with q the largest prime-power factor, q = p^a.  Under
    the CRT indexing j = r*alpha + q*beta the value of D factors through
    the q fibers D_alpha in N[C_r], and an order-m character kills D
    exactly when the fiber values agree along alpha mod p^{a-1} classes.
    So: group the C_r elements by exact value and assemble one value
    choice plus p fibers per class under the norm budget.  The fiber
    tuple determines D uniquely, hence no duplicates.
    """
    if m == 1:
        return []
    p, a = factorize(m).factors[-1]
    q = p**a
    r = m // q
    classes = q // p
    groups = _grouped_by_value(r, max_norm)
    zero_key = (0,) * (len(cyclotomic_polynomial(r)) - 1)
    keys = sorted(groups)

    out: list[tuple[int, ...]] = []
    fiber_choice: list[tuple[int, ...] | None] = [None] * q

    def assemble():
        coeffs = [0] * m
        for alpha in range(q):
            fib = fiber_choice[alpha]
            for beta, c in enumerate(fib):
                if c:
                    coeffs[(r * alpha + q * beta) % m] = c
        if any(coeffs):
            out.append(tuple(coeffs))

    def fill_class(cls: int, fiber_in_class: int, budget: int, key):
        """Choose the p fibers alpha = cls, cls + classes, ... for one class."""
        if fiber_in_class == p:
            next_class(cls + 1, budget)
            return
        alpha = cls + fiber_in_class * classes
        for norm, coeffs in groups.get(key, ()):
            if norm > budget:
                break
            fiber_choice[alpha] = coeffs
            fill_class(cls, fiber_in_class + 1, budget - norm, key)
        fiber_choice[alpha] = None

    def next_class(cls: int, budget: int):
        if cls == classes:
            assemble()
            return
        for key in keys:
            # nonzero values force p nonzero fibers in this class; the
            # cheapest completion weighs at least p * min norm
            lst = groups[key]
            floor = 0 if key == zero_key else p * lst[0][0]
            if floor > budget:
                continue
            fill_class(cls, 0, budget, key)

    next_class(0, max_norm)
    return out


def enumerate_minimal_vsums(
    m: int, max_norm: int, *, m_limit: int = 60, norm_limit: int = 8
) -> list[MinimalVsum]:
    """All minimal v-sums in N[C_m] of norm <= max_norm, in lexicographic
    coefficient order.  Guarded to desk scale by default."""
    if m < 1 or m > m_limit:
        raise ValueError(f"modulus {m} outside the supported range 1..{m_limit}")
    if max_norm < 0 or max_norm > norm_limit:
        raise ValueError(f"norm bound {max_norm} outside the supported range 0..{norm_limit}")
    found = []
    for coeffs in _all_vsums(m, max_norm):
        cand = CyclicRingElt(m, coeffs)
        if not _vanishing_subsums(cand, find_proper_only=True):
            found.append(cand)
    found.sort(key=lambda e: e.coeffs)
    return [MinimalVsum(e, reduced_exponent(e)) for e in found]
