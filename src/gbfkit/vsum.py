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

All three jobs that need sub-sums (the minimal parts under D that
c_exponent covers D with, the minimality test, and the census of minimal
v-sums up to a norm bound) run on one exact enumerator, _vsums_under: it
yields every nonzero v-sum below a box of coefficient bounds and within
a norm budget, exactly once.  It first moves to the smallest subgroup
coset that holds the support of the box, then works fiberwise over a
coprime splitting C_m = C_q x C_r, with q = p^a the power of the
largest prime p of m.  Each C_r fiber's sub-elements under its slice
of the box are held sparse and grouped by exact value, their residues
mod Phi_r, which a matmul reduces in chunks; fibers are then chosen
class by class from one common group, by an explicit-stack walk.
_minimal_among keeps the v-sums above no minimal v-sum of smaller
norm.  No float enters and nothing recurses with the size of m;
c_exponent refuses elements above its max_norm, and every caller
refuses inputs whose grouped fibers would pass MAX_FIBER_WORDS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from math import gcd, lcm

import numpy as np

from .ring import (
    CharacterSpec,
    CyclicRingElt,
    character_value_is_zero,
    cyclotomic_residue,
    factorize,
    subgroup_sum,
)

# enumerate_minimal_vsums guards.  At the (60, 8) corner the census
# finds 362 minimal v-sums among 65147 v-sums in about 1.5 s, with a
# 93 MB peak RSS (Python 3.11, one core of a 2-core Xeon).
MAX_ENUM_MODULUS = 60
MAX_ENUM_NORM = 8

# Memory held by the grouped fibers of one _vsums_under call, in 8-byte
# words: a sub-element held over s support cells counts 20 + s, and each
# distinct value key 24 + phi(r).  tracemalloc finds 6.3-7.7 bytes held
# per counted word (25 MB for the 125970 sub-elements of the (60, 8)
# census, 41 MB for the 2^16 of a C_1024 fiber with 16 ones), so the cap
# holds about 64 MB at most.  The (60, 8) census counts 4.3M; past the
# cap, as for the C_30 fibers of P_210, the input is refused.
MAX_FIBER_WORDS = 1 << 23


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


def is_minimal_vsum(elt: CyclicRingElt) -> bool:
    """No nonzero proper sub-element of elt is itself a v-sum.

    ValueError when the sub-elements of elt's fibers need more than
    MAX_FIBER_WORDS (see _vsums_under).
    """
    if not is_vsum(elt):
        raise ValueError("not a v-sum")
    if not elt:
        raise ValueError("the zero element is not decomposed")
    # elt is a v-sum under itself; any other one is proper
    return all(b == elt.coeffs for b in _vsums_under(elt.coeffs, elt.norm))


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
    """Every minimal v-sum B <= elt, sorted by coefficient tuple."""
    return _minimal_parts(elt.coeffs, elt.norm)


def _minimal_parts(box: tuple[int, ...], budget: int) -> list[MinimalVsum]:
    """The minimal v-sums B <= box of norm <= budget, sorted by
    coefficient tuple."""
    found = _minimal_among(list(_vsums_under(box, budget)))
    elts = [CyclicRingElt(len(box), c) for c in found]
    return [MinimalVsum(b, reduced_exponent(b)) for b in elts]


def c_exponent(elt: CyclicRingElt, max_norm: int = 16) -> tuple[int, MinimalDecomposition]:
    """Smallest lcm of reduced exponents over all decompositions of elt
    into minimal v-sums, together with a witnessing decomposition.

    The minimal sub-v-sums of elt are listed first, by one exact route
    for any number of primes in m: _vsums_under yields every v-sum below
    elt and _minimal_among keeps the minimal ones.  Candidate lcm targets
    are then scanned in increasing order; for each, an exact-cover search
    runs over the parts whose reduced exponent divides the target.  The
    first target admitting a cover is the answer (any cover then has that
    exact lcm).  Parts are tried in lexicographic order, so the witness
    is deterministic.  Elements of norm above max_norm are refused.
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
# v-sums under a box, and the minimal ones among them


def _sub_elements(bound: tuple[int, ...], budget: int):
    """Every v with 0 <= v <= bound componentwise and sum(v) <= budget,
    as tuples in lexicographic order (an odometer, so no recursion)."""
    v, left = [0] * len(bound), budget
    while True:
        yield tuple(v)
        i = len(v) - 1
        while i >= 0 and (v[i] == bound[i] or not left):
            left += v[i]
            v[i] = 0
            i -= 1
        if i < 0:
            return
        v[i] += 1
        left -= 1


def _grouped_by_value(
    r: int, betas: tuple[int, ...], bound: tuple[int, ...], budget: int, room: int
) -> tuple[dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]], int]:
    """Elements of N[C_r] supported on betas, below bound there and of
    norm <= budget, grouped by exact character value, and the words
    they take (see MAX_FIBER_WORDS).  ValueError past room words.

    Elements are held sparse, as their coefficients on betas.  The key
    is the residue mod Phi_r, reduced by one matmul per chunk of 256
    elements spread out to length r.  Values are (norm, coeffs) pairs
    sorted by norm so that assembly can cut early on the norm budget.
    """
    groups: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    count = used = 0
    elements = _sub_elements(bound, budget)
    while chunk := list(islice(elements, 256)):
        rows = np.zeros((len(chunk), r), dtype=np.int64)
        rows[:, list(betas)] = chunk
        keys = cyclotomic_residue(rows, r)
        for coeffs, key in zip(chunk, keys.tolist()):
            groups.setdefault(tuple(key), []).append((sum(coeffs), coeffs))
        count += len(chunk)
        used = count * (20 + len(betas)) + len(groups) * (24 + keys.shape[1])
        if used > room:
            raise ValueError(
                f"the sub-elements of a C_{r} fiber need over {room} words; refused"
            )
    for lst in groups.values():
        lst.sort()
    return groups, used


def _vsums_under(box: tuple[int, ...], budget: int):
    """Every nonzero v-sum B in N[C_m], m = len(box), with B <= box
    componentwise and norm <= budget, each exactly once, as coefficient
    tuples.

    When the support of box lies in one coset of the subgroup of order
    m/d, B lives there too, and an order-m character kills B exactly
    when an order-m/d one kills it read in that subgroup; so the walk
    runs in C_{m/d}.  Then split m = q * r with q = p^a the power of the
    largest prime p of m.  Under the CRT indexing j = r*alpha + q*beta
    the value of B factors through the q fibers B_alpha in N[C_r], and
    an order-m character kills B exactly when the fiber values agree on
    each class of alpha mod q/p.  So each fiber's sub-elements under its
    slice of the box are grouped by exact value; a class may take a
    value only when every fiber in it has that value, at a norm of at
    least the sum of the fibers' cheapest norms for it (0 for the zero
    value).  The fiber tuple determines B, hence no duplicates.
    ValueError when the grouped fibers need more than MAX_FIBER_WORDS.
    """
    m = len(box)
    supp = [j for j, b in enumerate(box) if b]
    if not supp:
        return
    d = gcd(m, *(j - supp[0] for j in supp))
    if d > 1:
        j0 = supp[0] % d
        for sub in _vsums_under(box[j0::d], budget):
            coeffs = [0] * m
            coeffs[j0::d] = sub
            yield tuple(coeffs)
        return
    if m == 1:
        return  # N[C_1] = N holds no nonzero v-sum
    p, a = factorize(m).factors[-1]
    q = p**a
    r, classes = m // q, q // p
    # per fiber: the indices j of its support, and its grouped sub-elements
    slots, groups = [], []
    by_shape: dict[tuple, dict] = {}
    room = MAX_FIBER_WORDS
    for alpha in range(q):
        cells = [(beta, (r * alpha + q * beta) % m) for beta in range(r)]
        cells = [(beta, j) for beta, j in cells if box[j]]
        shape = (tuple(beta for beta, _ in cells), tuple(box[j] for _, j in cells))
        if shape not in by_shape:
            by_shape[shape], used = _grouped_by_value(r, *shape, budget, room)
            room -= used
        slots.append([j for _, j in cells])
        groups.append(by_shape[shape])
    # per class, the (norm floor, value) pairs every fiber of it can take
    options = []
    for cls in range(classes):
        fibers = [groups[cls + i * classes] for i in range(p)]
        shared = set(fibers[0]).intersection(*fibers[1:])
        options.append(sorted((sum(f[key][0][0] for f in fibers), key) for key in shared))
    # Depth-first over the levels class 0's value, its p fibers, class
    # 1's value, ...; each level yields the slack it leaves, the budget
    # left over the cheapest completion of the classes chosen so far.  An
    # explicit stack of level generators, so q may pass the recursion limit.
    values: list[tuple[int, ...]] = [()] * classes
    chosen: list[tuple[int, ...]] = [()] * q

    def level(k: int, slack: int):
        cls, i = divmod(k, p + 1)
        if i == 0:
            for floor, key in options[cls]:
                if floor > slack:
                    return
                values[cls] = key
                yield slack - floor
            return
        alpha = cls + (i - 1) * classes
        lst = groups[alpha][values[cls]]
        cheapest = lst[0][0]
        for norm, coeffs in lst:
            if norm - cheapest > slack:
                return
            chosen[alpha] = coeffs
            yield slack - (norm - cheapest)

    depth = classes * (p + 1)
    stack = [level(0, budget)]
    while stack:
        slack = next(stack[-1], None)
        if slack is None:
            stack.pop()
        elif len(stack) < depth:
            stack.append(level(len(stack), slack))
        else:
            coeffs = [0] * m
            for idx, fib in zip(slots, chosen):
                for j, c in zip(idx, fib):
                    coeffs[j] = c
            if any(coeffs):
                yield tuple(coeffs)


def _minimal_among(vsums: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The minimal v-sums in vsums, sorted.

    vsums must hold, with each member, every nonzero v-sum below it.
    Every v-sum lies above a minimal one, and two different v-sums of
    equal norm never lie one below the other.  So, taking norms in
    increasing order, a member is minimal exactly when no minimal member
    of smaller norm lies below it.
    """
    levels: dict[int, list[tuple[int, ...]]] = {}
    for b in vsums:
        levels.setdefault(sum(b), []).append(b)
    minimal: list[tuple[int, ...]] = []
    below: list[np.ndarray] = []
    for norm in sorted(levels):
        level, fresh = levels[norm], []
        # in chunks of about 2^16 entries, so the scratch arrays stay
        # small next to vsums
        step = max(1, (1 << 16) // len(level[0]))
        for start in range(0, len(level), step):
            rows = np.array(level[start : start + step], dtype=np.int64)
            for c in below:
                rows = rows[~(rows >= c).all(axis=1)]
            fresh.append(rows)
        for rows in fresh:
            below += list(rows)
            minimal += map(tuple, rows.tolist())
    minimal.sort()
    return minimal


def enumerate_minimal_vsums(m: int, max_norm: int) -> list[MinimalVsum]:
    """All minimal v-sums in N[C_m] of norm <= max_norm, in lexicographic
    coefficient order.  Guarded to desk scale: m <= MAX_ENUM_MODULUS and
    max_norm <= MAX_ENUM_NORM."""
    if m < 1 or m > MAX_ENUM_MODULUS:
        raise ValueError(f"modulus {m} outside the supported range 1..{MAX_ENUM_MODULUS}")
    if max_norm < 0 or max_norm > MAX_ENUM_NORM:
        raise ValueError(f"norm bound {max_norm} outside the supported range 0..{MAX_ENUM_NORM}")
    return _minimal_parts((max_norm,) * m, max_norm)
