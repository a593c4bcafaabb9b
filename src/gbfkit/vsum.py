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

c_exponent needs no list of sub-sums: the least t | m for which an
order-m character kills D on every coset of the order-t subgroup is
the answer, one matmul per t, and the witness is peeled coset by coset.
is_minimal_vsum runs the same scan first: an element that occupies two
or more cosets there is not minimal.  The jobs that do need sub-sums
(a proper sub-v-sum for the peel, the minimality test past the scan,
and the census of minimal v-sums up to a norm bound) run on one exact
enumerator, _vsums_under: it yields every nonzero v-sum below a box of
coefficient bounds and within a norm budget, exactly once.  It first
moves to the smallest subgroup coset that holds the support of the
box, then works fiberwise over a coprime splitting C_m = C_q x C_r,
with q = p^a the power of the largest prime p of m: a v-sum is a
choice of fibers in N[C_r] whose exact values (residues mod Phi_r)
agree on each class of p fibers, made class by class by an
explicit-stack walk.  A class of nonzero value has p nonzero fibers,
so fibers are grouped only up to norm budget - (p - 1), and those of
value zero (v-sums of C_r) come from a recursion into C_r.  The census
walks less, by the fiber lemma (_census_candidates): a minimal v-sum
with a class of value zero is one fiber or is 0 on that class.  The
n = 3 catalog in gbfkit.search does not walk: it needs only how many
v-sums there are of each norm, which _vsum_counts reads from the same
grouped fibers.  No float enters, and recursion goes only into C_r, as
deep as m has primes; c_exponent refuses elements above its max_norm,
and every caller refuses inputs whose grouped fibers would pass
MAX_FIBER_WORDS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice
from math import gcd, lcm, prod
from operator import itemgetter

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
# finds 362 minimal v-sums among 2702 candidates in 0.04-0.08 s, and
# the process peaks at 32 MB, 27 MB of it numpy's import (VmHWM in
# /proc/self/status; Python 3.11, one core of a 2-core Xeon VM).
MAX_ENUM_MODULUS = 60
MAX_ENUM_NORM = 8

# Memory held by the grouped fibers of one _vsums_under call, in 8-byte
# words: a sub-element held over s support cells counts 20 + s, and each
# distinct value key 24 + phi(r).  tracemalloc finds up to 7.3 bytes
# held per counted word (41 MB for the 2^16 sub-elements of a C_1024
# fiber with 16 ones), so the cap holds about 64 MB at most.  The
# (60, 8) census counts 84k; P_210's C_30 fibers are refused up front.
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

    The coset scan of c_exponent answers first: when elt occupies two
    or more cosets of H_t for the least passing t, its restriction to
    any one of them is a nonzero proper sub-v-sum.  Otherwise a proper
    sub-element has a smaller norm, so the first v-sum under elt within
    norm - 1, if any, decides.  ValueError when the sub-elements of
    elt's fibers need more than MAX_FIBER_WORDS (see _vsums_under).
    """
    if not is_vsum(elt):
        raise ValueError("not a v-sum")
    if not elt:
        raise ValueError("the zero element is not decomposed")
    t = _least_passing_order(elt)
    cosets = np.asarray(elt.coeffs).reshape(t, elt.m // t).any(axis=0)
    if np.count_nonzero(cosets) > 1:
        return False
    return next(_vsums_under(elt.coeffs, elt.norm - 1), None) is None


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


@dataclass(frozen=True)
class MinimalDecomposition:
    """D = sum of parts, each a minimal v-sum; lcm of their reduced exponents."""

    parts: tuple[MinimalVsum, ...]
    lcm_exponent: int

    def to_json(self) -> dict:
        return {"parts": [p.to_json() for p in self.parts], "lcm": self.lcm_exponent}


def c_exponent(elt: CyclicRingElt, max_norm: int = 16) -> tuple[int, MinimalDecomposition]:
    """Smallest lcm of reduced exponents over all decompositions of elt
    into minimal v-sums, together with a witnessing decomposition.

    Let H_t be the subgroup of order t | m.  The answer is the least t
    such that an order-m character kills the restriction of elt to every
    coset of H_t, which _least_passing_order finds, one matmul per t.
    Proof: a minimal part of reduced exponent k, anchored at j, has its
    support in j + (m/k)Z, one coset of H_k.  So a decomposition whose
    lcm divides t splits elt coset by coset of H_t into sums of v-sums,
    and t passes.  Conversely, when t passes,
    each restriction is a v-sum inside one coset of H_t, and its minimal
    parts there have reduced exponents dividing t.  Hence the least
    passing t is the least lcm over all decompositions, and any
    decomposition made coset by coset has lcm exactly t.

    The witness is made so: in each occupied coset, descend from the
    residual to its first proper sub-v-sum (_vsums_under under a budget
    one below its norm) until there is none, which leaves a minimal
    part; subtract that part as often as it fits, and repeat.  Parts are
    listed in coefficient order.  Elements of norm above max_norm are
    refused, and so are cosets whose fibers pass MAX_FIBER_WORDS.  No
    R_t used here is larger than the R_m that is_vsum builds.
    """
    if not is_vsum(elt):
        raise ValueError("not a v-sum")
    if not elt:
        raise ValueError("the zero element is not decomposed")
    if elt.norm > max_norm:
        raise ValueError(f"norm {elt.norm} exceeds the configured bound {max_norm}")

    m, k = elt.m, _least_passing_order(elt)
    step, found = m // k, []
    for j in range(step):
        rest = elt.coeffs[j::step]
        while any(rest):
            part = rest
            while (sub := next(_vsums_under(part, sum(part) - 1), None)) is not None:
                part = sub
            times = min(r // c for r, c in zip(rest, part) if c)
            rest = tuple(r - times * c for r, c in zip(rest, part))
            lifted = [0] * m
            lifted[j::step] = part
            found += [tuple(lifted)] * times
    parts = [CyclicRingElt(m, c) for c in sorted(found)]
    return k, MinimalDecomposition(tuple(MinimalVsum(b, reduced_exponent(b)) for b in parts), k)


def _least_passing_order(elt: CyclicRingElt) -> int:
    """The least t | m such that an order-m character kills the
    restriction of elt to every coset of H_t, the subgroup of order t.
    Coset j is column j of coeffs.reshape(t, m/t), read in C_t, so one
    cyclotomic_residue matmul tests a t."""
    m, coeffs = elt.m, np.asarray(elt.coeffs)
    return next(
        t for t in range(1, m + 1)
        if m % t == 0 and not np.count_nonzero(cyclotomic_residue(coeffs.reshape(t, m // t).T, t))
    )


# ---------------------------------------------------------------------------
# peeling D = sum_p P_p E_p with integer E_p


def structure_decompose(elt: CyclicRingElt) -> list[tuple[int, CyclicRingElt]]:
    """Integer elements E_p with elt = sum P_p E_p, primes p from the
    c-exponent.

    Each minimal part sits, after a shift, inside the subgroup of order
    equal to its (squarefree) reduced exponent; there it is peeled one
    prime at a time: splitting C_k = P_p x C_r groups the coefficients
    into p fibers over C_r, an order-k character forces the fiber values
    to agree, so the common fiber feeds P_p and the fiber differences
    are v-sums over C_r handled recursively.  Elements of norm above
    c_exponent's default bound are refused.
    """
    _, decomp = c_exponent(elt)
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
    dict p -> E_p over Z[C_k] with v = sum_p P_p E_p.  k >= 2: the
    recursion runs only on a nonzero fiber difference that an order-r
    character kills, and none does in C_1."""
    k = v.m
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


def _count_within(bound: tuple[int, ...], cut: int) -> int:
    """How many tuples _sub_elements(bound, cut) yields, by prefix sums."""
    if cut >= sum(bound):
        return prod(b + 1 for b in bound)
    ways = [1] + [0] * cut
    for b in bound:
        run = list(accumulate(ways))
        ways = [run[t] - (run[t - b - 1] if t > b else 0) for t in range(cut + 1)]
    return sum(ways)


def _grouped_by_value(
    r: int, betas: tuple[int, ...], bound: tuple[int, ...], budget: int, cut: int,
    vanishing_fibers: bool, room: int,
) -> tuple[dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]], int]:
    """Elements of N[C_r] on betas, below bound there, grouped by exact
    value, and the words they take (see MAX_FIBER_WORDS): for nonzero
    values those of norm <= cut; for the zero value 0 and, with
    vanishing_fibers, the v-sums of norm <= budget, by recursion or,
    where that at most doubles the count, by listing up to the budget.
    ValueError past room words, up front if the count alone passes them.

    Elements are held sparse, as their coefficients on betas; the key
    is the residue mod Phi_r, one matmul per chunk of 256.  Values are
    sorted (norm, coeffs) pairs, so assembly can cut early on the norm.
    """
    s, count = len(betas), _count_within(bound, cut)
    recurse = vanishing_fibers and r > 1 and cut < min(budget, sum(bound))
    if recurse and (full := _count_within(bound, budget)) <= 2 * count:
        cut, count, recurse = budget, full, False  # cheaper than the recursion
    used = count * (20 + s)
    if used > room:
        raise ValueError(f"the sub-elements of a C_{r} fiber need over {room} words; refused")
    groups: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    elements = _sub_elements(bound, cut)
    while chunk := list(islice(elements, 256)):
        rows = np.zeros((len(chunk), r), dtype=np.int64)
        rows[:, list(betas)] = chunk
        # mod Phi_1 = x - 1, an element of N[C_1] is its own residue
        keys = cyclotomic_residue(rows, r) if r > 1 else rows
        for coeffs, key in zip(chunk, keys.tolist()):
            groups.setdefault(tuple(key), []).append((sum(coeffs), coeffs))
    # the first element listed is 0, so the first key is the zero value
    zero = next(iter(groups))
    if not vanishing_fibers:
        groups[zero] = groups[zero][:1]
    elif recurse:
        box = dict(zip(betas, bound))
        vsums = _vsums_under(tuple(box.get(beta, 0) for beta in range(r)), budget)
        groups[zero] = [(0, (0,) * s)] + [(sum(v), tuple(v[b] for b in betas)) for v in vsums]
        used += len(groups[zero]) * (20 + s)
    used += len(groups) * (24 + len(zero))
    if used > room:
        raise ValueError(f"the sub-elements of a C_{r} fiber need over {room} words; refused")
    for lst in groups.values():
        lst.sort()
    return groups, used


def _fibers(box: tuple[int, ...], budget: int, vanishing_fibers: bool):
    """The setup _vsums_under walks and _vsum_counts counts: None when
    no nonzero v-sum lies under box, else (p, slots, groups, options).

    The support of box lies in one coset j0 + dZ of the subgroup of
    order n = m/d, with d as large as possible; n = q * r splits as
    _vsums_under says.  Fiber alpha of that coset holds the cells
    slots[alpha], indices into box, and groups[alpha] is its grouped
    sub-elements (_grouped_by_value), one per distinct shape of its
    slice of the box.  Class c holds the fibers c, c + q/p, ..., and
    options[c] lists the values every one of them can take, each after
    its norm floor, the sum of the fibers' cheapest norms for it.
    """
    m = len(box)
    supp = [j for j, b in enumerate(box) if b]
    if not supp:
        return None
    d = gcd(m, *(j - supp[0] for j in supp))
    j0, n = supp[0] % d, m // d
    if n == 1:
        return None  # N[C_1] = N holds no nonzero v-sum
    p, a = factorize(n).factors[-1]
    q = p**a
    r, classes = n // q, q // p
    slots, groups = [], []
    by_shape: dict[tuple, dict] = {}
    room, cut = MAX_FIBER_WORDS, max(budget - p + 1, 0)
    for alpha in range(q):
        cells = [(beta, j0 + d * ((r * alpha + q * beta) % n)) for beta in range(r)]
        cells = [(beta, j) for beta, j in cells if box[j]]
        shape = (tuple(beta for beta, _ in cells), tuple(box[j] for _, j in cells))
        if shape not in by_shape:
            by_shape[shape], used = _grouped_by_value(r, *shape, budget, cut, vanishing_fibers, room)
            room -= used
        slots.append([j for _, j in cells])
        groups.append(by_shape[shape])
    # per class, the (norm floor, value) pairs every fiber of it can take
    options = []
    for cls in range(classes):
        fibers = groups[cls::classes]
        shared = set(fibers[0]).intersection(*fibers[1:])
        options.append(sorted((sum(f[key][0][0] for f in fibers), key) for key in shared))
    return p, slots, groups, options


def _vsums_under(box: tuple[int, ...], budget: int, vanishing_fibers: bool = True):
    """Every nonzero v-sum B in N[C_m], m = len(box), with B <= box
    componentwise and norm <= budget, each exactly once, as coefficient
    tuples.  Without vanishing_fibers, only those in which every fiber
    of a class of value zero is 0 (see _census_candidates).

    When the support of box lies in one coset of the subgroup of order
    m/d, B lives there too, and an order-m character kills B exactly
    when an order-m/d one kills it read in that subgroup; so the walk
    runs in C_{m/d} (_fibers), written m below.  Then split m = q * r
    with q = p^a the power of the largest prime p of m.  Under the CRT
    indexing j = r*alpha + q*beta the value of B factors through the q
    fibers B_alpha in N[C_r], and an order-m character kills B exactly
    when the fiber values agree on each class of alpha mod q/p.  So each
    fiber's sub-elements under its slice of the box are grouped by exact
    value; a class may take a value only when every fiber in it has that
    value, at a norm of at least the sum of the fibers' cheapest norms
    for it (0 for the zero value).  The fiber tuple determines B, hence
    no duplicates.

    The cut: a fiber in a class of nonzero value has p - 1 nonzero
    companions, so the walk reads none of its sub-elements above norm
    budget - (p - 1), and a value whose cheapest element in some fiber
    is above that has a floor above the budget.  So nonzero values are
    grouped only within the cut, the walk reads the same prefix of each
    list, and the yield order is unchanged.  The zero value's list is 0
    and the v-sums under the fiber's box in C_r (see _grouped_by_value).

    The fibers are chosen in alpha order, so B is one itemgetter gather
    from their coefficients laid end to end, with a trailing 0 for the
    cells outside the box; the last fiber's choices run in a plain loop
    under the head the others make.  ValueError when the grouped fibers
    need more than MAX_FIBER_WORDS.
    """
    if (setup := _fibers(box, budget, vanishing_fibers)) is None:
        return
    p, slots, groups, options = setup
    m, q, classes = len(box), len(groups), len(options)
    at = dict(zip(chain.from_iterable(slots), range(m)))
    place = itemgetter(*(at.get(j, len(at)) for j in range(m)))
    # Depth-first over the levels class 0's value, its p fibers, class
    # 1's value, ...; each level yields the slack it leaves over the
    # cheapest completion so far.  An explicit stack of level generators,
    # so q may pass the recursion limit; the last level runs inline.
    values: list[tuple[int, ...]] = [()] * classes
    chosen: list[tuple[int, ...]] = [()] * (q - 1)

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
        elif len(stack) < depth - 1:
            stack.append(level(len(stack), slack))
        else:
            head = [*chain.from_iterable(chosen)]
            lst = groups[q - 1][values[-1]]
            cheapest = lst[0][0]
            for norm, coeffs in lst:
                if norm - cheapest > slack:
                    break
                b = place([*head, *coeffs, 0])
                if any(b):
                    yield b


def _vsum_counts(box: tuple[int, ...], budget: int) -> list[int]:
    """How many v-sums _vsums_under(box, budget) yields at each norm
    0..budget, from the same grouped fibers, without the walk.

    A v-sum is a value per class and a sub-element of that value per
    fiber, so a class contributes the sum over its shared values of the
    product of its fibers' norm histograms, and the classes multiply;
    the product, cut at the budget, counts the zero choice once, at
    norm 0.  As in the walk, a value counts from its norm floor, and
    each fiber's histogram from its cheapest norm up to the slack the
    floor leaves; the cut of the walk holds here too, since a histogram
    misses only norms that no v-sum within the budget uses.
    """
    counts = [1] + [0] * budget
    if (setup := _fibers(box, budget, True)) is not None:
        _, _, groups, options = setup
        classes = len(options)
        for cls, pairs in enumerate(options):
            poly = [0] * (budget + 1)
            for floor, key in pairs:
                if floor > budget:
                    break
                slack, term = budget - floor, [1]
                for fiber in groups[cls::classes]:
                    hist, cheapest = [0] * (slack + 1), fiber[key][0][0]
                    for norm, _ in fiber[key]:
                        if norm - cheapest > slack:
                            break
                        hist[norm - cheapest] += 1
                    term = _times(term, hist, slack)
                for i, x in enumerate(term):
                    poly[floor + i] += x
            counts = _times(counts, poly, budget)
    counts[0] -= 1
    return counts


def _times(a: list[int], b: list[int], budget: int) -> list[int]:
    """The product of two polynomials, coefficients listed by degree,
    up to degree budget."""
    out = [0] * (budget + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: budget + 1 - i]):
            out[i + j] += x * y
    return out


def _minimal_among(vsums: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The minimal v-sums in vsums, sorted.

    vsums must hold, with each member, every minimal v-sum below it.
    Then, taking norms in increasing order, a member is minimal exactly
    when no minimal member of smaller norm lies below it: a member that
    is not minimal lies above a nonzero proper sub-v-sum, hence above a
    minimal one of smaller norm, which is in vsums; and nothing nonzero
    lies properly below a minimal member.
    """
    levels: dict[int, list[tuple[int, ...]]] = {}
    for b in vsums:
        levels.setdefault(sum(b), []).append(b)
    below: list[np.ndarray] = []
    for norm in sorted(levels):
        rows = np.array(levels[norm], dtype=np.int64)
        for c in below:
            rows = rows[~(rows >= c).all(axis=1)]
        below += list(rows)
    return sorted(tuple(c.tolist()) for c in below)


def _census_candidates(m: int, k: int) -> list[tuple[int, ...]]:
    """Distinct v-sums of N[C_m] of norm <= k, every minimal one among
    them: the walk without vanishing fibers, and the minimal v-sums of
    C_r (the subgroup of order r) shifted into each of its q cosets.

    The fiber lemma (C_m = C_q x C_r as in _vsums_under): if a class of
    a minimal v-sum B has value zero, B is one fiber or is 0 on that
    class.  Proof: a nonzero fiber of value zero is alone a v-sum below
    B, so it is B.  A fiber is a shift of an element of C_r, minimal
    exactly when that element is; the walk leaves out just these.
    """
    if m == 1:
        return []
    p, a = factorize(m).factors[-1]
    found = list(_vsums_under((k,) * m, k, vanishing_fibers=False))
    for c in _minimal_among(_census_candidates(m // p**a, k)):
        for j in range(p**a):
            b = [0] * m
            b[j :: p**a] = c
            found.append(tuple(b))
    return found


def enumerate_minimal_vsums(m: int, max_norm: int) -> list[MinimalVsum]:
    """All minimal v-sums in N[C_m] of norm <= max_norm, in lexicographic
    coefficient order.  Guarded to desk scale: m <= MAX_ENUM_MODULUS and
    max_norm <= MAX_ENUM_NORM."""
    if m < 1 or m > MAX_ENUM_MODULUS:
        raise ValueError(f"modulus {m} outside the supported range 1..{MAX_ENUM_MODULUS}")
    if max_norm < 0 or max_norm > MAX_ENUM_NORM:
        raise ValueError(f"norm bound {max_norm} outside the supported range 0..{MAX_ENUM_NORM}")
    found = _minimal_among(_census_candidates(m, max_norm))
    return [MinimalVsum(b, reduced_exponent(b)) for b in (CyclicRingElt(m, c) for c in found)]
