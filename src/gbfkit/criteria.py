"""Arithmetic existence/nonexistence pipeline for (m, n) parameters.

Verdicts are three-valued.  Exists fires on the classical constructions
(4 | m, or m and n both even, or m = 2 with n even); Nonexistent fires on
integer-arithmetic criteria about the prime factorization of m versus
2^n; everything else is Unknown, reported together with the fully
stripped residual parameters.

decide runs the criteria on one (m, n) and returns a Verdict whose trace
holds each applied step with its params and its cite.  CITES holds one
str.format template per step id, and _step fills it with n and the
step's params, so a cite is fixed by the step's id, its params and n.
The ids are the keys of CITES, a closed catalog, so downstream tools can
rely on the spelling.

Every criterion reads m only through m mod 4, whether m = 2, and the
two smallest odd primes p < q of m, which it compares with 2^n.  The
strip keeps q exactly when p + q is within its bound, and a strip that
removes q removes every larger prime too, so the stripped m is read
through p and q as well.  Hence the outcome of (m, n) depends on m only
through those four facts.  Two private functions state each criterion
once: _class_step for the steps that m mod 4, m = 2 and n decide alone,
and _rule for the rest, from (m even, p, q, n).  _rule alone decides
whether q survives the strip: decide factors m by trial division, passes
q to _rule unfiltered, and lists the stripped primes only to report them
in its strip step.  outcome_rows, for callers that need only outcomes
over a grid, such as `gbf table`, factors nothing: one sieve over the odd
numbers up to m_max records each one's two smallest primes, _class_step
runs once per class of m, and _rule once per threshold key: m even, p
when m is even, and which powers of 2 p + q and 3p + q exceed.

All comparisons are integer-exact; thresholds like p > 2^{n-3} are coded
as 8p > 2^n so small n needs no fractions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod

from .ring import factorize
# re-exported: perfbench/spans.py traces c_exponent under this name too
from .vsum import c_exponent  # noqa: F401

# Input caps, from worst cases measured on one core of a 2-core Xeon VM.
# factorize is trial division: m = 99999999999973, the largest prime
# below 10^14, takes 0.65 s, and the time grows tenfold per hundredfold
# of m.  Each 2^n costs time and memory linear in n: at n = 10^8 a
# verdict takes 0.04 s, and 2^n is a 12.5 MB integer.
MAX_M = 10**14
MAX_N = 10**8

# outcome_rows' grid caps, the ranges `gbf table` admits: the sieve holds
# two lists of TABLE_M_MAX + 1 ints, and a row TABLE_N_MAX outcomes
TABLE_M_MAX = 10000
TABLE_N_MAX = 16

# id -> cite of a step, a str.format template: _step fills it with n and
# the step's params, and a step with params names each of them in it.
CITES = {
    "exists-4-divides": "4 | m: standard constructions exist for every n",
    "exists-both-even": "m and n both even: constructions exist",
    "exists-boolean-even-n": "m = 2: boolean bent functions exist iff n is even",
    "nonexist-n3": "n = 3 with m odd or m = 2 mod 4: excluded by the autocorrelation catalog",
    "nonexist-s1-odd": "odd m with a single prime factor admits no generalized bent function",
    "nonexist-3p1p2": "odd m with s >= 2 prime factors and 3*{p1} + {p2} > 2^{n}",
    "strip-odd": "odd primes {stripped} satisfy p_1 + p > 2^n; reduced to m = {kept_m}",
    "strip-even": "odd primes {stripped} satisfy p_1 + p > 2^n + 2; reduced to m = {kept_m}",
    "nonexist-2p-alpha-large": "m = 2 p^a with p = {p} > 2^(n-2)",
    "nonexist-2p-alpha-non-mersenne": "m = 2 p^a with p = {p} > 2^(n-3) and p != 2^(n-2) - 1",
    "nonexist-2p-alpha-mod8": "m = 2 p^a with p = {p} = 3 or 5 mod 8 (externally sourced result)",
}
CRITERION_IDS = frozenset(CITES)

EXISTS = "Exists"
NONEXISTENT = "Nonexistent"
UNKNOWN = "Unknown"


@dataclass(frozen=True, slots=True)
class CriterionStep:
    id: str
    cite: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in CRITERION_IDS:
            raise ValueError(f"unknown criterion id {self.id!r}")

    def to_json(self) -> dict:
        return {"id": self.id, "cite": self.cite, "params": dict(self.params)}


@dataclass(frozen=True, slots=True)
class Verdict:
    m: int
    n: int
    outcome: str
    trace: tuple[CriterionStep, ...]
    residual: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "outcome": self.outcome,
            "trace": [s.to_json() for s in self.trace],
            "residual": None
            if self.residual is None
            else {"m": self.residual[0], "n": self.residual[1]},
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _strip_bound(n: int, even: bool) -> int:
    return (1 << n) + (2 if even else 0)


def _class_step(m: int, n: int) -> str | None:
    """The id of the step that m mod 4, m == 2 and n decide alone, or
    None when the primes of m's odd part decide (see _rule)."""
    if m % 2 == 0:
        if m % 4 == 0:
            return "exists-4-divides"
        if n % 2 == 0:
            return "exists-both-even"
        if m == 2:
            # boolean case: bent functions exist exactly for even n, and even
            # n was already caught above, so only the negative side fires here
            return "exists-boolean-even-n"
    if n == 3:
        return "nonexist-n3"
    return None


def _rule(even: bool, p: int, q: int | None, n: int) -> str | None:
    """The id of the Nonexistent step that decides (m, n), or None for
    Unknown, where _class_step left the cell open.

    m is odd (even False) or m = 2 * odd; p < q are the two smallest
    primes of its odd part, q None when there is one.  q survives the
    strip iff p + q <= _strip_bound(n, even), and when it does not,
    neither does any larger prime, so the kept part is a power of p.
    """
    if q is not None and p + q > _strip_bound(n, even):
        q = None
    two_n = 1 << n
    if not even:
        if q is None:
            return "nonexist-s1-odd"
        return "nonexist-3p1p2" if 3 * p + q > two_n else None
    if q is not None:
        return None
    if 4 * p > two_n:
        return "nonexist-2p-alpha-large"
    # n >= 5 here: even n and n = 3 are class steps, and n = 1 returned
    # above; p is prime, so p = 2^(n-2) - 1 is the Mersenne escape
    if 8 * p > two_n and p != (1 << (n - 2)) - 1:
        return "nonexist-2p-alpha-non-mersenne"
    if p % 8 in (3, 5):
        return "nonexist-2p-alpha-mod8"
    return None


# the outcome a deciding step gives its cell; no step (None) is Unknown
_OUTCOME = dict.fromkeys(CITES, NONEXISTENT) | {
    "exists-4-divides": EXISTS,
    "exists-both-even": EXISTS,
    None: UNKNOWN,
}


def _refuse(m: int, n: int) -> ValueError:
    if m < 2:
        return ValueError(f"need m >= 2, got {m}")
    if n < 1:
        return ValueError(f"need n >= 1, got {n}")
    if m > MAX_M:
        return ValueError(f"need m <= {MAX_M}, got {m}: trial division of m takes too long")
    return ValueError(f"need n <= {MAX_N}, got {n}: 2^n takes too much memory")


def _two_smallest_odd_primes(k_max: int) -> tuple[list[int], list[int]]:
    """(first, second): first[k] < second[k] are the two smallest primes
    of each odd k <= k_max, 0 where there is none (k = 1 has neither, a
    prime power no second).

    One pass over the odd k in ascending order: a k that no smaller prime
    has marked is prime, and marks its odd multiples, so each multiple
    meets its primes in ascending order.
    """
    first = [0] * (k_max + 1)
    second = [0] * (k_max + 1)
    for p in range(3, k_max + 1, 2):
        if first[p]:
            continue
        for j in range(p, k_max + 1, 2 * p):
            if not first[j]:
                first[j] = p
            elif not second[j]:
                second[j] = p
    return first, second


def outcome_rows(m_max: int, n_max: int) -> list[tuple[int, tuple[str, ...]]]:
    """[(m, row)] for 2 <= m <= m_max with 4 not dividing m, ascending,
    where row[n - 1] is decide(m, n).outcome for n = 1..n_max.

    Nothing is factored.  The two smallest primes of each odd part come
    from one sieve; _class_step reads m only through m mod 4 and m == 2,
    so it runs once per class, at the class's smallest member; and _rule
    runs once per threshold key, whose rows are shared.  That key holds
    all _rule reads of q: m even, p for even m (an odd m's row reads p
    only through the sums), and the bit lengths that place p + q against
    the strip bound and 3p + q against 2^n, or no lengths when q is None.
    Grids past TABLE_M_MAX x TABLE_N_MAX raise ValueError before the
    sieve is allocated.
    """
    if not (2 <= m_max <= TABLE_M_MAX and 1 <= n_max <= TABLE_N_MAX):
        raise ValueError(
            f"need 2 <= m_max <= {TABLE_M_MAX} and 1 <= n_max <= {TABLE_N_MAX},"
            f" got ({m_max}, {n_max})"
        )
    ns = range(1, n_max + 1)
    # m = 2, m odd and m = 2 mod 4 with m > 2
    boolean_steps, odd_steps, even_steps = ([_class_step(c, n) for n in ns] for c in (2, 3, 6))
    first, second = _two_smallest_odd_primes(m_max)
    by_thresholds = {}
    rows = [(2, tuple([_OUTCOME[sid] for sid in boolean_steps]))]
    for m in range(3, m_max + 1):
        if m % 4 == 0:
            continue
        even = m % 2 == 0
        k = m // 2 if even else m
        p, q = first[k], second[k] or None
        # _rule reads q only through p + q > _strip_bound(n, even) =
        # 2^n + 2 even and 3p + q > 2^n, and an odd row reads p only there
        # too; X > 2^n iff (X - 1).bit_length() > n for X >= 1
        thresholds = (even, p if even else 0)
        if q is not None:
            thresholds += ((p + q - 2 * even - 1).bit_length(), (3 * p + q - 1).bit_length())
        row = by_thresholds.get(thresholds)
        if row is None:
            steps = even_steps if even else odd_steps
            row = by_thresholds[thresholds] = tuple(
                [_OUTCOME[sid or _rule(even, p, q, n)] for n, sid in zip(ns, steps)]
            )
        rows.append((m, row))
    return rows


def _step(sid: str, n: int, params: dict) -> CriterionStep:
    return CriterionStep(sid, CITES[sid].format(n=n, **params), params)


def decide(m: int, n: int) -> Verdict:
    """Run the criteria pipeline on (m, n).

    The trace lists the applied steps in order, and residual is the
    reduced (m, n) when the outcome is Unknown, else None.  Inputs
    outside 2 <= m <= MAX_M, 1 <= n <= MAX_N raise ValueError before any
    arithmetic.
    """
    if not (2 <= m <= MAX_M and 1 <= n <= MAX_N):
        raise _refuse(m, n)
    sid = _class_step(m, n)
    if sid is not None:
        return Verdict(m, n, _OUTCOME[sid], (_step(sid, n, {}),))

    # m is odd, or m = 2 mod 4 with m > 2 and n odd: _rule strips the odd
    # part; the stripped primes, a suffix of the ascending primes that
    # never holds p, are listed here only to report them
    even = m % 2 == 0
    fact = factorize(m // 2 if even else m)
    primes = fact.primes
    p, q = primes[0], primes[1] if len(primes) > 1 else None
    sid = _rule(even, p, q, n)
    cut = 1 + sum(p + r <= _strip_bound(n, even) for r in primes[1:])
    trace = ()
    reduced = m
    if cut < len(primes):
        reduced = prod(r**a for r, a in fact.factors[:cut]) * (2 if even else 1)
        params = {"stripped": list(primes[cut:]), "kept_m": reduced}
        trace = (_step("strip-even" if even else "strip-odd", n, params),)
    if sid is None:
        return Verdict(m, n, UNKNOWN, trace, (reduced, n))
    params = {"nonexist-s1-odd": {}, "nonexist-3p1p2": {"p1": p, "p2": q}}.get(sid, {"p": p})
    return Verdict(m, n, NONEXISTENT, trace + (_step(sid, n, params),))
