"""Arithmetic existence/nonexistence pipeline for (m, n) parameters.

Verdicts are three-valued.  Exists fires on the classical constructions
(4 | m, or m and n both even, or m = 2 with n even); Nonexistent fires on
integer-arithmetic criteria about the prime factorization of m versus
2^n; everything else is Unknown, reported together with the fully
stripped residual parameters.  Each applied criterion is recorded as a
trace step with a stable id from a closed catalog, so downstream tools
can rely on the spelling.

All comparisons are integer-exact; thresholds like p > 2^{n-3} are coded
as 8p > 2^n so small n needs no fractions.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from math import prod

from .ring import factorize, is_prime
# re-exported: perfbench/spans.py traces c_exponent under this name too
from .vsum import c_exponent  # noqa: F401

CRITERION_IDS = frozenset(
    {
        "exists-4-divides",
        "exists-both-even",
        "exists-boolean-even-n",
        "nonexist-n3",
        "nonexist-s1-odd",
        "nonexist-3p1p2",
        "strip-odd",
        "strip-even",
        "nonexist-2p-alpha-large",
        "nonexist-2p-alpha-non-mersenne",
        "nonexist-2p-alpha-mod8",
    }
)

EXISTS = "Exists"
NONEXISTENT = "Nonexistent"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class CriterionStep:
    id: str
    cite: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in CRITERION_IDS:
            raise ValueError(f"unknown criterion id {self.id!r}")

    def to_json(self) -> dict:
        return {"id": self.id, "cite": self.cite, "params": dict(self.params)}


@dataclass(frozen=True)
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


def is_mersenne_for(n: int, p: int) -> bool:
    """p == 2^{n-2} - 1 and prime; the one escape hatch of the 2p^alpha
    window criterion."""
    if n < 3:
        return False
    return p == (1 << (n - 2)) - 1 and is_prime(p)


def strip_primes(odd_primes: list[int], n: int, even_part: bool) -> tuple[list[int], list[int]]:
    """Split the odd primes of m into (kept, stripped).

    A prime q is strippable when p_1 + q exceeds 2^n (odd m) or 2^n + 2
    (m = 2 * odd): no reduced exponent of an autocorrelation
    decomposition can then involve q, so nonexistence for the kept part
    transfers to m.  The smallest prime is always kept; stripping
    everything would only weaken the later criteria.

    The primes come in ascending order, so p_1 + p <= threshold holds on
    a prefix of them: kept is that prefix, never shorter than p_1
    alone, and stripped is the rest.
    """
    threshold = (1 << n) + (2 if even_part else 0)
    cut = bisect_right(odd_primes, threshold - odd_primes[0], lo=1)
    return odd_primes[:cut], odd_primes[cut:]


def decide(m: int, n: int) -> Verdict:
    """Run the criteria pipeline on (m, n).  Every input gets a verdict."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    trace: list[CriterionStep] = []

    if m % 4 == 0:
        trace.append(
            CriterionStep("exists-4-divides", "4 | m: standard constructions exist for every n")
        )
        return Verdict(m, n, EXISTS, tuple(trace))
    if m % 2 == 0 and n % 2 == 0:
        trace.append(
            CriterionStep("exists-both-even", "m and n both even: constructions exist")
        )
        return Verdict(m, n, EXISTS, tuple(trace))
    if m == 2:
        # boolean case: bent functions exist exactly for even n, and even
        # n was already caught above, so only the negative side fires here
        trace.append(
            CriterionStep(
                "exists-boolean-even-n",
                "m = 2: boolean bent functions exist iff n is even",
            )
        )
        return Verdict(m, n, NONEXISTENT, tuple(trace))
    if n == 3:
        trace.append(
            CriterionStep(
                "nonexist-n3",
                "n = 3 with m odd or m = 2 mod 4: excluded by the autocorrelation catalog",
            )
        )
        return Verdict(m, n, NONEXISTENT, tuple(trace))

    if m % 2 == 1:
        return _decide_odd(m, n, trace)
    return _decide_twice_odd(m, n, trace)


def _decide_odd(m: int, n: int, trace: list[CriterionStep]) -> Verdict:
    fact = factorize(m)
    kept, stripped = strip_primes(list(fact.primes), n, even_part=False)
    reduced = m
    if stripped:
        reduced = prod(p**a for p, a in fact.factors[: len(kept)])
        trace.append(
            CriterionStep(
                "strip-odd",
                f"odd primes {stripped} satisfy p_1 + p > 2^n; reduced to m = {reduced}",
                {"stripped": stripped, "kept_m": reduced},
            )
        )
    if len(kept) == 1:
        trace.append(
            CriterionStep(
                "nonexist-s1-odd",
                "odd m with a single prime factor admits no generalized bent function",
            )
        )
        return Verdict(m, n, NONEXISTENT, tuple(trace))
    p1, p2 = kept[0], kept[1]
    if 3 * p1 + p2 > (1 << n):
        trace.append(
            CriterionStep(
                "nonexist-3p1p2",
                f"odd m with s >= 2 prime factors and 3*{p1} + {p2} > 2^{n}",
                {"p1": p1, "p2": p2},
            )
        )
        return Verdict(m, n, NONEXISTENT, tuple(trace))
    return Verdict(m, n, UNKNOWN, tuple(trace), residual=(reduced, n))


def _decide_twice_odd(m: int, n: int, trace: list[CriterionStep]) -> Verdict:
    # here m = 2 mod 4, m > 2, and n is odd
    half = m // 2
    fact = factorize(half)
    kept, stripped = strip_primes(list(fact.primes), n, even_part=True)
    reduced = m
    if stripped:
        reduced = 2 * prod(p**a for p, a in fact.factors[: len(kept)])
        trace.append(
            CriterionStep(
                "strip-even",
                f"odd primes {stripped} satisfy p_1 + p > 2^n + 2; reduced to m = {reduced}",
                {"stripped": stripped, "kept_m": reduced},
            )
        )
    if len(kept) == 1:
        p = kept[0]
        if 4 * p > (1 << n):
            trace.append(
                CriterionStep(
                    "nonexist-2p-alpha-large",
                    f"m = 2 p^a with p = {p} > 2^(n-2)",
                    {"p": p},
                )
            )
            return Verdict(m, n, NONEXISTENT, tuple(trace))
        if 8 * p > (1 << n) and not is_mersenne_for(n, p):
            trace.append(
                CriterionStep(
                    "nonexist-2p-alpha-non-mersenne",
                    f"m = 2 p^a with p = {p} > 2^(n-3) and p != 2^(n-2) - 1",
                    {"p": p},
                )
            )
            return Verdict(m, n, NONEXISTENT, tuple(trace))
        if p % 8 in (3, 5):
            trace.append(
                CriterionStep(
                    "nonexist-2p-alpha-mod8",
                    f"m = 2 p^a with p = {p} = 3 or 5 mod 8 (externally sourced result)",
                    {"p": p},
                )
            )
            return Verdict(m, n, NONEXISTENT, tuple(trace))
    return Verdict(m, n, UNKNOWN, tuple(trace), residual=(reduced, n))

