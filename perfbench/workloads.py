"""The four benchmark workloads: seeded inputs, the calls of one pass, and
checks of their outputs that do not reuse the code path under test.

A pass is the list of calls a user would make for the workload; every
call runs in its own fresh interpreter (see child.py).  Inputs are made
once per run from the seed and written to files, so the same seed gives
byte-identical inputs.  Only the generated files reach the program; the
labels the checks need (which rows are bent, which primes built an
element) stay here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from math import gcd, lcm

from gbfkit.criteria import EXISTS, NONEXISTENT, UNKNOWN, decide
from gbfkit.gbf import GbfFunction, is_gbf_numeric
from gbfkit.ring import CyclicRingElt, character_values_numeric, subgroup_sum
from gbfkit.search import enumerate_autocorr_candidates
from gbfkit.vsum import c_exponent

_TOL = 1e-6


def _primes(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def mm_bent(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    """Generalized Maiorana-McFarland function, bent for every g.

    Even n: f(x, y) = (m/2)<x, y> + g(y).  Odd n (needs 4 | m): one more
    bit z adds (m/4) z, and |1 + i (-1)^c|^2 = 2 keeps |F|^2 = 2^n.
    Point bits: x low, y next, z on top.
    """
    half = n // 2
    mask = (1 << half) - 1
    g = [rng.randrange(m) for _ in range(1 << half)]
    out = []
    for p in range(1 << n):
        x, y, z = p & mask, (p >> half) & mask, p >> (2 * half)
        out.append(((m // 2) * (bin(x & y).count("1") % 2) + (m // 4) * z + g[y]) % m)
    return tuple(out)


def random_fn(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    return (0,) + tuple(rng.randrange(m) for _ in range((1 << n) - 1))


def vanishes_numerically(elt: CyclicRingElt) -> bool:
    """Every primitive character value is ~0."""
    vals = character_values_numeric(elt)
    return all(abs(vals[j]) <= _TOL for j in range(1, elt.m) if gcd(j, elt.m) == 1)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_record(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != 1:
        raise ValueError(f"{path}: expected one store record, got {len(lines)}")
    return json.loads(lines[0])


def cli_call(argv: list[str], store: str | None = None) -> dict:
    return {"kind": "cli", "argv": argv, "store": store}


def lib_call(func: str, out: str, **kwargs) -> dict:
    return {"kind": "lib", "func": func, "kwargs": kwargs, "out": out}


class Checks:
    """Tally of output checks: one entry per checked item."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


class Workload:
    name = ""

    def __init__(self, seed: int, inputs: str, tiny: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self._verified: dict[str, Checks] = {}

    def calls(self, pass_dir: str) -> list[dict]:
        raise NotImplementedError

    def check(self, calls: list[dict], rcs: list[int]) -> Checks:
        raise NotImplementedError

    def _cached(self, blob: str, verify) -> Checks:
        """Outputs byte-identical to an already checked output of the same
        call (blob names both) share its verdicts; anything new is checked
        in full."""
        key = hashlib.sha256(blob.encode()).hexdigest()
        if key not in self._verified:
            self._verified[key] = verify()
        done = Checks()
        done.merge(self._verified[key])
        return done


class SearchLadder(Workload):
    """gbf search m 3 for m = 3..15, then gbf search 3 4.  The seed only
    orders the rungs; each rung is its own process, so order cannot
    change the work."""

    name = "search-ladder"

    def __init__(self, seed, inputs, tiny):
        super().__init__(seed, inputs, tiny)
        rungs = [(m, 3) for m in range(3, 16)] + [(3, 4)]
        if tiny:
            rungs = [(3, 3), (4, 3), (5, 3)]
        self.rng.shuffle(rungs)
        self.rungs = rungs
        _write(os.path.join(inputs, "ladder.txt"), "".join(f"{m} {n}\n" for m, n in rungs))

    def calls(self, pass_dir):
        out = []
        for m, n in self.rungs:
            store = os.path.join(pass_dir, f"search-{m}-{n}.jsonl")
            out.append(cli_call(["search", str(m), str(n), "--progress", "--store", store],
                                store=store))
        return out

    def check(self, calls, rcs):
        out = Checks()
        for (m, n), call, rc in zip(self.rungs, calls, rcs):
            rec = _read_record(call["store"])
            out.merge(self._cached(json.dumps(rec["outcome"], sort_keys=True) + str(rc),
                                   lambda: self._check_rung(m, n, rec["outcome"], rc)))
        return out

    @staticmethod
    def _check_rung(m, n, got, rc):
        c = Checks()
        tag = f"search ({m}, {n})"
        space = m ** ((1 << n) - 1)
        c.expect(got["normalized_space"] == space, f"{tag}: normalized_space")
        expected = decide(m, n).outcome
        if got["status"] == "ExhaustedNone":
            c.expect(rc == 1 and got["witness"] is None, f"{tag}: exit code / witness")
            c.expect(got["examined"] == space, f"{tag}: examined {got['examined']} != {space}")
            c.expect(expected == NONEXISTENT, f"{tag}: exhausted but decide says {expected}")
        elif got["status"] == "WitnessFound":
            fn = GbfFunction.from_values(n, m, got["witness"])
            c.expect(rc == 0 and fn.values[0] == 0, f"{tag}: exit code / f(0)")
            c.expect(is_gbf_numeric(fn), f"{tag}: witness fails the numeric test")
            c.expect(expected == EXISTS, f"{tag}: witness but decide says {expected}")
        else:
            c.expect(False, f"{tag}: unknown status {got['status']!r}")
        return c


class VerifyBatch(Workload):
    """One gbf verify --file over a seeded batch: a third Maiorana-McFarland
    bent functions at the six checked (m, n), the rest random with f(0) = 0
    over n = 5..8 and m in {6, 10, 12, 15, 21, 30}."""

    name = "verify-batch"
    MODULI = (6, 10, 12, 15, 21, 30)
    DIMS = (5, 6, 7, 8)
    BENT_AT = ((6, 6), (10, 6), (12, 8), (30, 6), (6, 8), (30, 8))
    COPIES = 3

    def __init__(self, seed, inputs, tiny):
        super().__init__(seed, inputs, tiny)
        dims, bent_at, copies = self.DIMS, self.BENT_AT, self.COPIES
        if tiny:
            dims, bent_at, copies = (5, 6), ((6, 6), (10, 6)), 1
        rows = []
        for _ in range(copies):
            rows += [(m, n, False) for m in self.MODULI for n in dims]
            rows += [(m, n, True) for m, n in bent_at for _ in range(2)]
        self.rng.shuffle(rows)
        self.rows = []
        for m, n, bent in rows:
            values = mm_bent(self.rng, m, n) if bent else random_fn(self.rng, m, n)
            self.rows.append((GbfFunction(n, m, values), bent))
        self.path = os.path.join(inputs, "verify.txt")
        _write(self.path, "".join(fn.to_line() + "\n" for fn, _ in self.rows))

    def calls(self, pass_dir):
        store = os.path.join(pass_dir, "verify.jsonl")
        return [cli_call(["verify", "--file", self.path, "--store", store], store=store)]

    def check(self, calls, rcs):
        rec = _read_record(calls[0]["store"])
        return self._cached(json.dumps(rec["outcome"], sort_keys=True) + str(rcs[0]),
                            lambda: self._check_reports(rec["outcome"], rcs[0]))

    def _check_reports(self, reports, rc):
        c = Checks()
        c.expect(len(reports) == len(self.rows), "verify: one report per row")
        c.expect(rc == (0 if all(b for _, b in self.rows) else 1), "verify: exit code")
        for i, ((fn, bent), rep) in enumerate(zip(self.rows, reports)):
            tag = f"verify row {i} ({fn.m}, {fn.n})"
            c.expect(rep["input"]["values"] == list(fn.values), f"{tag}: echoed input")
            if bent:
                c.expect(rep["is_gbf"] is True, f"{tag}: constructed bent function rejected")
            else:
                c.expect(rep["is_gbf"] == is_gbf_numeric(fn), f"{tag}: disagrees with numeric")
            norm_m = (rep["normalized"] or rep["input"])["m"]
            inv = rep["invariants"]
            ok = all(v is True for k, v in inv.items() if k != "even_m_identity")
            ok = ok and inv["even_m_identity"] is (True if norm_m % 2 == 0 else None)
            c.expect(ok, f"{tag}: invariants {inv}")
        return c


class VsumDecompose(Workload):
    """gbf decompose on a seeded narrow batch of three-prime elements
    (c-exponent mode for all, structure mode for the first two), gbf
    catalog, then two library sessions: c_exponent on three wide-support
    two-prime elements, and enumerate_minimal_vsums at three sizes.

    The wide elements are fixed: their sub-sum walk time depends on where
    the support sits, so rotating them by the seed would add spread
    without adding coverage.  They and the enumerator sizes are chosen so
    a pass stays near three seconds of work and a run holds several
    passes; 2 P_14 (4.5 s alone) and the enumerator at norms 8/7/6 would
    leave room for only two."""

    name = "vsum-decompose"
    NARROW = (30, 42, 70, 105)
    STRUCTURE = 2
    ENUMERATE = ((30, 7), (42, 6), (60, 5))

    def __init__(self, seed, inputs, tiny):
        super().__init__(seed, inputs, tiny)
        narrow, enum = self.NARROW, self.ENUMERATE
        # (name, element, upper bound on c from the construction)
        wide = [
            ("2P12", subgroup_sum(12, 12).scale(2), 2),
            ("P18", subgroup_sum(18, 18), 2),
            ("P15+gP5+g2P3",
             subgroup_sum(15, 15) + subgroup_sum(15, 5).shift(1) + subgroup_sum(15, 3).shift(2),
             15),
        ]
        if tiny:
            narrow, enum = (30,), ((30, 4),)
            wide = [("2P6", subgroup_sum(6, 6).scale(2), 2)]
        self.wide = wide
        self.enum = enum
        self.by_path = {}
        for i, m in enumerate(narrow):
            elt, bound = self._narrow_elt(m)
            path = os.path.join(inputs, f"elt-{i}-{m}.json")
            _write(path, json.dumps(elt.to_json(), sort_keys=True))
            self.by_path["@" + path] = (elt, bound)
        self.histogram = None

    def _narrow_elt(self, m: int) -> tuple[CyclicRingElt, int]:
        """Sum of seeded shifts of P_p, one per prime of m (norm <= 16).
        Extra terms would make the sub-sum walk, and so the work, vary
        several-fold from seed to seed."""
        primes = _primes(m)
        elt = CyclicRingElt.zero(m)
        for p in primes:
            elt = elt + subgroup_sum(m, p).shift(self.rng.randrange(m))
        return elt, lcm(*primes)

    def calls(self, pass_dir):
        out = []
        for i, arg in enumerate(self.by_path):
            modes = ("c-exponent", "structure") if i < self.STRUCTURE else ("c-exponent",)
            for mode in modes:
                store = os.path.join(pass_dir, f"decompose-{i}-{mode}.jsonl")
                out.append(cli_call(["decompose", arg, f"--{mode}", "--store", store],
                                    store=store))
        store = os.path.join(pass_dir, "catalog.jsonl")
        out.append(cli_call(["catalog", "--store", store], store=store))
        out.append(lib_call("c_exponent", os.path.join(pass_dir, "c_exponent.json"),
                            elts=[elt.to_json() for _, elt, _ in self.wide], max_norm=32))
        out.append(lib_call("enumerate_minimal_vsums", os.path.join(pass_dir, "enumerate.json"),
                            sizes=[list(s) for s in self.enum]))
        return out

    def check(self, calls, rcs):
        out = Checks()
        for call, rc in zip(calls, rcs):
            if call["kind"] == "cli":
                rec = _read_record(call["store"])
                got = rec["outcome"]
                blob = " ".join(call["argv"][:3]) + json.dumps(got, sort_keys=True) + str(rc)
                if call["argv"][0] == "catalog":
                    out.merge(self._cached(blob, lambda: self._check_catalog(got, rc)))
                    continue
                elt, bound = self.by_path[call["argv"][1]]
                if call["argv"][2] == "--c-exponent":
                    out.merge(self._cached(blob, lambda: self._check_cexp(
                        f"decompose {elt.m}", elt, bound, got["c_exponent"],
                        got["decomposition"], rc)))
                else:
                    out.merge(self._cached(blob, lambda: self._check_structure(
                        elt, got["parts"], rc)))
                continue
            with open(call["out"], encoding="utf-8") as fh:
                results = json.load(fh)
            if call["func"] == "c_exponent":
                out.expect(len(results) == len(self.wide), "c_exponent: one result per element")
                for (name, elt, bound), res in zip(self.wide, results):
                    out.merge(self._cached(name + json.dumps(res, sort_keys=True), lambda: (
                        self._check_cexp(f"c_exponent {name}", elt, bound,
                                         res["k"], res["decomposition"], 0))))
            else:
                out.expect(len(results) == len(self.enum), "enumerate: one result per size")
                for (m, norm), res in zip(self.enum, results):
                    out.merge(self._cached(f"{m},{norm}" + json.dumps(res, sort_keys=True),
                                           lambda: self._check_enum(m, norm, res)))
        return out

    @staticmethod
    def _check_cexp(tag, elt, bound, k, decomp, rc):
        """A valid decomposition: parts vanish, sum to the element, and
        their lcm is the reported value, which lies between the smallest
        prime of m (no v-sum has c-exponent 1) and the construction's."""
        c = Checks()
        parts = [CyclicRingElt.from_json(p["elt"]) for p in decomp["parts"]]
        total = CyclicRingElt.zero(elt.m)
        for p in parts:
            total = total + p
        c.expect(rc == 0, f"{tag}: exit code {rc}")
        c.expect(total == elt, f"{tag}: parts do not sum to the element")
        c.expect(all(vanishes_numerically(p) for p in parts), f"{tag}: a part does not vanish")
        c.expect(decomp["lcm"] == k == lcm(*(p["k"] for p in decomp["parts"])),
                 f"{tag}: lcm of part exponents != {k}")
        c.expect(min(_primes(elt.m)) <= k <= bound and bound % k == 0,
                 f"{tag}: c-exponent {k} outside [{min(_primes(elt.m))}, {bound}]")
        return c

    @staticmethod
    def _check_structure(elt, parts, rc):
        """Sum of P_p * E_p, multiplied out here by hand, is the element."""
        c = Checks()
        m = elt.m
        total = [0] * m
        for part in parts:
            p, cof = part["prime"], part["cofactor"]["coeffs"]
            for i, e in enumerate(cof):
                for j in range(p):
                    total[(i + j * (m // p)) % m] += e
        c.expect(rc == 0, f"structure {m}: exit code {rc}")
        c.expect(all(m % part["prime"] == 0 for part in parts),
                 f"structure {m}: prime not dividing m")
        c.expect(tuple(total) == elt.coeffs, f"structure {m}: parts do not re-multiply")
        return c

    def _check_catalog(self, report, rc):
        """FormA/B/C counts against a c-exponent histogram of the same
        candidates: doubled half-period shapes have c = 2, the order 3/5
        subgroup sums c = 15, the sporadic shapes c = 30."""
        if self.histogram is None:
            hist: dict[int, int] = {}
            for cand in enumerate_autocorr_candidates():
                k, _ = c_exponent(cand)
                hist[k] = hist.get(k, 0) + 1
            self.histogram = hist
        hist = self.histogram
        c = Checks()
        counts = report["counts"]
        c.expect(rc == 0 and report["mismatches"] == [], "catalog: mismatches")
        c.expect(report["candidates"] == sum(hist.values()), "catalog: candidate count")
        c.expect(set(hist) <= {2, 15, 30}, f"catalog: unexpected c-exponents {sorted(hist)}")
        for form, k in (("FormA", 2), ("FormB", 15), ("FormC", 30)):
            c.expect(counts[form] == hist.get(k, 0),
                     f"catalog: {form} = {counts[form]} but {hist.get(k, 0)} with c = {k}")
        c.expect(report["form7_vanish_order_42"] is True, "catalog: Form7 shapes")
        return c

    @staticmethod
    def _check_enum(m, norm, found):
        c = Checks()
        seen = [tuple(v["elt"]["coeffs"]) for v in found]
        c.expect(seen == sorted(set(seen)), f"enumerate ({m}, {norm}): not sorted and distinct")
        for v in found:
            elt = CyclicRingElt.from_json(v["elt"])
            c.expect(elt.m == m and elt.is_nonnegative() and 0 < elt.norm <= norm
                     and vanishes_numerically(elt), f"enumerate ({m}, {norm}): {elt.coeffs}")
        return c


class DecideTable(Workload):
    """gbf table at the CLI's range caps.  The input is the range alone,
    so the seed changes nothing here."""

    name = "decide-table"

    def __init__(self, seed, inputs, tiny):
        super().__init__(seed, inputs, tiny)
        self.m_max, self.n_max = (100, 9) if tiny else (10000, 16)

    def calls(self, pass_dir):
        store = os.path.join(pass_dir, "table.jsonl")
        return [cli_call(["table", "--m-max", str(self.m_max), "--n-max", str(self.n_max),
                          "--store", store], store=store)]

    def check(self, calls, rcs):
        rec = _read_record(calls[0]["store"])
        return self._cached(json.dumps(rec["outcome"], sort_keys=True) + str(rcs[0]),
                            lambda: self._check_cells(rec["outcome"]["cells"], rcs[0]))

    def _check_cells(self, cells, rc):
        """Exact cell set; theorems that fix whole rows and columns; and
        every Unknown residual is a fixed point of decide."""
        c = Checks()
        want = [(m, n) for m in range(2, self.m_max + 1) if m % 4
                for n in range(1, self.n_max + 1)]
        c.expect(rc == 0 and [(x["m"], x["n"]) for x in cells] == want, "table: cell set")
        residuals = set()
        for x in cells:
            m, n, got = x["m"], x["n"], x["outcome"]
            if m % 2 == 0 and n % 2 == 0:
                c.expect(got == EXISTS, f"table ({m}, {n}): both even but {got}")
            elif n == 3 or m == 2:
                c.expect(got == NONEXISTENT, f"table ({m}, {n}): {got}")
            elif got == UNKNOWN:
                v = decide(m, n)
                c.expect(v.residual is not None, f"table ({m}, {n}): no residual")
                residuals.add(v.residual)
        residuals.discard(None)
        for r in sorted(residuals):
            again = decide(*r)
            c.expect(again.outcome == UNKNOWN and again.residual == r,
                     f"table residual {r}: re-decided to {again.outcome} {again.residual}")
        return c


WORKLOADS = {w.name: w for w in (SearchLadder, VerifyBatch, VsumDecompose, DecideTable)}
