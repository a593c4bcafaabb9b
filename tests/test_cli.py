"""CLI tests driven through main(argv) and captured output."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from test_gbf import expected_invariants

from gbfkit import cli, criteria, ring
from gbfkit.cli import main
from gbfkit.criteria import decide
from gbfkit.gbf import GbfFunction, is_gbf_numeric
from gbfkit.ring import punctured_subgroup_sum, subgroup_sum


def test_decide_exit_codes(capsys):
    assert main(["decide", "12", "7"]) == 0
    assert main(["decide", "45", "3"]) == 1
    assert "nonexist-n3" in capsys.readouterr().out
    assert main(["decide", "14", "5"]) == 2
    assert "residual: (14, 5)" in capsys.readouterr().out
    assert main(["decide", "1", "4"]) == 64
    assert main(["decide", "many", "4"]) == 64
    # int() would read each of these as a number; every integer argument
    # takes only an optional - and ASCII digits
    capsys.readouterr()
    for argv in (
        ["decide", "1_5", "3"],
        ["decide", "15", "+3"],
        ["decide", "15", "\u0663"],
        ["search", "3", "1_1"],
        ["search", "3", "3", "--budget", "1_000"],
        ["table", "--m-max", "1_0"],
        ["table", "--n-max", "\u0669"],
    ):
        assert main(argv) == 64, argv
        assert "invalid decimal_int value" in capsys.readouterr().err
    assert main(["bogus"]) == 64
    assert main(["--help"]) == 0


def test_decide_json(capsys):
    assert main(["decide", "45", "3", "--json"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"command", "params", "outcome", "timestamp", "version"}
    assert record["command"] == "decide"
    assert record["params"] == {"m": 45, "n": 3}
    assert record["outcome"] == decide(45, 3).to_json()


def _by_full_parser(argv, capsys):
    """stdout, stderr and exit code when the whole `gbf` parser, every
    subparser built, reads argv: what main printed before it built only
    the named command's parser."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    out = capsys.readouterr()
    return out.out, out.err, 0 if exc.value.code == 0 else cli.EX_USAGE


def _by_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return out.out, out.err, code


def test_command_help_matches_full_parser(capsys):
    assert list(cli.COMMANDS) == ["decide", "verify", "search", "decompose", "catalog", "table"]
    for name in cli.COMMANDS:
        for argv in ([name, "-h"], [name, "--help"]):
            seen = _by_main(argv, capsys)
            assert seen == _by_full_parser(argv, capsys), argv
            assert seen[0].startswith(f"usage: gbf {name} [-h]") and seen[2] == 0


def test_usage_and_errors_match_full_parser(capsys):
    cases = {
        ("-h",): ("usage: gbf [-h] [--version]", "", 0),
        ("--version",): (f"gbf {cli.__version__}\n", "", 0),
        ("bogus",): ("", "usage: gbf [-h] [--version]", 64),
        ("search", "3", "3", "--bogus"): ("", "usage: gbf [-h] [--version]", 64),
        # leftovers past a known command's arguments, and errors inside it
        ("decide", "3", "3", "extra"): ("", "usage: gbf [-h] [--version]", 64),
        ("search", "3"): ("", "usage: gbf search [-h]", 64),
        ("decompose", "{}"): ("", "usage: gbf decompose [-h]", 64),
        ("table", "--m-max", "1_0"): ("", "usage: gbf table [-h]", 64),
        (): ("", "usage: gbf [-h] [--version]", 64),
    }
    for argv, (out, err, code) in cases.items():
        seen = _by_main(list(argv), capsys)
        assert seen == _by_full_parser(list(argv), capsys), argv
        assert seen[0].startswith(out) and seen[1].startswith(err) and seen[2] == code, argv
    assert "decompose" in _by_main(["-h"], capsys)[0]
    err = _by_main(["search", "3", "3", "--bogus"], capsys)[1]
    assert err.endswith("\ngbf: error: unrecognized arguments: --bogus\n")


def test_known_command_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["decide", "45", "3"]) == 1
    assert built == ["gbf decide"]
    for name in cli.COMMANDS:
        built.clear()
        assert main([name, "-h"]) == 0
        assert built == [f"gbf {name}"]
    # the whole parser: gbf and a subparser per command
    built.clear()
    assert main(["bogus"]) == 64
    assert len(built) == 1 + len(cli.COMMANDS)
    # leftovers are read again by the whole parser, for its error line
    built.clear()
    assert main(["search", "3", "3", "--bogus"]) == 64
    assert len(built) == 2 + len(cli.COMMANDS)
    capsys.readouterr()


def test_verify_inline(capsys):
    assert main(["verify", "4", "1", "0,1"]) == 0
    assert "GBF: true" in capsys.readouterr().out

    assert main(["verify", "3", "3", "0,0,0,0,0,0,0,0"]) == 1
    out = capsys.readouterr().out
    assert "GBF: false" in out and "invariants: ok" in out

    # all-even values report the modulus reduction before the verdict
    assert main(["verify", "4", "2", "0,2,2,2"]) == 0
    assert "normalized to m=2" in capsys.readouterr().out

    assert main(["verify", "4", "1"]) == 65
    assert main(["verify", "4", "1", "0,7"]) == 65
    # int() reads 1_2 as 12 and the Arabic-Indic digit one as 1, which
    # verified m = 12 (exit 1) and (4, 1, [0, 1]) (exit 0)
    capsys.readouterr()
    assert main(["verify", "1_2", "1", "0,1_1"]) == 65
    assert "gbf verify: not a decimal integer: '1_2'" in capsys.readouterr().err
    assert main(["verify", "4", "1", "0,\u0661"]) == 65
    assert "gbf verify: not comma-separated decimal integers" in capsys.readouterr().err


def test_verify_file(tmp_path, capsys):
    path = tmp_path / "fns.txt"
    path.write_text("# two candidates\n4 1 0,1\n2 2 0,0,0,1\n")
    assert main(["verify", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("GBF: true") == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("4 1 0,1\nnot a function\n")
    assert main(["verify", "--file", str(bad)]) == 65
    assert "bad.txt:2" in capsys.readouterr().err
    bad.write_text("4 1 0,1\n1_2 1 0,1_1\n")
    assert main(["verify", "--file", str(bad)]) == 65
    assert "bad.txt:2: not a decimal integer: '1_2'" in capsys.readouterr().err

    # runs of ASCII space or tab separate the fields, around them a line
    # may carry ASCII whitespace only; str.split() and str.strip() also
    # took Unicode spaces, and the first line was verified as 4 1 0,1
    for line in [
        "4\u20031\u00a00,1",
        "4\u30001 0,1",
        "4\v1 0,1",
        "4 1 0,1\v",
        "\u00a04 1 0,1",
    ]:
        bad.write_text("4 1 0,1\n" + line + "\n", encoding="utf-8")
        assert main(["verify", "--file", str(bad)]) == 65, repr(line)
        assert "bad.txt:2:" in capsys.readouterr().err, repr(line)
    path.write_text("\t4\t1  0,1 \r\n  2 \t 2\t0,0,0,1\n")
    assert main(["verify", "--file", str(path)]) == 0
    assert capsys.readouterr().out.count("GBF: true") == 2


def test_verify_file_long_bad_line_quoted_short(tmp_path, capsys):
    # one bad line of 2^16 values wrote 131 KB to stderr
    bad = tmp_path / "long.txt"
    bad.write_text("16\u20031 0," + ",".join(["1"] * ((1 << 16) - 1)) + "\n", encoding="utf-8")
    assert main(["verify", "--file", str(bad)]) == 65
    err = capsys.readouterr().err
    assert "long.txt:1: expected 'm n v0,v1,...'" in err and len(err) < 200


def test_oversized_reduction_orders_refused(tmp_path, capsys, monkeypatch):
    # R_30026 would hold 15014 * 15012 int64 entries (1.8 GB)
    def no_table(fn):
        raise AssertionError("a table was built for a refused order")

    monkeypatch.setattr(cli, "compute_autocorr", no_table)
    path = tmp_path / "fns.txt"
    path.write_text("4 1 0,1\n30026 1 0,1\n")
    for argv in (
        ["verify", "30026", "1", "0,1"],
        ["verify", "60052", "1", "0,2"],  # normalizes to 30026
        ["verify", "--file", str(path)],
    ):
        start = time.monotonic()
        assert main(argv) == 65, argv
        assert time.monotonic() - start < 1.0, argv
        err = capsys.readouterr().err
        assert "over the cap" in err and "Traceback" not in err, argv

    coeffs = [0] * 30026
    coeffs[0] = coeffs[15013] = 1
    start = time.monotonic()
    assert main(["decompose", json.dumps({"m": 30026, "coeffs": coeffs}), "--minimal"]) == 65
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert "over the cap" in err and "Traceback" not in err


# input line -> normalized (m, values), or None when already normalized
VERIFY_ROWS = {
    "4 1 0,1": None,
    "6 4 0,3,0,3,5,5,5,5,2,5,5,2,1,1,4,4": None,
    "12 3 3,9,7,7,6,0,10,10": (12, [0, 6, 4, 4, 3, 9, 7, 7]),
    "12 2 3,9,9,9": (2, [0, 1, 1, 1]),
    "9 2 0,3,6,3": (3, [0, 1, 2, 1]),
    "15 3 0,1,2,3,4,5,6,7": None,
    "10 3 0,5,0,5,0,5,5,0": (2, [0, 1, 0, 1, 0, 1, 1, 0]),
}


def test_verify_record_pinned(tmp_path, capsys):
    path = tmp_path / "fns.txt"
    path.write_text("".join(line + "\n" for line in VERIFY_ROWS))
    assert main(["verify", "--file", str(path), "--json"]) == 1
    reports = json.loads(capsys.readouterr().out)["outcome"]
    assert len(reports) == len(VERIFY_ROWS)
    seen_bent = set()
    for (line, norm), rep in zip(VERIFY_ROWS.items(), reports):
        given = GbfFunction.from_line(line)
        assert rep["input"] == {"m": given.m, "n": given.n, "values": list(given.values)}
        if norm is None:
            assert rep["normalized"] is None
            checked = given
        else:
            assert rep["normalized"] == {"m": norm[0], "n": given.n, "values": norm[1]}
            checked = GbfFunction.from_values(given.n, *norm)
        assert rep["is_gbf"] is is_gbf_numeric(checked)
        assert rep["invariants"] == expected_invariants(checked)
        seen_bent.add(rep["is_gbf"])
    assert seen_bent == {True, False}


WRITER = """
import sys
from types import SimpleNamespace
from gbfkit.cli import _emit

tag, count, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
args = SimpleNamespace(json=False, store=path)
for i in range(count):
    _emit({"writer": tag, "i": i, "pad": tag * 300_000}, args)
"""


def test_store_survives_concurrent_writers(tmp_path):
    store = tmp_path / "shared.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    writers = [
        subprocess.Popen([sys.executable, "-c", WRITER, tag, "25", str(store)], env=env)
        for tag in ("a", "b")
    ]
    assert [w.wait(timeout=120) for w in writers] == [0, 0]
    records = [json.loads(line) for line in store.read_text().splitlines()]
    for tag in ("a", "b"):
        mine = [r for r in records if r["writer"] == tag]
        assert [r["i"] for r in mine] == list(range(25))
        assert all(r["pad"] == tag * 300_000 for r in mine)


def test_search_cli(capsys):
    assert main(["search", "4", "3"]) == 0
    out = capsys.readouterr().out
    assert "WitnessFound" in out and "0,0,0,2,1,1,1,3" in out

    assert main(["search", "3", "2"]) == 1
    assert "examined 27 of 27" in capsys.readouterr().out

    assert main(["search", "3", "5"]) == 3
    assert "exceeds budget" in capsys.readouterr().err
    # 3^16383 has more digits than int-to-str conversion allows
    assert main(["search", "3", "14"]) == 3
    assert "3^(2^14 - 1) exceeds budget" in capsys.readouterr().err


def test_search_has_no_threads_option(capsys):
    # the search runs in process only, so it takes no worker count
    assert main(["search", "5", "2", "--threads", "2"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: gbf [-h] [--version]")
    assert err.endswith("\ngbf: error: unrecognized arguments: --threads 2\n")


def test_search_progress_events(capsys):
    # one JSON line per level and run: (3, 2) is cut whole at level 1
    assert main(["search", "3", "2", "--progress"]) == 1
    err = capsys.readouterr().err
    events = [json.loads(line) for line in err.strip().splitlines()]
    assert len(events) == 1 and events[0].pop("seconds") >= 0
    assert events == [
        {"level": 1, "nodes_in": 18, "nodes_out": 0, "examined": 27, "pruned": 27, "survivors": 0},
    ]


def test_search_json_certificate(capsys):
    assert main(["search", "3", "2", "--json"]) == 1
    record = json.loads(capsys.readouterr().out)
    out = record["outcome"]
    assert out["normalized_space"] == 27
    assert out["examined"] == 27 and out["pruned"] == 0
    assert out["witness"] is None
    assert out["status"] == "ExhaustedNone"


def test_decompose_cli(capsys):
    full = {"m": 10, "coeffs": [1] * 10}
    assert main(["decompose", json.dumps(full), "--c-exponent"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c_exponent"] == 2
    assert payload["decomposition"]["lcm"] == 2

    shifted = subgroup_sum(15, 3).shift(1)
    assert main(["decompose", json.dumps(shifted.to_json()), "--minimal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"mode": "minimal", "is_minimal": True, "reduced_exponent": 3}

    composite = (
        punctured_subgroup_sum(30, 2) * punctured_subgroup_sum(30, 3)
        + punctured_subgroup_sum(30, 5)
    )
    assert main(["decompose", json.dumps(composite.to_json()), "--structure"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(part["prime"] for part in payload["parts"]) == [2, 3, 5]

    assert main(["decompose", "not-json", "--minimal"]) == 65
    assert main(["decompose", '{"m": 10}', "--minimal"]) == 65
    assert main(["decompose", '{"m":10,"coeffs":[1,0,0,0,0,-1,0,0,0,0]}', "--minimal"]) == 65
    # coefficients and m must be JSON integers: int() would read each as (1, 1)
    for coeffs in ([1.9, 1], "11", [True, True]):
        assert main(["decompose", json.dumps({"m": 2, "coeffs": coeffs}), "--c-exponent"]) == 65
    assert main(["decompose", '{"m": 2.0, "coeffs": [1, 1]}', "--c-exponent"]) == 65
    capsys.readouterr()


def test_catalog_cli(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "FormA: 36" in out and "mismatches: 0" in out
    assert "rejected: norm 2411, inversion 4300, even_identity 8\n" in out

    assert main(["catalog", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["outcome"]["counts"] == {
        "FormA": 36,
        "FormB": 2,
        "FormC": 4,
        "Form7": 2,
    }


def test_table_cli(capsys):
    assert main(["table", "--m-max", "16", "--n-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,n=1,n=2,n=3"
    seen = [int(line.split(",")[0]) for line in lines[1:]]
    assert seen == [m for m in range(2, 17) if m % 4 != 0]
    assert all(line.split(",")[3] == "Nonexistent" for line in lines[1:])

    # outcome_rows alone refuses a range, and the CLI prints its message
    for m_max, n_max in [(20000, 9), (10001, 9), (100, 17), (1, 9), (100, 0)]:
        assert main(["table", "--m-max", str(m_max), "--n-max", str(n_max)]) == 64
        assert capsys.readouterr().err == (
            "gbf table: need 2 <= m_max <= 10000 and 1 <= n_max <= 16,"
            f" got ({m_max}, {n_max})\n"
        )

    assert main(["table", "--m-max", "14", "--n-max", "5", "--json"]) == 0
    cells = json.loads(capsys.readouterr().out)["outcome"]["cells"]
    by_key = {(c["m"], c["n"]): c["outcome"] for c in cells}
    assert by_key[(10, 5)] == "Nonexistent"
    assert by_key[(14, 5)] == "Unknown"


def test_table_csv_pinned(tmp_path, capsys):
    # golden digests: the 1000 x 9 CSV from before factorize was cached,
    # the CSV at the range caps and the store record's outcome from
    # before the table read outcome_rows; any moved outcome changes them
    for m_max, n_max, digest in [
        (1000, 9, "266e96633f028459b3864f025d361f74be8c88e7051a8b4bb688b946d4820562"),
        (10000, 16, "f8cf25b0a1c9d7a19fad2af2fac7bd87583a1a06c8c1034da42b1e0613d18fcf"),
    ]:
        assert main(["table", "--m-max", str(m_max), "--n-max", str(n_max)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    store = tmp_path / "table.jsonl"
    assert main(["table", "--m-max", "1000", "--n-max", "9", "--store", str(store)]) == 0
    capsys.readouterr()
    outcome = json.dumps(json.loads(store.read_text())["outcome"], sort_keys=True)
    digest = hashlib.sha256(outcome.encode()).hexdigest()
    assert digest == "d6fd2a987f1fe5729aaec302dc6427c15e73b58cf17dd130dc1ad0392452e907"


def dict_built_record(m_max, n_max, timestamp):
    """The table record as cell dicts, rendered by `gbf table` before it
    spliced the cells into the JSON line; the oracle for that line."""
    cells = [
        {"m": m, "n": n, "outcome": decide(m, n).outcome}
        for m in range(2, m_max + 1)
        if m % 4
        for n in range(1, n_max + 1)
    ]
    record = cli._record("table", {"m_max": m_max, "n_max": n_max}, {"cells": cells})
    record["timestamp"] = timestamp
    return record


def cell_built_csv(m_max, n_max):
    """The table CSV from one decide call per cell."""
    lines = ["m," + ",".join(f"n={n}" for n in range(1, n_max + 1))]
    for m in range(2, m_max + 1):
        if m % 4:
            outcomes = [decide(m, n).outcome for n in range(1, n_max + 1)]
            lines.append(",".join([str(m)] + outcomes))
    return "\n".join(lines) + "\n"


def test_table_store_line_matches_dict_oracle(tmp_path, capsys, monkeypatch):
    # byte for byte, so a change of separators or key order shows; each
    # range is written once through --store and once through GBF_STORE.
    # One row, one cell and one row of one cell are the edges of the
    # per-row templates.
    grids = [(2, 1), (3, 1), (2, 16), (6, 3), (16, 3), (1000, 9), (10000, 16)]
    for m_max, n_max in grids:
        argv = ["table", "--m-max", str(m_max), "--n-max", str(n_max)]
        flag = tmp_path / f"flag-{m_max}-{n_max}.jsonl"
        env = tmp_path / f"env-{m_max}-{n_max}.jsonl"
        assert main(argv + ["--store", str(flag)]) == 0
        monkeypatch.setenv("GBF_STORE", str(env))
        assert main(argv) == 0
        monkeypatch.delenv("GBF_STORE")
        csv = cell_built_csv(m_max, n_max)
        assert capsys.readouterr().out == csv + csv, (m_max, n_max)
        oracle = dict_built_record(m_max, n_max, None)
        for line in (flag.read_text(), env.read_text()):
            oracle["timestamp"] = json.loads(line)["timestamp"]
            assert line == json.dumps(oracle, sort_keys=True) + "\n", (m_max, n_max)


def test_table_json_matches_dict_oracle(capsys):
    for m_max, n_max in [(2, 1), (3, 1), (2, 16), (6, 3), (14, 5)]:
        assert main(["table", "--m-max", str(m_max), "--n-max", str(n_max), "--json"]) == 0
        out = capsys.readouterr().out
        oracle = dict_built_record(m_max, n_max, json.loads(out)["timestamp"])
        assert out == json.dumps(oracle, sort_keys=True, indent=2) + "\n", (m_max, n_max)


def test_table_csv_renders_no_record(capsys, monkeypatch):
    def no_record(*args):
        raise AssertionError("a record was rendered with neither --json nor a store")

    monkeypatch.setattr(cli, "_record", no_record)
    monkeypatch.delenv("GBF_STORE", raising=False)
    assert main(["table", "--m-max", "100", "--n-max", "9"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 75


def test_table_factors_nothing(capsys, monkeypatch):
    # the table's rows come from one sieve of the odd numbers up to m-max,
    # so trial division never runs, not even through ring's own callers:
    # the Mersenne escape at p = 7, 31 and 127 tests p alone
    def no_factorize(m):
        raise AssertionError(f"factorize({m}) ran")

    monkeypatch.setattr(criteria, "factorize", no_factorize)
    monkeypatch.setattr(ring, "factorize", no_factorize)
    # the pinned digests of test_table_csv_pinned
    for m_max, n_max, rows, digest in [
        (1000, 9, 749, "266e96633f028459b3864f025d361f74be8c88e7051a8b4bb688b946d4820562"),
        (10000, 16, 7499, "f8cf25b0a1c9d7a19fad2af2fac7bd87583a1a06c8c1034da42b1e0613d18fcf"),
    ]:
        assert main(["table", "--m-max", str(m_max), "--n-max", str(n_max)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1 + rows
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_store_roundtrip(tmp_path, capsys, monkeypatch):
    store = tmp_path / "results.jsonl"
    assert main(["decide", "45", "3", "--store", str(store)]) == 1
    assert main(["search", "3", "2", "--store", str(store)]) == 1
    capsys.readouterr()

    records = [json.loads(line) for line in store.read_text().splitlines()]
    assert [r["command"] for r in records] == ["decide", "search"]
    assert records[0]["outcome"]["outcome"] == "Nonexistent"
    assert records[1]["outcome"]["witness"] is None

    monkeypatch.setenv("GBF_STORE", str(store))
    assert main(["decide", "45", "3"]) == 1
    capsys.readouterr()
    assert len(store.read_text().splitlines()) == 3


def test_repeat_runs_identical_apart_from_time(capsys):
    def snap():
        assert main(["decide", "93", "5", "--json"]) == 1
        record = json.loads(capsys.readouterr().out)
        record.pop("timestamp")
        return record

    assert snap() == snap()
