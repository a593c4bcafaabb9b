"""CLI tests driven through main(argv) and captured output."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gbf import expected_invariants, mm_function

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


def _by_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return out.out, out.err, code


def test_command_help_matches_full_parser(capsys):
    # _read declines help, so the whole parser answers it
    assert list(cli.COMMANDS) == ["decide", "verify", "search", "decompose", "catalog", "table"]
    for name in cli.COMMANDS:
        for argv in ([name, "-h"], [name, "--help"]):
            assert cli._read(argv) is None, argv
            seen = _by_main(argv, capsys)
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
        # _read declines each, so the whole parser answers it
        assert cli._read(list(argv)) is None, argv
        seen = _by_main(list(argv), capsys)
        assert seen[0].startswith(out) and seen[1].startswith(err) and seen[2] == code, argv
    assert "decompose" in _by_main(["-h"], capsys)[0]
    err = _by_main(["search", "3", "3", "--bogus"], capsys)[1]
    assert err.endswith("\ngbf: error: unrecognized arguments: --bogus\n")


def test_parser_built_only_for_declined_argv(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # plain argv are read with no parser
    assert main(["decide", "45", "3"]) == 1
    assert built == []
    # anything else builds the whole parser once: gbf and a subparser per
    # command, whether it is an abbreviation, help, an unknown command or
    # leftovers
    whole = ["gbf"] + [f"gbf {name}" for name in cli.COMMANDS]
    calls = [
        (["decide", "45", "3", "--js"], 1),
        (["bogus"], 64),
        (["search", "3", "3", "--bogus"], 64),
        *(([name, "-h"], 0) for name in cli.COMMANDS),
    ]
    for argv, code in calls:
        built.clear()
        assert main(argv) == code
        assert built == whole, argv
    capsys.readouterr()


JSON_ELT = json.dumps({"m": 2, "coeffs": [1, 1]})

# command -> argv after it, of each shape the bench and the README use
PLAIN_ARGV = {
    "decide": [["45", "3"], ["46", "5", "--json"]],
    "verify": [["4", "1", "0,1"], ["--file", "fns.txt"], ["--file", "f", "--store", "s"]],
    "search": [["6", "3"], ["4", "2", "--json"], ["3", "3", "--progress", "--store", "s"]],
    "decompose": [
        [JSON_ELT, "--c-exponent"],
        [JSON_ELT, "--minimal"],
        ["@e.json", "--c-exponent", "--store", "s"],
        ["@e.json", "--structure", "--store", "s"],
    ],
    "catalog": [[], ["--store", "s"]],
    "table": [
        ["--m-max", "100", "--n-max", "8"],
        ["--m-max", "10000", "--n-max", "16", "--store", "s"],
    ],
}


def _by_command_parser(argv):
    """vars() of the command parser's namespace for argv, or None when it
    errors or leaves arguments over."""
    parser = cli._fill(argparse.ArgumentParser(prog=f"gbf {argv[0]}"), argv[0])
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args, rest = parser.parse_known_args(argv[1:])
    except SystemExit:
        return None
    return None if rest else vars(args)


def test_plain_argv_read_as_the_command_parser_reads_them():
    assert list(PLAIN_ARGV) == list(cli.COMMANDS)
    for name, shapes in PLAIN_ARGV.items():
        for rest in shapes:
            argv = [name, *rest]
            read = cli._read(argv)
            assert read is not None, argv
            assert vars(read) == _by_command_parser(argv), argv


def _tokens(name):
    # the command's options in full, cut short and with =, help, the end
    # of options, integers decimal and not, an empty string, a file
    # reference and JSON text
    _, arguments, modes, _ = cli.COMMANDS[name]
    flags = [arg for arg, _ in arguments + cli._OUTPUT if arg.startswith("-")] + list(modes)
    others = ["-h", "--", "3", "-3", "1_0", "", "@f", JSON_ELT, "0,1"]
    return flags + [flag[:4] for flag in flags] + [flag + "=3" for flag in flags] + others


@st.composite
def _near_plain_argv(draw):
    # a plain argv, with up to three tokens inserted, replaced or deleted
    name = draw(st.sampled_from(list(PLAIN_ARGV)))
    rest = list(draw(st.sampled_from(PLAIN_ARGV[name])))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rest)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit != "insert" and at < len(rest):
            del rest[at]
        if edit != "delete":
            rest.insert(at, draw(st.sampled_from(_tokens(name))))
    return [name, *rest]


@settings(max_examples=600, deadline=None)
@given(_near_plain_argv())
def test_read_agrees_with_the_command_parser(argv):
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == _by_command_parser(argv)


PLAIN_CALLS = f"""
import json, sys
from gbfkit.cli import main
for argv in {[
    ["decide", "45", "3"],
    ["verify", "4", "1", "0,1"],
    ["search", "3", "2", "--progress"],
    ["decompose", JSON_ELT, "--minimal"],
    ["catalog"],
    ["table", "--m-max", "10", "--n-max", "2"],
    ["decide", "45", "3", "--js"],
]!r}:
    code = main(argv)
    loaded = [m for m in ("argparse", "gettext", "locale") if m in sys.modules]
    print("loaded", json.dumps([code, loaded]))
"""


def test_plain_calls_import_no_argparse():
    env = {k: v for k, v in os.environ.items() if k != "GBF_STORE"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run(
        [sys.executable, "-c", PLAIN_CALLS], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    seen = [json.loads(line[7:]) for line in proc.stdout.splitlines() if line.startswith("loaded ")]
    # six plain calls, one of each command, load none of the three; the
    # abbreviation is read by argparse
    assert seen[:6] == [[1, []], [0, []], [1, []], [0, []], [0, []], [0, []]]
    assert seen[6][0] == 1 and "argparse" in seen[6][1]


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

    # an inline function beside --file was dropped, and only the file's
    # rows reported (exit 1 for this one)
    bad.write_text("4 1 0,0\n")
    assert main(["verify", "4", "1", "0,1", "--file", str(bad)]) == 65
    assert capsys.readouterr().err == (
        "gbf verify: give the function inline or with --file, not both\n"
    )


def test_verify_file_long_bad_line_quoted_short(tmp_path, capsys):
    # one bad line of 2^16 values wrote 131 KB to stderr
    bad = tmp_path / "long.txt"
    bad.write_text("16\u20031 0," + ",".join(["1"] * ((1 << 16) - 1)) + "\n", encoding="utf-8")
    assert main(["verify", "--file", str(bad)]) == 65
    err = capsys.readouterr().err
    assert "long.txt:1: expected 'm n v0,v1,...'" in err and len(err) < 200


def no_table(*args):
    raise AssertionError("a table was built for a refused input")


def test_oversized_reduction_orders_refused(tmp_path, capsys, monkeypatch):
    # R_30026 would hold 15014 * 15012 int64 entries (1.8 GB)
    monkeypatch.setattr(cli, "autocorr_tables", no_table)
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


def test_verify_refuses_n_over_the_cap_before_any_table(tmp_path, capsys, monkeypatch):
    # n = 17 would take about 80 s: 4^17 cells at 2.1e8 a second
    assert cli.MAX_VERIFY_N == 16
    path = tmp_path / "big.txt"
    path.write_text("4 1 0,1\n3 17 " + ",".join(["0"] * (1 << 17)) + "\n")
    inline = ["3", "17", ",".join(["1"] * (1 << 17))]
    # below the cap the table is built: a (4, 3) bent function passes
    monkeypatch.setattr(cli, "MAX_VERIFY_N", 3)
    assert main(["verify", "4", "3", "0,0,0,2,1,1,1,3"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "autocorr_tables", no_table)
    assert main(["verify", "2", "4", "0,0,0,1,0,0,0,1,0,0,0,1,1,1,1,0"]) == 65
    assert capsys.readouterr().err.endswith("over the cap of n <= 3\n")
    monkeypatch.setattr(cli, "MAX_VERIFY_N", 16)
    for argv in (["verify", "--file", str(path)], ["verify", *inline]):
        assert main(argv) == 65
        assert capsys.readouterr().err == (
            "gbf verify: n = 17: 4^17 table cells, over the cap of n <= 16\n"
        )


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


def pinned_verify_lines():
    """96 rows, two at each m of 3, 4, 6, 12, 15 and 16 for n = 1..8,
    shuffled: a Maiorana-McFarland bent function where one exists (and
    0,1 at (4, 1)) and random values, each then shifted off f(0) = 0,
    scaled by a factor shared with m, both or neither."""
    rng = random.Random(35)
    lines = []
    for n in range(1, 9):
        for m in (3, 4, 6, 12, 15, 16):
            for bent in (True, False):
                values = [rng.randrange(m) for _ in range(1 << n)]
                if bent and m % 2 == 0 and (n % 2 == 0 or m % 4 == 0) and n > 1:
                    half = n // 2
                    perm = rng.sample(range(1 << half), 1 << half)
                    g = [rng.randrange(m) for _ in range(1 << half)]
                    values = list(mm_function(m, n, perm, g, z_bit=n % 2).values)
                elif bent and m == 4 and n == 1:
                    values = [0, 1]
                shift, scale = rng.choice([(0, 1), (1, 1), (0, 2), (m - 1, 3)])
                shift -= values[0]
                row = ",".join(str((v + shift) % m * scale) for v in values)
                lines.append(f"{m * scale} {n} {row}")
    rng.shuffle(lines)
    return lines


# sha256 of the outcome of gbf verify --json on pinned_verify_lines, as the
# per-function verify gave it before functions were checked by (n, m) stacks
VERIFY_BATCH_SHA256 = "83a19130ec2b059fb179f0f158695b2f5d0feb79d9ba05f3624cf36e6a2ed3a9"


@pytest.mark.parametrize("entries", [1, 200, 1 << 20])
def test_verify_batch_outcome_pinned(tmp_path, capsys, monkeypatch, entries):
    # chunks of one function, of a few at small n, and whole groups
    monkeypatch.setattr(cli, "VERIFY_CHUNK_ENTRIES", entries)
    path = tmp_path / "batch.txt"
    path.write_text("".join(line + "\n" for line in pinned_verify_lines()))
    assert main(["verify", "--file", str(path), "--json"]) == 1
    outcome = json.loads(capsys.readouterr().out)["outcome"]
    # the batch holds what the pin is for: every n, odd and even m, bent
    # and not, rows that normalize and rows that do not
    assert {rep["input"]["n"] for rep in outcome} == set(range(1, 9))
    assert {rep["input"]["m"] % 2 for rep in outcome} == {0, 1}
    assert {rep["is_gbf"] for rep in outcome} == {True, False}
    assert {rep["normalized"] is None for rep in outcome} == {True, False}
    digest = hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_BATCH_SHA256


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


def test_cli_holds_openblas_to_one_thread():
    # importing the CLI sets OPENBLAS_NUM_THREADS to 1 before numpy loads
    # (an audit hook reads it when numpy's import starts), unless the
    # caller set it
    code = (
        "import os, sys\n"
        "seen = []\n"
        "sys.addaudithook(lambda event, args: event == 'import' and args[0] == 'numpy'"
        " and seen.append(os.environ.get('OPENBLAS_NUM_THREADS')))\n"
        "import gbfkit.cli\n"
        "print(seen, os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    for given, want in [(None, "1"), ("2", "2")]:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [f"['{want}']", want], given


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
