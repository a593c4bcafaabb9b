"""CLI tests driven through main(argv) and captured output."""

import json
import os
import subprocess
import sys

from test_gbf import reference_autocorr, reference_pair_counts

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
    assert main(["bogus"]) == 64
    assert main(["--help"]) == 0


def test_decide_json(capsys):
    assert main(["decide", "45", "3", "--json"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"command", "params", "outcome", "timestamp", "version"}
    assert record["command"] == "decide"
    assert record["params"] == {"m": 45, "n": 3}
    assert record["outcome"] == decide(45, 3).to_json()


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


def expected_invariants(f):
    """The four verify invariants, from the per-x reference table."""
    size, m = 1 << f.n, f.m
    table = reference_autocorr(f)
    identity = None
    if m % 2 == 0:
        support, square = reference_pair_counts(f)
        psi = [sum(c if k % 2 == 0 else -c for k, c in enumerate(row)) for row in table]
        identity = all(
            psi[x] == size - 4 * len(support) + 8 * (square[x] // 2) for x in range(1, size)
        )
    return {
        "origin_mass": table[0][0] == size and sum(table[0]) == size,
        "inversion_symmetric": all(row[-k % m] == row[k] for row in table for k in range(m)),
        "even_identity_coeff": all(row[0] % 2 == 0 for row in table[1:]),
        "even_m_identity": identity,
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

    assert main(["search", "5", "2", "--no-prune", "--threads", "2"]) == 1
    capsys.readouterr()


def test_search_progress_events(capsys):
    assert main(["search", "3", "2", "--progress"]) == 1
    err = capsys.readouterr().err
    events = [json.loads(line) for line in err.strip().splitlines()]
    assert len(events) == 9
    assert all(set(e) == {"prefix", "examined", "pruned"} for e in events)


def test_search_json_certificate(capsys):
    assert main(["search", "3", "2", "--json"]) == 1
    record = json.loads(capsys.readouterr().out)
    out = record["outcome"]
    assert out["normalized_space"] == 27
    assert out["examined"] + out["pruned"] == 27
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
    capsys.readouterr()


def test_catalog_cli(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "FormA: 36" in out and "mismatches: 0" in out

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

    assert main(["table", "--m-max", "20000"]) == 64
    assert main(["table", "--m-max", "1"]) == 64
    capsys.readouterr()

    assert main(["table", "--m-max", "14", "--n-max", "5", "--json"]) == 0
    cells = json.loads(capsys.readouterr().out)["outcome"]["cells"]
    by_key = {(c["m"], c["n"]): c["outcome"] for c in cells}
    assert by_key[(10, 5)] == "Nonexistent"
    assert by_key[(14, 5)] == "Unknown"


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
