import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from anonsearch import cli
from anonsearch.cli import main

ROOT = Path(__file__).resolve().parents[1]


def write_instance(tmp_path, x_cuts=(1,), rows=None):
    cfg = {
        "attributes": [
            {"name": "w", "kind": "categorical", "role": "qi",
             "taxonomy": "w", "splits": {"type": "taxonomy"}},
            {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 2],
             "splits": {"type": "explicit", "values": list(x_cuts)}},
            {"name": "s", "kind": "categorical", "role": "sensitive",
             "values": ["a", "b", "c"]},
        ],
        "taxonomies": {"w": {"label": "any", "children": [
            {"label": "pub", "children": [{"label": "fed"},
                                          {"label": "sta"}]},
            {"label": "priv", "children": [{"label": "inc"},
                                           {"label": "self"}]},
        ]}},
    }
    if rows is None:
        rows = [("fed", 0.2, "a"), ("fed", 0.4, "b"), ("sta", 0.6, "a"),
                ("sta", 0.8, "c"), ("inc", 1.2, "b"), ("inc", 1.4, "a"),
                ("self", 1.6, "c"), ("self", 1.8, "b")]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["w", "x", "s"])
        w.writerows(rows)
    return str(data), str(config)


def base_args(data, config):
    return ["--dataset", data, "--config", config]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def scrubbed_result(out_dir):
    doc = read_json(out_dir / "result.json")
    doc.get("stats", {}).pop("elapsed_sec", None)
    return doc


# ---- search ----

def test_search_end_to_end(tmp_path, capsys):
    data, config = write_instance(tmp_path)
    out = tmp_path / "run"
    code = main(["search", *base_args(data, config), "--k", "2",
                 "--metric", "dm", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("optimal:")
    doc = read_json(out / "result.json")
    assert doc["status"] == "optimal" and doc["certified"]
    assert doc["best_cost"] == 16  # four pairs
    assert doc["lower_bound"] == 16
    assert doc["ratio"] == 1.0
    assert doc["constraints"] == {"k": 2}
    assert doc["n_rows"] == 8
    part = read_json(out / "partition.json")
    assert len(part["blocks"]) == doc["n_blocks"]
    assert sum(b["count"] for b in part["blocks"]) == 8
    for b in part["blocks"]:
        assert set(b["extent"]) == {"w", "x"}
    labeled = [b["labels"]["w"] for b in part["blocks"] if "labels" in b]
    assert set(labeled) <= {"any", "pub", "priv", "fed", "sta", "inc", "self"}
    with open(out / "progress.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["elapsed_ms", "best_cost", "lower_bound", "ratio",
                      "queue"]


def test_search_outputs_are_stable(tmp_path):
    data, config = write_instance(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["search", *base_args(data, config), "--k", "2",
                     "--out", str(out)]) == 0
        outs.append(out)
    assert scrubbed_result(outs[0]) == scrubbed_result(outs[1])
    assert (outs[0] / "partition.json").read_bytes() == \
        (outs[1] / "partition.json").read_bytes()


def test_search_infeasible_exit(tmp_path, capsys):
    data, config = write_instance(tmp_path)
    out = tmp_path / "run"
    code = main(["search", *base_args(data, config), "--k", "99",
                 "--out", str(out)])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err
    doc = read_json(out / "result.json")
    assert doc["status"] == "infeasible"
    assert doc["best_cost"] is None
    assert not (out / "partition.json").exists()


def test_search_improve_seeds_incumbent(tmp_path):
    data, config = write_instance(tmp_path)
    out = tmp_path / "run"
    assert main(["search", *base_args(data, config), "--k", "2",
                 "--improve", "--out", str(out)]) == 0
    doc = read_json(out / "result.json")
    assert doc["seed_cost"] is not None
    assert doc["best_cost"] <= doc["seed_cost"]


def test_search_other_metrics_and_flags(tmp_path):
    data, config = write_instance(tmp_path)
    out1 = tmp_path / "cm"
    assert main(["search", *base_args(data, config), "--metric", "cm",
                 "--class-attr", "s", "--k", "2", "--mode", "approx",
                 "--alpha", "1.5", "--out", str(out1)]) == 0
    doc = read_json(out1 / "result.json")
    assert doc["metric"] == "cm" and doc["alpha"] == 1.5
    assert doc["status"] in ("optimal", "approx")
    out2 = tmp_path / "vm"
    assert main(["search", *base_args(data, config), "--metric", "vm",
                 "--unit-volume", "0.125", "--t", "0.5",
                 "--assume-monotone", "t_closeness",
                 "--out", str(out2)]) == 0
    doc = read_json(out2 / "result.json")
    assert doc["constraints"]["t"] == 0.5
    assert doc["constraints"]["assume_monotone"] == ["t_closeness"]


def test_sampling_is_seeded(tmp_path):
    data, config = write_instance(tmp_path)
    docs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["search", *base_args(data, config), "--sample", "6",
                     "--seed", "11", "--k", "2", "--out", str(out)]) == 0
        docs.append(scrubbed_result(out))
    assert docs[0] == docs[1]
    assert docs[0]["n_rows"] == 6


# ---- greedy ----

def test_greedy_end_to_end(tmp_path, capsys):
    data, config = write_instance(tmp_path)
    out = tmp_path / "g"
    code = main(["greedy", *base_args(data, config), "--k", "2",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("greedy: cost=")
    doc = read_json(out / "result.json")
    assert doc["status"] == "feasible"
    assert doc["certified"] is False
    assert doc["steps"] >= 1
    assert (out / "partition.json").exists()


def test_greedy_infeasible_exit(tmp_path):
    data, config = write_instance(tmp_path)
    assert main(["greedy", *base_args(data, config), "--k", "99",
                 "--out", str(tmp_path / "g")]) == 1


# ---- enumerate-count ----

def test_enumerate_count_and_oracle(tmp_path, capsys):
    data, config = write_instance(tmp_path)
    assert main(["enumerate-count", *base_args(data, config)]) == 0
    n = int(capsys.readouterr().out.split(":")[1])
    assert n > 1
    assert main(["enumerate-count", *base_args(data, config),
                 "--oracle"]) == 0
    out = capsys.readouterr().out
    assert f"partitions: {n}" in out and "MATCH" in out
    assert main(["enumerate-count", *base_args(data, config),
                 "--limit", "3"]) == 0
    assert "partitions: 3" in capsys.readouterr().out


def test_oracle_refuses_large_instances(tmp_path, capsys):
    data, config = write_instance(tmp_path,
                                  x_cuts=[round(0.2 * i, 1)
                                          for i in range(1, 10)])
    assert main(["enumerate-count", *base_args(data, config),
                 "--oracle"]) == 2
    assert "error:" in capsys.readouterr().err


# ---- query ----

def test_query_report(tmp_path, capsys):
    data, config = write_instance(tmp_path)
    out = tmp_path / "run"
    assert main(["search", *base_args(data, config), "--k", "2",
                 "--out", str(out)]) == 0
    queries = tmp_path / "queries.json"
    queries.write_text(json.dumps([
        {"w": "pub"},
        {"x": [0, 1]},
        {"w": "priv", "x": [1, 2]},
    ]))
    qout = tmp_path / "q"
    code = main(["query", *base_args(data, config),
                 "--partition", str(out / "partition.json"),
                 "--queries", str(queries), "--out", str(qout)])
    assert code == 0
    assert "mean_rel_error" in capsys.readouterr().out
    rep = read_json(qout / "query_report.json")
    assert rep["summary"]["queries"] == 3
    assert len(rep["rows"]) == 3
    with open(qout / "query_report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["query", "estimate", "true", "abs_error", "rel_error"]
    assert len(rows) == 4


def test_query_rejects_non_list(tmp_path, capsys):
    data, config = write_instance(tmp_path)
    out = tmp_path / "run"
    assert main(["search", *base_args(data, config), "--k", "2",
                 "--out", str(out)]) == 0
    queries = tmp_path / "queries.json"
    queries.write_text(json.dumps({"w": "pub"}))
    assert main(["query", *base_args(data, config),
                 "--partition", str(out / "partition.json"),
                 "--queries", str(queries),
                 "--out", str(tmp_path / "q")]) == 2


@pytest.mark.parametrize("partition, queries, message", [
    ({"blocks": [{"count": 8}]}, None, 'blocks[0]: missing "extent"'),
    ([], None, '"blocks" list'),
    ({"blocks": ["x"]}, None, "blocks[0]: expected an object"),
    ({"blocks": [{"count": 8, "extent": {"w": [0, 4]}}]}, None,
     "blocks[0]: extent of 'x' must be [lo, hi]"),
    ({"blocks": [{"count": "many", "extent": {"w": [0, 4], "x": [0, 2]}}]},
     None, 'blocks[0]: "count" must be a number'),
    (None, ["x"], "queries[0]: expected an object"),
    (None, [{"w": "pub"}, 3], "queries[1]: expected an object"),
], ids=["no-extent", "list-file", "block-not-object", "extent-lacks-attr",
        "bad-count", "query-not-object", "second-query-not-object"])
def test_query_malformed_input_exits_2(tmp_path, capsys, partition, queries,
                                       message):
    data, config = write_instance(tmp_path)
    out = tmp_path / "run"
    assert main(["search", *base_args(data, config), "--k", "2",
                 "--out", str(out)]) == 0
    part = out / "partition.json"
    if partition is not None:
        part.write_text(json.dumps(partition))
    qfile = tmp_path / "queries.json"
    qfile.write_text(json.dumps(queries or [{"w": "pub"}]))
    capsys.readouterr()
    assert main(["query", *base_args(data, config), "--partition", str(part),
                 "--queries", str(qfile), "--out", str(tmp_path / "q")]) == 2
    assert message in capsys.readouterr().err


# ---- error paths ----

def test_missing_file_is_config_error(tmp_path, capsys):
    _, config = write_instance(tmp_path)
    assert main(["search", "--dataset", str(tmp_path / "nope.csv"),
                 "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_json_config(tmp_path, capsys):
    data, _ = write_instance(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["search", "--dataset", data, "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_bad_min_length_argument(tmp_path, capsys):
    data, config = write_instance(tmp_path)
    assert main(["search", *base_args(data, config), "--min-length", "x:2",
                 "--out", str(tmp_path / "o")]) == 2
    assert "ATTR=LEN" in capsys.readouterr().err


def test_bad_data_value(tmp_path, capsys):
    data, config = write_instance(tmp_path)
    with open(data, "a", newline="") as fh:
        fh.write("fed,not_a_number,a\n")
    assert main(["search", *base_args(data, config),
                 "--out", str(tmp_path / "o")]) == 2
    assert "not a number" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--mode", "approx", "--alpha", "0.5"],
    ["--max-queue", "0"],
    ["--max-queue", "-3"],
    ["--node-limit", "-1"],
    ["--time-limit", "-2"],
])
def test_bad_search_flags_exit_2_before_reading_data(tmp_path, capsys,
                                                     monkeypatch, flags):
    data, config = write_instance(tmp_path)

    def must_not_load(*args):
        raise AssertionError("data read before the flags were checked")

    monkeypatch.setattr(cli, "load_config", must_not_load)
    out = tmp_path / "o"
    assert main(["search", *base_args(data, config), *flags,
                 "--out", str(out)]) == 2
    assert f"error: {flags[-2]} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["search", "--k", "-3"],
    ["search", "--k", "0"],
    ["greedy", "--k", "-2"],
    ["search", "--sample", "-5"],
    ["greedy", "--sample", "0"],
    ["enumerate-count", "--limit", "-1"],
    ["enumerate-count", "--limit", "0"],
])
def test_non_positive_counts_exit_2_before_reading_data(tmp_path, capsys,
                                                        monkeypatch, argv):
    data, config = write_instance(tmp_path)

    def must_not_load(*args):
        raise AssertionError("data read before the flags were checked")

    monkeypatch.setattr(cli, "load_config", must_not_load)
    command, flag, value = argv
    out = tmp_path / "o"
    tail = [] if command == "enumerate-count" else ["--out", str(out)]
    assert main([command, *base_args(data, config), flag, value,
                 *tail]) == 2
    assert f"error: {flag} must be >= 1, got {value}" in \
        capsys.readouterr().err
    assert not out.exists()


# ---- scripts ----

def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "anonsearch", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: anonsearch" in proc.stdout


def test_compare_script_smoke(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "scripts" /
                                        "make_adult_sample.py"),
                    "--rows", "400", "--seed", "17", "--out-dir",
                    str(tmp_path)], check=True, capture_output=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_greedy_search.py"),
         "--dataset", str(tmp_path / "data.csv"),
         "--config", str(tmp_path / "config.json"),
         "--k", "10", "--node-limit", "2000"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("status=")
               for line in proc.stdout.splitlines())


def test_same_outputs_script_smoke():
    script = ROOT / "scripts" / "same_outputs.py"
    # one line per flag set, the empty set being the workload's own flags
    proc = subprocess.run(
        [sys.executable, str(script), str(ROOT), "--workload", "taxo3k-exact",
         "--flags", "", "--flags", "--metric vm --node-limit 300"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "taxo3k-exact: same (partition.json, progress.csv, result.json)",
        "taxo3k-exact [--metric vm --node-limit 300]: "
        "same (partition.json, progress.csv, result.json)"]
