import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_search_stopped_before_any_incumbent_is_exhausted(tmp_path, capsys):
    # the root fails only the non-monotone eps-privacy bound, and the
    # budget stops the search before any partition is found: no status
    # is proved, so the run exits 0 as exhausted, with no partition
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 2],
         "splits": {"type": "explicit", "values": [1]}},
        {"name": "s", "kind": "categorical", "role": "sensitive",
         "values": ["a", "b", "c", "d"]},
    ]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    data = tmp_path / "data.csv"
    data.write_text("x,s\n" + "".join(f"{x},{v}\n" for x in (0.5, 1.5)
                                      for v in "abcd"))
    out = tmp_path / "run"
    code = main(["search", *base_args(str(data), str(config)), "--eps",
                 "2.45", "--b", "2", "--node-limit", "1", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "exhausted: cost=inf bound=32\n"
    doc = strict_json(out / "result.json")
    assert doc["status"] == "exhausted" and doc["best_cost"] is None
    assert doc["ratio"] is None and doc["alpha_guarantee"] is None
    assert not doc["certified"]
    assert not (out / "partition.json").exists()


def strict_json(path):
    """A JSON file read with the non-JSON tokens `Infinity`, `-Infinity`
    and `NaN` refused."""
    def refuse(token):
        raise ValueError(f"{path.name}: non-JSON token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


TAX_ROWS = [("fed", 0.5, "a"), ("inc", 1.5, "b"), ("sta", 1.2, "c"),
            ("self", 0.1, "a"), ("fed", 1.9, "b")]


def test_non_finite_values_are_written_as_strings(tmp_path):
    data, config = write_instance(tmp_path, x_cuts=(0.7, 1.4),
                                  rows=TAX_ROWS)
    out = tmp_path / "cm"
    assert main(["search", *base_args(data, config), "--metric", "cm",
                 "--node-limit", "0", "--out", str(out)]) == 0
    doc = strict_json(out / "result.json")
    assert doc["status"] == "exhausted" and doc["lower_bound"] == 0
    assert doc["ratio"] == doc["alpha_guarantee"] == "inf"
    out = tmp_path / "infeasible"
    assert main(["search", *base_args(data, config), "--k", "99",
                 "--out", str(out)]) == 1
    doc = strict_json(out / "result.json")
    assert doc["status"] == "infeasible" and doc["lower_bound"] == "inf"


def test_search_improve_seeds_incumbent(tmp_path):
    data, config = write_instance(tmp_path)
    out = tmp_path / "run"
    assert main(["search", *base_args(data, config), "--k", "2",
                 "--improve", "--out", str(out)]) == 0
    doc = read_json(out / "result.json")
    assert doc["seed_cost"] is not None
    assert doc["best_cost"] <= doc["seed_cost"]


def test_improved_seed_is_never_worse_than_itself(tmp_path):
    # the seed's vm cost was once greedy's running sum of deltas, which
    # came out an ulp above the search's block sum of the same tree
    subprocess.run([sys.executable, str(ROOT / "scripts" /
                                        "make_adult_sample.py"),
                    "--rows", "3000", "--seed", "17", "--out-dir",
                    str(tmp_path)], check=True, capture_output=True)
    out = tmp_path / "run"
    assert main(["search", "--dataset", str(tmp_path / "data.csv"),
                 "--config", str(tmp_path / "config.json"), "--metric", "vm",
                 "--k", "50", "--improve", "--node-limit", "3000",
                 "--out", str(out)]) == 0
    doc = read_json(out / "result.json")
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
    (None, [{"x": ["x", 5]}], "queries[0]: query range for 'x' must be"),
    (None, [{"w": "pub"}, {"x": [0, None]}],
     "queries[1]: query range for 'x' must be"),
    (None, [{"x": [0, float("nan")]}],
     "queries[0]: query range for 'x' must be"),
    *(({"blocks": [{"count": count, "extent": {"w": [0, 4], "x": [0, 2]}}]},
       None, 'blocks[0]: "count" must be a number')
      for count in (float("nan"), float("inf"), 3.7, -1)),
    ({"blocks": [{"count": 8, "extent": {"w": [0, 4],
                                         "x": [0, float("inf")]}}]},
     None, "blocks[0]: extent of 'x' must be [lo, hi]"),
], ids=["no-extent", "list-file", "block-not-object", "extent-lacks-attr",
        "bad-count", "query-not-object", "second-query-not-object",
        "query-not-number", "query-null", "query-nan", "count-nan",
        "count-inf", "count-fraction", "count-negative", "extent-inf"])
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


def test_config_that_is_not_an_object(tmp_path, capsys):
    data, _ = write_instance(tmp_path)
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert main(["search", "--dataset", data, "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config must be a JSON object, got list" in \
        capsys.readouterr().err


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


def _huge_field(path):
    # the csv module refuses a field over 131,072 characters
    path.write_text("w,x,s\nfed,0.2,a\nfed,0.2," + "a" * 131073 + "\n")


@pytest.mark.parametrize("command, target, make, where", [
    pytest.param("search", "dataset", Path.mkdir, "", id="dataset-is-dir"),
    pytest.param("search", "config", Path.mkdir, "", id="config-is-dir"),
    pytest.param("search", "dataset",
                 lambda p: p.write_bytes(b"w,x,s\nfed,0.2,\xff\n"), "",
                 id="dataset-not-utf8"),
    pytest.param("search", "config",
                 lambda p: p.write_bytes(b'{"attributes": "\xff"}'), "",
                 id="config-not-utf8"),
    pytest.param("search", "out", Path.touch, "", id="search-out-is-file"),
    pytest.param("greedy", "out", Path.touch, "", id="greedy-out-is-file"),
    pytest.param("search", "dataset", _huge_field, ":3:",
                 id="csv-field-too-large"),
])
def test_bad_input_paths_exit_2_naming_the_path(tmp_path, capsys, command,
                                                target, make, where):
    data, config = write_instance(tmp_path)
    paths = {"dataset": data, "config": config, "out": str(tmp_path / "o")}
    bad = tmp_path / f"bad-{target}"
    make(bad)
    paths[target] = str(bad)
    assert main([command, "--dataset", paths["dataset"], "--config",
                 paths["config"], "--out", paths["out"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}{where}" in err


@pytest.mark.parametrize("flags, message", [
    (["--metric", "vm", "--unit-volume", "inf"], "unit volume must be"),
    (["--metric", "vm", "--unit-volume", "nan"], "unit volume must be"),
    (["--l", "nan"], "l must be"),
    (["--l", "inf"], "l must be"),
    (["--min-length", "x=nan"], "length restriction for 'x' must be"),
    (["--min-length", "x=inf"], "length restriction for 'x' must be"),
    (["--eps", "2", "--sigma", "nan"], "sigma must be"),
    (["--eps", "2", "--b", "inf"], "b must be"),
    (["--eps", "2", "--delta", "nan"], "delta must be"),
])
def test_non_finite_flags_exit_2(tmp_path, capsys, flags, message):
    data, config = write_instance(tmp_path)
    assert main(["search", *base_args(data, config), "--k", "2", *flags,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"error: {message} finite" in capsys.readouterr().err


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


# ---- the parser ----

REQUIRED = {"search": ["--dataset", "d", "--config", "c", "--out", "o"],
            "greedy": ["--dataset", "d", "--config", "c", "--out", "o"],
            "enumerate-count": ["--dataset", "d", "--config", "c"],
            "query": ["--dataset", "d", "--config", "c", "--partition", "p",
                      "--queries", "q", "--out", "o"]}


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h", "search"], ["frobnicate", "--k", "5"], ["--bogus"],
    *[[command, "--help"] for command in cli.COMMANDS],
    *[[command, *REQUIRED[command], "--bogus", "1"] for command in cli.COMMANDS],
    *[[command] for command in cli.COMMANDS],
    ["search", *REQUIRED["search"], "--mode", "exact"],
    ["search", *REQUIRED["search"], "greedy"],
])
def test_main_parses_as_the_full_parser_does(argv, capsys):
    """`main` builds only the arguments of the command its first word
    names: help, usage and errors come out byte for byte as with every
    command's arguments built."""
    assert set(cli.COMMANDS) == set(REQUIRED)

    def outputs(parse):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        out, err = capsys.readouterr()
        return stop.value.code, out, err

    assert outputs(main) == outputs(cli.build_parser().parse_args)


# ---- scripts ----

def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "anonsearch", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: anonsearch" in proc.stdout


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
    # --rows replaces the workload's row count and is named in the line
    proc = subprocess.run(
        [sys.executable, str(script), str(ROOT), "--workload", "adult3k-dm",
         "--rows", "700", "--flags", "--node-limit 200"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "adult3k-dm (700 rows) [--node-limit 200]: "
        "same (partition.json, progress.csv, result.json)"]


def test_code_lines_script_smoke(tmp_path):
    script = ROOT / "scripts" / "code_lines.py"
    (tmp_path / "b.py").write_text(
        '"""Module docstring."""\n\n'
        "# a comment\n"
        "def f(x):\n"
        '    """Docstring."""\n\n'
        "    return (x +\n"
        "            1)\n\n\n"
        "class E(Exception):\n"
        '    """Only a docstring."""\n')
    (tmp_path / "a.py").write_text("X = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["a.py 1", "b.py 4", "total 5"]
    # the default is this checkout's package
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "search.py" in {line.split()[0] for line in lines}
    assert lines[-1].startswith("total ")


def test_same_outputs_names_the_first_difference(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from same_outputs import first_difference
    result = {"status": "exhausted",
              "stats": {"expanded": 2350, "generated": 100027}}
    assert first_difference(result, json.loads(json.dumps(result))) is None
    other = {**result, "stats": {"expanded": 2351, "generated": 100031}}
    assert first_difference(result, other) == "stats.expanded: 2350 != 2351"
    assert first_difference(result, {"status": "exhausted"}) == \
        "stats: {'expanded': 2350, 'generated': 100027} != <missing>"
    assert first_difference({"b": [1, 2, 3]}, {"b": [1, 2.5, 3]}) == \
        "b[1]: 2 != 2.5"
    # progress.csv rows: the first differing row is shown whole
    header = ["best_cost", "lower_bound", "ratio", "queue"]
    rows = [header, ["464428", "274104.0", "1.69", "1"],
            ["464000", "274104.0", "1.69", "9"]]
    assert first_difference(rows, rows[:2] + [rows[2][:3] + ["8"]]) == \
        "row 2: ['464000', '274104.0', '1.69', '9'] != " \
        "['464000', '274104.0', '1.69', '8']"
    assert first_difference(rows[:2], rows) == \
        "row 2: <missing> != ['464000', '274104.0', '1.69', '9']"
    # partition.json text: the first differing line
    assert first_difference('{\n  "a": 1,\n  "b": 2\n}\n',
                            '{\n  "a": 1,\n  "b": 3\n}\n') == \
        "line 3: '  \"b\": 2' != '  \"b\": 3'"
    assert first_difference("a\nb\n", "a\nb") == \
        "same lines, other line endings"


def test_same_outputs_runs_six_flag_sets_by_default(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import same_outputs
    ran = []
    monkeypatch.setattr(same_outputs, "solve",
                        lambda src, data, cfg, flags, out: ran.append(flags))
    # no instance is written: the script imports `make_instance` from
    # perfbench's `run`, here a stand-in
    monkeypatch.setitem(sys.modules, "run", SimpleNamespace(
        make_instance=lambda spec, data_seed, seed, out: (out, out)))
    assert same_outputs.main([str(ROOT), "--workload", "taxo3k-exact"]) == 0
    labels = [line.split(": ")[0]
              for line in capsys.readouterr().out.splitlines()]
    assert labels == [
        "taxo3k-exact",
        "taxo3k-exact [--metric vm --node-limit 3000]",
        "taxo3k-exact [--metric cm --node-limit 3000]",
        "taxo3k-exact [--max-queue 20 --node-limit 5000]",
        "taxo3k-exact [--mode approx --alpha 1.5 --node-limit 5000]",
        "taxo3k-exact [--metric cm --max-queue 100 --node-limit 20000]"]
    # both sides of each set, the set after the workload's own flags
    assert len(ran) == 12 and ran[2][-4:] == ["--metric", "vm",
                                               "--node-limit", "3000"]


def traced_solve(tmp_path, data, config, *flags):
    """The span calls by name and the result of a traced perfbench solve
    of the instance with `flags`."""
    report, out = tmp_path / "report.json", tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "solve.py"), str(report),
         "--trace", "--", "search", *base_args(data, config), "--k", "2",
         "--metric", "dm", "--out", str(out), *flags],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = read_json(report)
    assert doc["rc"] == 0
    calls = {}
    for span in doc["spans"]:
        calls[span["name"]] = calls.get(span["name"], 0) + span["calls"]
    return calls, read_json(out / "result.json")


def test_traced_solve_reaches_every_patched_layer(tmp_path):
    # perfbench/spans.py wraps library names from outside; a renamed one
    # would leave its layer at zero calls. Trees are grown only for a new
    # incumbent, and greedy finds this instance's optimum, so the search
    # starts from the root, whose tree it then improves on. A node limit
    # the search never reaches keeps it best-first
    data, config = write_instance(tmp_path, x_cuts=(0.5, 1, 1.5))
    calls, result = traced_solve(tmp_path, data, config,
                                 "--node-limit", "1000000")
    assert result["status"] == "optimal"
    assert result["stats"]["generated"] < 1000000
    for name in ("bounds.min_cost", "constraints.block_flags",
                 "bounds.lower_bound", "partition.apply_move"):
        assert calls.get(name, 0) > 0, name
    # the queue is counted through search.py's `heapq` name: a push bound
    # to another name would read as no push at all
    stats = result["stats"]
    assert calls.get("search.heap.push", 0) >= stats["max_queue_seen"] > 1
    # with no budget the DP over extents solves it, with no queue
    calls, result = traced_solve(tmp_path, data, config)
    assert result["status"] == "optimal"
    assert result["stats"]["max_queue_seen"] == 0
    assert calls.get("search.heap.push", 0) == 0
    assert calls.get("bounds.min_cost", 0) > 0
