import csv
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from click.testing import CliRunner

import mcf
from mcf.catalog import build
from mcf.cli import main
from mcf.stochastic import cylinder_measure


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_catalog_listing(runner):
    r = invoke(runner, "catalog")
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["command"] == "catalog"
    assert any(row["name"] == "brun" for row in d["rows"])


def test_validate_catalog_json(runner):
    r = invoke(runner, "validate", "--catalog", "cassaigne")
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["valid"] and d["version"]
    assert d["catalog"]["vertices"] == 3


def test_validate_dot_output(runner):
    r = invoke(runner, "validate", "--catalog", "gauss", "--format", "dot")
    assert r.exit_code == 0
    assert r.output.count("->") == 2


def test_validate_round_trips_through_graph_file(runner, tmp_path):
    # --graph reads validate's whole output, and the bare graph inside it
    f = tmp_path / "g.json"
    assert invoke(runner, "validate", "--catalog", "gauss", "--out", str(f)).exit_code == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(json.loads(f.read_text())["graph"]))
    for path in (f, bare):
        r2 = invoke(runner, "criterion", "--graph", str(path))
        assert r2.exit_code == 0
        assert json.loads(r2.output)["passes"]


@pytest.mark.parametrize("args", [
    ["validate", "--catalog", "gauss", "--format", "dot"],
    ["walk", "--catalog", "gauss", "--point", "2/7,5/7", "--n", "3"],
    ["pressure", "--catalog", "gauss", "--L", "4", "--n", "1"],
])
def test_unwritable_out_is_exit_2(runner, tmp_path, args):
    out = str(tmp_path / "missing" / "x")
    r = runner.invoke(main, args + ["--out", out])
    assert r.exit_code == 2
    assert out in r.output and "Traceback" not in r.output


def test_missing_source_is_exit_2(runner):
    r = runner.invoke(main, ["criterion"])
    assert r.exit_code == 2


def test_unknown_catalog_name_is_exit_2(runner):
    r = runner.invoke(main, ["criterion", "--catalog", "nope"])
    assert r.exit_code == 2


def test_strict_criterion_failure_is_exit_3(runner):
    r = runner.invoke(
        main, ["criterion", "--catalog", "poincare", "--dim", "3", "--strict"]
    )
    assert r.exit_code == 3


def test_criterion_on_a_too_large_graph_file_is_exit_2(runner, tmp_path):
    letters = [str(i) for i in range(1, 18)]
    graph = {"alphabet": letters, "vertices": ["v"],
             "edges": [{"from": "v", "to": "v", "label": a} for a in letters]}
    f = tmp_path / "g17.json"
    f.write_text(json.dumps(graph))
    r = invoke(runner, "criterion", "--graph", str(f))
    assert r.exit_code == 2
    assert "limited to alphabets of size 16, got 17" in r.output


def test_dimension_rejects_graph_and_catalog_together(runner, tmp_path):
    r = invoke(runner, "validate", "--catalog", "gauss")
    f = tmp_path / "g.json"
    f.write_text(json.dumps(json.loads(r.output)["graph"]))
    r = invoke(runner, "dimension", "--graph", str(f), "--catalog", "brun",
               "--dim", "3", "--L", "4")
    assert r.exit_code == 2
    assert "not both" in r.output


def test_walk_jsonl_trace(runner):
    r = invoke(
        runner, "walk", "--catalog", "cassaigne", "--point", "3/6,2/6,1/6",
        "--vertex", "a", "--n", "2",
    )
    assert r.exit_code == 0
    lines = [json.loads(l) for l in r.output.splitlines()]
    assert lines[0]["command"] == "walk"
    assert lines[1]["edge_label"] == "3"
    assert "final_point" in lines[-1]


def test_walk_bad_point_is_exit_2(runner):
    r = runner.invoke(main, ["walk", "--catalog", "gauss", "--point", "1/2"])
    assert r.exit_code == 2


def test_measure_single_path(runner):
    r = invoke(runner, "measure", "--catalog", "gauss", "--path", "1,2")
    d = json.loads(r.output)
    assert d["rows"][0]["relative"] == "1/6"


def test_measure_unknown_label_is_exit_2(runner):
    r = runner.invoke(main, ["measure", "--catalog", "gauss", "--path", "1,3"])
    assert r.exit_code == 2
    assert "no out-edge labeled '3'" in r.output


def test_measure_depth_table_csv(runner):
    r = invoke(runner, "measure", "--catalog", "gauss", "--n", "1",
               "--format", "csv")
    assert r.exit_code == 0
    assert r.output.splitlines()[0] == "measure,path,relative"
    assert len(r.output.splitlines()) == 3


@pytest.mark.parametrize("args", [
    ("criterion", "--catalog", "brun", "--dim", "3"),
    ("simulate", "--catalog", "gauss", "--trials", "10", "--n", "5", "--seed", "1"),
])
def test_payload_without_rows_writes_key_value_csv(runner, args):
    r = invoke(runner, *args, "--format", "csv")
    assert r.exit_code == 0
    rows = list(csv.reader(io.StringIO(r.output)))
    assert rows[0] == ["key", "value"]
    cells = dict(rows[1:])
    assert json.loads(cells["command"]) == args[0]
    assert isinstance(json.loads(cells["params"]), dict)
    if args[0] == "criterion":
        assert cells["passes"] == "true"


@pytest.mark.parametrize("q0", [None, "1/2,3,5/7"])
def test_measure_depth_rows_equal_cylinder_measure(runner, q0):
    args = ["measure", "--catalog", "brun", "--dim", "3", "--n", "6"]
    r = invoke(runner, *args, *(["--q0", q0] if q0 else []))
    assert r.exit_code == 0
    system = build("brun", 3).system
    start = system.vertices[0]
    q = tuple(Fraction(c) for c in q0.split(",")) if q0 else (1, 1, 1)
    whole = cylinder_measure(system, [], q)
    rows = json.loads(r.output)["rows"]
    assert max(row["path"].count(",") + 1 for row in rows) == 6
    for row in rows:
        path, v = [], start
        for label in row["path"].split(","):
            path.append(system.edge_by_label(v, label))
            v = system.edges[path[-1]].dst
        m = cylinder_measure(system, path, q)
        assert (Fraction(row["measure"]), Fraction(row["relative"])) == (m, m / whole)


@pytest.mark.parametrize("args", [
    ["walk", "--catalog", "gauss", "--point", "2,7", "--n", "-1"],
    ["measure", "--catalog", "gauss", "--n", "-1"],
])
def test_walk_and_measure_negative_n_is_exit_2(runner, args):
    r = runner.invoke(main, args)
    assert r.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["walk", "--catalog", "gauss", "--point", "2,7", "--vertex", "nowhere"],
     "unknown vertex 'nowhere'"),
    (["walk", "--catalog", "gauss", "--point", "3,3"],
     "tied minimum 1/2 among out-labels of 'v'"),
    (["walk", "--catalog", "arnoux-rauzy", "--dim", "3", "--point", "5,4,3"],
     "vertex 'X:2,1,3:0' has no out-edges"),
    (["measure", "--catalog", "gauss", "--vertex", "nowhere", "--n", "0"],
     "unknown vertex 'nowhere'"),
])
def test_walk_and_measure_library_errors_are_exit_2(runner, args, message):
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert r.output == f"Error: {message}\n"


def test_simulate_records_seed_and_is_reproducible(runner):
    a = invoke(runner, "simulate", "--catalog", "brun", "--dim", "3",
               "--seed", "7", "--trials", "200", "--n", "50")
    b = invoke(runner, "simulate", "--catalog", "brun", "--dim", "3",
               "--seed", "7", "--trials", "200", "--n", "50")
    assert a.exit_code == 0
    assert a.output == b.output  # byte-identical given identical config
    d = json.loads(a.output)
    assert d["params"]["seed"] == 7
    assert 0.0 <= d["all_letters_lose_rate"] <= 1.0


def test_simulate_tau_reports_every_letter(runner):
    r = invoke(runner, "simulate", "--catalog", "brun", "--dim", "3",
               "--seed", "3", "--trials", "200", "--n", "20", "--tau", "2")
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert sorted(d["jump_before_win"]) == ["1", "2", "3"]
    assert all(v["bound"] == 0.5 for v in d["jump_before_win"].values())
    assert all(v["truncated"] == 0 for v in d["jump_before_win"].values())
    # each letter's own coordinate jumps before it wins at most 1/tau of the
    # time (criterion 4), up to sampling error
    assert all(v["frequency"] <= v["bound"] + 3 * v["stderr"]
               for v in d["jump_before_win"].values())


@pytest.mark.parametrize("args", [["--tau", "0"], ["--trials", "0", "--tau", "2"],
                                  ["--trials", "0"], ["--tau", "-1"], ["--n", "-1"]])
def test_simulate_out_of_range_is_exit_2(runner, args):
    r = runner.invoke(main, ["simulate", "--catalog", "gauss", "--seed", "1",
                             "--n", "10", *args])
    assert r.exit_code == 2


def test_simulate_q0_beyond_the_float_range_is_not_a_traceback(runner):
    args = ["simulate", "--catalog", "gauss", "--trials", "3", "--n", "2", "--seed", "1"]
    r = runner.invoke(main, args + ["--q0", "1e400,1"])
    assert r.exit_code == 2
    assert "q0 must be positive" in r.output and "Traceback" not in r.output
    big = json.loads(invoke(runner, *args, "--q0", "1e400,3e400").output)
    small = json.loads(invoke(runner, *args, "--q0", "1,3").output)
    assert big.pop("params") != small.pop("params")
    assert big == small


@pytest.mark.parametrize("args", [
    ["simulate", "--catalog", "gauss", "--seed", str(2**64)],
    ["simulate", "--catalog", "gauss", "--seed", "-1"],
    # letter a of --tau walks with seed + 1 + a
    ["simulate", "--catalog", "brun", "--dim", "3", "--seed", str(2**64 - 1),
     "--tau", "2"],
    ["conjugacy", "--catalog", "gauss", "--seed", "-1"],
    ["conjugacy", "--catalog", "gauss", "--seed", str(2**64)],
])
def test_seeds_out_of_range_are_exit_2(runner, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = runner.invoke(main, [*args, "--trials", "10", "--n", "5"])
    assert r.exit_code == 2
    assert "seed" in r.output and "Traceback" not in r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)


def test_simulate_takes_the_largest_seed(runner):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = invoke(runner, "simulate", "--catalog", "gauss", "--seed",
                   str(2**64 - 1), "--trials", "10", "--n", "5")
    assert r.exit_code == 0
    assert json.loads(r.output)["params"]["seed"] == 2**64 - 1


def test_simulate_generates_and_records_seed_when_missing(runner):
    r = invoke(runner, "simulate", "--catalog", "gauss", "--trials", "50",
               "--n", "10")
    d = json.loads(r.output)
    assert isinstance(d["params"]["seed"], int)


def test_conjugacy_command(runner):
    r = invoke(runner, "conjugacy", "--catalog", "cassaigne", "--seed", "2",
               "--trials", "10", "--n", "10", "--strict")
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["passes"] and d["agreements"] == 10


@pytest.mark.parametrize("args", [["--trials", "0"], ["--n", "0"],
                                  ["--trials", "-3"]])
def test_conjugacy_out_of_range_is_exit_2(runner, args):
    # a strict check that ran no trial or no step must not pass
    r = runner.invoke(main, ["conjugacy", "--catalog", "gauss", "--seed", "1",
                             "--strict", *args])
    assert r.exit_code == 2
    assert "passes" not in r.output


def test_pressure_command(runner):
    r = invoke(runner, "pressure", "--catalog", "gauss", "--L", "8", "--n", "2")
    d = json.loads(r.output)
    assert 1.5 < d["kappa"] < 2.0
    assert d["target"] == 2
    k = d["letters"]
    assert d["products"] == k * (k + 1) // 2  # one per unordered pair


def test_dimension_command_reports_bound(runner):
    r = invoke(runner, "dimension", "--catalog", "arnoux-rauzy", "--dim", "2",
               "--L", "10", "--n", "2")
    d = json.loads(r.output)
    assert d["params"]["restricted"]
    assert "restricted" not in d and "L" not in d and "n" not in d
    assert d["bound"] < 2.0
    assert d["proper"]
    assert d["letters"] < d["products"] < d["letters"] ** 2


@pytest.mark.parametrize("args", [
    ["pressure", "--catalog", "gauss", "--L", "4", "--n", "0"],
    ["pressure", "--catalog", "gauss", "--L", "-1"],
    ["dimension", "--catalog", "arnoux-rauzy", "--dim", "2", "--L", "4", "--n", "0"],
    ["dimension", "--catalog", "arnoux-rauzy", "--dim", "2", "--L", "-1"],
])
def test_pressure_out_of_range_is_exit_2(runner, args):
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    # the library's message names the rejected value
    assert f"got {args[-1]}" in r.output and "Traceback" not in r.output


def test_pressure_of_one_letter_at_a_large_n_is_exit_2(runner):
    # 70 letters per tuple: more than the axes an ndarray may have
    r = runner.invoke(main, ["pressure", "--catalog", "gauss", "--L", "0", "--n", "70"])
    assert r.exit_code == 2
    assert "no pressure sign change" in r.output and "Traceback" not in r.output


@pytest.mark.parametrize("args", [
    ["pressure", "--catalog", "brun", "--dim", "3", "--L", "40", "--n", "1"],
    ["criterion", "--catalog", "brun", "--dim", "17"],
    ["validate", "--catalog", "poincare", "--dim", "15"],
    # one letter: one product, whatever n
    ["pressure", "--catalog", "gauss", "--L", "0", "--n", "10000000"],
])
def test_size_guards_exit_2_without_building_everything(args):
    # In a child process, so that a guard that waits for the whole alphabet
    # or the whole graph fails by its timeout instead of hanging the suite.
    src = os.path.dirname(os.path.dirname(mcf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-m", "mcf.cli", *args],
                       capture_output=True, text=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
