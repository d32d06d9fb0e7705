"""Command line front end: scenario plumbing, exit codes, determinism,
and serialization round-trips.  Everything drives cli.main in-process,
except one subprocess run that checks stderr for a traceback."""

import argparse
import cmath
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredcorr import cli, graphs, subspaces
from fredcorr.circles import LaurentSymbol, random_laurent_symbol
from fredcorr.subspaces import random_subspace

from reference import dense_pair_routes, svd_calls


@pytest.fixture(autouse=True)
def _restore_tol():
    saved = subspaces.DEFAULT_TOL
    yield
    subspaces.DEFAULT_TOL = saved


def write_scenario(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_sphere_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json",
                          {"version": 1, "kind": "sphere", "window": 6})
    assert cli.main(["index", path]) == 0
    out = capsys.readouterr().out
    assert "link_indices: [0, 0, 1]" in out
    assert "chain_total: 1" in out
    assert "FAIL" not in out


def test_torus_scenario_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "torus", "q": 0.5, "k": 0,
                           "window": 6})
    assert cli.main(["index", path]) == 0
    assert "selfglue_index: 0" in capsys.readouterr().out


def test_twisted_torus_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "torus", "q": 0.3, "k": 2,
                           "window": 8})
    assert cli.main(["index", path]) == 0
    assert "selfglue_index: -2" in capsys.readouterr().out


def test_malformed_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"version": 1,\n "kind": ')
    assert cli.main(["index", str(p)]) == 2
    err = capsys.readouterr().err
    assert "parse error at line" in err


def test_unknown_kind_and_version(tmp_path, capsys):
    p1 = write_scenario(tmp_path, "k.json", {"version": 1, "kind": "blob"})
    assert cli.main(["index", p1]) == 2
    p2 = write_scenario(tmp_path, "v.json", {"version": 9, "kind": "torus"})
    assert cli.main(["index", p2]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("scenario", [
    {"kind": "twist", "symbol": {"entries": []}},
    {"kind": "twist", "window": "abc"},
    {"kind": "sphere", "radii": [1]},
    {"kind": "pair", "dims": [3]},
    {"kind": "pair", "dims": [-1, 2]},
    {"kind": "twist", "window": 8.5},
    {"kind": "twist", "symbol": {"entries": [[1]]}},
    {"kind": "chain", "twist_powers": 3},
    {"kind": "torus", "q": "a"},
    {"kind": "graph", "edges": [{"source": "a"}]},
    {"kind": "graph", "vertices": [["a"], "b"],
     "edges": [{"source": "a", "target": "b"}]},
    {"kind": "graph", "vertices": "ab",
     "edges": [{"source": "a", "target": "b"}]},
    {"kind": "pair", "seed": -1},
    # too narrow for the random draws
    {"kind": "graph", "window": 4},
    {"kind": "fan", "window": 1},
    {"kind": "twist", "symbol": {"power": 1, "channels": -1}},
    {"kind": "twist", "symbol": {"power": 1, "channels": 0}},
    {"kind": "fan", "powers": []},
])
def test_bad_parameter_is_usage_error(tmp_path, capsys, scenario):
    path = write_scenario(tmp_path, "bad.json", {"version": 1, **scenario})
    assert cli.main(["index", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("scenario, name", [
    # a degree below 1 is refused, not clamped by the random draw
    ({"kind": "twist", "degree": -1}, "degree"),
    ({"kind": "twist", "degree": 0}, "degree"),
    ({"kind": "rh_transmission", "degree": 0}, "degree"),
    # an empty vertex list is refused, not read as absent
    ({"kind": "graph", "vertices": [],
      "edges": [{"source": "a", "target": "b"}]}, "vertices"),
    # named for the parameter, not for what it breaks further in
    ({"kind": "twist", "symbol": {"power": 1, "channels": 0}},
     "symbol channels"),
    ({"kind": "fan", "powers": []}, "powers"),
])
def test_values_that_used_to_fall_back_are_refused(tmp_path, capsys,
                                                   scenario, name):
    path = write_scenario(tmp_path, "bad.json", {"version": 1, **scenario})
    assert cli.main(["index", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name} ")


# integers beyond the coordinates numpy can index; below that bound, from
# about 2 ** 31, numpy would try to allocate them instead
_BEYOND_INDEXING = [2 ** 61, 2 ** 62 - 1, 2 ** 62, 2 ** 63, 10 ** 20]


def _refused_in_one_line(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("value", _BEYOND_INDEXING)
@pytest.mark.parametrize("scenario", [
    {"kind": "twist", "window": "V"},
    {"kind": "torus", "window": "V"},
    {"kind": "twist", "symbol": {"d_min": "V", "entries": [[[1.0]]]}},
    {"kind": "twist", "symbol": {"d_min": "-V", "entries": [[[1.0, 2.0]]]}},
    {"kind": "rh_transmission", "symbol": {"power": "V"}},
    {"kind": "torus", "k": "V"},
    {"kind": "torus", "k": "-V"},
    {"kind": "fan", "powers": [1, "V"]},
    {"kind": "chain", "twist_powers": ["V"]},
    {"kind": "sphere", "twist_powers": [0, "-V"]},
    {"kind": "graph", "edges": [{"source": "a", "target": "b",
                                 "twist": {"power": "V"}}]},
    {"kind": "pair", "ambient": "V"},
], ids=lambda s: "-".join(str(k) for k in s if k != "kind") + "-" + s["kind"])
def test_integers_beyond_numpy_indexing_are_refused(tmp_path, capsys,
                                                    scenario, value):
    text = json.dumps({"version": 1, **scenario})
    path = tmp_path / "big.json"
    path.write_text(text.replace('"-V"', str(-value))
                    .replace('"V"', str(value)))
    _refused_in_one_line(capsys, ["index", str(path)])


@pytest.mark.parametrize("value", _BEYOND_INDEXING)
@pytest.mark.parametrize("kind", [k for k in cli.KINDS if k != "pair"])
def test_window_flag_beyond_numpy_indexing_is_refused(tmp_path, capsys,
                                                      kind, value):
    path = write_scenario(tmp_path, "s.json", {"version": 1, "kind": kind})
    _refused_in_one_line(capsys, ["index", path, "--window", str(value)])


@pytest.mark.parametrize("value", _BEYOND_INDEXING)
@pytest.mark.parametrize("argv", [["chain", "--twist-powers", "1,{v}"],
                                  ["fan", "--powers", "{v},-1"]])
def test_power_flags_beyond_numpy_indexing_are_refused(capsys, argv, value):
    _refused_in_one_line(capsys, [a.format(v=value) for a in argv])


@pytest.mark.parametrize("value", [2 ** 61, 2 ** 62, 2 ** 63, 10 ** 20])
@pytest.mark.parametrize("kind", ["twist", "rh_transmission"])
@pytest.mark.parametrize("params", [
    {"degree": "V"},
    {"channels": "V"},
    {"channels": 2, "degree": "V"},
    {"symbol": {"power": 1, "channels": "V"}},
], ids=["degree", "channels", "degree-of-two-channels", "monomial-channels"])
def test_symbol_sizes_beyond_numpy_indexing_are_refused(tmp_path, capsys,
                                                        params, kind, value):
    # a symbol holds (degree + 1) * channels ** 2 coefficients; values
    # from about 2 ** 31 up to that bound would start an allocation
    text = json.dumps({"version": 1, "kind": kind, **params})
    path = tmp_path / "big.json"
    path.write_text(text.replace('"V"', str(value)))
    _refused_in_one_line(capsys, ["index", str(path)])


@pytest.mark.parametrize("edges", [
    [{"source": "a", "target": "b", "id": "x", "twist": {"power": 2}},
     {"source": "b", "target": "a", "id": "x"}],
    # a default id e<i> colliding with an explicit one
    [{"source": "a", "target": "b", "id": "e1"},
     {"source": "b", "target": "a"}],
])
def test_repeated_graph_edge_id_is_refused(tmp_path, capsys, edges):
    path = write_scenario(tmp_path, "dup.json",
                          {"version": 1, "kind": "graph", "edges": edges})
    assert cli.main(["index", path]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: ") and "repeated" in err
    assert repr(edges[0]["id"]) in err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind", ["twist", "rh_transmission", "sphere"])
@pytest.mark.parametrize("entries, reason", [
    ([[[1.0, NAN]]], "finite"),
    ([[[NAN, 1.0]]], "finite"),
    ([[[1.0, NAN, 1.0]]], "finite"),
    ([[[1.0, INF]]], "finite"),
    ([[[-INF, 1.0]]], "finite"),
    ([[[True]]], "number"),
    ([[[1.0, [0.5, True]]]], "number"),
])
def test_non_finite_or_boolean_coefficient_is_refused(tmp_path, capsys, kind,
                                                      entries, reason):
    sym = {"d_min": 1, "entries": entries}
    payload = {"version": 1, "kind": kind, "window": 8}
    payload.update({"twists": [sym]} if kind == "sphere" else {"symbol": sym})
    path = write_scenario(tmp_path, "bad.json", payload)
    assert cli.main(["index", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert reason in lines[0]


def test_missing_file(capsys):
    assert cli.main(["index", "/nonexistent/x.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["index", "report"])
def test_file_that_is_not_utf8_is_usage_error(tmp_path, capsys, command):
    p = tmp_path / "bytes.json"
    p.write_bytes(b"\xff\xfe")
    assert cli.main([command, str(p)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not UTF-8" in lines[0]


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "torus", "q": 0.5, "k": 0,
                           "window": 6})
    out = str(tmp_path / "no_such_dir" / "x.txt")
    assert cli.main(["index", path, "--out", out]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {out}: No such file or directory"]


@pytest.mark.parametrize("argv", [
    ["index", "{path}", "--budget", "-1"],
    ["fan", "--budget", "-1"],
    ["report", "{path}", "--budget", "-3"],
])
def test_negative_budget_is_refused_before_any_twist(tmp_path, capsys, argv):
    # the message names the flag, not the twist it would have reached
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "twist", "window": 8})
    assert cli.main([a.format(path=path) for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --budget must be nonnegative")


@pytest.mark.parametrize("budget, code", [(1, 2), (2, 0)])
def test_budget_below_the_commutator_rank_refuses_the_twist(
        tmp_path, capsys, budget, code):
    # this twist's commutator has rank 2
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "twist", "window": 16,
                           "channels": 2, "degree": 3, "seed": 1})
    assert cli.main(["index", path, "--budget", str(budget)]) == code
    err = capsys.readouterr().err.splitlines()
    if code == 2:
        assert err == ["error: twist commutator exceeds its rank budget"]
    else:
        assert err == []


@pytest.mark.parametrize("payload", [
    {"version": 1, "kind": "graph", "seed": 0},
    {"version": 1, "kind": "sphere", "twist_powers": [2]},
])
def test_budget_reaches_the_graph_edge_twists(tmp_path, capsys, payload):
    # each scenario's edge twist has commutator rank 2
    path = write_scenario(tmp_path, "g.json", payload)
    assert cli.main(["index", path]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["index", path, "--budget", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: twist commutator exceeds its rank budget"]
    assert cli.main(["index", path, "--budget", "2"]) == 0
    assert capsys.readouterr().out == plain


def test_budget_reaches_a_random_fan(tmp_path, capsys):
    path = write_scenario(tmp_path, "f.json",
                          {"version": 1, "kind": "fan", "seed": 0})
    assert cli.main(["index", path]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["index", path, "--budget", "3"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: twist does not almost commute with a part projector"
        " (budget 3)"]
    assert cli.main(["index", path, "--budget", "4"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("argv", [["index", "{path}"], ["report", "{path}"]])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, argv):
    # a window too wide for its dense frames: refused, not a traceback
    # with the exit code of a failed check
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 12.8 GiB for an array")

    monkeypatch.setattr(cli, "symbol_twist", out_of_memory)
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "twist", "window": 8,
                           "channels": 1, "degree": 1})
    assert cli.main([a.format(path=path) for a in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: not enough memory for this input "
        "(Unable to allocate 12.8 GiB for an array)"]


def test_boundary_errors_print_no_traceback(tmp_path):
    p = tmp_path / "bytes.json"
    p.write_bytes(b"\xff\xfe")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-m", "fredcorr.cli", "index",
                           str(p)], capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize("radius, code, winding", [
    (1 + 1e-6, 0, 0),
    # fault (a): the windowed index misses the zero just inside the disk
    (1 - 1e-6, 1, 1),
])
def test_twist_with_a_zero_near_the_circle_is_decided(tmp_path, capsys,
                                                      radius, code, winding):
    z = radius * cmath.exp(1.2345j)
    path = write_scenario(tmp_path, "near.json", {
        "version": 1, "kind": "twist", "window": 8,
        "symbol": {"d_min": 0, "entries": [[[[-z.real, -z.imag], 1.0]]]}})
    assert cli.main(["index", path]) == code
    out = capsys.readouterr().out
    assert f"winding: {winding}" in out and "twist_index: 0" in out


def test_misspelled_param_is_rejected(tmp_path, capsys):
    path = write_scenario(tmp_path, "m.json",
                          {"version": 1, "kind": "sphere", "half_width": 8})
    assert cli.main(["index", path]) == 2
    assert "half_width" in capsys.readouterr().err


def test_json_reports_are_byte_identical(tmp_path, capsys):
    path = write_scenario(tmp_path, "g.json",
                          {"version": 1, "kind": "graph", "seed": 3})
    assert cli.main(["index", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["index", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["results"]["fan"] == parsed["results"]["additive"]


def test_csv_format(tmp_path, capsys):
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "torus", "q": 0.5, "k": 1,
                           "window": 6})
    assert cli.main(["index", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("section,name,value\n")
    assert "result,selfglue_index,-1" in out


def test_chain_subcommand(capsys):
    assert cli.main(["chain", "--window", "6",
                     "--twist-powers", "1,-1,2"]) == 0
    out = capsys.readouterr().out
    assert "total: 3" in out
    assert "[PASS]" in out


def test_fan_subcommand_powers(capsys):
    assert cli.main(["fan", "--powers", "2,0,-1", "--window", "8"]) == 0
    out = capsys.readouterr().out
    assert "formula1: 3" in out


def test_fan_subcommand_random(capsys):
    assert cli.main(["fan", "--seed", "5"]) == 0
    capsys.readouterr()


def test_graph_subcommand_dot(capsys):
    assert cli.main(["graph", "--seed", "3", "--emit", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph decomposition {")
    assert out.rstrip().endswith("}")


def test_graph_explicit_structure(tmp_path, capsys):
    path = write_scenario(tmp_path, "g.json", {
        "version": 1, "kind": "graph", "window": 8,
        "edges": [
            {"id": "a", "source": "x", "target": "y", "twist": {"power": 2}},
            {"id": "b", "source": "y", "target": "z"},
        ]})
    assert cli.main(["index", path]) == 0
    out = capsys.readouterr().out
    assert "edge_indices: {a=2, b=0}" in out
    assert "extension: False" in out


def test_graph_self_loop_flags_extension(tmp_path, capsys):
    path = write_scenario(tmp_path, "g.json", {
        "version": 1, "kind": "graph", "window": 6,
        "edges": [{"id": "e", "source": "v", "target": "v"}]})
    assert cli.main(["index", path]) == 0
    out = capsys.readouterr().out
    assert "extension: True" in out
    assert "fan: None" in out


def test_dot_refused_for_non_graph(tmp_path, capsys):
    path = write_scenario(tmp_path, "p.json",
                          {"version": 1, "kind": "pair", "ambient": 10})
    assert cli.main(["index", path, "--emit", "dot"]) == 2
    capsys.readouterr()


def test_dot_written_to_file(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json",
                          {"version": 1, "kind": "sphere", "window": 6})
    out_file = tmp_path / "g.dot"
    assert cli.main(["index", path, "--emit", "dot",
                     "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text().startswith("digraph")


def test_rh_transmission(tmp_path, capsys):
    path = write_scenario(tmp_path, "r.json", {
        "version": 1, "kind": "rh_transmission", "window": 8,
        "symbol": {"d_min": 1, "entries": [[[1.0]]]}})
    assert cli.main(["index", path]) == 0
    out = capsys.readouterr().out
    assert "winding: 1" in out
    assert "mv_pairing: 1" in out
    assert "sphere_total: 2" in out


def test_pair_scenario_routes(tmp_path, capsys):
    path = write_scenario(tmp_path, "p.json",
                          {"version": 1, "kind": "pair", "ambient": 11,
                           "dims": [4, 9], "seed": 7})
    assert cli.main(["index", path, "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["pair_index"] == 4 + 9 - 11
    assert all(c["status"] == "PASS" for c in rep["checks"])


@pytest.mark.parametrize("seed", range(8))
def test_pair_routes_equal_the_dense_ranks(seed):
    report, _ = cli.run_pair({}, None, seed, None)
    rng = np.random.default_rng(seed)
    da, db = (int(rng.integers(0, 13)) for _ in range(2))
    a, b = random_subspace(12, da, rng), random_subspace(12, db, rng)
    results = report["results"]
    assert (results["inclusion_route"], results["restriction_route"]) \
        == dense_pair_routes(a, b)


def test_counted_pair_routes_equal_the_dense_ranks_on_random_pairs():
    for i in range(100):
        rng = np.random.default_rng([31, i])
        n = int(rng.integers(0, 15))
        a = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        b = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        count = subspaces.dimension_index(a, b)
        assert dense_pair_routes(a, b) == (count, count)


def test_pair_routes_run_no_svd():
    # the dense routes rank the stacked frames, take b's complement by a
    # full SVD and rank the restricted projection: three SVDs the counted
    # routes do without
    params, seed = {"ambient": 12, "dims": [5, 7]}, 3

    def dense_run():
        rng = np.random.default_rng(seed)
        a, b = random_subspace(12, 5, rng), random_subspace(12, 7, rng)
        subspaces.pair_index(a, b)
        dense_pair_routes(a, b)

    assert svd_calls(dense_run) - svd_calls(
        cli.run_pair, params, None, seed, None) == 3


def test_verify_subcommand(capsys):
    assert cli.main(["verify", "mv_pairing", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "suite mv_pairing: PASS" in out
    assert cli.main(["verify", "definitely_not_a_suite"]) == 2
    capsys.readouterr()


def test_verify_lists_suites(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "fan_four_formulas" in out


def test_report_subcommand(tmp_path, capsys):
    p1 = write_scenario(tmp_path, "a.json",
                        {"version": 1, "kind": "sphere", "window": 6})
    p2 = write_scenario(tmp_path, "b.json",
                        {"version": 1, "kind": "torus", "q": 0.5, "k": 1,
                         "window": 6})
    assert cli.main(["report", p1, p2]) == 0
    out = capsys.readouterr().out
    assert "2/2 scenarios passed" in out


def test_manifest_regression_fails_loudly(tmp_path, capsys, monkeypatch):
    # a flipped pinned sign must surface as a FAIL and exit 1
    tampered = dict(cli.load_conventions())
    tampered["torus_twist_sign"] = 1
    monkeypatch.setattr(cli, "load_conventions", lambda: tampered)
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "torus", "q": 0.5, "k": 1,
                           "window": 6})
    assert cli.main(["index", path]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_tol_env_and_flag(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "torus", "q": 0.5, "k": 0,
                           "window": 6})
    monkeypatch.setenv("FREDCORR_TOL", "not-a-number")
    assert cli.main(["index", path]) == 2
    seen = []
    real = cli.run_scenario

    def spy(*args, **kwargs):
        seen.append(subspaces.current_tolerance())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", spy)
    saved = subspaces.DEFAULT_TOL
    # explicit flag wins over the broken env value, for this command only
    assert cli.main(["index", path, "--tol", "1e-8"]) == 0
    monkeypatch.setenv("FREDCORR_TOL", "1e-7")
    assert cli.main(["index", path]) == 0
    assert seen == [1e-8, 1e-7]
    assert subspaces.DEFAULT_TOL == saved
    capsys.readouterr()


def test_tol_help_names_the_relative_rank_cutoff():
    # --tol moves only DEFAULT_TOL; ANGLE_TOL and the rest stay fixed
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, sub in commands.items():
        tol = [a for a in sub._actions if "--tol" in a.option_strings]
        assert len(tol) == 1, name
        assert tol[0].help.startswith("relative rank cutoff"), name
        assert "angle tolerance" not in tol[0].help


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "2", "1", "0", "-1"])
def test_tol_outside_the_unit_interval_is_refused(tmp_path, capsys, monkeypatch,
                                                  value):
    path = write_scenario(tmp_path, "t.json",
                          {"version": 1, "kind": "torus", "q": 0.5, "k": 0,
                           "window": 6})
    saved = subspaces.DEFAULT_TOL
    assert cli.main(["index", path, f"--tol={value}"]) == 2
    assert capsys.readouterr().err.startswith("error: --tol must be")
    monkeypatch.setenv("FREDCORR_TOL", value)
    assert cli.main(["index", path]) == 2
    assert capsys.readouterr().err.startswith("error: FREDCORR_TOL must be")
    assert subspaces.DEFAULT_TOL == saved


def test_graph_edge_indices_are_checked_against_windings(tmp_path, capsys,
                                                         monkeypatch):
    path = write_scenario(tmp_path, "g.json", {
        "version": 1, "kind": "graph", "window": 8,
        "edges": [
            {"id": "a", "source": "x", "target": "y", "twist": {"power": 2}},
            {"id": "b", "source": "y", "target": "z", "twist": {"power": -1}},
            {"id": "c", "source": "z", "target": "x"},
        ]})
    assert cli.main(["index", path]) == 0
    out = capsys.readouterr().out
    assert "[PASS] edge a index equals winding: expected 2, got 2" in out
    assert "[PASS] edge b index equals winding: expected -1, got -1" in out
    assert "edge c index" not in out
    real = cli.edge_index
    monkeypatch.setattr(cli, "edge_index", lambda g, e: real(g, e) + 1)
    assert cli.main(["index", path]) == 1
    assert "[FAIL] edge a index equals winding: expected 2, got 3" in \
        capsys.readouterr().out


def test_graph_decides_each_index_once(capsys, monkeypatch):
    # spied where the runner finds them and where the library routes do
    calls = {"vertex": [], "edge": []}
    for name, key in (("vertex_index", "vertex"), ("edge_index", "edge")):
        real = getattr(cli, name)

        def spy(g, x, real=real, key=key):
            calls[key].append(x)
            return real(g, x)

        monkeypatch.setattr(cli, name, spy)
        monkeypatch.setattr(graphs, name, spy)
    assert cli.main(["graph", "--seed", "4", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert sorted(calls["vertex"]) == sorted(results["vertex_indices"])
    assert sorted(calls["edge"]) == sorted(results["edge_indices"])
    assert len(calls["vertex"]) == 4 and len(calls["edge"]) > 0
    assert results["additive"] == results["fan"] == \
        sum(results["vertex_indices"].values()) \
        + sum(results["edge_indices"].values())


def test_symbol_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(5):
        sym = random_laurent_symbol(rng, channels=2, degree=2)
        back = cli.symbol_from_json(cli.symbol_to_json(sym))
        assert back.d_min == sym.d_min
        assert np.array_equal(back.coeffs, sym.coeffs)
    mono = cli.symbol_from_json({"power": -3})
    assert mono.d_min == -3
    assert mono.coeffs.shape == (1, 1, 1)


def test_symbol_json_validation():
    with pytest.raises(cli.UsageError):
        cli.symbol_from_json({"entries": [[[1.0]], [[2.0]]]})  # not square
    with pytest.raises(cli.UsageError):
        cli.symbol_from_json({"d_min": 0, "entries": [[["x"]]]})
    with pytest.raises(cli.UsageError):
        cli.symbol_from_json(42)


def test_scalar_only_graph_twists(tmp_path, capsys):
    sym = cli.symbol_to_json(LaurentSymbol.monomial(1, channels=2))
    path = write_scenario(tmp_path, "g.json", {
        "version": 1, "kind": "graph", "window": 6,
        "edges": [{"source": "a", "target": "b", "twist": sym}]})
    assert cli.main(["index", path]) == 2
    assert "scalar" in capsys.readouterr().err


def _integers(value):
    """The integers of a report value, in its shape; floats, flags and
    nulls dropped."""
    if isinstance(value, dict):
        return {k: i for k, v in value.items()
                if (i := _integers(v)) not in (None, {}, [])}
    if isinstance(value, list):
        return [i for v in value if (i := _integers(v)) not in (None, {}, [])]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


# every integer each kind's default scenario reports, pinned so that a
# refactoring of the runners cannot move one unnoticed
DEFAULT_SCENARIO_INTEGERS = {
    "pair": {"ambient": 12, "dims": [11, 8], "pair_index": 7,
             "dim_intersection": 7, "codim_sum": 0, "inclusion_route": 7,
             "restriction_route": 7},
    "twist": {"window": 8, "winding": 1, "twist_index": 1,
              "symbol": {"d_min": 1}},
    "chain": {"window": 6, "link_indices": [0, 0, 1], "total": 1,
              "delta_events_left": [0, 1], "delta_events_right": [0, 1]},
    "fan": {"window": 6, "n_parts": 4, "part_dims": [3, 3, 4, 3],
            "member_dims": [3, 3, 4, 3], "formula1": 0, "formula2": 0,
            "formula3": 0, "formula4": 0},
    "graph": {"window": 8, "additive": -1, "fan": -1,
              "vertex_indices": {"v0": 2, "v1": -1, "v2": 1, "v3": -1},
              "edge_indices": {"e0": -2, "e1": 0, "e2": 0, "e3": 0, "e4": 0}},
    "sphere": {"window": 6, "link_indices": [0, 0, 1], "chain_total": 1,
               "graph_additive": 1, "graph_fan": 1},
    "torus": {"window": 8, "k": 0, "selfglue_index": 0},
    "rh_transmission": {"window": 8, "channels": 1, "winding": 1,
                        "twist_index": 1, "mv_pairing": 1, "sphere_total": 2,
                        "symbol": {"d_min": 1}},
}


@pytest.mark.parametrize("kind", cli.KINDS)
def test_default_scenario_integers_are_pinned(kind):
    report, _ = cli.run_scenario({"version": 1, "kind": kind})
    assert _integers(report["results"]) == DEFAULT_SCENARIO_INTEGERS[kind]
    assert all(c["status"] == "PASS" for c in report["checks"])


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be nonnegative"),
    (["--count", "-1"], "count must be positive"),
    (["--count", "0"], "count must be positive"),
])
def test_verify_refuses_bad_seed_and_count(capsys, flags, message):
    assert cli.main(["verify", "pair_routes", *flags]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: ") and message in err


def test_graph_scenario_honours_its_window_key(tmp_path, capsys):
    path = write_scenario(tmp_path, "g.json", {"version": 1, "kind": "graph",
                                               "window": 12, "seed": 3})
    assert cli.main(["index", path, "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["inputs"]["window"] == rep["results"]["window"] == 12
    # the flag still wins over the key
    assert cli.main(["index", path, "--window", "10", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["window"] == 10


def test_generic_cap_chain_events_match_the_untwisted_chain(tmp_path, capsys):
    # 1 + 0.3z has no zero inside the disk: the cap records no structure,
    # and its junctions compose through the fiber product
    path = write_scenario(tmp_path, "c.json", {
        "version": 1, "kind": "chain", "window": 32, "radii": [2, 1],
        "twists": [{"d_min": 0, "entries": [[[1.0, 0.3]]]}]})
    assert cli.main(["index", path, "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["total"] == 1
    assert results["delta_events_left"] == [0, 1]
    assert results["delta_events_right"] == [0, 1]


def test_chain_checks_the_ledger_against_the_link_sum(capsys, monkeypatch):
    real = cli.reduce_chain_ledger

    def off_by_one(chain, order):
        rep = real(chain, order)
        return dataclasses.replace(rep, total=rep.total + 1)

    monkeypatch.setattr(cli, "reduce_chain_ledger", off_by_one)
    assert cli.main(["chain", "--window", "6"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] ledger total equals chain total: expected 1, got 2" in out
    assert "[PASS] reduction orders agree" in out


def _run_scenario_json(scenario):
    """(exit code, results without the symbol, check statuses) of
    ``cli.main`` on a scenario; any exception escapes."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["index", path, "--format", "json"])
    if code == 2:
        return code, None, None
    report = json.loads(out.getvalue())
    report["results"].pop("symbol", None)
    return code, report["results"], [c["status"] for c in report["checks"]]


# magnitudes 1/8 .. 4 or zero: 2**k times each stays a normal float for
# |k| <= 1000, so the scaled symbol is exactly 2**k A
_COEFFICIENT = st.one_of(st.just(0.0), st.floats(0.125, 4.0),
                         st.floats(-4.0, -0.125))


@settings(deadline=None, max_examples=100)
@given(data=st.data(), planes=st.integers(1, 3),
       d_min=st.integers(-2, 2), window=st.integers(2, 8),
       k=st.integers(-1000, 1000),
       kind=st.sampled_from(["twist", "rh_transmission", "chain", "sphere",
                             "graph"]))
def test_integers_do_not_depend_on_the_symbol_scale(data, planes, d_min,
                                                    window, k, kind):
    # the index of c A is the index of A; a power of two scales exactly.
    # chain and sphere scenarios carry the symbol as their scalar cap
    # twist, graph scenarios as the twist of one edge of a 2-cycle
    capped = kind in ("chain", "sphere")
    channels = 1 if capped or kind == "graph" else data.draw(st.integers(1, 2))
    entries = data.draw(st.lists(
        st.lists(st.lists(st.tuples(_COEFFICIENT, _COEFFICIENT),
                          min_size=planes, max_size=planes),
                 min_size=channels, max_size=channels),
        min_size=channels, max_size=channels))
    runs = []
    for scale in (1.0, 2.0 ** k):
        table = [[[[scale * re, scale * im] for re, im in cell]
                  for cell in row] for row in entries]
        sym = {"d_min": d_min, "entries": table}
        runs.append(_run_scenario_json(
            {"version": 1, "kind": kind, "window": window,
             **_carrying(kind, sym)}))
    assert runs[0][0] in (0, 1, 2)
    assert runs[0] == runs[1]


def _carrying(kind, sym):
    """The scenario entries that carry a JSON symbol in a ``kind``."""
    if kind in ("chain", "sphere"):
        return {"twists": [sym]}
    if kind == "graph":
        return {"edges": [{"source": "a", "target": "b", "twist": sym},
                          {"source": "b", "target": "a"}]}
    return {"symbol": sym}


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1e-9, 1e-6, 1.0, 1e8, 1e9,
                                   1e12, 1.7e308])
def test_a_scaled_edge_symbol_keeps_the_fan_route(scale):
    # the edge symbol's slot sits beside an identity slot at the vertex b;
    # the fan route composes it over its power of two
    sym = {"d_min": 0, "entries": [[[scale, 0.3 * scale]]]}
    code, results, checks = _run_scenario_json(
        {"version": 1, "kind": "graph", **_carrying("graph", sym)})
    assert code == 0 and set(checks) == {"PASS"}
    assert results["fan"] == results["additive"] == 0


@pytest.mark.parametrize("twists", [[], [{"d_min": 0, "entries": [[[1.0, 0.3]]]}]])
def test_sphere_scenario_builds_no_diagonal_frame(monkeypatch, twists):
    # the annulus and the middle vertex of the sphere graph are records:
    # every route reads their dimensions only
    from fredcorr import morphisms
    built = []
    real = morphisms._diagonal_graph_frame
    monkeypatch.setattr(morphisms, "_diagonal_graph_frame",
                        lambda *a: built.append(a) or real(*a))
    report, g = cli.run_scenario({"version": 1, "kind": "sphere",
                                  "window": 8, "twists": twists})
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    assert graphs.to_dot(g) and built == []
    # read afterwards, the middle frame is the annulus frame, halves swapped
    mid = g.vertex_data["mid"]
    d = mid.ambient_dim // 2
    labels = g.edges["e1"].space.window.mode_labels()
    ann = morphisms._diagonal_graph_frame(labels, 0.5)  # radii 2 and 1
    assert np.array_equal(mid.frame, np.vstack([ann[d:], ann[:d]]))


@pytest.mark.parametrize("kind, total", [("rh_transmission", "sphere_total"),
                                         ("chain", "total"),
                                         ("sphere", "graph_fan")])
def test_a_cap_with_the_largest_coefficients_keeps_the_sphere_total(kind,
                                                                    total):
    # 1.7e308 + 0.5e308 z: the band matrix's largest singular value,
    # 2.2e308, is not a float, so the rank decisions scale the blocks
    sym = {"d_min": 0, "entries": [[[1.7e308, 0.5e308]]]}
    code, results, checks = _run_scenario_json(
        {"version": 1, "kind": kind, **_carrying(kind, sym)})
    assert code == 0 and set(checks) == {"PASS"}
    assert results[total] == 1

