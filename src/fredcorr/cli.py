"""Scenario-driven command line front end.

Scenarios are versioned JSON files describing a pair, twist, chain, fan,
graph, sphere, torus, or transmission computation; the tool runs every
index route the scenario admits, cross-checks them, and emits a table,
CSV, JSON, or DOT.  Identical scenario and seed give byte-identical
output.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
parse error.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import subspaces
from .circles import (
    LaurentSymbol,
    build_sphere_chain,
    build_torus,
    mv_pairing,
    random_laurent_symbol,
    sphere_hardy_pair,
    symbol_twist,
    twist_circle,
    winding_number,
)
from .errors import FredcorrError
from .fans import fan_from_twists, fan_index, partition_parts, random_fan
from .graphs import (
    DecompositionGraph,
    GraphEdge,
    edge_index,
    global_index_additive,
    global_index_fan,
    global_index_selfglue,
    has_self_loops,
    random_graph,
    sphere_path_graph,
    to_dot,
    torus_graph,
    vertex_index,
)
from .fans import TwistChain
from .morphisms import Twist, chain_total_index, index, reduce_chain_ledger, tilde_ind
from .subspaces import dimension_index, pair_index, random_subspace
from .verify import available_suites, load_conventions, run_suite
from .windows import MAX_COORDINATES

SCENARIO_VERSION = 1


class UsageError(Exception):
    pass


# -- parameter parsing ---------------------------------------------------

def _int(value, name):
    """An integer parameter: a JSON integer or an integral float."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{name} must be a number, got {value!r}")
    return float(value)


def _list(value, name, parse, length=None):
    """A JSON list of ``length`` items (any number when None), each
    parsed by ``parse(item, description)``."""
    if not isinstance(value, list) or length not in (None, len(value)):
        want = "a list" if length is None else f"a list of {length}"
        raise UsageError(f"{name} must be {want}, got {value!r}")
    return [parse(item, f"each item of {name}") for item in value]


def _int_csv(text, name):
    try:
        return [int(k) for k in text.split(",")]
    except ValueError:
        raise UsageError(f"{name} must be comma-separated integers, "
                         f"got {text!r}") from None


def _window(params, window, default):
    if window is not None:
        return window
    return _int(params.get("window", default), "window")


def _radii(params):
    return tuple(_list(params.get("radii", [2.0, 1.0]), "radii", _number,
                       length=2))


# -- Laurent symbol serialization ---------------------------------------

def symbol_to_json(sym):
    """Nested coefficient table with explicit power offset; every
    coefficient as an [re, im] pair so round-trips are bit-exact."""
    entries = []
    for a in range(sym.channels):
        row = []
        for b in range(sym.channels):
            row.append([[float(c.real), float(c.imag)]
                        for c in sym.coeffs[:, a, b]])
        entries.append(row)
    return {"d_min": int(sym.d_min), "entries": entries}


def _coeff(value):
    """A coefficient: a JSON number or a pair [re, im] of numbers."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], "coefficient"),
                       _number(value[1], "coefficient"))
    return complex(_number(value, "coefficient"))


def _channels(value, name):
    """A positive channel count whose c * c coefficient plane numpy can
    index, refused before anything is allocated."""
    channels = _int(value, name)
    if channels < 1:
        raise UsageError(f"{name} must be positive, got {channels}")
    if channels > math.isqrt(MAX_COORDINATES):
        raise UsageError(f"{name} must be at most "
                         f"{math.isqrt(MAX_COORDINATES)}, got {channels}")
    return channels


def symbol_from_json(obj):
    if isinstance(obj, dict) and "power" in obj:
        channels = _channels(obj.get("channels", 1), "symbol channels")
        return LaurentSymbol.monomial(_int(obj["power"], "symbol power"),
                                      channels=channels)
    if not isinstance(obj, dict) or "entries" not in obj:
        raise UsageError("symbol needs either {'power': k} or "
                         "{'d_min': int, 'entries': [[...]]}")
    entries = obj["entries"]
    n = len(entries) if isinstance(entries, list) else 0
    if n == 0 or any(not isinstance(row, list) or len(row) != n
                     for row in entries):
        raise UsageError("symbol entry table must be a square, nonempty "
                         "list of lists")
    if any(not isinstance(cell, list) for row in entries for cell in row):
        raise UsageError("each symbol entry must be a list of coefficients")
    planes = max(len(cell) for row in entries for cell in row)
    coeffs = np.zeros((planes, n, n), dtype=np.complex128)
    for a, row in enumerate(entries):
        for b, cell in enumerate(row):
            for p, value in enumerate(cell):
                coeffs[p, a, b] = _coeff(value)
    return LaurentSymbol(coeffs=coeffs,
                         d_min=_int(obj.get("d_min", 0), "symbol d_min"))


# -- report assembly -----------------------------------------------------

def _check(name, expected, actual):
    return {"name": name, "expected": expected, "actual": actual,
            "status": "PASS" if expected == actual else "FAIL"}


def _report(kind, inputs, results, checks):
    return {"version": SCENARIO_VERSION, "kind": kind, "inputs": inputs,
            "results": results, "checks": checks}


def _apply_budget(t, budget):
    if budget is None:
        return t
    return Twist(base=t.base, operator=t.operator, budget=int(budget))


def _apply_edge_budgets(g, budget):
    """Refuse a graph whose edge twists exceed the budget, as
    :func:`_apply_budget` refuses one twist."""
    for eid in sorted(g.edges):
        if g.edges[eid].twist is not None:
            _apply_budget(g.edges[eid].twist, budget)


# -- scenario runners ----------------------------------------------------

def run_pair(params, window, seed, budget):
    n = _int(params.get("ambient", 12), "ambient")
    if n < 0:
        raise UsageError(f"ambient must be nonnegative, got {n}")
    if n > MAX_COORDINATES:
        raise UsageError(f"ambient must be at most {MAX_COORDINATES}, got {n}")
    rng = np.random.default_rng(seed)
    dims = params.get("dims")
    if dims is None:
        dims = [int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))]
    da, db = _list(dims, "dims", _int, length=2)
    if not (0 <= da <= n and 0 <= db <= n):
        raise UsageError(f"dims must lie in 0..{n}, got {[da, db]}")
    a = random_subspace(n, da, rng)
    b = random_subspace(n, db, rng)
    rep = pair_index(a, b)
    # the stacked inclusion a + b -> C^n has kernel da + db - r and
    # cokernel n - r, and the projection of a onto b's complement kernel
    # da - r' and cokernel (n - db) - r': both ranks cancel, so both
    # routes are the count, and the checks audit pair_index's
    # intersection decision against its sum decision
    count = dimension_index(a, b)
    results = {
        "ambient": n, "dims": [da, db],
        "pair_index": rep.index,
        "dim_intersection": rep.dim_intersection,
        "codim_sum": rep.codim_sum,
        "inclusion_route": count,
        "restriction_route": count,
    }
    checks = [
        _check("pair index equals dimension identity", count, rep.index),
        _check("inclusion route agrees", rep.index, count),
        _check("restriction route agrees", rep.index, count),
    ]
    return _report("pair", {"ambient": n, "dims": [da, db], "seed": seed},
                   results, checks), None


def _symbol_from_params(params, seed):
    if "symbol" in params:
        return symbol_from_json(params["symbol"])
    channels = _channels(params.get("channels", 1), "channels")
    degree = _int(params.get("degree", 2), "degree")
    if degree < 1:
        raise UsageError(f"degree must be positive, got {degree}")
    # the symbol holds (degree + 1) * channels**2 coefficients
    most = MAX_COORDINATES // channels ** 2 - 1
    if degree > most:
        raise UsageError(f"degree must be at most {most} for {channels} "
                         f"channel(s), got {degree}")
    return random_laurent_symbol(np.random.default_rng(seed), channels=channels,
                                 degree=degree)


def run_twist(params, window, seed, budget):
    m = _window(params, window, 8)
    sym = _symbol_from_params(params, seed)
    t = _apply_budget(symbol_twist(sym, twist_circle(m, channels=sym.channels)),
                      budget)
    w = winding_number(sym)
    ti = tilde_ind(t)
    results = {"window": m, "winding": w, "twist_index": ti,
               "symbol": symbol_to_json(sym)}
    checks = [_check("windowed index equals winding", w, ti)]
    return _report("twist", {"window": m, "seed": seed}, results, checks), None


def _twists_from_params(params, seed):
    if "twists" in params:
        return _list(params["twists"], "twists",
                     lambda s, _: symbol_from_json(s))
    if "twist_powers" in params:
        return [LaurentSymbol.monomial(k) for k in
                _list(params["twist_powers"], "twist_powers", _int)]
    return []


def _sphere_chain(params, window, seed):
    """(window, radii, twists, sphere chain, link indices, expected total)
    of a chain or sphere scenario; the expected total is the pinned
    sphere index plus the total winding of the twists."""
    m = _window(params, window, 6)
    radii = _radii(params)
    twists = _twists_from_params(params, seed)
    chain = build_sphere_chain(m, twists, radii=radii)
    links = [index(l) for l in chain.links]
    expected = (load_conventions()["sphere_total_index"]
                + sum(winding_number(s) for s in twists))
    return m, radii, twists, chain, links, expected


def run_chain(params, window, seed, budget):
    m, radii, _, chain, links, expected = _sphere_chain(params, window, seed)
    total = sum(links)
    left = reduce_chain_ledger(chain, tuple(range(len(chain) - 1)))
    right = reduce_chain_ledger(chain, tuple(reversed(range(len(chain) - 1))))
    results = {"window": m, "radii": list(radii),
               "link_indices": links, "total": total,
               "delta_events_left": list(left.delta_events),
               "delta_events_right": list(right.delta_events)}
    checks = [
        _check("total is one plus total winding", expected, total),
        _check("ledger total equals chain total", total, left.total),
        _check("reduction orders agree", left.total, right.total),
    ]
    return _report("chain", {"window": m, "radii": list(radii), "seed": seed},
                   results, checks), None


def run_fan(params, window, seed, budget):
    m = _window(params, window, 6)
    powers = params.get("powers")
    if powers is None:
        rng = np.random.default_rng(seed)
        f = random_fan(rng, half_width=m, budget=budget)
    else:
        powers = _list(powers, "powers", _int)
        if not powers:
            raise UsageError("powers must list at least one part")
        space = twist_circle(m).space()
        k = len(powers)
        cuts = [int(round(-m + (i + 1) * (2 * m + 1) / k))
                for i in range(k - 1)]
        parts = partition_parts(space.window, cuts)
        twists = [None if p == 0 else LaurentSymbol.monomial(p)
                  for p in powers]
        f = fan_from_twists(space, parts, twists, budget=budget)
    rep = fan_index(f)
    results = {"window": m, "n_parts": f.n_parts,
               "part_dims": [p.dim for p in f.parts],
               "member_dims": [mm.dim for mm in f.members],
               "formula1": rep.formula1, "formula2": rep.formula2,
               "formula3": rep.formula3, "formula4": rep.formula4}
    checks = [
        _check("member-sum formula agrees", rep.formula1, rep.formula3),
        _check("telescoped formula agrees", rep.formula1, rep.formula4),
    ]
    if rep.formula2 is not None:
        checks.append(_check("twist-sum formula agrees", rep.formula1,
                             rep.formula2))
    return _report("fan", {"window": m, "powers": powers, "seed": seed},
                   results, checks), None


def _graph_from_params(params, window, seed):
    m = _window(params, window, 8)
    if "edges" not in params:
        return random_graph(np.random.default_rng(seed), half_width=m)
    if not isinstance(params["edges"], list) or not all(
            isinstance(e, dict) and "source" in e and "target" in e
            for e in params["edges"]):
        raise UsageError("edges must be a list of objects with a source "
                         "and a target")
    circle = twist_circle(m)
    listed = params.get("vertices")
    if listed is None:
        listed = sorted({str(e["source"]) for e in params["edges"]}
                        | {str(e["target"]) for e in params["edges"]})
    elif not (isinstance(listed, list) and listed
              and all(isinstance(v, str) for v in listed)):
        raise UsageError(f"vertices must be a nonempty list of strings, "
                         f"got {listed!r}")
    vertices = tuple(listed)
    edges = {}
    for i, spec in enumerate(params["edges"]):
        tw = None
        if spec.get("twist") is not None:
            sym = symbol_from_json(spec["twist"])
            if sym.channels != 1:
                raise UsageError("graph edge twists must be scalar symbols")
            tw = symbol_twist(sym, circle)
        eid = str(spec.get("id", f"e{i}"))
        if eid in edges:
            raise UsageError(f"edge id {eid!r} is repeated")
        edges[eid] = GraphEdge(str(spec["source"]), str(spec["target"]),
                               circle.space(), twist=tw)
    data = {v: TwistChain(factors=()) for v in vertices}
    return DecompositionGraph(vertices=vertices, edges=edges, vertex_data=data)


def run_graph(params, window, seed, budget):
    g = _graph_from_params(params, window, seed)
    _apply_edge_budgets(g, budget)
    per_vertex = {v: vertex_index(g, v) for v in sorted(g.vertices, key=str)}
    per_edge = {e: edge_index(g, e) for e in sorted(g.edges)}
    additive = sum(per_vertex.values()) + sum(per_edge.values())
    loops = has_self_loops(g)
    results = {"window": g.half_width,
               "vertex_indices": per_vertex, "edge_indices": per_edge,
               "additive": additive, "extension": loops}
    checks = [_check(f"edge {e} index equals winding",
                     winding_number(g.edges[e].twist.symbol), per_edge[e])
              for e in sorted(g.edges) if g.edges[e].twist is not None]
    if loops:
        results["fan"] = None
    else:
        fan = global_index_fan(g)
        results["fan"] = fan
        checks.append(_check("fan route equals additive route", additive, fan))
    return _report("graph", {"seed": seed, "window": g.half_width},
                   results, checks), g


def run_sphere(params, window, seed, budget):
    m, radii, twists, _, links, expected = _sphere_chain(params, window, seed)
    total = sum(links)
    prod = None
    for s in twists:
        prod = s if prod is None else prod.product(s)
    g = sphere_path_graph(m, twist=prod, radii=radii)
    _apply_edge_budgets(g, budget)
    additive = global_index_additive(g)
    fan = global_index_fan(g)
    results = {"window": m, "radii": list(radii), "link_indices": links,
               "chain_total": total, "graph_additive": additive,
               "graph_fan": fan}
    checks = [
        _check("chain total is one plus winding", expected, total),
        _check("graph additive route agrees", total, additive),
        _check("graph fan route agrees", total, fan),
    ]
    return _report("sphere", {"window": m, "radii": list(radii), "seed": seed},
                   results, checks), g


def run_torus(params, window, seed, budget):
    m = _window(params, window, 8)
    q = _number(params.get("q", 0.5), "q")
    k = _int(params.get("k", 0), "k")
    l, t = build_torus(q, k, m)
    value = global_index_selfglue(l, _apply_budget(t, budget))
    expected = 0 if k == 0 else load_conventions()["torus_twist_sign"] * abs(k)
    results = {"window": m, "q": q, "k": k, "selfglue_index": value}
    checks = [_check("self-glued index matches pinned sign", expected, value)]
    return _report("torus", {"window": m, "q": q, "k": k, "seed": seed},
                   results, checks), torus_graph(q, k, m)


def run_rh_transmission(params, window, seed, budget):
    m = _window(params, window, 8)
    sym = _symbol_from_params(params, seed)
    n = sym.channels
    w = winding_number(sym)
    t = _apply_budget(symbol_twist(sym, twist_circle(m, channels=n)), budget)
    ti = tilde_ind(t)
    mv = mv_pairing(sphere_hardy_pair(m), sym, n)
    manifest = load_conventions()
    results = {"window": m, "channels": n, "winding": w,
               "twist_index": ti, "mv_pairing": mv,
               "symbol": symbol_to_json(sym)}
    checks = [
        _check("transmission index equals winding", w, ti),
        _check("boundary pairing equals winding",
               manifest["mv_pairing_sign"] * w, mv),
    ]
    if n == 1:
        total = chain_total_index(build_sphere_chain(m, (sym,)))
        results["sphere_total"] = total
        checks.append(_check("twisted sphere total is one plus winding",
                             manifest["sphere_total_index"] + w, total))
    return _report("rh_transmission", {"window": m, "seed": seed},
                   results, checks), None


# each kind in order: its runner and the params it accepts ("seed" is
# valid everywhere); a runner returns (report, graph or None)
KINDS = {
    "pair": (run_pair, ("ambient", "dims")),
    "twist": (run_twist, ("window", "symbol", "channels", "degree")),
    "chain": (run_chain, ("window", "radii", "twists", "twist_powers")),
    "fan": (run_fan, ("window", "powers")),
    "graph": (run_graph, ("window", "edges", "vertices")),
    "sphere": (run_sphere, ("window", "radii", "twists", "twist_powers")),
    "torus": (run_torus, ("window", "q", "k")),
    "rh_transmission": (run_rh_transmission,
                        ("window", "symbol", "channels", "degree")),
}


def run_scenario(scenario, window=None, seed=None, budget=None):
    """Returns (report, graph-or-None)."""
    if not isinstance(scenario, dict):
        raise UsageError("scenario must be a JSON object")
    if scenario.get("version") != SCENARIO_VERSION:
        raise UsageError(f"scenario version must be {SCENARIO_VERSION}")
    kind = scenario.get("kind")
    if kind not in KINDS:
        raise UsageError(f"unknown scenario kind {kind!r}; "
                         f"one of: {', '.join(KINDS)}")
    run, keys = KINDS[kind]
    params = {k: v for k, v in scenario.items() if k not in ("version", "kind")}
    unknown = sorted(set(params) - set(keys) - {"seed"})
    if unknown:
        raise UsageError(f"unknown parameter(s) for kind {kind!r}: "
                         f"{', '.join(unknown)}")
    if seed is None:
        seed = _int(params.get("seed", 0), "seed")
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    return run(params, window, seed, budget)


# -- output formatting ---------------------------------------------------

def _fmt_value(v):
    if isinstance(v, dict):
        items = ", ".join(f"{k}={_fmt_value(x)}" for k, x in sorted(v.items()))
        return "{" + items + "}"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    return str(v)


def format_table(report):
    lines = [f"kind: {report['kind']}"]
    for key in sorted(report["results"]):
        if key == "symbol":
            continue
        lines.append(f"  {key}: {_fmt_value(report['results'][key])}")
    for c in report["checks"]:
        lines.append(f"  [{c['status']}] {c['name']}: "
                     f"expected {_fmt_value(c['expected'])}, "
                     f"got {_fmt_value(c['actual'])}")
    return "\n".join(lines) + "\n"


def format_csv(report):
    rows = ["section,name,value"]
    for key in sorted(report["results"]):
        if key == "symbol":
            continue
        rows.append(f"result,{key},{_csv_cell(report['results'][key])}")
    for c in report["checks"]:
        rows.append(f"check,{_csv_cell(c['name'])},{c['status']}")
    return "\n".join(rows) + "\n"


def _csv_cell(v):
    s = _fmt_value(v) if isinstance(v, (dict, list)) else str(v)
    if any(ch in s for ch in ",\"\n"):
        return '"' + s.replace('"', '""') + '"'
    return s


def format_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


FORMATTERS = {"table": format_table, "csv": format_csv, "json": format_json}


def _emit(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"{out_path}: {exc.strerror}")


def _exit_code(report):
    return 0 if all(c["status"] == "PASS" for c in report["checks"]) else 1


# -- argument plumbing ---------------------------------------------------

def _load_scenario(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text (byte {exc.start})")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: parse error at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}")


def _tolerance(value, name):
    # NaN fails both comparisons, and each infinity fails one
    if not 0.0 < value < 1.0:
        raise UsageError(f"{name} must be a finite number strictly between "
                         f"0 and 1, got {value!r}")
    return value


def _resolve_tol(flag_value):
    if flag_value is not None:
        return _tolerance(flag_value, "--tol")
    env = os.environ.get("FREDCORR_TOL")
    if env:
        try:
            return _tolerance(float(env), "FREDCORR_TOL")
        except ValueError:
            raise UsageError(f"FREDCORR_TOL is not a number: {env!r}")
    return None


_TOL_HELP = ("relative rank cutoff (overrides FREDCORR_TOL); the angle "
            "and other thresholds are fixed")


def _add_common(p, scenario_arg=True):
    if scenario_arg:
        p.add_argument("scenario", nargs="?", help="scenario JSON file")
    p.add_argument("--window", type=int, help="override the mode window half width")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--tol", type=float, help=_TOL_HELP)
    p.add_argument("--budget", type=int, help="override twist commutator budgets")
    p.add_argument("--format", choices=sorted(FORMATTERS), default="table")
    p.add_argument("--emit", choices=["dot"], help="emit a DOT rendering "
                   "(graph, sphere, torus scenarios)")
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fredcorr",
        description="Exact index calculus for polarized correspondences "
                    "on windowed mode spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="run one scenario file")
    _add_common(p_index)

    p_chain = sub.add_parser("chain", help="sphere chain without a file")
    _add_common(p_chain, scenario_arg=False)
    p_chain.add_argument("--twist-powers", default="",
                         help="comma-separated monomial powers, e.g. 1,-1,2")

    p_fan = sub.add_parser("fan", help="fan four-formula report")
    _add_common(p_fan, scenario_arg=False)
    p_fan.add_argument("--powers", default=None,
                       help="comma-separated per-part twist powers")

    p_graph = sub.add_parser("graph", help="graph decomposition report")
    _add_common(p_graph)

    p_verify = sub.add_parser("verify", help="run a named property suite")
    p_verify.add_argument("suite", nargs="?", default=None,
                          help="suite name, or omit to list suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=None)
    p_verify.add_argument("--tol", type=float, help=_TOL_HELP)

    p_report = sub.add_parser("report", help="run several scenarios")
    p_report.add_argument("scenarios", nargs="+", help="scenario JSON files")
    p_report.add_argument("--window", type=int)
    p_report.add_argument("--seed", type=int)
    p_report.add_argument("--tol", type=float, help=_TOL_HELP)
    p_report.add_argument("--budget", type=int)
    p_report.add_argument("--format", choices=sorted(FORMATTERS),
                          default="table")
    return parser


def _scenario_from_args(args, kind):
    scenario = {"version": SCENARIO_VERSION, "kind": kind}
    if kind == "chain" and args.twist_powers:
        scenario["twist_powers"] = _int_csv(args.twist_powers,
                                            "--twist-powers")
    if kind == "fan" and args.powers is not None:
        scenario["powers"] = _int_csv(args.powers, "--powers")
    return scenario


def _cmd_scenario(args, kind=None):
    if getattr(args, "scenario", None):
        scenario = _load_scenario(args.scenario)
        if kind is not None and scenario.get("kind") != kind:
            raise UsageError(f"expected a {kind} scenario, "
                             f"got {scenario.get('kind')!r}")
    elif kind is not None:
        scenario = _scenario_from_args(args, kind)
    else:
        raise UsageError("a scenario file is required")
    report, graph = run_scenario(scenario, window=args.window, seed=args.seed,
                                 budget=args.budget)
    if args.emit == "dot":
        if graph is None:
            raise UsageError(f"{report['kind']} scenarios have no DOT form")
        _emit(to_dot(graph), args.out)
    else:
        _emit(FORMATTERS[args.format](report), args.out)
    return _exit_code(report)


def _cmd_verify(args):
    if args.suite is None:
        sys.stdout.write("\n".join(available_suites()) + "\n")
        return 0
    try:
        rep = run_suite(args.suite, seed=args.seed, count=args.count)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    for c in rep.checks:
        mark = "PASS" if c.ok else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        sys.stdout.write(f"[{mark}] {c.name}: {c.passed}/{c.total}{detail}\n")
    sys.stdout.write(f"suite {rep.suite}: {'PASS' if rep.ok else 'FAIL'}\n")
    return 0 if rep.ok else 1


def _cmd_report(args):
    reports = []
    for path in args.scenarios:
        scenario = _load_scenario(path)
        report, _ = run_scenario(scenario, window=args.window, seed=args.seed,
                                 budget=args.budget)
        reports.append((path, report))
    if args.format == "json":
        payload = [{"file": p, **r} for p, r in reports]
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        failed = 0
        for path, r in reports:
            n_pass = sum(c["status"] == "PASS" for c in r["checks"])
            status = "PASS" if n_pass == len(r["checks"]) else "FAIL"
            failed += status == "FAIL"
            sys.stdout.write(f"{status} {path} ({r['kind']}): "
                             f"{n_pass}/{len(r['checks'])} checks\n")
        sys.stdout.write(f"{len(reports) - failed}/{len(reports)} scenarios passed\n")
    return 0 if all(_exit_code(r) == 0 for _, r in reports) else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    saved_tol = subspaces.DEFAULT_TOL
    try:
        tol = _resolve_tol(getattr(args, "tol", None))
        if tol is not None:
            subspaces.DEFAULT_TOL = tol
        if getattr(args, "budget", None) is not None and args.budget < 0:
            raise UsageError(f"--budget must be nonnegative, got {args.budget}")
        if args.command == "index":
            return _cmd_scenario(args)
        if args.command == "chain":
            return _cmd_scenario(args, kind="chain")
        if args.command == "fan":
            return _cmd_scenario(args, kind="fan")
        if args.command == "graph":
            return _cmd_scenario(args, kind="graph")
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "report":
            return _cmd_report(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, FredcorrError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        # the dense frames of a wide window did not fit
        detail = f" ({exc})" if str(exc) else ""
        sys.stderr.write(f"error: not enough memory for this input{detail}\n")
        return 2
    finally:
        # the override holds for this one command, not for the process
        subspaces.DEFAULT_TOL = saved_tol


if __name__ == "__main__":
    sys.exit(main())
