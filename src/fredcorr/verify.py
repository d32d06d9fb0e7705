"""Named property suites behind the ``verify`` subcommand.

Most suites are a scenario kind over drawn parameters: draw ``i`` of
seed ``s`` samples the parameters and a scenario seed from one stream,
runs the scenario through ``cli.run_scenario``, and counts each of its
checks by name, so a suite and a scenario file run the same routes.
The suites that no scenario kind expresses (products of twists, the
composition defect, reduction orders, window sweeps) draw their own
instances with the same deterministic seeding.  The convention suite
re-derives every pinned sign and compares it with the checked-in
manifest, so a refactoring that silently flips an orientation fails
loudly here.
"""

import itertools
import json
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from .circles import (
    LaurentSymbol,
    annulus_correspondence,
    build_sphere_chain,
    build_torus,
    chain_circle,
    disk_correspondence,
    mv_pairing,
    random_laurent_symbol,
    sphere_hardy_pair,
    stabilization_m0,
    symbol_twist,
    twist_circle,
    twisted_cap,
    winding_number,
)
from .errors import InvalidInput
from .graphs import global_index_selfglue
from .morphisms import (
    Chain,
    Correspondence,
    chain_total_index,
    delta,
    delta_direct,
    index,
    reduce_chain_ledger,
    tilde_ind,
)
from .spaces import ModelSpace, perturb_splitting, polarization_defect
from .subspaces import random_subspace
from .windows import mode_span

__all__ = [
    "CheckLine",
    "SuiteReport",
    "SUITES",
    "available_suites",
    "load_conventions",
    "run_suite",
]


@dataclass(frozen=True)
class CheckLine:
    name: str
    passed: int
    total: int
    detail: str = ""

    @property
    def ok(self):
        return self.passed == self.total


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)


def load_conventions():
    text = resources.files("fredcorr").joinpath("conventions.json").read_text()
    return json.loads(text)


def _rng(seed, i):
    return np.random.default_rng([seed, i])


def _run_scenarios(kind, draw, seed, count):
    """Runs the ``kind`` scenario on ``count`` drawn parameter sets and
    counts each of its checks by name."""
    from .cli import run_scenario  # cli imports this module
    tally = {}
    for i in range(count):
        rng = _rng(seed, i)
        params = draw(rng)
        report, _ = run_scenario({"version": 1, "kind": kind, **params},
                                 seed=int(rng.integers(2 ** 31)))
        for c in report["checks"]:
            hits = tally.setdefault(c["name"], [0, 0])
            hits[0] += c["status"] == "PASS"
            hits[1] += 1
    return [CheckLine(name, passed, total)
            for name, (passed, total) in sorted(tally.items())]


def _draw_pair(rng):
    n = int(rng.integers(6, 15))
    return {"ambient": n, "dims": [int(rng.integers(0, n + 1)) for _ in range(2)]}


def _draw_twist(rng):
    return {"window": 8, "channels": int(rng.integers(1, 4)),
            "degree": int(rng.integers(1, 4))}


def _draw_radii(rng):
    r2 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    r1 = r2 * float(np.exp(rng.uniform(np.log(1.05), np.log(3.0))))
    return {"window": 6, "radii": [r1, r2]}


def _draw_torus(rng):
    return {"window": 8, "q": float(rng.uniform(0.2, 0.95)),
            "k": int(rng.integers(-3, 4))}


def _draw_monomial(rng):
    return {"window": 6, "symbol": {"power": int(rng.integers(-3, 4))}}


def _draw_seed_only(rng):
    return {}


def _suite_twist_additivity(seed, count):
    ok = 0
    circle = twist_circle(12)
    for i in range(count):
        rng = _rng(seed, i)
        a = random_laurent_symbol(rng, channels=1, degree=int(rng.integers(1, 3)))
        b = random_laurent_symbol(rng, channels=1, degree=int(rng.integers(1, 3)))
        lhs = tilde_ind(symbol_twist(a.product(b), circle))
        rhs = tilde_ind(symbol_twist(a, circle)) + tilde_ind(symbol_twist(b, circle))
        ok += lhs == rhs
    return [CheckLine("twist index is additive under products", ok, count)]


def _random_composable_pair(rng, half=5):
    sa, sb, sc = (chain_circle(half).space() for _ in range(3))
    n = sa.dim
    l1 = Correspondence(source=sa, target=sb,
                        subspace=random_subspace(2 * n, int(rng.integers(n - 2, n + 3)), rng))
    l2 = Correspondence(source=sb, target=sc,
                        subspace=random_subspace(2 * n, int(rng.integers(n - 2, n + 3)), rng))
    return l1, l2


def _rebased(l1, l2, splitting):
    middle = l1.target.with_splitting(splitting)
    r1 = Correspondence(source=l1.source, target=middle, subspace=l1.subspace)
    r2 = Correspondence(source=middle, target=l2.target, subspace=l2.subspace)
    return r1, r2


def _suite_delta_splitting_invariance(seed, count, perturbations=5):
    constant = 0
    moved = 0
    in_class = 0
    for i in range(count):
        rng = _rng(seed, i)
        l1, l2 = _random_composable_pair(rng)
        base = delta(l1, l2)
        summands = (index(l1), index(l2))
        all_same = True
        any_moved = False
        for j in range(perturbations):
            s = perturb_splitting(l1.target.splitting, 2, seed=1000 * i + j)
            # a rank-2 perturbation tilts at most 4 directions
            in_class += polarization_defect(l1.target.splitting, s) <= 4
            r1, r2 = _rebased(l1, l2, s)
            if delta(r1, r2) != base:
                all_same = False
            if (index(r1), index(r2)) != summands:
                any_moved = True
        constant += all_same
        moved += any_moved
    lines = [CheckLine("composition defect is splitting-independent", constant, count)]
    lines.append(CheckLine("individual summands move for most pairs",
                           int(moved * 2 >= count), 1,
                           detail=f"{moved}/{count} pairs saw a summand change"))
    lines.append(CheckLine("each perturbed splitting stays in the polarization class",
                           in_class, count * perturbations))
    return lines


def _suite_delta_direct(seed, count):
    ok = 0
    for i in range(count):
        rng = _rng(seed, i)
        l1, l2 = _random_composable_pair(rng)
        kp, cp = delta_direct(l1, l2)
        ok += delta(l1, l2) == kp - cp
    return [CheckLine("defect equals kernel part minus cokernel part", ok, count)]


def _random_chain(rng, half=6):
    radii = sorted(rng.uniform(1.0, 3.0, size=4), reverse=True)
    circles = [chain_circle(half, r) for r in radii]
    sym = None
    if rng.random() < 0.7:
        sym = random_laurent_symbol(rng, channels=1, degree=int(rng.integers(1, 3)))
    links = [disk_correspondence(circles[0], "incoming")]
    for a, b in zip(circles, circles[1:]):
        links.append(annulus_correspondence(a, b))
    links.append(twisted_cap(circles[-1], sym))
    expected = 1 + (0 if sym is None else winding_number(sym))
    return Chain(links=tuple(links)), expected


def _suite_chain_association(seed, count):
    orders_ok = 0
    totals_ok = 0
    for i in range(count):
        rng = _rng(seed, i)
        chain, expected = _random_chain(rng)
        total = chain_total_index(chain)
        totals_ok += total == expected
        all_orders = itertools.permutations(range(len(chain) - 1))
        orders_ok += all(reduce_chain_ledger(chain, order).total == total
                         for order in all_orders)
    return [
        CheckLine("every reduction order gives the same total", orders_ok, count),
        CheckLine("total equals sum of link indices", totals_ok, count),
    ]


def _suite_window_stability(seed, count):
    sphere_vals = {chain_total_index(build_sphere_chain(m, (LaurentSymbol.monomial(2),)))
                   for m in range(6, 13)}
    torus_vals = set()
    for m in range(6, 13):
        l, t = build_torus(0.5, 2, m)
        torus_vals.add(global_index_selfglue(l, t))
    ok = 0
    for i in range(count):
        rng = _rng(seed, i)
        sym = random_laurent_symbol(rng, channels=1, degree=2)
        m0 = stabilization_m0(2)
        vals = {tilde_ind(symbol_twist(sym, twist_circle(m))) for m in range(m0, m0 + 7)}
        ok += len(vals) == 1
    return [
        CheckLine("twisted sphere constant over the window sweep", int(len(sphere_vals) == 1), 1),
        CheckLine("torus constant over the window sweep", int(len(torus_vals) == 1), 1),
        CheckLine("random twist indices stable over the sweep", ok, count),
    ]


def _recompute_conventions():
    circle = chain_circle(4)
    incoming = index(disk_correspondence(circle, "incoming"))
    outgoing = index(disk_correspondence(circle, "outgoing"))
    sphere = chain_total_index(build_sphere_chain(6))
    t = symbol_twist(LaurentSymbol.monomial(2), twist_circle(6))
    twist_winding = tilde_ind(t) == winding_number(LaurentSymbol.monomial(2))
    l, tw = build_torus(0.5, 1, 4)
    torus_sign = int(np.sign(global_index_selfglue(l, tw)))
    mv_sign = mv_pairing(sphere_hardy_pair(6), LaurentSymbol.monomial(1), 1)

    # strict halves: the defect sits in the cokernel slot and must enter
    # with the minus sign
    h = chain_circle(5).space()
    l1 = Correspondence(source=ModelSpace.zero_space(), target=h,
                        subspace=mode_span(h.window, lambda n: n > 0))
    l2 = Correspondence(source=h, target=ModelSpace.zero_space(),
                        subspace=mode_span(h.window, lambda n: n < 0))
    kp, cp = delta_direct(l1, l2)
    if (kp, cp) == (0, 1) and delta(l1, l2) == -1:
        delta_sign = -1
    else:
        delta_sign = 0
    return {
        "version": 1,
        "incoming_disk_index": incoming,
        "outgoing_disk_index": outgoing,
        "sphere_total_index": sphere,
        "twist_index_equals_winding": bool(twist_winding),
        "torus_twist_sign": torus_sign,
        "mv_pairing_sign": int(mv_sign),
        "delta_cokernel_sign": delta_sign,
    }


def _suite_conventions(seed, count):
    pinned = load_conventions()
    computed = _recompute_conventions()
    lines = []
    for key in sorted(pinned):
        got = computed.get(key)
        want = pinned[key]
        lines.append(CheckLine(f"manifest {key}", int(got == want), 1,
                               detail=f"pinned {want}, recomputed {got}"))
    return lines


SUITES = {
    "pair_routes": (partial(_run_scenarios, "pair", _draw_pair), 100),
    "twist_winding": (partial(_run_scenarios, "twist", _draw_twist), 25),
    "twist_additivity": (_suite_twist_additivity, 20),
    "delta_splitting_invariance": (_suite_delta_splitting_invariance, 20),
    "delta_direct_combination": (_suite_delta_direct, 30),
    "chain_association": (_suite_chain_association, 10),
    # the scenario seed draws the whole fan or graph
    "fan_four_formulas": (partial(_run_scenarios, "fan", _draw_seed_only), 50),
    "graph_fan_vs_additive": (partial(_run_scenarios, "graph", _draw_seed_only), 20),
    "sphere_radii": (partial(_run_scenarios, "chain", _draw_radii), 10),
    "torus_weights": (partial(_run_scenarios, "torus", _draw_torus), 10),
    "mv_pairing": (partial(_run_scenarios, "rh_transmission", _draw_monomial), 7),
    "window_stability": (_suite_window_stability, 5),
    "conventions": (_suite_conventions, 1),
}


def available_suites():
    return sorted(SUITES)


def run_suite(name, seed=0, count=None):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(available_suites())}")
    fn, default_count = SUITES[name]
    count = default_count if count is None else count
    if seed < 0:
        raise InvalidInput(f"seed must be nonnegative, got {seed}")
    if count < 1:
        raise InvalidInput(f"count must be positive, got {count}")
    return SuiteReport(suite=name, checks=tuple(fn(seed, count)))
