"""Named property suites behind the ``verify`` subcommand.

Each suite replays one of the randomized invariants on freshly drawn
instances with deterministic seeding, and reports per-property counts.
The convention suite re-derives every pinned sign and compares it with
the checked-in manifest, so a refactoring that silently flips an
orientation fails loudly here.
"""

import itertools
import json
from dataclasses import dataclass
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
    symbol_twist,
    twist_circle,
    twisted_cap,
    winding_number,
)
from .fans import fan_index, random_fan
from .graphs import global_index_additive, global_index_fan, global_index_selfglue, random_graph
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
from .spaces import (
    SHARP_NEGATIVE,
    ModelSpace,
    perturb_splitting,
    polarization_defect,
    splitting_for_window,
)
from .subspaces import (
    complement,
    pair_index,
    random_subspace,
    rank,
    restricted_projection_index,
)
from .windows import ModeWindow, mode_span

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


def _suite_pair_routes(seed, count):
    hits = [0, 0, 0]
    for i in range(count):
        rng = _rng(seed, i)
        n = int(rng.integers(6, 15))
        a = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        b = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        expected = a.dim + b.dim - n
        rep = pair_index(a, b)
        stacked = np.hstack([a.frame, -b.frame])
        r = rank(stacked)
        inclusion = (a.dim + b.dim - r) - (n - r)
        restriction = restricted_projection_index(a, complement(b)).index
        hits[0] += rep.index == expected
        hits[1] += inclusion == rep.index
        hits[2] += restriction == rep.index
    return [
        CheckLine("intersection minus codim equals dimension identity", hits[0], count),
        CheckLine("stacked-frame kernel/cokernel route agrees", hits[1], count),
        CheckLine("restricted-projection route agrees", hits[2], count),
    ]


def _suite_twist_winding(seed, count):
    ok = 0
    for i in range(count):
        rng = _rng(seed, i)
        channels = int(rng.integers(1, 4))
        degree = int(rng.integers(1, 4))
        sym = random_laurent_symbol(rng, channels=channels, degree=degree)
        t = symbol_twist(sym, twist_circle(8, channels=channels))
        ok += tilde_ind(t) == winding_number(sym)
    return [CheckLine("windowed twist index equals winding", ok, count)]


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
    w = ModeWindow(half)
    labels = tuple(range(-half, half + 1))
    mk = lambda: ModelSpace(dim=w.dim, basis_labels=labels,
                            splitting=splitting_for_window(w, SHARP_NEGATIVE),
                            window=w, convention=SHARP_NEGATIVE)
    sa, sb, sc = mk(), mk(), mk()
    n = w.dim
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


def _suite_fan_four_formulas(seed, count):
    f13 = f14 = 0
    f2_ok = f2_n = 0
    for i in range(count):
        rng = _rng(seed, i)
        f = random_fan(rng)
        rep = fan_index(f)
        f13 += rep.formula1 == rep.formula3
        f14 += rep.formula1 == rep.formula4
        if rep.formula2 is not None:
            f2_n += 1
            f2_ok += rep.formula2 == rep.formula1
    return [
        CheckLine("residue formula equals member-sum formula", f13, count),
        CheckLine("telescoped formula agrees", f14, count),
        CheckLine("twist-sum formula agrees when defined", f2_ok, f2_n),
    ]


def _suite_graph_routes(seed, count):
    ok = 0
    for i in range(count):
        rng = _rng(seed, i)
        g = random_graph(rng)
        ok += global_index_fan(g) == global_index_additive(g)
    return [CheckLine("fan route equals additive route", ok, count)]


def _suite_sphere_radii(seed, count):
    ok = 0
    for i in range(count):
        rng = _rng(seed, i)
        r2 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        r1 = r2 * float(np.exp(rng.uniform(np.log(1.05), np.log(3.0))))
        total = chain_total_index(build_sphere_chain(6, radii=(r1, r2)))
        ok += total == 1
    return [CheckLine("sphere total is 1 for all radius pairs", ok, count)]


def _suite_torus_weights(seed, count):
    ok = 0
    for i in range(count):
        rng = _rng(seed, i)
        k = int(rng.integers(-3, 4))
        expected = 0 if k == 0 else -abs(k)
        values = []
        for q in rng.uniform(0.2, 0.95, size=2):
            l, t = build_torus(float(q), k, 8)
            values.append(global_index_selfglue(l, t))
        ok += values[0] == values[1] == expected
    return [CheckLine("torus index is weight-independent and pinned", ok, count)]


def _suite_mv_pairing(seed, count):
    pair = sphere_hardy_pair(6)
    base = mv_pairing(pair, LaurentSymbol.monomial(1), 1)
    ok = 0
    ks = range(-3, 4)
    for k in ks:
        ok += mv_pairing(pair, LaurentSymbol.monomial(k), 1) == k * base
    return [
        CheckLine("monomial pairing is k times the base value", ok, len(ks)),
        CheckLine("base value is +1", int(base == 1), 1),
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
        m0 = 2 * 2 + 2
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
    w = ModeWindow(5)
    labels = tuple(range(-5, 6))
    h = ModelSpace(dim=w.dim, basis_labels=labels,
                   splitting=splitting_for_window(w, SHARP_NEGATIVE),
                   window=w, convention=SHARP_NEGATIVE)
    l1 = Correspondence(source=ModelSpace.zero_space(), target=h,
                        subspace=mode_span(w, lambda n: n > 0))
    l2 = Correspondence(source=h, target=ModelSpace.zero_space(),
                        subspace=mode_span(w, lambda n: n < 0))
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
    "pair_routes": (_suite_pair_routes, 100),
    "twist_winding": (_suite_twist_winding, 25),
    "twist_additivity": (_suite_twist_additivity, 20),
    "delta_splitting_invariance": (_suite_delta_splitting_invariance, 20),
    "delta_direct_combination": (_suite_delta_direct, 30),
    "chain_association": (_suite_chain_association, 10),
    "fan_four_formulas": (_suite_fan_four_formulas, 50),
    "graph_fan_vs_additive": (_suite_graph_routes, 20),
    "sphere_radii": (_suite_sphere_radii, 10),
    "torus_weights": (_suite_torus_weights, 10),
    "mv_pairing": (_suite_mv_pairing, 7),
    "window_stability": (_suite_window_stability, 5),
    "conventions": (_suite_conventions, 1),
}


def available_suites():
    return sorted(SUITES)


def run_suite(name, seed=0, count=None):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(available_suites())}")
    fn, default_count = SUITES[name]
    checks = fn(seed, default_count if count is None else count)
    return SuiteReport(suite=name, checks=tuple(checks))
