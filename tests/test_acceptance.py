"""Acceptance gate: the fourteen primary criteria, one test and one
printed PASS/FAIL line each.  Every identity is exact integer equality;
run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import time

import numpy as np
import pytest

from fredcorr.circles import (
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
from fredcorr.graphs import (
    global_index_additive,
    global_index_fan,
    global_index_selfglue,
    random_graph,
)
from fredcorr.fans import fan_index, random_fan
from fredcorr.morphisms import (
    Chain,
    chain_total_index,
    compose,
    delta,
    delta_direct,
    index,
    reduce_chain_ledger,
    tilde_ind,
)
from fredcorr.spaces import perturb_splitting
from fredcorr.subspaces import (
    complement,
    pair_index,
    random_subspace,
    rank,
)
from fredcorr.verify import (
    _draw_radii,
    _random_chain,
    _random_composable_pair,
    _rebased,
    load_conventions,
)

from reference import restricted_projection_index

RADIUS_PAIRS = [(2.0, 1.2), (1.5, 1.0), (1.25, 1.0), (1.1, 1.0), (3.0, 2.1)]


def report(n, text, passed):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {n:2d} {status}: {text}")
    assert passed, f"criterion {n}: {text}"


def test_criterion_01_sphere_index_is_one():
    t0 = time.time()
    ok = all(chain_total_index(build_sphere_chain(m, radii=pair)) == 1
             for m in range(4, 17) for pair in RADIUS_PAIRS)
    elapsed = time.time() - t0
    report(1, f"untwisted sphere total 1 on 13 windows x 5 radius pairs "
              f"({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_02_twist_equals_winding():
    ok = True
    for i in range(50):
        rng = np.random.default_rng([2, i])
        ch = int(rng.integers(1, 4))
        sym = random_laurent_symbol(rng, channels=ch,
                                    degree=int(rng.integers(1, 4)))
        t = symbol_twist(sym, twist_circle(8, channels=ch))
        ok &= tilde_ind(t) == winding_number(sym)
    report(2, "windowed twist index equals det winding on 50 symbols", ok)


def test_criterion_03_twisted_sphere():
    ok = True
    for i in range(20):
        rng = np.random.default_rng([3, i])
        syms = [random_laurent_symbol(rng, channels=1,
                                      degree=int(rng.integers(1, 3)))
                for _ in range(int(rng.integers(1, 4)))]
        total = chain_total_index(build_sphere_chain(8, syms))
        ok &= total == 1 + sum(winding_number(s) for s in syms)
    report(3, "twisted sphere total is 1 + sum of windings, 20 insertions", ok)


def test_criterion_04_torus():
    sign = load_conventions()["torus_twist_sign"]
    ok = True
    for q in (0.3, 0.5, 0.9):
        for m in range(4, 11):
            for k in range(-3, 4):
                l, t = build_torus(q, k, m)
                v = global_index_selfglue(l, t)
                want = 0 if k == 0 else sign * abs(k)
                ok &= v == want
    report(4, "torus index 0 / sign*|k| over the full q x M x k grid", ok)


def _criterion5_instances():
    for i in range(50):
        rng = np.random.default_rng([5, i])
        yield i, _random_composable_pair(rng)


def test_criterion_05_delta_splitting_invariance():
    constant = True
    varied = 0
    total = 0
    for i, (l1, l2) in _criterion5_instances():
        base = delta(l1, l2)
        summands = (index(l1), index(l2))
        for j in range(20):
            s = perturb_splitting(l1.target.splitting, 2, seed=1000 * i + j)
            r1, r2 = _rebased(l1, l2, s)
            total += 1
            constant &= delta(r1, r2) == base
            varied += (index(r1), index(r2)) != summands
    ok = constant and varied >= 0.8 * total
    report(5, f"delta constant on 50x20 perturbations, summands varied "
              f"{varied}/{total}", ok)


def test_criterion_06_delta_closed_form():
    sign = load_conventions()["delta_cokernel_sign"]
    ok = True
    for i, (l1, l2) in _criterion5_instances():
        kp, cp = delta_direct(l1, l2)
        ok &= delta(l1, l2) == kp + sign * cp
        for j in range(0, 20, 5):
            s = perturb_splitting(l1.target.splitting, 2, seed=1000 * i + j)
            r1, r2 = _rebased(l1, l2, s)
            kp, cp = delta_direct(r1, r2)
            ok &= delta(r1, r2) == kp + sign * cp
    report(6, "delta equals kernel part plus pinned-sign cokernel part", ok)


def test_criterion_07_ledger_order_independence():
    ok = True
    for i in range(20):
        rng = np.random.default_rng([7, i])
        chain, expected = _random_chain(rng)
        total = chain_total_index(chain)
        ok &= total == expected
        ok &= total == sum(index(l) for l in chain.links)
        ok &= all(reduce_chain_ledger(chain, order).total == total
                  for order in itertools.permutations(range(len(chain) - 1)))
    report(7, "all composition orders agree on 20 length-5 chains", ok)


def test_criterion_08_fan_four_formulas():
    ok = True
    f2_seen = 0
    for i in range(100):
        rng = np.random.default_rng([8, i])
        rep = fan_index(random_fan(rng))
        ok &= rep.formula1 == rep.formula3 == rep.formula4
        if rep.formula2 is not None:
            f2_seen += 1
            ok &= rep.formula2 == rep.formula1
    report(8, f"fan formulas agree on 100 fans (formula 2 defined {f2_seen}x)",
           ok and f2_seen > 0)


def test_criterion_09_graph_additivity():
    ok = True
    for i in range(50):
        rng = np.random.default_rng([9, i])
        g = random_graph(rng)
        ok &= global_index_fan(g) == global_index_additive(g)
    report(9, "fan route equals additive route on 50 random graphs", ok)


def test_criterion_10_twist_additivity():
    ok = True
    circle = twist_circle(12)
    for i in range(50):
        rng = np.random.default_rng([10, i])
        a = random_laurent_symbol(rng, channels=1,
                                  degree=int(rng.integers(1, 3)))
        b = random_laurent_symbol(rng, channels=1,
                                  degree=int(rng.integers(1, 3)))
        lhs = tilde_ind(symbol_twist(a.product(b), circle))
        ok &= lhs == tilde_ind(symbol_twist(a, circle)) \
            + tilde_ind(symbol_twist(b, circle))
    report(10, "twist index additive under products, 50 pairs", ok)


def test_criterion_11_pair_route_equivalences():
    ok = True
    for i in range(100):
        rng = np.random.default_rng([11, i])
        n = int(rng.integers(6, 15))
        a = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        b = random_subspace(n, int(rng.integers(0, n + 1)), rng)
        direct = pair_index(a, b).index
        r = rank(np.hstack([a.frame, -b.frame]))
        inclusion = (a.dim + b.dim - r) - (n - r)
        restriction = restricted_projection_index(a, complement(b)).index
        ok &= direct == inclusion == restriction
    report(11, "pair, inclusion, and projection routes agree on 100 pairs", ok)


def test_criterion_12_mv_pairing():
    sign = load_conventions()["mv_pairing_sign"]
    pair = sphere_hardy_pair(6)
    base = mv_pairing(pair, LaurentSymbol.monomial(1), 1)
    ok = abs(base) == 1 and base == sign
    for k in range(-4, 5):
        ok &= mv_pairing(pair, LaurentSymbol.monomial(k), 1) == k * base
    report(12, "boundary pairing linear in the power with pinned sign", ok)


def test_criterion_13_window_stabilization():
    ok = True

    def stable(values):
        return len(set(values)) == 1

    # untwisted and twisted sphere
    m0 = stabilization_m0(0, 0)
    ok &= stable([chain_total_index(build_sphere_chain(m)) for m in range(m0, m0 + 7)])
    sym2 = LaurentSymbol.monomial(2)
    m0 = stabilization_m0(2, 0)
    ok &= stable([chain_total_index(build_sphere_chain(m, (sym2,)))
                  for m in range(m0, m0 + 7)])
    # torus per k
    for k in range(0, 4):
        m0 = stabilization_m0(0, k)
        vals = []
        for m in range(m0, m0 + 7):
            l, t = build_torus(0.5, k, m)
            vals.append(global_index_selfglue(l, t))
        ok &= stable(vals)
    # random symbol twists
    for i in range(5):
        rng = np.random.default_rng([13, i])
        deg = int(rng.integers(1, 4))
        sym = random_laurent_symbol(rng, channels=2, degree=deg)
        m0 = stabilization_m0(deg, 0)
        ok &= stable([tilde_ind(symbol_twist(sym, twist_circle(m, channels=2)))
                      for m in range(m0, m0 + 7)])
    # boundary pairing at the largest power
    m0 = stabilization_m0(4, 0)
    ok &= stable([mv_pairing(sphere_hardy_pair(m), LaurentSymbol.monomial(4), 1)
                  for m in range(m0, m0 + 7)])
    # graph totals (composed member degree 3: recipe shift + edge twist)
    for seed in (0, 7):
        m0 = stabilization_m0(3, 0)
        vals = []
        for m in range(m0, m0 + 7):
            rng = np.random.default_rng(1000 + seed)
            g = random_graph(rng, half_width=m)
            vals.append((global_index_additive(g), global_index_fan(g)))
        ok &= stable(vals)
    report(13, "every reported index constant across its window sweep", ok)


def _closed_form_walk(chain, order, sign):
    """Defect of every junction of one reduction order, and whether each
    equals its closed form kernel part + sign * cokernel part."""
    links, ids = list(chain.links), list(range(len(chain) - 1))
    events, ok = [], True
    for j in order:
        pos = ids.index(j)
        l1, l2 = links[pos], links[pos + 1]
        kp, cp = delta_direct(l1, l2)
        events.append(delta(l1, l2))
        ok &= events[-1] == kp + sign * cp
        links[pos: pos + 2] = [compose(l1, l2)]
        ids.pop(pos)
    return tuple(events), ok


def test_criterion_14_ledger_events_match_closed_form():
    # Sphere chains on radius pairs drawn by the sphere_radii sampler,
    # untwisted and with z^2 and z^-1 caps, and the four-circle chain of
    # the ledger benchmark.  A diagonal transfer q^n that falls under a
    # cutoff would move events between windows and off the closed form.
    # Four generic caps (no zero inside the disk), on the first two
    # pairs in turn, record no structure: their chains compose through
    # the fiber product.
    sign = load_conventions()["delta_cokernel_sign"]
    windows = (8, 16, 32, 64, 128)
    closed_form_windows = (8, 32)
    rng = np.random.default_rng(14)
    pairs = [tuple(_draw_radii(rng)["radii"]) for _ in range(3)]
    cases = [(pair, sym) for pair in pairs
             for sym in (None, LaurentSymbol.monomial(2),
                         LaurentSymbol.monomial(-1))]
    generic_caps = (LaurentSymbol.scalar([1.0, 0.3], 0),
                    LaurentSymbol.scalar([1.0, 0.4j], 1),
                    LaurentSymbol.scalar([1.0, 0.3, 0.02], -1),
                    LaurentSymbol.scalar([2.0, -0.5], -2))
    cases += [(pairs[i % 2], sym) for i, sym in enumerate(generic_caps)]
    radii = [2.0]
    for _ in range(3):
        radii.append(radii[-1] * rng.uniform(0.5, 0.85))
    cases.append((tuple(radii), LaurentSymbol.monomial(2, coefficient=0.7j)))
    ok = True
    checked = 0
    for radii, sym in cases:
        seen = set()
        for m in windows:
            circles = [chain_circle(m, r) for r in radii]
            chain = Chain(links=(
                disk_correspondence(circles[0], "incoming"),
                *[annulus_correspondence(a, b)
                  for a, b in zip(circles, circles[1:])],
                twisted_cap(circles[-1], sym)))
            for order in itertools.permutations(range(len(chain) - 1)):
                events = reduce_chain_ledger(chain, order).delta_events
                seen.add((order, events))
                if m in closed_form_windows:
                    walked, matched = _closed_form_walk(chain, order, sign)
                    ok &= matched and walked == events
                    checked += len(order)
        # one event tuple per order, the same at every window
        ok &= len(seen) == len({order for order, _ in seen})
    report(14, f"ledger events equal their closed form on {checked} "
               f"junctions and are constant over M in {windows}", ok)
