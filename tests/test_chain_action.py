"""Twist chains applied to frames: the chain action against the dense
product of its factors, the certified ratio against the realized
matrix, and the counted graph member against the built one."""

import numpy as np
import pytest

from fredcorr import fans, graphs
from fredcorr.circles import LaurentSymbol, random_laurent_symbol, symbol_band_matrix
from fredcorr.errors import DimensionMismatch, InvalidInput
from fredcorr.fans import TwistChain, finite_rank_twist
from fredcorr.graphs import random_graph, sphere_path_graph
from fredcorr.subspaces import Subspace
from fredcorr.windows import ModeWindow, WindowedOperator

from reference import coord, interior_ratio, vertex_subspace


def embedded_scalar_symbol(sym, channel, n_channels):
    """Diagonal multichannel symbol diag(1, ..., sym, ..., 1) acting as
    ``sym`` on one channel: the reference for a slot factor."""
    lo = min(sym.d_min, 0)
    hi = max(sym.d_max, 0)
    coeffs = np.zeros((hi - lo + 1, n_channels, n_channels), dtype=np.complex128)
    for c in range(n_channels):
        if c != channel:
            coeffs[-lo, c, c] = 1.0
    coeffs[sym.d_min - lo: sym.d_max - lo + 1, channel, channel] = \
        sym.coeffs[:, 0, 0]
    return LaurentSymbol(coeffs=coeffs, d_min=lo)


def dense_realize(chain, window):
    """Reference chain matrix: every factor embedded as a dense matrix
    over the current window and multiplied into the identity; an
    interior factor as the identity with its block on its support, a
    slot factor as the band matrix of its embedded diagonal symbol."""
    cur = window.pad(chain.margin)
    mat = np.eye(cur.dim, dtype=np.complex128)
    for kind, data in chain.factors:
        if kind == "interior":
            pos = np.flatnonzero(
                np.abs(cur.mode_labels().astype(int)) <= window.half_width)
            pos = pos[data.support]
            big = np.eye(cur.dim, dtype=np.complex128)
            big[np.ix_(pos, pos)] = data.block
            mat = big @ mat
        else:
            if kind == "slot":
                data = embedded_scalar_symbol(data[1], data[0], cur.channels)
            nxt = cur.pad(data.degree)
            mat = symbol_band_matrix(data, cur, nxt) @ mat
            cur = nxt
    return WindowedOperator(domain_window=window.pad(chain.margin),
                            range_window=cur, base_window=window, matrix=mat)


def true_ratio(chain, window):
    s = np.linalg.svd(dense_realize(chain, window).matrix, compute_uv=False)
    return s[-1] / s[0]


def interior_vector(rng, window, gap):
    """Random unit vector on the modes at least ``gap`` from the edge."""
    mask = np.abs(window.mode_labels()) <= window.half_width - gap
    v = np.zeros(window.dim, dtype=np.complex128)
    v[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    return v / np.linalg.norm(v)


def interior_factor(rng, window, gap=1, scale=0.3):
    outs = [interior_vector(rng, window, gap) for _ in range(2)]
    ins = [interior_vector(rng, window, gap) for _ in range(2)]
    return ("interior", finite_rank_twist(window, outs, ins, scale=scale))


def fan_chains(g):
    """(window, chain) of every recipe vertex, with and without the
    edge twists the fan route composes onto it."""
    for v in g.vertices:
        data = g.vertex_data[v]
        window = graphs._vertex_window(g, v)
        if not isinstance(data, TwistChain) or window is None:
            continue
        yield window, data
        extras = graphs._fan_extras(g, v)
        if extras:
            yield window, data.then(*extras)


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("order", [("sym", "interior", "sym"),
                                   ("interior", "sym", "interior")])
def test_apply_matches_dense_product(channels, order):
    rng = np.random.default_rng(10 * channels + len(order[0]))
    window = ModeWindow(5, channels)
    chain = TwistChain(factors=tuple(
        ("sym", random_laurent_symbol(rng, channels=channels, degree=2))
        if kind == "sym" else interior_factor(rng, window)
        for kind in order))
    ref = dense_realize(chain, window)
    frame = rng.standard_normal((ref.domain_window.dim, 4)) \
        + 1j * rng.standard_normal((ref.domain_window.dim, 4))
    cur, image = chain.apply(window, frame)
    assert cur == ref.range_window
    np.testing.assert_allclose(image, ref.matrix @ frame, rtol=0, atol=1e-12)
    op = chain.realize(window)
    assert op.domain_window == ref.domain_window
    np.testing.assert_allclose(op.matrix, ref.matrix, rtol=0, atol=1e-12)


def test_apply_matches_dense_product_on_fan_members():
    # the recipes followed by the edge slot factors of the fan route
    with_extras = 0
    for seed in range(20):
        g = random_graph(np.random.default_rng(seed))
        for window, chain in fan_chains(g):
            frame = np.eye(window.pad(chain.margin).dim)[:, ::3]
            _, image = chain.apply(window, frame)
            ref = dense_realize(chain, window).matrix @ frame
            np.testing.assert_allclose(image, ref, rtol=0, atol=1e-12)
        with_extras += sum(bool(graphs._fan_extras(g, v)) for v in g.vertices)
    assert with_extras


def test_apply_refuses_mismatched_inputs():
    window = ModeWindow(4)
    chain = TwistChain(factors=(("sym", LaurentSymbol.monomial(1)),))
    with pytest.raises(DimensionMismatch):
        chain.apply(window, np.eye(window.dim))
    two = TwistChain(factors=(("sym", LaurentSymbol.monomial(1, channels=2)),))
    with pytest.raises(DimensionMismatch):
        two.apply(window, np.eye(window.pad(1).dim))


@pytest.mark.parametrize("seed", range(20))
def test_certified_ratio_bounds_random_graph_chains(seed):
    g = random_graph(np.random.default_rng(seed))
    for window, chain in fan_chains(g):
        got = chain.certified_ratio(window)
        assert 0.0 < got <= true_ratio(chain, window) * (1 + 1e-12)


def test_certified_ratio_of_a_wide_finite_rank_factor():
    rng = np.random.default_rng(5)
    window = ModeWindow(8, channels=2)
    factor = interior_factor(rng, window, gap=1, scale=0.45)
    assert np.count_nonzero(np.any(factor[1] != np.eye(window.dim), axis=0)) \
        > 0.8 * window.dim
    alone = TwistChain(factors=(factor,))
    # the factor's singular values are its block's and ones, so the
    # bound is exact for the factor alone
    assert alone.certified_ratio(window) == pytest.approx(
        true_ratio(alone, window), rel=1e-9)
    shifted = alone.then(("sym", LaurentSymbol.monomial(1, channels=2)))
    assert 0.0 < shifted.certified_ratio(window) \
        <= true_ratio(shifted, window) * (1 + 1e-12)


def test_certified_ratio_counts_the_identity_and_multiplies():
    window = ModeWindow(4)
    m = np.eye(window.dim, dtype=np.complex128)
    m[3, 3], m[5, 5] = 2.0, 3.0
    once = TwistChain(factors=(("interior", m),))
    # singular values 3, 2 and the untouched ones
    assert once.certified_ratio(window) == pytest.approx(1 / 3)
    assert true_ratio(once, window) == pytest.approx(1 / 3)
    twice = once.then(("interior", m))
    assert twice.certified_ratio(window) == pytest.approx(1 / 9)
    assert true_ratio(twice, window) == pytest.approx(1 / 9)


SLOT_SYMBOLS = [
    LaurentSymbol.scalar([2.0, 0.5 - 0.3j], -1),
    LaurentSymbol.scalar([0.3, 1.0, 0.2j], 0),
    LaurentSymbol.scalar([0.4j], 2),
    LaurentSymbol.scalar([1.0], 0),
]


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("sym", SLOT_SYMBOLS)
def test_slot_factor_matches_the_embedded_symbol(channels, sym):
    rng = np.random.default_rng(channels)
    window = ModeWindow(5, channels)
    for ch in range(channels):
        chain = TwistChain(factors=(interior_factor(rng, window),
                                    ("slot", (ch, sym))))
        chain = chain.then(("slot", (channels - 1 - ch, sym)))
        ref = dense_realize(chain, window)
        frame = rng.standard_normal((ref.domain_window.dim, 5)) \
            + 1j * rng.standard_normal((ref.domain_window.dim, 5))
        cur, image = chain.apply(window, frame)
        assert cur == ref.range_window
        np.testing.assert_allclose(image, ref.matrix @ frame, rtol=0, atol=1e-12)
        got = chain.certified_ratio(window)
        assert 0.0 < got <= true_ratio(chain, window) * (1 + 1e-12)


def test_slot_factor_refuses_a_wrong_channel_or_symbol():
    window = ModeWindow(4, channels=2)
    for factor in (("slot", (2, LaurentSymbol.monomial(1))),
                   ("slot", (-1, LaurentSymbol.monomial(1))),
                   ("slot", (0, LaurentSymbol.monomial(1, channels=2)))):
        chain = TwistChain(factors=(factor,))
        with pytest.raises(DimensionMismatch):
            chain.apply(window, np.eye(window.pad(1).dim))


def dense_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q


def edge_factor(rng, window):
    """Interior factor whose support holds the window's edge modes."""
    m = np.eye(window.dim, dtype=np.complex128)
    for c in range(window.channels):
        i = coord(window, c, -window.half_width)
        j = coord(window, c, window.half_width)
        m[np.ix_([i, j], [i, j])] = dense_unitary(rng, 2) * 1.5
    return m


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("support", ["empty", "full", "edge"])
def test_interior_factor_by_its_support(channels, support):
    rng = np.random.default_rng(7)
    window = ModeWindow(4, channels)
    m = {"empty": lambda: np.eye(window.dim, dtype=np.complex128),
         "full": lambda: dense_unitary(rng, window.dim),
         "edge": lambda: edge_factor(rng, window)}[support]()
    rec = TwistChain(factors=(("interior", m),)).factors[0][1]
    assert isinstance(rec, fans.Interior) and rec.dim == window.dim
    assert rec.support.size == {"empty": 0, "full": window.dim,
                                "edge": 2 * channels}[support]
    np.testing.assert_array_equal(rec.block, m[np.ix_(rec.support, rec.support)])
    # the record holds every entry of the matrix
    rebuilt = np.eye(window.dim, dtype=np.complex128)
    rebuilt[np.ix_(rec.support, rec.support)] = rec.block
    np.testing.assert_array_equal(rebuilt, m)
    shift = ("sym", LaurentSymbol.monomial(-1, channels=channels))
    for factors in ((("interior", m),),
                    (shift, ("interior", m), ("slot", (0, SLOT_SYMBOLS[0])))):
        chain = TwistChain(factors=factors)
        ref = dense_realize(chain, window)
        frame = rng.standard_normal((ref.domain_window.dim, 3)) \
            + 1j * rng.standard_normal((ref.domain_window.dim, 3))
        _, image = chain.apply(window, frame)
        np.testing.assert_allclose(image, ref.matrix @ frame, rtol=0, atol=1e-12)
        got = chain.certified_ratio(window)
        assert 0.0 < got <= true_ratio(chain, window) * (1 + 1e-12)
    if support == "empty":
        assert TwistChain(factors=(("interior", m),)).certified_ratio(window) \
            == 1.0


def test_then_keeps_the_interior_records():
    rng = np.random.default_rng(3)
    window = ModeWindow(5, 2)
    chain = TwistChain(factors=(interior_factor(rng, window),
                                ("sym", LaurentSymbol.monomial(1, channels=2)),
                                interior_factor(rng, window)))
    longer = chain.then(("slot", (1, SLOT_SYMBOLS[1])),
                        interior_factor(rng, window))
    for i in (0, 2):
        assert longer.factors[i][1] is chain.factors[i][1]
    assert isinstance(longer.factors[4][1], fans.Interior)


def count_support_scans(monkeypatch):
    real = fans._interior_support
    calls = []

    def spy(data):
        calls.append(np.shape(data))
        return real(data)

    monkeypatch.setattr(fans, "_interior_support", spy)
    return calls


def interior_count(g):
    return sum(kind == "interior" for v in g.vertices
               for kind, _ in g.vertex_data[v].factors)


@pytest.mark.parametrize("first, second", [
    (graphs.global_index_additive, graphs.global_index_fan),
    (graphs.global_index_fan, graphs.global_index_additive),
])
def test_routes_scan_no_dense_interior(monkeypatch, first, second):
    # random_graph builds its rotations as records, so neither the
    # construction nor either route scans a dense matrix
    calls = count_support_scans(monkeypatch)
    found = 0
    for seed in range(10):
        g = random_graph(np.random.default_rng(seed))
        found += interior_count(g)
        first(g)
        second(g)
    assert found
    assert calls == []


def test_dense_interior_is_scanned_once_at_construction(monkeypatch):
    calls = count_support_scans(monkeypatch)
    rng = np.random.default_rng(4)
    window = ModeWindow(5, 2)
    chain = TwistChain(factors=(interior_factor(rng, window),
                                ("sym", LaurentSymbol.monomial(1, channels=2))))
    assert calls == [(window.dim, window.dim)]
    longer = chain.then(("slot", (1, SLOT_SYMBOLS[1])))
    op = longer.realize(window)
    op.columns_reaching(~op.base_rows_mask())
    longer.certified_ratio(window)
    assert len(calls) == 1


def dense_rotation(rng, window, band):
    """The rotation of ``graphs._rotation_factor`` as a dense matrix over
    the window, from the same draws."""
    pool = np.flatnonzero(np.abs(window.mode_labels()) <= band)
    i, j = rng.choice(pool, size=2, replace=False)
    theta = rng.uniform(0.3, 1.2)
    phase = np.exp(2j * np.pi * rng.uniform())
    m = np.eye(window.dim, dtype=np.complex128)
    m[i, i] = m[j, j] = np.cos(theta)
    m[i, j] = -np.conj(phase) * np.sin(theta)
    m[j, i] = phase * np.sin(theta)
    return i < j, m


def test_rotation_factor_record_matches_the_dense_rotation():
    window = ModeWindow(8, channels=3)
    orders = set()
    for seed in range(12):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        kind, rec = graphs._rotation_factor(rng, window, 4)
        ascending, m = dense_rotation(ref_rng, window, 4)
        orders.add(ascending)
        assert kind == "interior" and rec.dim == window.dim
        support = np.flatnonzero((m != np.eye(window.dim)).any(axis=0))
        np.testing.assert_array_equal(rec.support, support)
        np.testing.assert_array_equal(rec.block, m[np.ix_(support, support)])
        # the same draws leave both generators in the same state
        assert rng.uniform() == ref_rng.uniform()
        # the record knows its block is unitary, the scan of the dense
        # rotation takes one SVD of it, and both give the ratio of the
        # block's SVD
        scanned = fans._interior_support(m)
        for dim in (window.dim, window.pad(2).dim):
            assert rec.ratio(dim) == pytest.approx(
                interior_ratio(rec, dim), rel=1e-12)
            assert scanned.ratio(dim) == interior_ratio(scanned, dim)
    assert orders == {True, False}


@pytest.mark.parametrize("seed", range(12))
def test_interior_support_records_the_ratio_of_its_block(seed):
    # a finite-rank interior, a block that fills the window, and the
    # identity, each embedded into its window and a padded one
    rng = np.random.default_rng(seed)
    window = ModeWindow(5, 1 + seed % 3)
    m = interior_factor(rng, window, scale=0.2 + 0.05 * seed)[1]
    full = np.diag(rng.uniform(0.5, 2.0, window.dim)).astype(np.complex128)
    for data in (m, full, np.eye(window.dim)):
        rec = fans._interior_support(data)
        for dim in (window.dim, window.pad(1).dim):
            assert rec.ratio(dim) == interior_ratio(rec, dim)


def test_interior_support_scans_what_differs_from_the_identity():
    # an off-diagonal entry marks its row and column, and a diagonal
    # entry other than 1 its own coordinate
    m = np.eye(6, dtype=np.complex128)
    m[1, 4] = 0.5
    m[2, 2] = 1.0 + 1e-15j
    m[5, 5] = -1.0
    rec = fans._interior_support(m)
    np.testing.assert_array_equal(rec.support, [1, 2, 4, 5])
    np.testing.assert_array_equal(rec.block, m[np.ix_([1, 2, 4, 5],
                                                      [1, 2, 4, 5])])
    assert fans._interior_support(np.eye(4)).support.size == 0
    # a NaN differs from the identity, and is refused where it enters
    m[0, 0] = np.nan
    with pytest.raises(InvalidInput, match="finite"):
        TwistChain(factors=(("interior", m),))


def test_then_with_no_factors_is_the_chain():
    chain = TwistChain(factors=(("sym", LaurentSymbol.monomial(1)),))
    assert chain.then() is chain
    assert chain.then(("sym", LaurentSymbol.monomial(1))) is not chain


def count_walks(monkeypatch):
    """How often each (chain, window) is walked; the chains are kept, so
    no id is reused."""
    walks, kept = {}, []
    real = TwistChain._walk

    def spy(chain, window):
        kept.append(chain)
        key = (id(chain), window)
        walks[key] = walks.get(key, 0) + 1
        return real(chain, window)

    monkeypatch.setattr(TwistChain, "_walk", spy)
    return walks


@pytest.mark.parametrize("seed", range(10))
def test_member_counts_walk_each_chain_once_per_window(monkeypatch, seed):
    # realizing a chain, reading its blocks, pulling rows back and
    # certifying its ratio share one walk, and both routes share the
    # recipe's
    g = random_graph(np.random.default_rng(seed))
    walks = count_walks(monkeypatch)
    for v in g.vertices:
        graphs._member_dim(g, v)
        graphs._member_dim(g, v, graphs._fan_extras(g, v))
    graphs.global_index_additive(g)
    graphs.global_index_fan(g)
    # every recipe once, and each chain with edge slots once: the one
    # above and the one the fan route builds
    assert len(walks) == len(g.vertices) + 2 * sum(
        bool(graphs._fan_extras(g, v)) for v in g.vertices)
    assert set(walks.values()) == {1}


@pytest.mark.parametrize("seed", range(10))
def test_certified_ratio_runs_no_svd(monkeypatch, seed):
    g = random_graph(np.random.default_rng(seed))
    chains = list(fan_chains(g))
    rng = np.random.default_rng(100 + seed)
    window = ModeWindow(5, 2)
    chains.append((window, TwistChain(factors=(
        interior_factor(rng, window),
        ("sym", LaurentSymbol.monomial(1, channels=2)),
        interior_factor(rng, window)))))

    def refuse(*args, **kwargs):
        raise AssertionError("certified_ratio ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for window, chain in chains:
        assert chain.certified_ratio(window) > 0.0


def built_member(g, v, extras=()):
    """The member by the dense chain matrix and the window intersection
    of the padded incoming assembly."""
    data = g.vertex_data[v]
    if isinstance(data, Subspace):
        return data
    chain = data.then(*extras)
    op = dense_realize(chain, graphs._vertex_window(g, v))
    return op.apply_within_window(graphs._assembly(g, v, "in", margin=chain.margin))


def assert_counts_equal_built_members(g):
    for v in g.vertices:
        assert graphs._member_dim(g, v) == vertex_subspace(g, v).dim \
            == built_member(g, v).dim
        extras = graphs._fan_extras(g, v)
        if extras:
            assert graphs._member_dim(g, v, extras) \
                == built_member(g, v, extras).dim


@pytest.mark.parametrize("seed", range(30))
def test_member_count_equals_built_member_random(seed):
    assert_counts_equal_built_members(random_graph(np.random.default_rng(seed)))


@pytest.mark.parametrize("k", range(-2, 3))
def test_member_count_equals_built_member_sphere_path(k):
    twist = LaurentSymbol.monomial(k) if k else None
    assert_counts_equal_built_members(sphere_path_graph(6, twist=twist))
