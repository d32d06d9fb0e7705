"""Correspondence layer: hand-computed oracles on small mode windows.

All expected indices below were derived by counting modes by hand; the
chain circles use sharp = negative modes, under which the incoming disk
has index 0 and the outgoing disk index 1.
"""

import itertools

import numpy as np
import pytest

from fredcorr import morphisms, subspaces
from fredcorr.circles import (
    LaurentSymbol,
    annulus_correspondence,
    chain_circle,
    disk_correspondence,
    multiplication_operator,
    symbol_twist,
    twist_circle,
    twisted_cap,
    weighted_diagonal,
    winding_number,
)
from fredcorr.errors import CompositionMismatch, DimensionMismatch, InvalidInput
from fredcorr.morphisms import (
    Chain,
    Correspondence,
    Twist,
    chain_total_index,
    commutator_rank,
    commutator_singular_values,
    compose,
    delta,
    delta_direct,
    index,
    reduce_chain_ledger,
    tilde_ind,
    twist_graph,
)
from fredcorr.spaces import (
    SHARP_NEGATIVE,
    SHARP_NONNEG,
    ModelSpace,
    Splitting,
    off_diagonal_singular_values,
    perturb_splitting,
    polarization_defect,
    splitting_for_window,
)
from fredcorr.subspaces import (
    Subspace,
    complement,
    dimension_index,
    direct_sum,
    intersection,
    pair_index,
    random_subspace,
    subspaces_equal,
)
from fredcorr.verify import _random_chain, _random_composable_pair, _rebased
from fredcorr.windows import (
    ModeWindow,
    WindowedOperator,
    mode_span,
    pad_by_predicate,
)

from reference import (built_mv_pairing, contains, coord, mode_at, rebased,
                       vertex_subspace)


def index_report(l):
    """Full pair-index report of a correspondence against the
    flat-source/sharp-target assembly: the audit of :func:`index`."""
    pairing = direct_sum(l.source.splitting.flat, l.target.splitting.sharp)
    return pair_index(l.subspace, pairing)


def graph_correspondence(space, matrix, target=None):
    """Graph of an exact square matrix as a correspondence."""
    target = target or space
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (target.dim, space.dim):
        raise DimensionMismatch("matrix does not map source to target")
    stacked = np.vstack([np.eye(space.dim, dtype=np.complex128), m])
    return Correspondence(source=space, target=target,
                          subspace=Subspace.from_span(stacked))


def circle_space(m, convention=SHARP_NEGATIVE, channels=1):
    w = ModeWindow(m, channels)
    if channels == 1:
        labels = tuple(range(-m, m + 1))
    else:
        labels = tuple((int(mode_at(w, i)[1]), mode_at(w, i)[0])
                       for i in range(w.dim))
    return ModelSpace(dim=w.dim, basis_labels=labels,
                      splitting=splitting_for_window(w, convention),
                      window=w, convention=convention)


def shift_operator(base, k):
    """Exact multiplication by z^k with full padding."""
    d = abs(k)
    domain, rng_w = base.pad(d), base.pad(2 * d)
    m = np.zeros((rng_w.dim, domain.dim), dtype=np.complex128)
    for c in range(base.channels):
        for n in range(-domain.half_width, domain.half_width + 1):
            m[coord(rng_w, c, n + k), coord(domain, c, n)] = 1.0
    return WindowedOperator(domain_window=domain, range_window=rng_w,
                            base_window=base, matrix=m)


def disk_in(space, predicate=lambda n: n >= 0):
    return Correspondence(source=ModelSpace.zero_space(), target=space,
                          subspace=mode_span(space.window, predicate))


def disk_out(space, predicate=lambda n: n <= 0):
    return Correspondence(source=space, target=ModelSpace.zero_space(),
                          subspace=mode_span(space.window, predicate))


def diag_link(space, q):
    """Endo-correspondence {(x, Q x)}, Q = diag(q^mode), unit columns."""
    n = space.dim
    frame = np.zeros((2 * n, n), dtype=np.complex128)
    labels = space.window.mode_labels()
    for i in range(n):
        k = int(labels[i])
        a, b = (1.0, q ** k) if k >= 0 else (q ** (-k), 1.0)
        r = np.hypot(a, b)
        frame[i, i] = a / r
        frame[n + i, i] = b / r
    return Correspondence(source=space, target=space, subspace=Subspace(frame))


def test_correspondence_ambient_validation():
    h = circle_space(3)
    with pytest.raises(DimensionMismatch):
        Correspondence(source=h, target=h, subspace=Subspace.full(h.dim))


def test_disk_link_indices():
    h = circle_space(5)
    assert index(disk_in(h)) == 0
    assert index(disk_out(h)) == 1


def test_diagonal_link_index_zero():
    h = circle_space(4)
    assert index(diag_link(h, 0.5)) == 0


def test_index_report_is_dimension_determined():
    # index = dim L + dim(flat + sharp) - ambient, whatever L is
    rng = np.random.default_rng(7)
    for conv in (SHARP_NEGATIVE, SHARP_NONNEG):
        h = circle_space(4, conv)
        for _ in range(10):
            d = int(rng.integers(0, 2 * h.dim + 1))
            l = Correspondence(source=h, target=h,
                               subspace=random_subspace(2 * h.dim, d, rng))
            rep = index_report(l)
            assert rep.index == rep.dim_intersection - rep.codim_sum
            assert rep.index == d + h.dim - 2 * h.dim == index(l)


def test_ledger_agrees_with_audit_in_every_order():
    # A five-link sphere chain reduced in all 24 orders: every link and
    # every intermediate composite has index == its pair-index audit, and
    # each ledger event equals the defect computed on its own, both by
    # delta and from audited indices.
    circles = [chain_circle(4, r) for r in (2.0, 1.6, 1.1, 0.7)]
    links = ([disk_correspondence(circles[0], "incoming")]
             + [annulus_correspondence(a, b) for a, b in zip(circles, circles[1:])]
             + [twisted_cap(circles[-1], LaurentSymbol.monomial(2))])
    chain = Chain(links=tuple(links))
    audit = lambda l: index_report(l).index
    for l in chain.links:
        assert index(l) == audit(l)
    for order in itertools.permutations(range(len(chain) - 1)):
        ledger = reduce_chain_ledger(chain, order)
        assert ledger.total == chain_total_index(chain) == 3
        current, ids = list(chain.links), list(range(len(chain) - 1))
        for j, event in zip(order, ledger.delta_events):
            pos = ids.index(j)
            l1, l2 = current[pos], current[pos + 1]
            composite = compose(l1, l2)
            assert index(composite) == audit(composite)
            assert event == delta(l1, l2) \
                == audit(l1) + audit(l2) - audit(composite)
            current[pos: pos + 2] = [composite]
            ids.pop(pos)
        assert ledger.final_index == index(current[0])


def test_compose_graphs_matches_product():
    h = circle_space(3)
    rng = np.random.default_rng(11)
    a = np.eye(h.dim) + 0.4 * rng.standard_normal((h.dim, h.dim))
    b = np.eye(h.dim) + 0.4 * rng.standard_normal((h.dim, h.dim))
    lhs = compose(graph_correspondence(h, a), graph_correspondence(h, b))
    rhs = graph_correspondence(h, b @ a)
    assert subspaces_equal(lhs.subspace, rhs.subspace)


def test_compose_mismatch_raises():
    with pytest.raises(CompositionMismatch):
        compose(disk_in(circle_space(3)), disk_out(circle_space(4)))
    with pytest.raises(CompositionMismatch):
        compose(disk_in(circle_space(3, SHARP_NEGATIVE)),
                disk_out(circle_space(3, SHARP_NONNEG)))
    # same labels and convention, but a splitting moved within its class
    h = circle_space(3)
    moved = h.with_splitting(perturb_splitting(h.splitting, 1, seed=2))
    with pytest.raises(CompositionMismatch):
        compose(disk_in(h), disk_out(moved))
    with pytest.raises(CompositionMismatch):
        Chain(links=(disk_in(h), disk_out(moved)))


def test_compose_collapses_shared_mode():
    h = circle_space(5)
    closed = compose(disk_in(h), disk_out(h))
    assert closed.source.is_zero and closed.target.is_zero
    assert closed.subspace.dim == 0
    assert index(closed) == 0
    assert delta(disk_in(h), disk_out(h)) == 1


def test_delta_direct_sphere_closing():
    h = circle_space(5)
    kp, cp = delta_direct(disk_in(h), disk_out(h))
    assert (kp, cp) == (1, 0)
    assert delta(disk_in(h), disk_out(h)) == kp - cp


def test_delta_direct_disambiguator():
    # strict halves intersect in nothing; the defect sits in the
    # cokernel slot and the combination sign must be minus
    h = circle_space(5)
    l1 = disk_in(h, predicate=lambda n: n > 0)
    l2 = disk_out(h, predicate=lambda n: n < 0)
    kp, cp = delta_direct(l1, l2)
    assert (kp, cp) == (0, 1)
    assert delta(l1, l2) == kp - cp == -1


def test_chain_total_and_ledger_orders():
    h = circle_space(6)
    c = Chain(links=(disk_in(h), diag_link(h, 0.5), disk_out(h)))
    assert chain_total_index(c) == 1
    left = reduce_chain_ledger(c, (0, 1))
    right = reduce_chain_ledger(c, (1, 0))
    assert left.total == right.total == 1
    assert left.delta_events == (0, 1)
    assert right.delta_events == (0, 1)
    assert left.final_index == right.final_index == 0


def test_chain_validation():
    h = circle_space(3)
    with pytest.raises(InvalidInput):
        Chain(links=())
    with pytest.raises(InvalidInput):
        Chain(links=(diag_link(h, 0.5), disk_out(h)))
    with pytest.raises(CompositionMismatch):
        Chain(links=(disk_in(h), disk_out(circle_space(4))))


def test_reduce_ledger_rejects_bad_order():
    h = circle_space(3)
    c = Chain(links=(disk_in(h), diag_link(h, 0.5), disk_out(h)))
    with pytest.raises(InvalidInput):
        reduce_chain_ledger(c, (0, 0))
    with pytest.raises(InvalidInput):
        reduce_chain_ledger(c, (1, 2))


@pytest.mark.parametrize("k,expected", [(1, 1), (-1, -1), (0, 0), (2, 2)])
def test_tilde_ind_matches_shift_degree(k, expected):
    # sharp = nonnegative modes: the twist index is the shift degree
    h = circle_space(6, SHARP_NONNEG)
    t = Twist(base=h, operator=shift_operator(h.window, k), budget=2 * abs(k))
    assert tilde_ind(t) == expected


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
def test_tilde_ind_chain_convention_flips_sign(k):
    h = circle_space(6)
    t = Twist(base=h, operator=shift_operator(h.window, k), budget=2 * abs(k))
    assert tilde_ind(t) == -k


def test_tilde_ind_two_channel_mixed_shift():
    h = circle_space(6, SHARP_NONNEG, channels=2)
    w = h.window
    domain, rng_w = w.pad(1), w.pad(2)
    m = np.zeros((rng_w.dim, domain.dim), dtype=np.complex128)
    for n in range(-domain.half_width, domain.half_width + 1):
        m[coord(rng_w, 0, n + 1), coord(domain, 0, n)] = 1.0
        m[coord(rng_w, 1, n - 1), coord(domain, 1, n)] = 1.0
    t = Twist(base=h, operator=WindowedOperator(domain_window=domain,
                                                range_window=rng_w,
                                                base_window=w, matrix=m),
              budget=4)
    assert tilde_ind(t) == 0


def test_twist_validation():
    h = circle_space(5, SHARP_NONNEG)
    w = h.window
    truncated = np.zeros((w.dim, w.dim), dtype=np.complex128)
    for n in range(-w.half_width, w.half_width):
        truncated[coord(w, 0, n + 1), coord(w, 0, n)] = 1.0
    with pytest.raises(InvalidInput):
        Twist(base=h, operator=WindowedOperator(domain_window=w, range_window=w,
                                                base_window=w, matrix=truncated))
    with pytest.raises(InvalidInput):
        Twist(base=h, operator=shift_operator(w, 1), budget=0)
    t = Twist(base=h, operator=shift_operator(w, 1), budget=2)
    assert commutator_rank(t.operator, h.splitting) == 1


def _near_cutoff_twist(scale):
    # the shift z with column 4 (mode -3, inside the padded flat half)
    # scaled down: sigma_min / sigma_max is ``scale``
    h = circle_space(6, SHARP_NONNEG)
    shift = shift_operator(h.window, 1)
    m = shift.matrix.copy()
    m[:, 4] *= scale
    t = Twist(base=h, operator=WindowedOperator(
        domain_window=shift.domain_window, range_window=shift.range_window,
        base_window=h.window, matrix=m))
    assert t._injectivity_ratio == pytest.approx(scale)
    built = dimension_index(
        t.operator.apply_within_window(t.base.flat_padded(t.margin)),
        t.base.splitting.sharp)
    return lambda: tilde_ind(t), built, 1


def _near_cutoff_member(scale):
    # an interior factor that scales mode -3, which lies in the flat half
    # that the incoming assembly of vertex "out" holds
    from fredcorr import graphs
    from fredcorr.fans import TwistChain
    from fredcorr.graphs import DecompositionGraph, sphere_path_graph
    base = sphere_path_graph(6)
    window = graphs._vertex_window(base, "out")
    m = np.eye(window.dim, dtype=np.complex128)
    m[coord(window, 0, -3), coord(window, 0, -3)] = scale
    chain = TwistChain(factors=(("interior", m),))
    assert chain.certified_ratio(window) == pytest.approx(scale)
    g = DecompositionGraph(vertices=base.vertices, edges=dict(base.edges),
                           vertex_data={**base.vertex_data, "out": chain})
    return lambda: graphs._member_dim(g, "out"), vertex_subspace(g, "out").dim, 6


def _near_cutoff_mv_pairing(scale, monkeypatch):
    # z (1 + 0.3 z), winding 1, with its certified ratio set to ``scale``
    from fredcorr import circles
    monkeypatch.setattr(circles, "certified_ratio", lambda sym: scale)
    sym = LaurentSymbol.scalar([1.0, 0.3], d_min=1)
    pair = circles.sphere_hardy_pair(6)
    return (lambda: circles.mv_pairing(pair, sym, 1),
            built_mv_pairing(pair, sym, 1), 1)


@pytest.mark.parametrize("case", ["twist", "member", "mv_pairing"])
@pytest.mark.parametrize("factor, builds", [(1.5, True), (3.0, False)])
def test_image_dim_builds_the_image_near_the_cutoff(monkeypatch, case,
                                                    factor, builds):
    # windows.image_dim counts above twice the tolerance and builds the
    # image below it, for each of its callers
    from fredcorr.subspaces import current_tolerance
    scale = factor * current_tolerance()
    if case == "twist":
        compute, built, expected = _near_cutoff_twist(scale)
    elif case == "member":
        compute, built, expected = _near_cutoff_member(scale)
    else:
        compute, built, expected = _near_cutoff_mv_pairing(scale, monkeypatch)
    original = WindowedOperator.apply_within_window
    calls = []

    def spy(op, sub):
        calls.append(sub.dim)
        return original(op, sub)

    monkeypatch.setattr(WindowedOperator, "apply_within_window", spy)
    assert compute() == built == expected
    assert bool(calls) == builds


def test_commutator_rank_on_coordinate_splittings():
    from fredcorr.circles import random_laurent_symbol, symbol_twist, twist_circle
    from fredcorr.subspaces import rank
    rng = np.random.default_rng(21)
    for channels in (1, 2, 3):
        for degree in (1, 2):
            sym = random_laurent_symbol(rng, channels=channels, degree=degree)
            t = symbol_twist(sym, twist_circle(9, channels=channels))
            b = t.operator.base_square()
            p = t.base.splitting.sharp.projector()
            assert commutator_rank(t.operator, t.base.splitting) \
                == rank(p @ b - b @ p)
    h = circle_space(5, SHARP_NONNEG)
    ident = WindowedOperator(domain_window=h.window, range_window=h.window,
                             base_window=h.window,
                             matrix=np.eye(h.dim, dtype=np.complex128))
    assert commutator_rank(ident, h.splitting) == 0


def _frame_route(split, b):
    # the dense route: sharp^H B flat and flat^H B sharp as frame products
    blocks = [x.frame.conj().T @ b @ y.frame
              for x, y in ((split.sharp, split.flat),
                           (split.flat, split.sharp))]
    blocks = [a[np.ix_(np.any(a != 0, axis=1), np.any(a != 0, axis=0))]
              for a in blocks]
    s = [np.linalg.svd(a, compute_uv=False) for a in blocks if a.size]
    return np.concatenate(s) if s else np.zeros(0)


def test_commutator_rank_matches_dense_commutator():
    from fredcorr.circles import random_laurent_symbol, symbol_twist, twist_circle
    from fredcorr.subspaces import rank
    h = circle_space(7, SHARP_NONNEG)
    sym = random_laurent_symbol(np.random.default_rng(5), channels=2, degree=2)
    twists = [Twist(base=h, operator=shift_operator(h.window, 2), budget=4),
              symbol_twist(sym, twist_circle(7, channels=2))]
    for t in twists:
        for seed in range(4):
            s = perturb_splitting(t.base.splitting, 2, seed=seed)
            tp = rebased(t, s)
            b = tp.operator.base_square()
            p = s.sharp.projector()
            assert commutator_rank(tp.operator, s) == rank(p @ b - b @ p)
            # a perturbed splitting has no mask and keeps the frame route
            assert tp.base.splitting.sharp._mask is None
            assert np.array_equal(off_diagonal_singular_values(s, b, s),
                                  _frame_route(s, b))


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("convention", [SHARP_NONNEG, SHARP_NEGATIVE])
def test_coordinate_blocks_equal_the_frame_products(channels, convention):
    from fredcorr.circles import random_laurent_symbol
    rng = np.random.default_rng(40 + channels)
    for m in (4, 8, 24, 48):
        w = ModeWindow(m, channels)
        split = splitting_for_window(w, convention)
        assert split.sharp._mask is not None
        if channels == 1:
            # random scalar draws are monomials; this one has three planes
            coeffs = 0.3 * (rng.standard_normal(3)
                            + 1j * rng.standard_normal(3))
            coeffs[1] = 2.0
            sym = LaurentSymbol.scalar(coeffs, d_min=-1)
        else:
            sym = random_laurent_symbol(rng, channels=channels, degree=2)
        band = multiplication_operator(sym, w)
        by_hand = WindowedOperator(domain_window=band.domain_window,
                                   range_window=band.range_window,
                                   base_window=w, matrix=band.matrix)
        dense = rng.standard_normal((w.dim, w.dim)) \
            + 1j * rng.standard_normal((w.dim, w.dim))
        # exactly-zero entries, rows and columns beside the band's zeros
        dense[rng.random(dense.shape) < 0.3] = 0.0
        dense[:, 1] = 0.0
        dense[w.dim - 2, :] = 0.0
        dense = WindowedOperator(domain_window=w, range_window=w,
                                 base_window=w, matrix=dense)
        # the symbol's entries, the band matrix's and a dense matrix's
        for op in (band, by_hand, dense):
            got = commutator_singular_values(op, split)
            assert got.size
            assert np.array_equal(got, _frame_route(split, op.base_square()))


def test_band_certificate_comes_from_provenance():
    # a twist's symbol is the one its operator was built from, and its
    # certificate comes from that record, not from the matrix
    from fredcorr.circles import (certified_ratio, random_laurent_symbol,
                                  symbol_twist, twist_circle)
    circle = twist_circle(8, channels=2)
    sym = random_laurent_symbol(np.random.default_rng(11), channels=2,
                                degree=2)
    t = symbol_twist(sym, circle)
    assert t.symbol is t.operator._symbol is sym
    assert t._injectivity_ratio == certified_ratio(sym) > 0
    # the same matrix, built by hand: no symbol, so its singular values
    # decide, and the index is the same
    op = t.operator
    hand = WindowedOperator(domain_window=op.domain_window,
                            range_window=op.range_window,
                            base_window=op.base_window, matrix=op.matrix)
    by_hand = Twist(base=circle.space(), operator=hand)
    assert by_hand.symbol is hand._symbol is None
    s = np.linalg.svd(op.matrix, compute_uv=False)
    assert by_hand._injectivity_ratio == pytest.approx(s[-1] / s[0])
    assert tilde_ind(by_hand) == tilde_ind(t)
    turned = perturb_splitting(t.base.splitting, 1, seed=3)
    assert rebased(t, turned)._injectivity_ratio == t._injectivity_ratio


def test_twist_with_a_disagreeing_symbol_is_decided_by_its_operator():
    # a twist carries no symbol apart from its operator's, so nothing can
    # disagree with the operator: a bare matrix is decided by itself
    from fredcorr.circles import twist_circle
    from fredcorr.fans import TwistChain
    from fredcorr.graphs import (DecompositionGraph, GraphEdge,
                                 global_index_additive, global_index_fan)
    # a bare matrix that is not injective is refused
    h = circle_space(6, SHARP_NONNEG)
    good = multiplication_operator(LaurentSymbol.monomial(1), h.window)
    m = good.matrix.copy()
    m[:, 3] = 0.0
    with pytest.raises(InvalidInput, match="not injective"):
        Twist(base=h, operator=WindowedOperator(
            domain_window=good.domain_window, range_window=good.range_window,
            base_window=h.window, matrix=m))
    # a graph edge twisted by a bare matrix: the additive route reads the
    # operator, and the fan route, which composes the edge's symbol onto
    # the target vertex, refuses it instead of disagreeing
    scalar = twist_circle(6)
    z = multiplication_operator(LaurentSymbol.monomial(1), scalar.window)
    bare = Twist(base=scalar.space(), operator=WindowedOperator(
        domain_window=z.domain_window, range_window=z.range_window,
        base_window=z.base_window, matrix=z.matrix))
    recipes = {"a": TwistChain(factors=()), "b": TwistChain(factors=())}
    plain = DecompositionGraph(
        vertices=("a", "b"),
        edges={"e": GraphEdge("a", "b", scalar.space())},
        vertex_data=recipes)
    g = DecompositionGraph(
        vertices=("a", "b"),
        edges={"e": GraphEdge("a", "b", scalar.space(), twist=bare)},
        vertex_data=recipes)
    assert tilde_ind(bare) == 1
    assert global_index_additive(g) == global_index_additive(plain) + 1
    with pytest.raises(InvalidInput, match="edge twist carries no symbol"):
        global_index_fan(g)


def test_symbol_twist_builds_one_band_matrix(monkeypatch):
    # the certified twist and its index build no band matrix; the first
    # read of the operator's matrix builds it once, read-only
    from fredcorr import circles
    calls = []
    real = circles.symbol_band_matrix

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(circles, "symbol_band_matrix", spy)
    sym = circles.random_laurent_symbol(np.random.default_rng(2), channels=2,
                                        degree=2)
    t = circles.symbol_twist(sym, circles.twist_circle(8, channels=2))
    assert t._injectivity_ratio == circles.certified_ratio(sym)
    assert tilde_ind(t) == circles.winding_number(sym)
    assert calls == []
    op = t.operator
    m = op.matrix
    assert len(calls) == 1
    assert np.array_equal(m, real(sym, op.domain_window, op.range_window))
    assert not m.flags.writeable
    assert op.matrix is m
    assert len(calls) == 1


def test_twist_graph_clips_leaking_mode():
    h = circle_space(4, SHARP_NONNEG)
    g = twist_graph(Twist(base=h, operator=shift_operator(h.window, 1), budget=2))
    assert g.subspace.dim == h.dim - 1
    v = np.zeros(2 * h.dim, dtype=np.complex128)
    v[coord(h.window, 0, 0)] = 1.0
    v[h.dim + coord(h.window, 0, 1)] = 1.0
    assert contains(g.subspace, v / np.sqrt(2))


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
def test_twisted_cap_shifts_the_outgoing_disk_by_the_twist_index(k):
    # Ind(disk_out after T) = 1 + ind T, including shifts that push cap
    # modes across the window edge
    from fredcorr.circles import symbol_twist, twist_circle
    sym = LaurentSymbol.monomial(k)
    ti = tilde_ind(symbol_twist(sym, twist_circle(6)))
    assert ti == k
    assert index(twisted_cap(chain_circle(6), sym)) == 1 + ti


def test_tilde_ind_survives_interior_rebase():
    h = circle_space(7, SHARP_NONNEG)
    t = Twist(base=h, operator=shift_operator(h.window, 1), budget=2)
    interior = [coord(h.window, 0, n) for n in range(-4, 5)]
    for seed in range(6):
        s = perturb_splitting(h.splitting, 2, seed=seed, support=interior)
        assert tilde_ind(rebased(t, s)) == 1


def _bordism_defect(l):
    """Polarization defect of a correspondence against the bordism model
    sharp-source + flat-target."""
    src, tgt = l.source.splitting, l.target.splitting
    model = Splitting(sharp=direct_sum(src.sharp, tgt.flat),
                      flat=direct_sum(src.flat, tgt.sharp))
    own = Splitting(sharp=l.subspace, flat=complement(l.subspace))
    return polarization_defect(own, model)


def test_bordism_defect_of_annulus_and_disks():
    hb = circle_space(4, SHARP_NONNEG)
    assert _bordism_defect(diag_link(hb, 0.5)) == 2
    assert _bordism_defect(disk_in(circle_space(3))) == 0
    assert _bordism_defect(disk_in(circle_space(3, SHARP_NONNEG))) == 7


def test_graph_correspondence_validation():
    h = circle_space(3)
    with pytest.raises(DimensionMismatch):
        graph_correspondence(h, np.eye(h.dim + 1))


# -- structured composition ------------------------------------------------

def _plain(l):
    """The same subspace as a plain frame, with no mask and no ratio:
    the general route."""
    return Correspondence(source=l.source, target=l.target,
                          subspace=Subspace(l.subspace.frame))


def _shape(link):
    """What compose reads off a link: a mask or a diagonal's ratio."""
    if link.subspace._mask is not None:
        return "span"
    return None if link._ratio is None else "diag"


def _intersection_route(l1, l2):
    """An independent composite: (L1 + H3) meet (H1 + L2), projected
    onto H1 + H3 and cut at an absolute 1e-6."""
    n1, n2, n3 = l1.source.dim, l1.target.dim, l2.target.dim
    inter = intersection(direct_sum(l1.subspace, Subspace.full(n3)),
                         direct_sum(Subspace.full(n1), l2.subspace))
    keep = np.r_[np.ones(n1, bool), np.zeros(n2, bool), np.ones(n3, bool)]
    projected = inter.frame[keep]
    if projected.shape[1] == 0:
        return Subspace.zero(n1 + n3)
    u, s, _ = np.linalg.svd(projected, full_matrices=False)
    return Subspace(u[:, :np.count_nonzero(s > 1e-6)])


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(morphisms, name)
    monkeypatch.setattr(morphisms, name,
                        lambda a, b: calls.append(1) or real(a, b))
    return calls


def _structured_pairs(m, q):
    outer, mid, inner = (chain_circle(m, r) for r in (1.0, q, q * q))
    h = outer.space()
    rng = np.random.default_rng(m)
    mask = lambda: rng.random(h.dim) < 0.5
    span = Correspondence._span(h, h, mask(), mask())
    a1 = annulus_correspondence(outer, mid)
    a2 = annulus_correspondence(mid, inner)
    cap = twisted_cap(mid, LaurentSymbol.monomial(1, coefficient=0.7))
    return [
        ("span", span, Correspondence._span(h, h, mask(), mask())),
        ("span", span, disk_correspondence(outer, "outgoing")),
        ("span", disk_correspondence(outer, "incoming"), a1),
        ("span", span, a1),
        ("span", a1, cap),
        ("span", a1, Correspondence._span(h, h, mask(), mask())),
        ("diag", a1, a2),
        ("diag", weighted_diagonal(outer, q), a1),
        ("span", disk_correspondence(outer, "incoming"), cap),
        ("span", disk_correspondence(outer, "incoming"),
         disk_correspondence(outer, "outgoing")),
    ]


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("q", [0.5, 0.8])
def test_structured_compose_matches_the_intersection_route(monkeypatch, m, q):
    # no mode of q^n, n <= 6, q >= 0.5 nears the reference's cutoff, so
    # it keeps every mode too, and so does the fiber product of the same
    # pair with its structure records dropped
    calls = _count_calls(monkeypatch, "intersection")
    for kind, l1, l2 in _structured_pairs(m, q):
        fast = compose(l1, l2)
        assert _shape(fast) == kind and not calls
        plain = compose(_plain(l1), _plain(l2))
        assert not calls
        slow = _intersection_route(l1, l2)
        for sub in (fast.subspace, plain.subspace):
            assert sub.dim == slow.dim
            assert subspaces_equal(sub, slow)


def test_composite_between_zero_spaces_runs_no_intersection(monkeypatch):
    calls = _count_calls(monkeypatch, "intersection")
    h = circle_space(4)
    rng = np.random.default_rng(3)
    l1 = Correspondence(source=ModelSpace.zero_space(), target=h,
                        subspace=random_subspace(h.dim, 4, rng))
    l2 = Correspondence(source=h, target=ModelSpace.zero_space(),
                        subspace=random_subspace(h.dim, 5, rng))
    closed = compose(l1, l2)
    assert closed.subspace.ambient_dim == closed.subspace.dim == 0
    assert not calls and delta(l1, l2) == index(l1) + index(l2)


def test_unrecorded_pairs_take_one_window_intersection(monkeypatch):
    intersections = _count_calls(monkeypatch, "intersection")
    images = _count_calls(monkeypatch, "restricted_image")
    outer, inner = chain_circle(4, 2.0), chain_circle(4, 1.0)
    a = annulus_correspondence(outer, inner)
    compose(_plain(a), disk_correspondence(inner, "outgoing"))
    assert len(images) == 1
    # a diagonal re-based onto a moved splitting keeps no ratio, so it
    # meets the span after it in the fiber product
    s = perturb_splitting(a.target.splitting, 1, seed=5)
    r1, r2 = _rebased(a, disk_correspondence(inner, "outgoing"), s)
    assert _shape(r1) is None and _shape(r2) == "span"
    compose(r1, r2)
    assert len(images) == 2 and not intersections


def test_sphere_ledger_runs_no_intersection(monkeypatch):
    calls = _count_calls(monkeypatch, "intersection")
    circles = [chain_circle(16, r) for r in (2.0, 1.6, 1.1, 0.7)]
    chain = Chain(links=(
        disk_correspondence(circles[0], "incoming"),
        *[annulus_correspondence(a, b) for a, b in zip(circles, circles[1:])],
        twisted_cap(circles[-1], LaurentSymbol.monomial(-2, coefficient=1.5))))
    for order in itertools.permutations(range(len(chain) - 1)):
        assert reduce_chain_ledger(chain, order).total == -1
    assert not calls


@pytest.mark.parametrize("m", [4, 8, 16, 32])
@pytest.mark.parametrize("k", range(-4, 5))
def test_monomial_cap_equals_the_operator_route(m, k):
    circle = chain_circle(m)
    sym = LaurentSymbol.monomial(k, coefficient=0.6 - 0.3j)
    cap = twisted_cap(circle, sym)
    assert _shape(cap) == "span"
    op = multiplication_operator(sym, circle.window)
    padded = pad_by_predicate(mode_span(circle.window, lambda n: n <= 0),
                              circle.window, abs(k), lambda n: n <= 0)
    routed = op.apply_within_window(padded)
    assert cap.subspace.dim == routed.dim
    assert subspaces_equal(cap.subspace, routed)


def test_generic_cap_records_no_structure():
    sym = LaurentSymbol.scalar([1.0, 0.3], d_min=1)
    assert _shape(twisted_cap(chain_circle(5), sym)) is None


def test_small_ratio_keeps_every_mode_at_a_wide_window():
    # 0.01^256 underflows to 0; the recorded ratio keeps Q invertible
    outer, inner = chain_circle(256, 1.0), chain_circle(256, 0.01)
    a = annulus_correspondence(outer, inner)
    into = compose(disk_correspondence(outer, "incoming"), a)
    assert into.subspace.dim == 257
    assert np.array_equal(into.subspace._mask, inner.window.mode_labels() >= 0)
    out = compose(a, disk_correspondence(inner, "outgoing"))
    assert out.subspace.dim == 257
    q = compose(a, annulus_correspondence(inner, chain_circle(256, 1e-4))
                )._ratio
    assert q == pytest.approx(1e-4)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("q", [0.5, 1 / 1.5, 0.9, 0.01, 1 / 1.05])
def test_diagonal_frame_equals_the_per_mode_loop(channels, q):
    for m in (1, 6, 40):
        outer = chain_circle(m, 1.0, channels)
        a = annulus_correspondence(outer, chain_circle(m, q, channels))
        assert np.array_equal(a.subspace.frame,
                              diag_link(outer.space(), q).subspace.frame)
        assert not a.subspace.frame.flags.writeable


@pytest.mark.parametrize("q", [0.0, -0.5, float("nan"), float("inf")])
def test_weighted_diagonal_refuses_a_singular_ratio(q):
    with pytest.raises(InvalidInput):
        weighted_diagonal(chain_circle(3), q)


def _spy(monkeypatch, owner, name, calls):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a: calls.append(name) or real(*a))


@pytest.mark.parametrize("cap", [LaurentSymbol.monomial(-2, coefficient=1.5),
                                 LaurentSymbol.scalar([1.0, 0.3], d_min=0)],
                         ids=["monomial", "generic"])
def test_ledger_builds_no_frame_of_a_record(monkeypatch, cap):
    # the annuli, their pull-backs and the generic cap are records: the
    # chain total and the ledger read their dimensions in every order
    built = []
    for owner, name in ((morphisms, "_diagonal_graph_frame"),
                        (morphisms, "_fiber_product"),
                        (WindowedOperator, "apply_within_window")):
        _spy(monkeypatch, owner, name, built)
    circles = [chain_circle(8, r) for r in (2.0, 1.6, 1.1, 0.7)]
    annuli = [annulus_correspondence(a, b) for a, b in zip(circles, circles[1:])]
    chain = Chain(links=(disk_correspondence(circles[0], "incoming"), *annuli,
                         twisted_cap(circles[-1], cap)))
    total = chain_total_index(chain)
    assert total == 1 + winding_number(cap)
    for order in itertools.permutations(range(len(chain) - 1)):
        assert reduce_chain_ledger(chain, order).total == total
    assert built == []
    # a frame read afterwards is the one the diagonal builds
    labels = circles[0].window.mode_labels()
    for a in (*annuli, compose(annuli[0], annuli[1])):
        frame = a.subspace.frame
        assert np.array_equal(frame,
                              morphisms._diagonal_graph_frame(labels, a._ratio))
        assert not frame.flags.writeable and a.subspace.frame is frame
        Subspace(frame)


def _three_plane_draw(seed=2026):
    """c z (z - r1)(z - r2) with seeded |r| in [1.5, 4) and |c| in
    [0.5, 1.5): three planes, both zeros outside the disk."""
    rng = np.random.default_rng(seed)
    roots = (1.5 + 2.5 * rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
    c = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
    return LaurentSymbol.scalar(c * np.poly(roots)[::-1], d_min=1)


# (z - 3)(z + 2.5) / 8 has a scaled copy that differs by a power of two
_CAP_SYMBOLS = {
    "1+0.3z": LaurentSymbol.scalar([1.0, 0.3], d_min=0),
    "(z-3)(z+2.5)/8": LaurentSymbol.scalar([-0.9375, -0.0625, 0.125], d_min=0),
    "draw": _three_plane_draw(),
}


@pytest.mark.parametrize("m", [8, 32, 64, 128])
@pytest.mark.parametrize("name", list(_CAP_SYMBOLS))
def test_cap_and_pullback_records_match_the_built_routes(m, name):
    sym = _CAP_SYMBOLS[name]
    outer, inner = chain_circle(m, 2.0), chain_circle(m, 1.0)
    cap = twisted_cap(inner, sym)
    a = annulus_correspondence(outer, inner)
    pulled = compose(a, cap)
    # read both recorded dims before any frame is built
    dims = (cap.subspace.dim, pulled.subspace.dim)
    window = inner.window
    padded = pad_by_predicate(mode_span(window, lambda n: n <= 0), window,
                              sym.degree, lambda n: n <= 0)
    built = multiplication_operator(sym, window).apply_within_window(padded)
    fiber = morphisms._fiber_product(a, cap)
    assert dims == (built.dim, fiber.dim) == (built.dim, built.dim)
    for sub in (cap.subspace, pulled.subspace):
        Subspace(sub.frame)
    assert subspaces_equal(cap.subspace, built)


def _diagonal_pairs():
    """The criteria 05-06 pairs, each link composed with a diagonal on
    either side (a pull-back), then the adjacent links of criterion 07's
    chains (a diagonal next to a disk, an annulus or a monomial cap)."""
    for i in range(50):
        l1, l2 = _random_composable_pair(np.random.default_rng([5, i]))
        yield Correspondence._diagonal(l1.source, l1.source, 0.7), l1
        yield l1, Correspondence._diagonal(l1.target, l1.target, 1.3)
        yield l2, Correspondence._diagonal(l2.target, l2.target, 0.4)
    for i in range(20):
        chain, _ = _random_chain(np.random.default_rng([7, i]))
        yield from zip(chain.links, chain.links[1:])


def test_diagonal_composites_of_the_criteria_links_match_the_fiber_route():
    pulled = 0
    for l1, l2 in _diagonal_pairs():
        c = compose(l1, l2)
        # a mask or a record: no frame is built to compose
        assert c.subspace._shape is not None
        if c._ratio is None and c.subspace._mask is None:
            pulled += 1
            other = l2 if l1._ratio is not None else l1
            assert c.subspace.dim == other.subspace.dim
        assert c.subspace.dim == morphisms._fiber_product(l1, l2).dim
        Subspace(c.subspace.frame)
    assert pulled == 150


def test_a_record_refuses_a_frame_of_another_dimension():
    sub = Subspace._recorded(4, 2, lambda: np.eye(4)[:, :1])
    assert (sub.ambient_dim, sub.dim) == (4, 2)
    with pytest.raises(DimensionMismatch, match="record"):
        sub.frame


def test_a_twist_decides_its_index_once(monkeypatch):
    calls = []
    _spy(monkeypatch, morphisms, "image_dim", calls)
    # z^2 (1 + 0.3 z) winds twice
    t = symbol_twist(LaurentSymbol.scalar([1.0, 0.3], d_min=2),
                     twist_circle(8))
    assert tilde_ind(t) == tilde_ind(t) == 2
    assert len(calls) == 1
    # a rebound tolerance decides it again, and then keeps that
    monkeypatch.setattr(subspaces, "DEFAULT_TOL", 1e-7)
    assert tilde_ind(t) == tilde_ind(t) == 2
    assert len(calls) == 2
