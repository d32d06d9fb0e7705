"""Circle model layer: symbols, windings, disks, annuli, spheres, tori."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredcorr.circles import (
    CERTIFICATE_GRID_CAP,
    MIN_DET,
    VALIDATION_GRID,
    LaurentCircle,
    LaurentSymbol,
    annulus_correspondence,
    build_sphere_chain,
    build_torus,
    certified_ratio,
    chain_circle,
    disk_correspondence,
    mv_pairing,
    multiplication_operator,
    random_laurent_symbol,
    sphere_hardy_pair,
    stabilization_m0,
    symbol_band_matrix,
    symbol_twist,
    twist_circle,
    winding_number,
    _grid_floor,
)
from fredcorr.errors import DimensionMismatch, InvalidInput, SymbolSingular
from fredcorr.morphisms import (
    Twist,
    chain_total_index,
    commutator_rank,
    index,
    reduce_chain_ledger,
    tilde_ind,
)
from fredcorr.spaces import (off_diagonal_singular_values, perturb_splitting,
                            spaces_match)
from fredcorr.subspaces import (
    current_tolerance,
    dimension_index,
    pair_index,
    rank,
    singular_values,
)
from fredcorr.windows import MAX_COORDINATES, ModeWindow

from reference import (built_mv_pairing, composed_random_laurent_symbol,
                       contains, coord, eval_grid, rebased,
                       roots_winding_number, twist_graph)


def matrix_symbol(d_min, *planes):
    """A matrix symbol from its coefficient planes for powers d_min..."""
    return LaurentSymbol(coeffs=np.array(planes, dtype=complex), d_min=d_min)


def test_symbol_rejects_zero_and_singular():
    with pytest.raises(SymbolSingular):
        LaurentSymbol(coeffs=np.zeros((1, 1, 1)), d_min=0)
    with pytest.raises(SymbolSingular):
        # z - 1 vanishes on the circle
        LaurentSymbol.scalar([-1.0, 1.0], d_min=0)
    with pytest.raises(InvalidInput):
        LaurentSymbol(coeffs=np.zeros((1, 2, 3)), d_min=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SymbolSingular):
            # (z - 1) I vanishes as a whole matrix at z = 1, a grid point
            matrix_symbol(0, -np.eye(2), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
@pytest.mark.parametrize("plane", [0, 1, 2])
def test_symbol_refuses_non_finite_coefficients(bad, plane):
    # a non-finite end plane used to be stripped as if it were zero
    c = np.array([1.0, 0.5, 0.25], dtype=complex)
    c[plane] = bad
    with pytest.raises(InvalidInput, match="finite"):
        LaurentSymbol.scalar(c, d_min=1)
    with pytest.raises(InvalidInput, match="finite"):
        matrix_symbol(0, [[1.0, 0], [0, 2.0]], [[0, 0], [bad, 0]])


@pytest.mark.parametrize("coeffs, d_min", [
    ([1.0], MAX_COORDINATES + 1),
    ([1.0], -MAX_COORDINATES - 1),
    ([1.0, 0.5], MAX_COORDINATES),
    ([1.0], 2 ** 63),
    ([1.0, 0.5], -2 ** 63),
    ([1.0], 10 ** 20),
])
def test_symbol_refuses_powers_beyond_any_window(coeffs, d_min):
    with pytest.raises(InvalidInput, match="symbol powers exceed"):
        LaurentSymbol.scalar(coeffs, d_min=d_min)


def test_symbol_keeps_powers_at_the_window_limit():
    top = LaurentSymbol.scalar([1.0, 0.5], d_min=MAX_COORDINATES - 1)
    assert top.d_max == top.degree == MAX_COORDINATES
    assert LaurentSymbol.monomial(-MAX_COORDINATES).degree == MAX_COORDINATES


def test_singular_symbol_test_ignores_coefficient_scale():
    # invertible on the circle however small the coefficients
    tiny = LaurentSymbol.monomial(1, coefficient=1e-9)
    assert winding_number(tiny) == 1
    small = LaurentSymbol.monomial(1, channels=3, coefficient=1e-3)
    assert winding_number(small) == 3
    with pytest.raises(SymbolSingular):
        LaurentSymbol.scalar([-1e-9, 1e-9], d_min=0)


def test_symbol_canonicalizes_zero_planes():
    c = np.zeros((3, 1, 1), dtype=complex)
    c[1, 0, 0] = 1.0
    s = LaurentSymbol(coeffs=c, d_min=-1)
    assert s.d_min == 0 and s.d_max == 0 and s.degree == 0


def test_symbol_eval_and_product():
    a = LaurentSymbol.scalar([1.0, 0.5], d_min=0)       # 1 + z/2
    b = LaurentSymbol.scalar([-0.3, 1.0], d_min=-1)     # 1 - 0.3/z
    zs = np.exp(2j * np.pi * np.array([0.1, 0.37, 0.77]))
    pa = eval_grid(a, zs)[:, 0, 0]
    assert np.allclose(pa, 1 + 0.5 * zs)
    prod = a.product(b)
    assert prod.d_min == -1 and prod.d_max == 1
    assert np.allclose(eval_grid(prod, zs)[:, 0, 0], (1 + 0.5 * zs) * (1 - 0.3 / zs))


def test_matrix_symbol_eval_grid():
    s = matrix_symbol(-1, [[0, 0], [0, 1.0]], [[1.0, 0], [0, 0]],
                      [[0, 0.5], [0, 0]])
    z = np.exp(0.4j)
    m = eval_grid(s, [z])[0]
    assert np.allclose(m, [[1.0, 0.5 * z], [0.0, 1.0 / z]])


@pytest.mark.parametrize("k", range(-3, 4))
def test_winding_of_monomials(k):
    assert winding_number(LaurentSymbol.monomial(k)) == k


def test_winding_of_scalar_roots():
    assert winding_number(LaurentSymbol.scalar([-2.0, 1.0], d_min=0)) == 0
    assert winding_number(LaurentSymbol.scalar([-0.5, 1.0], d_min=0)) == 1
    # roots close to the circle stay exact
    assert winding_number(LaurentSymbol.scalar([-(1 + 1e-3), 1.0], d_min=0)) == 0
    assert winding_number(LaurentSymbol.scalar([-(1 - 1e-3), 1.0], d_min=0)) == 1


def test_winding_of_matrix_symbols():
    mixed = matrix_symbol(-1, [[0, 0], [0, 1.0]], [[0, 0], [0, 0]],
                          [[1.0, 0], [0, 0]])
    assert winding_number(mixed) == 0
    tri = matrix_symbol(0, [[0, 0.7], [0, 0]], [[1.0, 0], [0, 2.0]])
    assert winding_number(tri) == 2


def test_winding_is_additive_under_products():
    rng = np.random.default_rng(5)
    for _ in range(8):
        a = random_laurent_symbol(rng, channels=2, degree=2)
        b = random_laurent_symbol(rng, channels=2, degree=2)
        assert winding_number(a.product(b)) == winding_number(a) + winding_number(b)


def test_multiplication_operator_entries():
    w = ModeWindow(3)
    op = multiplication_operator(LaurentSymbol.monomial(1), w)
    assert op.domain_window.half_width == 4
    assert op.range_window.half_width == 5
    # z sends mode n to mode n+1 with coefficient 1
    col = op.matrix[:, coord(op.domain_window, 0, 2)]
    assert col[coord(op.range_window, 0, 3)] == 1.0
    assert np.count_nonzero(col) == 1
    with pytest.raises(DimensionMismatch):
        multiplication_operator(LaurentSymbol.monomial(0, channels=2), w)


@pytest.mark.parametrize("k", range(-2, 3))
def test_monomial_twist_index_is_winding(k):
    t = symbol_twist(LaurentSymbol.monomial(k), twist_circle(8))
    assert tilde_ind(t) == k


def test_random_symbol_twist_index_is_winding():
    rng = np.random.default_rng(42)
    for _ in range(8):
        channels = int(rng.integers(1, 4))
        sym = random_laurent_symbol(rng, channels=channels, degree=2)
        m = max(8, stabilization_m0(sym.degree))
        t = symbol_twist(sym, twist_circle(m, channels=channels))
        assert tilde_ind(t) == winding_number(sym)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_tilde_ind_matches_pair_index_audit(channels):
    rng = np.random.default_rng(60 + channels)
    syms = [random_laurent_symbol(rng, channels=channels, degree=2)
            for _ in range(3)]
    if channels == 1:
        # zeros at 0.3 and 2.5: the twist index misses the inner zero,
        # and the audit agrees, so the count is not where that goes wrong
        syms.append(LaurentSymbol.scalar([0.75, -2.8, 1.0], d_min=0))
    for sym in syms:
        t = symbol_twist(sym, twist_circle(8, channels=channels))
        image = t.operator.apply_within_window(
            t.base.flat_padded(t.margin))
        assert tilde_ind(t) == pair_index(image, t.base.splitting.sharp).index


def _scalar_with_zeros(rng, inside, outside, d_min):
    # zeros well inside and well outside the unit disk, none near the circle
    radii = [rng.uniform(0.1, 0.6) for _ in range(inside)] \
        + [rng.uniform(1.8, 3.0) for _ in range(outside)]
    roots = [r * np.exp(2j * np.pi * rng.uniform()) for r in radii]
    return LaurentSymbol.scalar(np.poly(roots)[::-1], d_min=d_min)


def _symbols(rng, channels):
    if channels == 1:
        # random_laurent_symbol(channels=1) only draws monomials
        return [_scalar_with_zeros(rng, 1, 1, -1),
                _scalar_with_zeros(rng, 0, 2, 0)]
    return [random_laurent_symbol(rng, channels=channels, degree=d)
            for d in (1, 2)]


def _fault_symbol(rng):
    # U diag((z - a)(z - b), c z^-3) V with |a| <= 0.5 and |b| >= 2:
    # winding 1 - 3 = -2, but the twist index misses the inner zero
    a = rng.uniform(0.1, 0.5) * np.exp(2j * np.pi * rng.uniform())
    b = rng.uniform(2.0, 4.0) * np.exp(2j * np.pi * rng.uniform())
    c = np.zeros((6, 2, 2), dtype=np.complex128)
    c[3:, 0, 0] = [a * b, -(a + b), 1.0]
    c[0, 1, 1] = 0.5 + rng.uniform(0.0, 1.5)
    u, v = (np.linalg.qr(rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))[0]
            for _ in range(2))
    return LaurentSymbol(coeffs=np.einsum("ij,pjk,kl->pil", u, c, v),
                         d_min=-3)


def _image_route(t):
    # tilde_ind with the twisted image built and orthonormalized
    flat_pad = t.base.flat_padded(t.margin)
    return dimension_index(t.operator.apply_within_window(flat_pad),
                           t.base.splitting.sharp)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_certified_ratio_bounds_the_band_matrix_condition(channels):
    rng = np.random.default_rng(80 + channels)
    for sym in _symbols(rng, channels):
        ratio = certified_ratio(sym)
        assert ratio > 2 * current_tolerance()
        for m in (8, 24, 64):
            op = multiplication_operator(sym, ModeWindow(m, channels))
            s = singular_values(op.matrix)
            assert ratio <= s[-1] / s[0]
            wider = symbol_band_matrix(sym, op.domain_window,
                                       op.range_window.pad(3))
            s = singular_values(wider)
            assert ratio <= s[-1] / s[0]


def test_symbol_twist_is_certified_from_its_symbol():
    sym = random_laurent_symbol(np.random.default_rng(4), channels=2, degree=2)
    t = symbol_twist(sym, twist_circle(8, channels=2))
    assert t._injectivity_ratio == certified_ratio(sym) > 0


def test_zero_near_the_circle_takes_the_svd_route():
    # a zero 1e-7 outside the circle: the symbol is valid, but no grid up
    # to the cap certifies it, so the singular values decide, as before
    a = (1 + 1e-7) * np.exp(0.3j)
    sym = LaurentSymbol.scalar([-a, 1.0], d_min=0)
    assert certified_ratio(sym) == 0.0
    t = symbol_twist(sym, twist_circle(16))
    m = t.operator.matrix
    assert rank(m) == m.shape[1]
    s = singular_values(m)
    assert t._injectivity_ratio == pytest.approx(s[-1] / s[0], rel=1e-12)
    assert tilde_ind(t) == _image_route(t)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_counted_tilde_ind_matches_the_image_route(channels):
    rng = np.random.default_rng(90 + channels)
    tol = current_tolerance()
    for sym in _symbols(rng, channels):
        circle = twist_circle(max(8, stabilization_m0(sym.degree)),
                              channels=channels)
        t = symbol_twist(sym, circle)
        assert t._injectivity_ratio > 2 * tol
        assert tilde_ind(t) == _image_route(t)
        labels = circle.window.mode_labels()
        interior = np.flatnonzero(np.abs(labels) <= circle.half_width - 3)
        for seed in range(3):
            s = perturb_splitting(t.base.splitting, 2, seed=seed,
                                  support=interior)
            tp = rebased(t, s)
            assert tp._injectivity_ratio > 2 * tol
            assert tilde_ind(tp) == _image_route(tp)


def test_counted_tilde_ind_on_inner_zero_symbols():
    # the routes agree on the known inner-zero fault: both read -3 where
    # the winding is -2, so mending that fault changes this figure
    rng = np.random.default_rng(507060)
    for _ in range(2):
        sym = _fault_symbol(rng)
        assert winding_number(sym) == -2
        t = symbol_twist(sym, twist_circle(48, channels=2))
        assert t._injectivity_ratio > 2 * current_tolerance()
        assert tilde_ind(t) == _image_route(t) == -3


def _dense_tilde_ind(t):
    # the dense reference: every outside row of the band matrix times the
    # whole padded flat frame, or the image route below the certificate
    if t._injectivity_ratio <= 2 * current_tolerance():
        return _image_route(t)
    op = t.operator
    outside = op.matrix[~op.base_rows_mask(), :] \
        @ t.base.flat_padded(t.margin).frame
    sharp = t.base.splitting.sharp
    return outside.shape[1] - rank(outside) + sharp.dim - sharp.ambient_dim


def _dense_commutator_rank(op, split):
    # the dense reference: frame products with the whole base square
    s = off_diagonal_singular_values(split, op.base_square(), split)
    return int(np.count_nonzero(s > current_tolerance() * s.max(initial=0)))


def _assert_block_and_dense_routes_agree(sym, circle, rebase_seed=None):
    """tilde_ind, commutator_rank and the budget refusal of the symbol
    twist agree with the dense band-matrix route."""
    space = circle.space()
    op = multiplication_operator(sym, circle.window)
    try:
        t = Twist(base=space, operator=op)
    except InvalidInput:
        # not injective below the certificate: refused either way
        with pytest.raises(InvalidInput):
            symbol_twist(sym, circle)
        return
    r = _dense_commutator_rank(op, space.splitting)
    assert commutator_rank(op, space.splitting) == r
    for budget in {max(r - 1, 0), r}:
        if r > budget:
            with pytest.raises(InvalidInput, match="rank budget"):
                Twist(base=space, operator=op, budget=budget)
        else:
            Twist(base=space, operator=op, budget=budget)
    # the structural bound that lets symbol_twist set no budget
    assert r <= 2 * sym.degree * sym.channels
    assert tilde_ind(symbol_twist(sym, circle)) == _dense_tilde_ind(t)
    if rebase_seed is not None and min(space.splitting.sharp.dim,
                                       space.splitting.flat.dim) >= 2:
        s = perturb_splitting(space.splitting, 2, seed=rebase_seed)
        tp = rebased(t, s)
        assert tilde_ind(tp) == _dense_tilde_ind(tp)
        assert commutator_rank(op, s) == _dense_commutator_rank(op, s)


def _route_symbols(rng, channels, degree):
    if channels == 1:
        # random scalar draws are monomials: add zeros on both sides, and
        # one just outside the circle, which no grid certifies
        near = [(1 + 1e-7) * np.exp(2j * np.pi * rng.uniform())] \
            + [2.5] * (degree - 1)
        return [random_laurent_symbol(rng, channels=1, degree=degree),
                _scalar_with_zeros(rng, 1, degree - 1, -1),
                _scalar_with_zeros_on_both_sides(rng),
                LaurentSymbol.scalar(np.poly(near)[::-1], d_min=0)]
    syms = [random_laurent_symbol(rng, channels=channels, degree=degree)]
    if channels == 2 and degree == 3:
        syms.append(_fault_symbol(rng))
    return syms


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("make_circle", [twist_circle, chain_circle])
def test_block_route_matches_the_dense_route(channels, degree, make_circle):
    rng = np.random.default_rng([channels, degree])
    for sym in _route_symbols(rng, channels, degree):
        for m in (1, 2, sym.degree, 8, 32, 40):
            _assert_block_and_dense_routes_agree(
                sym, make_circle(max(m, 1), channels=channels),
                rebase_seed=m)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), channels=st.integers(1, 3),
       degree=st.integers(1, 3), window=st.integers(1, 40),
       make_circle=st.sampled_from([twist_circle, chain_circle]),
       rebase=st.booleans())
def test_block_route_matches_the_dense_route_on_draws(
        seed, channels, degree, window, make_circle, rebase):
    rng = np.random.default_rng(seed)
    syms = _route_symbols(rng, channels, degree)
    sym = syms[int(rng.integers(len(syms)))]
    _assert_block_and_dense_routes_agree(
        sym, make_circle(window, channels=channels),
        rebase_seed=seed if rebase else None)


def test_twist_budget_bounds_commutator():
    # symbol_twist sets no budget: the structural one could never refuse
    rng = np.random.default_rng(9)
    for _ in range(6):
        sym = random_laurent_symbol(rng, channels=2, degree=2)
        t = symbol_twist(sym, twist_circle(8, channels=2))
        assert t.budget is None
        assert commutator_rank(t.operator, t.base.splitting) \
            <= 2 * sym.degree * sym.channels


def test_twist_index_stable_across_windows():
    rng = np.random.default_rng(17)
    for _ in range(4):
        sym = random_laurent_symbol(rng, channels=1, degree=2)
        w = winding_number(sym)
        m0 = stabilization_m0(sym.degree)
        vals = [tilde_ind(symbol_twist(sym, twist_circle(m0 + j)))
                for j in range(7)]
        assert vals == [w] * 7


def test_disk_indices_and_annulus():
    outer = chain_circle(6, 2.0)
    inner = chain_circle(6, 1.0)
    assert index(disk_correspondence(outer, "incoming")) == 0
    assert index(disk_correspondence(outer, "outgoing")) == 1
    ann = annulus_correspondence(outer, inner)
    assert index(ann) == 0
    with pytest.raises(InvalidInput):
        annulus_correspondence(inner, outer)
    with pytest.raises(DimensionMismatch):
        annulus_correspondence(chain_circle(5, 2.0), inner)
    with pytest.raises(InvalidInput):
        disk_correspondence(outer, "both")


def test_annulus_is_the_graph_of_the_transfer_factors():
    # mode n moves from the outer circle to the inner one by q^n
    outer = chain_circle(5, 2.0)
    inner = chain_circle(5, 1.0)
    sub = annulus_correspondence(outer, inner).subspace
    w = outer.window
    q = inner.radius / outer.radius
    for n in w.mode_labels():
        v = np.zeros(2 * w.dim)
        v[coord(w, 0, int(n))] = 1.0
        v[w.dim + coord(w, 0, int(n))] = q ** float(n)
        assert contains(sub, v / np.linalg.norm(v))


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_sphere_chain_untwisted(m):
    c = build_sphere_chain(m)
    assert chain_total_index(c) == 1
    assert reduce_chain_ledger(c, (0, 1)).total == 1
    assert reduce_chain_ledger(c, (1, 0)).total == 1


def test_sphere_chain_with_twists():
    z = LaurentSymbol.monomial(1)
    zi = LaurentSymbol.monomial(-1)
    near = LaurentSymbol.scalar([1.0, 0.4], d_min=1)
    cases = [
        ((z,), 2),
        ((zi,), 0),
        ((z, z), 3),
        ((z, zi), 1),
        ((near,), 2),
        ((near, zi), 1),
    ]
    for twists, expected in cases:
        c = build_sphere_chain(8, twists)
        assert chain_total_index(c) == expected


def test_sphere_chain_weight_independence():
    z = LaurentSymbol.monomial(1)
    for radii in [(2.0, 1.2), (1.5, 1.0), (3.0, 2.1), (1.1, 1.0)]:
        assert chain_total_index(build_sphere_chain(6, (z,), radii)) == 2


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_torus_pairing_counts_twist_degree(q, k):
    l, t = build_torus(q, k, 6)
    got = pair_index(l.subspace, twist_graph(t).subspace).index
    assert got == -abs(k)


def test_torus_rejects_degenerate_weight():
    with pytest.raises(InvalidInput):
        build_torus(1.0, 1, 5)
    with pytest.raises(InvalidInput):
        build_torus(0.0, 1, 5)


@pytest.mark.parametrize("k", range(-4, 5))
def test_mv_pairing_of_monomials(k):
    pair = sphere_hardy_pair(8)
    assert mv_pairing(pair, LaurentSymbol.monomial(k), 1) == k


def test_mv_pairing_two_channel():
    pair = sphere_hardy_pair(8)
    sym = matrix_symbol(0, [[0, 0], [0, 1.0]], [[1.0, 0], [0, 0]])
    assert mv_pairing(pair, sym, 2) == 1
    with pytest.raises(DimensionMismatch):
        mv_pairing(pair, sym, 1)


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_mv_pairing_matches_the_built_route(channels, degree):
    # the counted image against the built one, fault symbols and a zero
    # just outside the circle (built on both routes) included
    rng = np.random.default_rng([channels, degree, 12])
    syms = _route_symbols(rng, channels, degree) + _symbols(rng, channels)
    for sym in syms:
        for m in (8, 32):
            pair = sphere_hardy_pair(m)
            assert mv_pairing(pair, sym, channels) \
                == built_mv_pairing(pair, sym, channels)


def test_random_symbol_shape():
    rng = np.random.default_rng(1)
    for _ in range(10):
        sym = random_laurent_symbol(rng, channels=3, degree=3)
        assert sym.channels == 3
        assert sym.degree <= 3


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_random_symbol_matches_the_composed_draw(channels, degree):
    # one symbol per draw, from the same draws, with the same bits
    for seed in range(50):
        got = random_laurent_symbol(np.random.default_rng(seed), channels,
                                    degree)
        want = composed_random_laurent_symbol(np.random.default_rng(seed),
                                              channels, degree)
        assert got.d_min == want.d_min
        assert got.coeffs.shape == want.coeffs.shape
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


def _band_matrix_by_loop(sym, from_window, to_window):
    """Reference: one entry per (power, channel pair, input mode)."""
    m = np.zeros((to_window.dim, from_window.dim), dtype=np.complex128)
    for p in range(sym.coeffs.shape[0]):
        shift = sym.d_min + p
        coef = sym.coeffs[p]
        for cin in range(sym.channels):
            for cout in range(sym.channels):
                v = coef[cout, cin]
                if v == 0:
                    continue
                for n in range(-from_window.half_width,
                               from_window.half_width + 1):
                    m[coord(to_window, cout, n + shift),
                      coord(from_window, cin, n)] += v
    return m


@pytest.mark.parametrize("channels,d_min", [(1, -2), (2, -1), (3, -3)])
def test_symbol_band_matrix_matches_loop(channels, d_min):
    rng = np.random.default_rng(channels)
    shape = (4, channels, channels)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[1, 0, channels - 1] = 0.0
    sym = LaurentSymbol(coeffs=coeffs, d_min=d_min)
    w = ModeWindow(5, channels)
    for to in (w.pad(sym.degree), w.pad(sym.degree + 2)):
        assert np.array_equal(symbol_band_matrix(sym, w, to),
                              _band_matrix_by_loop(sym, w, to))


# Loop references for the vectorised symbol evaluation, and a phase scan
# that the zero-counting winding number is held to.

def _horner_by_loop(coeffs, d_min, zs):
    """Reference: Horner's rule from the top plane at each grid point."""
    out = np.empty((len(zs),) + coeffs.shape[1:], dtype=np.complex128)
    for j, z in enumerate(zs):
        acc = coeffs[-1].copy()
        for p in range(coeffs.shape[0] - 2, -1, -1):
            acc = acc * z + coeffs[p]
        out[j] = acc * z ** d_min
    return out


def _phase_scan_by_loop(w):
    """Reference: (total phase, largest step) around a closed loop."""
    total, max_step = 0.0, 0.0
    for j in range(len(w)):
        z = w[(j + 1) % len(w)] * w[j].conjugate()
        step = np.arctan2(z.imag, z.real)
        total += step
        max_step = max(max_step, abs(step))
    return total, max_step


def test_eval_grid_matches_horner_reference():
    rng = np.random.default_rng(1)
    for _ in range(4):
        c = int(rng.integers(1, 4))
        planes = int(rng.integers(1, 5))
        coeffs = rng.standard_normal((planes, c, c)) \
            + 1j * rng.standard_normal((planes, c, c))
        sym = LaurentSymbol(coeffs=coeffs, d_min=-2)
        zs = np.exp(2j * np.pi * rng.uniform(size=64))
        assert np.allclose(eval_grid(sym, zs),
                           _horner_by_loop(sym.coeffs, sym.d_min, zs),
                           atol=1e-12)


def _dets(sym, n):
    return np.linalg.det(eval_grid(sym, np.exp(2j * np.pi * np.arange(n) / n)))


def test_phase_scan_matches_loop_reference():
    # winding-2 loops with a wiggle, as in the former backend comparison
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = 0.3 * rng.standard_normal() + 0.3j * rng.standard_normal()
        assert abs(a) < 1.2
        coeffs = np.zeros((4, 1, 1), dtype=np.complex128)
        coeffs[0, 0, 0], coeffs[3, 0, 0] = 1.2, a
        sym = LaurentSymbol(coeffs=coeffs, d_min=2)
        total, max_step = _phase_scan_by_loop(_dets(sym, 257))
        assert max_step <= np.pi / 2
        assert winding_number(sym) == round(total / (2 * np.pi)) == 2


def test_winding_matches_phase_scan_reference():
    # the six symbols of the former backend comparison, with their windings
    rng = np.random.default_rng(3)
    syms = [random_laurent_symbol(rng, channels=2, degree=2) for _ in range(5)]
    syms.append(LaurentSymbol.monomial(-3))
    assert [winding_number(s) for s in syms] == [0, -1, -1, -1, 2, -3]
    for s in syms:
        total, max_step = _phase_scan_by_loop(_dets(s, 1024))
        assert max_step <= np.pi / 2
        assert winding_number(s) == round(total / (2 * np.pi))


def _scalar_with_zeros_on_both_sides(rng):
    # 0-3 zeros at radius 0.05-0.95 and 0-3 at radius 1.05-4
    inner, outer = rng.integers(0, 4, size=2)
    radii = np.concatenate([rng.uniform(0.05, 0.95, inner),
                            rng.uniform(1.05, 4.0, outer)])
    zeros = radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
    coeffs = np.poly(zeros)[::-1] if zeros.size else [1.0]
    return LaurentSymbol.scalar(coeffs, d_min=int(rng.integers(-2, 3)))


def _product_of_draws(rng):
    # a product of one to three draws on 1-3 channels
    c = int(rng.integers(1, 4))
    sym = random_laurent_symbol(rng, channels=c, degree=int(rng.integers(1, 4)))
    for _ in range(int(rng.integers(0, 3))):
        sym = sym.product(random_laurent_symbol(
            rng, channels=c, degree=int(rng.integers(1, 4))))
    return sym


@pytest.mark.parametrize("draw", [_scalar_with_zeros_on_both_sides,
                                  _product_of_draws])
def test_zero_count_matches_phase_scan(draw):
    rng = np.random.default_rng(11)
    for _ in range(40):
        sym = draw(rng)
        total, max_step = _phase_scan_by_loop(_dets(sym, 2048))
        assert max_step <= np.pi / 2
        assert winding_number(sym) == round(total / (2 * np.pi))


@pytest.mark.parametrize("angle", [np.pi / 512, 1.2345])
def test_zero_near_the_circle_is_counted_at_any_angle(angle):
    # the verdict may not depend on where the zero falls against any
    # sample grid: counted at 1e-6 from the circle, refused at 1e-8
    for radius, winding in ((1 + 1e-6, 0), (1 - 1e-6, 1)):
        sym = LaurentSymbol.scalar([-radius * np.exp(1j * angle), 1.0], 0)
        assert winding_number(sym) == winding
    for radius in (1 + 1e-8, 1 - 1e-8):
        sym = LaurentSymbol.scalar([-radius * np.exp(1j * angle), 1.0], 0)
        with pytest.raises(SymbolSingular, match="close to zero"):
            winding_number(sym)


# Dense references for the stored-polynomial route: det A and ||A||_F of
# the evaluated symbol at every grid point.

def _dense_floor(sym, n):
    vals = eval_grid(sym, np.exp(2j * np.pi * np.arange(n) / n))
    norms = np.linalg.norm(vals, axis=(1, 2))
    return float((np.abs(_dets(sym, n)) / norms ** (sym.channels - 1)).min())


def _dense_certified_ratio(sym):
    norms = np.linalg.norm(sym.coeffs, axis=(1, 2))
    scale = norms.sum()
    slope = np.abs(sym.d_min + np.arange(norms.size)) @ norms
    n = VALIDATION_GRID
    while n <= CERTIFICATE_GRID_CAP:
        bound = _dense_floor(sym, n) - np.pi / n * slope
        if bound > 2.0 * current_tolerance() * scale:
            return bound / scale
        n *= 2
    return 0.0


def _random_symbol(rng):
    c, planes = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    coeffs = rng.standard_normal((planes, c, c)) \
        + 1j * rng.standard_normal((planes, c, c))
    return LaurentSymbol(coeffs=coeffs, d_min=int(rng.integers(-2, 3)))


def test_stored_polynomial_matches_the_dense_determinant_route():
    rng = np.random.default_rng(17)
    for _ in range(60):
        sym = _random_symbol(rng)
        # the stored floors are in the scaled units, a power of two
        unit = sym.norm_sum / sym._scaled_norm_sum
        assert unit == 2.0 ** round(np.log2(unit))
        assert sym._sigma_floor * unit == pytest.approx(
            _dense_floor(sym, VALIDATION_GRID), rel=1e-12)
        for n in (2 * VALIDATION_GRID, CERTIFICATE_GRID_CAP):
            assert _grid_floor(sym, n)[1] * unit == pytest.approx(
                _dense_floor(sym, n), rel=1e-12)
        assert (certified_ratio(sym) > 0) == (_dense_certified_ratio(sym) > 0)
        total, max_step = _phase_scan_by_loop(_dets(sym, CERTIFICATE_GRID_CAP))
        assert max_step <= np.pi / 2
        assert winding_number(sym) == round(total / (2 * np.pi))


@pytest.mark.parametrize("angle", [0.0, np.pi / 512, 1.2345])
def test_singular_verdicts_match_the_dense_route(angle):
    # z - (1 + delta) e^(i angle); MIN_DET * S is about 2e-8 here, and
    # every |delta| stays a factor of 5 or more away from it
    grid = np.exp(2j * np.pi * np.arange(VALIDATION_GRID) / VALIDATION_GRID)
    for delta in (-1e-6, -1e-7, -4e-9, -1e-10, 0.0, 1e-10, 4e-9, 1e-7, 1e-6):
        a = (1 + delta) * np.exp(1j * angle)
        coeffs = np.array([-a, 1.0]).reshape(2, 1, 1)
        floor = MIN_DET * (abs(a) + 1.0)
        on_grid = np.abs(_horner_by_loop(coeffs, 0, grid)).min() <= floor
        at_zero = abs(_horner_by_loop(coeffs, 0, [a / abs(a)])[0, 0, 0]) <= floor
        if on_grid:
            with pytest.raises(SymbolSingular, match="vanishes"):
                LaurentSymbol(coeffs=coeffs, d_min=0)
            continue
        sym = LaurentSymbol(coeffs=coeffs, d_min=0)
        if at_zero:
            with pytest.raises(SymbolSingular, match="close to zero"):
                winding_number(sym)
        else:
            assert winding_number(sym) == int(delta < 0)


# The winding read off the stored grid values against the roots of P
# (reference.roots_winding_number): the grid count where its Lipschitz
# bound certifies it, and numpy.roots, with its refusal, elsewhere.

@pytest.fixture
def roots_calls(monkeypatch):
    """The polynomials that numpy.roots is called on during the test."""
    calls = []
    real = np.roots
    monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or real(p))
    return calls


def _winding_and_route(sym, roots_calls):
    """(winding_number(sym), "grid" or "roots"): the route is "roots"
    when the call ran numpy.roots."""
    before = len(roots_calls)
    w = winding_number(sym)
    return w, "roots" if len(roots_calls) > before else "grid"


def _conjugated_diagonal(rng, entries):
    """U diag(z^k_i p_i(z)) V from (k_i, coefficients of p_i) pairs."""
    n = len(entries)
    d_min = min(k for k, _ in entries)
    planes = max(k - d_min + len(p) for k, p in entries)
    coeffs = np.zeros((planes, n, n), dtype=np.complex128)
    for i, (k, p) in enumerate(entries):
        coeffs[k - d_min: k - d_min + len(p), i, i] = p
    if n > 1:
        u, v = (np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
                for _ in range(2))
        coeffs = np.einsum("ij,pjk,kl->pil", u, coeffs, v)
    return LaurentSymbol(coeffs=coeffs, d_min=d_min)


def _diagonal_with_zeros(rng, channels):
    # each channel: z^k times 0-3 zeros at radius 0.05-0.95 and 0-3 at
    # radius 1.05-4
    entries = []
    for _ in range(channels):
        inner, outer = rng.integers(0, 4, size=2)
        radii = np.concatenate([rng.uniform(0.05, 0.95, inner),
                                rng.uniform(1.05, 4.0, outer)])
        zeros = radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
        entries.append((int(rng.integers(-1, 2)),
                        np.poly(zeros)[::-1] if zeros.size else [1.0]))
    return _conjugated_diagonal(rng, entries)


def _near_circle_diagonal(rng, channels, radius):
    # a zero at the given radius on channel 0 and unit constants elsewhere
    a = radius * np.exp(2j * np.pi * rng.uniform())
    return _conjugated_diagonal(
        rng, [(0, [-a, 1.0])] + [(0, [1.0])] * (channels - 1))


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_winding_matches_the_roots_route_on_zeros_both_sides(roots_calls,
                                                             channels):
    rng = np.random.default_rng(30 + channels)
    routes = set()
    for _ in range(60):
        sym = _diagonal_with_zeros(rng, channels)
        w, route = _winding_and_route(sym, roots_calls)
        assert w == roots_winding_number(sym)
        routes.add(route)
    # zeros down to 0.05 from the circle leave some counts uncertified
    assert routes == {"grid", "roots"}


def test_winding_matches_the_roots_route_on_certified_families(roots_calls):
    rng = np.random.default_rng(507060)
    syms = [_fault_symbol(rng) for _ in range(20)]
    # random_laurent_symbol's P is one coefficient plane plus rounding
    syms += [random_laurent_symbol(rng, channels=c, degree=d)
             for c in (2, 3) for d in (1, 2, 3) for _ in range(10)]
    for sym in syms:
        w, route = _winding_and_route(sym, roots_calls)
        assert (w, route) == (roots_winding_number(sym), "grid")
    assert [winding_number(s) for s in syms[:20]] == [-2] * 20


@pytest.mark.parametrize("scale", [2.0 ** 40, 2.0 ** -40, 1.7e308])
def test_winding_of_a_power_of_two_copy(roots_calls, scale):
    # graphs._fan_extras composes such copies; they share the grid values
    rng = np.random.default_rng(7)
    for sym in [_fault_symbol(rng), _diagonal_with_zeros(rng, 2),
                random_laurent_symbol(rng, channels=2, degree=2)]:
        peak = np.abs(sym.coeffs.view(np.float64)).max()
        big = LaurentSymbol(coeffs=sym.coeffs / peak * scale, d_min=sym.d_min)
        copy = big._over_power_of_two()
        assert copy._grid_values is big._grid_values
        w, route = _winding_and_route(copy, roots_calls)
        assert w == roots_winding_number(copy) == winding_number(sym)
        assert route == _winding_and_route(sym, roots_calls)[1]


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("radius, inside", [(1 + 1e-3, 0), (1 - 1e-3, 1),
                                            (1 + 1e-6, 0), (1 - 1e-6, 1)])
def test_zeros_near_the_circle_take_the_roots_route(roots_calls, channels,
                                                    radius, inside):
    rng = np.random.default_rng(3)
    for _ in range(10):
        sym = _near_circle_diagonal(rng, channels, radius)
        w, route = _winding_and_route(sym, roots_calls)
        assert (w, route) == (roots_winding_number(sym), "roots")
        assert w == inside


def test_a_long_polynomial_is_counted_past_the_cached_powers(roots_calls):
    # P = 0.01 + 0.3j z^7 + z^40 has 41 coefficients, more than the cached
    # grid powers, so its grid values take Horner's rule; its 40 zeros lie
    # within radius 0.97, and the grid certifies their count
    coefficients = np.zeros(41, dtype=np.complex128)
    coefficients[[0, 7, 40]] = 0.01, 0.3j, 1.0
    sym = LaurentSymbol.scalar(coefficients, d_min=-25)
    grid = np.exp(2j * np.pi * np.arange(VALIDATION_GRID) / VALIDATION_GRID)
    np.testing.assert_allclose(sym._grid_values,
                               np.polyval(sym._det_coeffs[::-1], grid),
                               rtol=1e-12)
    w, route = _winding_and_route(sym, roots_calls)
    assert (w, route) == (roots_winding_number(sym), "grid") == (15, "grid")


def test_cached_tables_stay_under_a_megabyte():
    from fredcorr import circles
    powers = circles._grid_powers()
    cap = circles._CACHED_POWERS
    assert powers.shape == (cap, VALIDATION_GRID)
    assert not powers.flags.writeable
    grid = np.exp(2j * np.pi * np.arange(VALIDATION_GRID) / VALIDATION_GRID)
    np.testing.assert_allclose(powers[5], grid ** 5, rtol=0, atol=1e-13)
    dft_bytes = circles._cached_dft.cache_parameters()["maxsize"] \
        * cap ** 2 * np.dtype(np.complex128).itemsize
    assert powers.nbytes + dft_bytes < 2 ** 20
    # a DFT longer than the cap is built for its symbol and not kept
    before = circles._cached_dft.cache_info()
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal((9, 3, 3)) \
        + 1j * rng.standard_normal((9, 3, 3))
    sym = LaurentSymbol(coeffs=coeffs + 4 * np.eye(3), d_min=0)
    assert sym._det_coeffs.size == 25 > cap
    assert circles._cached_dft.cache_info()[:2] == before[:2]


def _refusal(fn, sym):
    with pytest.raises(SymbolSingular) as refused:
        fn(sym)
    return str(refused.value)


def test_every_refusal_is_unchanged(roots_calls):
    # z - 1 and z + 1 vanish at grid points and are refused when built
    for coefficients in ([-1.0, 1.0], [1.0, 1.0]):
        with pytest.raises(SymbolSingular) as refused:
            LaurentSymbol.scalar(coefficients, d_min=0)
        assert str(refused.value) == \
            "symbol determinant vanishes on the circle"
    # the near-circle families of the tests above: the roots route runs
    # and refuses each with the message it gives alone
    rng = np.random.default_rng(5)
    syms = [LaurentSymbol.scalar([-r * np.exp(1j * angle), 1.0], 0)
            for angle in (np.pi / 512, 1.2345)
            for r in (1 + 1e-8, 1 - 1e-8, 1 + 4e-9, 1 - 4e-9, 1 + 1e-10)]
    syms += [_near_circle_diagonal(rng, 2, r) for r in (1 + 1e-9, 1 - 1e-9)]
    for sym in syms:
        message = _refusal(roots_winding_number, sym)
        assert message == "determinant too close to zero on the circle"
        before = len(roots_calls)
        assert _refusal(winding_number, sym) == message
        assert len(roots_calls) == before + 1


@pytest.mark.parametrize("planes, channels", [(4, 2), (3, 3), (1, 2)])
def test_symbol_determinant_is_computed_once(monkeypatch, planes, channels):
    rng = np.random.default_rng(planes * channels)
    coeffs = rng.standard_normal((planes, channels, channels)) \
        + 1j * rng.standard_normal((planes, channels, channels))
    shapes = []
    det = np.linalg.det

    def counted(a):
        shapes.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    sym = LaurentSymbol(coeffs=coeffs, d_min=-1)
    # one batch on the deg P + 1 = c * (planes - 1) + 1 points
    assert shapes == [(channels * (planes - 1) + 1, channels, channels)]
    winding_number(sym)
    certified_ratio(sym)
    assert len(shapes) == 1


@pytest.mark.parametrize("coefficients, d_min, winding", [
    ([0.75, -2.8, 1.0], 0, 1),          # (z - 0.3)(z - 2.5), fault (a)
    ([1.0, -10.0], 0, 1),
    ([2.0, 0.5j, -0.3, 0.1], -1, -1),
    ([3.0], 2, 2),
])
def test_scalar_symbol_determinant_is_its_coefficients(
        monkeypatch, coefficients, d_min, winding):
    # one channel: P is the scaled coefficients themselves, with no DFT
    # and no determinant, and it is the polynomial the DFT route finds
    calls = []
    monkeypatch.setattr(np.linalg, "det",
                        lambda a: calls.append(a) or np.ones(len(a)))
    sym = LaurentSymbol.scalar(coefficients, d_min)
    assert calls == []
    np.testing.assert_array_equal(sym._det_coeffs,
                                  sym._scaled_coeffs[:, 0, 0])
    n = sym.coeffs.shape[0]
    w = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    dft = w.conj() @ (w @ sym._scaled_coeffs[:, 0, 0]) / n
    np.testing.assert_allclose(sym._det_coeffs, dft, rtol=0, atol=1e-12)
    assert winding_number(sym) == winding
    assert calls == []


def test_circle_space_is_built_once():
    circle = LaurentCircle(6, channels=2)
    first = circle.space()
    assert circle.space() is first
    fresh = LaurentCircle(6, channels=2).space()
    assert fresh is not first
    assert fresh.window == first.window and spaces_match(fresh, first)
    np.testing.assert_array_equal(fresh.splitting.sharp.frame,
                                  first.splitting.sharp.frame)


def test_a_circle_keeps_one_window():
    circle = LaurentCircle(6, channels=2)
    assert circle.window is circle.window
    assert circle.space().window is circle.window
    # the window is derived, so it takes no part in equality or repr
    assert circle == LaurentCircle(6, channels=2)
    assert "window" not in repr(circle)


@pytest.mark.parametrize("half_width", [0, 3, 8])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_symbol_band_matrix_matches_the_loop_bit_for_bit(channels,
                                                         half_width):
    rng = np.random.default_rng([channels, half_width])
    w = ModeWindow(half_width, channels)
    for d_min, d_max in [(-1, 0), (0, 1), (-1, 1), (-2, 1), (1, 2),
                         (-3, -1), (0, 3), (-2, 2)]:
        shape = (d_max - d_min + 1, channels, channels)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[0] += 3.0 * np.eye(channels)  # keeps det A off the circle
        sym = LaurentSymbol(coeffs=coeffs, d_min=d_min)
        for to in (w.pad(sym.degree), w.pad(sym.degree + 2)):
            assert symbol_band_matrix(sym, w, to).tobytes() \
                == _band_matrix_by_loop(sym, w, to).tobytes()
