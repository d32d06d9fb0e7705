"""Tests for mode windows and window-aware operator application."""

import numpy as np
import pytest

from fredcorr import circles, fans, graphs
from fredcorr.circles import (LaurentSymbol, certified_ratio,
                              multiplication_operator, symbol_twist,
                              twist_circle)
from fredcorr.errors import DimensionMismatch, InvalidInput
from fredcorr.subspaces import Subspace, current_tolerance, random_subspace
from fredcorr.windows import (
    MAX_COORDINATES,
    ModeWindow,
    WindowedOperator,
    image_dim,
    lift_frame,
    mode_span,
    pad_by_predicate,
    restricted_image,
)

from reference import (contains, coord, in_base, lift_by_channel,
                       lifted_rows, mode_at, pad_by_channel, product_image_dim,
                       windowed_graph)


def shift_matrix(src, dst, k):
    """Matrix of multiplication by z^k from window src into window dst."""
    m = np.zeros((dst.dim, src.dim), dtype=np.complex128)
    for c in range(src.channels):
        for n in range(-src.half_width, src.half_width + 1):
            if -dst.half_width <= n + k <= dst.half_width:
                m[coord(dst, c, n + k), coord(src, c, n)] = 1.0
    return m


def test_window_layout_roundtrip():
    w = ModeWindow(3, channels=2)
    assert w.dim == 14
    assert w.modes_per_channel == 7
    # channel-major: coordinate c * 7 + n + 3 is mode n of channel c
    labels = w.mode_labels()
    assert np.array_equal(labels, np.tile(np.arange(-3, 4), 2))


def test_window_validation():
    with pytest.raises(InvalidInput):
        ModeWindow(-1)
    with pytest.raises(InvalidInput):
        ModeWindow(2, channels=0)


@pytest.mark.parametrize("half_width, channels", [
    (MAX_COORDINATES // 2 + 1, 1),
    (2 ** 61, 1),
    # 2 ** 63 - 1 coordinates, where np.arange returns an empty array
    (2 ** 62 - 1, 1),
    (2 ** 63, 1),
    (10 ** 20, 1),
    (0, MAX_COORDINATES + 1),
])
def test_window_beyond_numpy_indexing_is_refused(half_width, channels):
    with pytest.raises(InvalidInput, match="numpy cannot index"):
        ModeWindow(half_width, channels)
    with pytest.raises(InvalidInput, match="numpy cannot index"):
        ModeWindow(1, channels).pad(half_width)


def test_window_at_numpy_indexing_limit_is_kept():
    # only the description: nothing allocates coordinates for it
    w = ModeWindow((MAX_COORDINATES - 1) // 2)
    assert w.dim == MAX_COORDINATES


@pytest.mark.parametrize("half_width, channels", [(0, 1), (1, 2), (5, 3)])
def test_mode_labels_are_one_shared_read_only_array(half_width, channels):
    w = ModeWindow(half_width, channels)
    labels = w.mode_labels()
    assert ModeWindow(half_width, channels).mode_labels() is labels
    assert not labels.flags.writeable
    per = w.modes_per_channel
    np.testing.assert_array_equal(
        labels, np.arange(w.dim) % per - half_width)
    assert labels.tolist() == [mode_at(w, i)[1] for i in range(w.dim)]


@pytest.mark.parametrize("half_width", [0, 1, 5])
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("margin", [0, 1, 2, 3, 4])
def test_lift_map_matches_the_per_channel_formulas(half_width, channels,
                                                   margin):
    window = ModeWindow(half_width, channels)
    padded = window.pad(margin)
    rng = np.random.default_rng(100 * half_width + 10 * channels + margin)
    frame = rng.standard_normal((window.dim, 2)) \
        + 1j * rng.standard_normal((window.dim, 2))
    np.testing.assert_array_equal(lift_frame(frame, window, padded),
                                  lift_by_channel(frame, window, padded))
    idx = np.arange(window.dim)
    np.testing.assert_array_equal(fans._interior_rows(idx, window, padded),
                                  lifted_rows(idx, window, padded))
    subset = rng.permutation(window.dim)[:window.dim // 2]
    np.testing.assert_array_equal(fans._interior_rows(subset, window, padded),
                                  lifted_rows(subset, window, padded))
    # the lifted rows hold the same modes on the same channels
    at = [mode_at(window, i) for i in idx]
    assert [mode_at(padded, r) for r in lifted_rows(idx, window, padded)] == at
    framed = Subspace.from_span(frame)
    masked = mode_span(window, lambda n: n % 2 == 0)
    for pred in (lambda n: n < 0, lambda n: n % 3 == 0):
        np.testing.assert_array_equal(
            pad_by_predicate(framed, window, margin, pred).frame,
            pad_by_channel(framed, window, margin, pred))
        np.testing.assert_array_equal(
            pad_by_predicate(masked, window, margin, pred)._mask,
            pad_by_channel(masked, window, margin, pred))


def test_pad_by_predicate_refuses_another_window():
    sub = mode_span(ModeWindow(3), lambda n: n >= 0)
    for s in (sub, Subspace(sub.frame)):
        with pytest.raises(DimensionMismatch):
            pad_by_predicate(s, ModeWindow(2), 1, lambda n: n >= 0)


def test_mode_span_and_interval():
    w = ModeWindow(4)
    nonneg = mode_span(w, lambda n: n >= 0)
    assert nonneg.dim == 5
    inner = mode_span(w, lambda n: -1 <= n <= 1)
    assert inner.dim == 3
    assert contains(inner, np.eye(w.dim)[coord(w, 0, 0)])
    two = ModeWindow(4, channels=2)
    assert mode_span(two, lambda n: n >= 0).dim == 10


def test_lift_frame_places_modes():
    small = ModeWindow(1)
    big = ModeWindow(3)
    sub = mode_span(small, lambda n: 0 <= n <= 1)
    lifted = Subspace(lift_frame(sub.frame, small, big))
    assert lifted.ambient_dim == big.dim
    assert contains(lifted, np.eye(big.dim)[coord(big, 0, 0)])
    assert contains(lifted, np.eye(big.dim)[coord(big, 0, 1)])
    with pytest.raises(DimensionMismatch):
        lift_frame(sub.frame, big, small)


def test_restricted_image_shift():
    # multiplication by z on [-2,2], range [-3,3], base [-2,2]:
    # inputs with image inside the base are modes -2..1
    base = ModeWindow(2)
    rng_w = ModeWindow(3)
    m = shift_matrix(base, rng_w, 1)
    img = restricted_image(m, in_base(rng_w, base))
    assert img.dim == 4
    assert contains(img, np.eye(base.dim)[coord(base, 0, -1)])
    assert contains(img, np.eye(base.dim)[coord(base, 0, 2)])
    assert not contains(img, np.eye(base.dim)[coord(base, 0, -2)])


def test_restricted_image_mixing_is_window_intersection():
    # operator 1 + z: the image of the span of e_1, e_2 (modes) inside
    # a 2-mode window keeps only combinations with no outside leak
    base = ModeWindow(1)
    rng_w = ModeWindow(2)
    m = shift_matrix(base, rng_w, 0) + shift_matrix(base, rng_w, 1)
    img = restricted_image(m, in_base(rng_w, base))
    # x = a e_{-1} + b e_0 + c e_1 maps to a e_{-1} + (a+b) e_0 + (b+c) e_1 + c e_2;
    # staying inside forces c = 0, leaving a 2-dim image
    assert img.dim == 2


def test_windowed_graph_of_shift():
    # range must be wide enough that no image mode is truncated
    base = ModeWindow(3)
    rng_w = ModeWindow(5)
    for k in (-2, 0, 2):
        m = shift_matrix(base, rng_w, k)
        g = windowed_graph(m, in_base(rng_w, base))
        assert g.ambient_dim == 2 * base.dim
        assert g.dim == base.dim - abs(k)


def test_windowed_operator_apply():
    base = ModeWindow(2)
    padded = ModeWindow(3)
    rng_w = ModeWindow(4)
    m = shift_matrix(padded, rng_w, 1)
    op = WindowedOperator(domain_window=padded, range_window=rng_w,
                          base_window=base, matrix=m)
    # padded flat: modes -3..-1, shifted to -2..0, all inside base
    flat_pad = mode_span(padded, lambda n: n < 0)
    img = op.apply_within_window(flat_pad)
    assert img.dim == 3
    assert contains(img, np.eye(base.dim)[coord(base, 0, 0)])


def test_windowed_operator_validation():
    base = ModeWindow(2)
    with pytest.raises(DimensionMismatch):
        WindowedOperator(domain_window=base, range_window=base,
                         base_window=ModeWindow(3), matrix=np.eye(base.dim))
    with pytest.raises(DimensionMismatch):
        WindowedOperator(domain_window=base, range_window=base,
                         base_window=base, matrix=np.eye(3))


def test_padded_subspace_validation():
    # a padded companion from pad_by_predicate: the lifted base first,
    # then the margin modes the predicate keeps on every channel, and an
    # orthonormal frame
    base_w = ModeWindow(2, channels=2)
    pad_w = base_w.pad(1)
    rng = np.random.default_rng(4)
    sub = Subspace.from_span(rng.standard_normal((base_w.dim, 3)))
    padded = pad_by_predicate(sub, base_w, 1, lambda n: n < 0)
    assert padded.ambient_dim == pad_w.dim and padded.dim == 3 + 2
    np.testing.assert_array_equal(padded.frame[:, :3],
                                  lift_frame(sub.frame, base_w, pad_w))
    for c in range(2):
        assert contains(padded, np.eye(pad_w.dim)[coord(pad_w, c, -3)])
        assert not contains(padded, np.eye(pad_w.dim)[coord(pad_w, c, 3)])
    Subspace(padded.frame)
    assert pad_by_predicate(sub, base_w, 0, lambda n: True).dim == 3


def padded_by_loop(sub, window, margin, predicate):
    """Reference padded companion: every coordinate of the padded window
    tested one at a time."""
    padded_window = window.pad(margin)
    labels = padded_window.mode_labels()
    extra = [i for i in range(padded_window.dim)
             if abs(int(labels[i])) > window.half_width
             and predicate(int(labels[i]))]
    frame = np.zeros((padded_window.dim, sub.dim + len(extra)),
                     dtype=np.complex128)
    frame[:, :sub.dim] = lift_frame(sub.frame, window, padded_window)
    frame[extra, sub.dim + np.arange(len(extra))] = 1.0
    return frame


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("half_width, margin", [(0, 2), (2, 0), (2, 1), (3, 4)])
@pytest.mark.parametrize("predicate", [lambda n: n < 0, lambda n: n >= 0,
                                       lambda n: n % 2 == 0, lambda n: False])
def test_pad_by_predicate_tests_only_the_margin(channels, half_width, margin,
                                                predicate):
    window = ModeWindow(half_width, channels)
    rng = np.random.default_rng(half_width + margin)
    sub = Subspace.from_span(rng.standard_normal((window.dim, 2)))
    seen = []

    def spy(n):
        seen.append(n)
        return predicate(n)

    padded = pad_by_predicate(sub, window, margin, spy)
    np.testing.assert_array_equal(
        padded.frame, padded_by_loop(sub, window, margin, predicate))
    assert sorted(seen) == [n for n in range(-half_width - margin,
                                             half_width + margin + 1)
                            if abs(n) > half_width]
    # a coordinate span pads to the mask of the same span
    coords = mode_span(window, lambda n: n % 3 == 0)
    masked = pad_by_predicate(coords, window, margin, predicate)
    np.testing.assert_array_equal(
        masked._mask, padded_by_loop(coords, window, margin,
                                     predicate).any(axis=1))
    # any rows of either frame, as an index array or a mask
    dim = window.pad(margin).dim
    for rows in (rng.permutation(dim)[:dim // 2], rng.random(dim) < 0.4,
                 np.arange(dim)):
        for half in (masked, padded):
            np.testing.assert_array_equal(half.rows(rows), half.frame[rows])


def zeros_on_both_sides(rng, channels):
    """U diag((z - a_i)(z - b_i)) V z^d with |a_i| in [0.1, 0.5] and
    |b_i| in [2, 4]: a determinant with zeros inside and outside the
    circle; U and V are unitary on more than one channel."""
    coeffs = np.zeros((3, channels, channels), dtype=np.complex128)
    for i in range(channels):
        a, b = (rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())
                for lo, hi in ((0.1, 0.5), (2.0, 4.0)))
        coeffs[:, i, i] = (a * b, -(a + b), 1.0)
    if channels > 1:
        u, v = (np.linalg.qr(rng.standard_normal((channels, channels))
                             + 1j * rng.standard_normal((channels,
                                                         channels)))[0]
                for _ in range(2))
        coeffs = u @ coeffs @ v
    return LaurentSymbol(coeffs=coeffs, d_min=int(rng.integers(-1, 2)))


def spy_rows(monkeypatch):
    """The calls of ``Subspace.rows``, recorded as they pass through."""
    calls = []
    real = Subspace.rows

    def spy(sub, rows):
        calls.append(sub)
        return real(sub, rows)

    monkeypatch.setattr(Subspace, "rows", spy)
    return calls


def assert_span_count_is_the_product(monkeypatch, op, sub, ratio):
    assert sub._mask is not None and ratio > 2.0 * current_tolerance()
    calls = spy_rows(monkeypatch)
    got = image_dim(op, sub, ratio)
    assert calls == []
    monkeypatch.undo()
    assert got == product_image_dim(op, sub)
    return got


# the fault-(a) symbol (z - 0.3)(z - 2.5), and three symbols with zeros
# on both sides of the circle in every channel
@pytest.mark.parametrize("channels, seed", [(1, None), (1, 0), (2, 1),
                                            (3, 2)])
@pytest.mark.parametrize("half_width", [8, 32])
def test_span_count_equals_the_product_on_symbol_twists(
        monkeypatch, channels, seed, half_width):
    sym = (LaurentSymbol.scalar([0.75, -2.8, 1.0], 0) if seed is None
           else zeros_on_both_sides(np.random.default_rng(seed), channels))
    t = symbol_twist(sym, twist_circle(half_width, channels=channels))
    for half in (t.base.flat_padded(t.margin), t.base.sharp_padded(t.margin)):
        assert_span_count_is_the_product(monkeypatch, t.operator, half,
                                         certified_ratio(sym))


@pytest.mark.parametrize("seed", range(10))
def test_span_count_equals_the_product_on_graph_members(monkeypatch, seed):
    # both routes' members: each recipe, and each recipe followed by the
    # edge slots of the fan route, on its padded incoming assembly
    g = graphs.random_graph(np.random.default_rng(seed))
    counted = 0
    for v in g.vertices:
        window = graphs._vertex_window(g, v)
        for extras in ((), graphs._fan_extras(g, v)):
            chain = g.vertex_data[v].then(*extras)
            op = chain.realize(window)
            half = graphs._assembly(g, v, "in", op.margin)
            assert_span_count_is_the_product(
                monkeypatch, op, half, chain.certified_ratio(window))
            counted += 1
    assert counted == 2 * len(g.vertices)


@pytest.mark.parametrize("half_width", [8, 32])
def test_span_count_equals_the_product_on_caps_and_pairings(
        monkeypatch, half_width):
    # every count the generic twisted cap and the boundary pairing take
    seen = []
    real = circles.image_dim

    def record(op, sub, ratio):
        seen.append((op, sub, ratio))
        return real(op, sub, ratio)

    monkeypatch.setattr(circles, "image_dim", record)
    rng = np.random.default_rng(half_width)
    pair = circles.sphere_hardy_pair(half_width)
    for _ in range(3):
        sym = zeros_on_both_sides(rng, 1)
        circles.twisted_cap(circles.chain_circle(half_width), sym)
        circles.mv_pairing(pair, sym, 1)
        circles.mv_pairing(pair, zeros_on_both_sides(rng, 2), 2)
    monkeypatch.undo()
    assert len(seen) == 9
    for op, sub, ratio in seen:
        assert_span_count_is_the_product(monkeypatch, op, sub, ratio)


def test_framed_sub_keeps_the_product_route(monkeypatch):
    # a subspace that is no coordinate span is counted by the product
    # with its rows, and agrees with the built image
    rng = np.random.default_rng(5)
    sym = zeros_on_both_sides(rng, 2)
    op = multiplication_operator(sym, ModeWindow(6, 2))
    ratio = certified_ratio(sym)
    for k in (3, 12, op.domain_window.dim - 4):
        sub = random_subspace(op.domain_window.dim, k, rng)
        assert sub._mask is None
        calls = spy_rows(monkeypatch)
        got = image_dim(op, sub, ratio)
        assert calls == [sub]
        monkeypatch.undo()
        assert got == product_image_dim(op, sub) \
            == op.apply_within_window(sub).dim
