"""Tests for mode windows and window-aware operator application."""

import numpy as np
import pytest

from fredcorr.errors import DimensionMismatch, InvalidInput
from fredcorr.subspaces import Subspace
from fredcorr.windows import (
    ModeWindow,
    WindowedOperator,
    lift_frame,
    mode_span,
    pad_by_predicate,
    restricted_image,
    window_rows_mask,
)

from reference import contains, coord, windowed_graph


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
    img = restricted_image(m, window_rows_mask(rng_w, base))
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
    img = restricted_image(m, window_rows_mask(rng_w, base))
    # x = a e_{-1} + b e_0 + c e_1 maps to a e_{-1} + (a+b) e_0 + (b+c) e_1 + c e_2;
    # staying inside forces c = 0, leaving a 2-dim image
    assert img.dim == 2


def test_windowed_graph_of_shift():
    # range must be wide enough that no image mode is truncated
    base = ModeWindow(3)
    rng_w = ModeWindow(5)
    for k in (-2, 0, 2):
        m = shift_matrix(base, rng_w, k)
        g = windowed_graph(m, window_rows_mask(rng_w, base))
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
