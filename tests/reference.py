"""Small readers and dense references shared by the test files: the
coordinate of a window mode, membership of a vector in a subspace, a
twist re-based onto another splitting, a graph vertex's member built
as a frame (what ``graphs._member_dim`` counts without building), and
the boundary pairing with its twisted image built (what
``circles.mv_pairing`` counts)."""

import numpy as np

from fredcorr import graphs
from fredcorr.circles import multiplication_operator
from fredcorr.morphisms import Twist
from fredcorr.subspaces import Subspace, dimension_index, direct_sum
from fredcorr.windows import (ModeWindow, pad_by_predicate, restricted_image,
                              window_rows_mask)


def coord(window, channel, n):
    """The coordinate of mode ``n`` on ``channel``: the channel-major
    layout c * (2M + 1) + n + M."""
    assert -window.half_width <= n <= window.half_width
    assert 0 <= channel < window.channels
    return channel * window.modes_per_channel + n + window.half_width


def mode_at(window, i):
    """(channel, mode) of coordinate ``i``, the inverse of :func:`coord`."""
    assert 0 <= i < window.dim
    c, r = divmod(i, window.modes_per_channel)
    return c, r - window.half_width


def contains(sub, other):
    """Whether ``other`` (a Subspace or a vector) lies inside ``sub``:
    its normalized residual off ``sub`` stays below 1e-8."""
    if isinstance(other, Subspace):
        vecs = other.frame
    else:
        v = np.asarray(other, dtype=np.complex128).reshape(-1, 1)
        vecs = v / np.linalg.norm(v)
    assert vecs.shape[0] == sub.ambient_dim
    resid = vecs - sub.frame @ (sub.frame.conj().T @ vecs)
    return not resid.size or float(np.abs(resid).max()) < 1e-8


def rebased(t, splitting):
    """The twist ``t`` over its base space with another splitting, with
    no commutator budget (a perturbation inflates the commutator)."""
    return Twist(base=t.base.with_splitting(splitting), operator=t.operator)


def pushed_assembly(g, v, extras=()):
    """The padded incoming assembly pushed through the vertex recipe
    followed by ``extras``: (chain, base window, image, mask of the image
    rows inside the base window)."""
    chain = g.vertex_data[v].then(*extras)
    window = graphs._vertex_window(g, v)
    frame = graphs._assembly(g, v, "in", margin=chain.margin).frame
    cur, image = chain.apply(window, frame)
    return chain, window, image, window_rows_mask(cur, window)


def vertex_subspace(g, v):
    """The boundary-value subspace of a vertex: its data, or the window
    intersection of its recipe applied to the padded incoming assembly."""
    data = g.vertex_data[v]
    if isinstance(data, Subspace):
        return data
    if graphs._vertex_window(g, v) is None:
        return Subspace.zero(0)
    if not data.factors:
        return graphs._assembly(g, v, "in")
    _, _, image, keep = pushed_assembly(g, v)
    return restricted_image(image, keep)


def built_mv_pairing(sphere_pair, sym, n):
    """``circles.mv_pairing`` with the twisted image of the padded n-fold
    negative half built and orthonormalized (``apply_within_window``)."""
    h_minus, h_plus = sphere_pair
    half = h_minus.ambient_dim // 2
    window = ModeWindow(half, channels=n)
    op = multiplication_operator(sym, window)
    padded = pad_by_predicate(direct_sum(*[h_minus] * n), window,
                              op.domain_window.half_width - half,
                              lambda m: m < 0)
    twisted = dimension_index(op.apply_within_window(padded),
                              direct_sum(*[h_plus] * n))
    return twisted - n * dimension_index(h_minus, h_plus)
