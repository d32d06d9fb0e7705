"""Windowed mode spaces and window-aware operator application.

A mode window holds Fourier-type modes ``n`` in ``[-M, M]`` for each of
``channels`` channels, laid out channel-major, so coordinate ``c * (2M+1)
+ (n + M)`` is mode ``n`` of channel ``c``.

The central primitive is :func:`restricted_image`: the image of a
subspace under an operator, intersected with the base window, then
cropped to it.  This equals the window intersection of the true image
and is what every windowed index in the package is built from; plain
projection-cropping (take the image, chop the outside rows) is not used
anywhere because it inflates dimensions for non-monomial symbols.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .subspaces import Subspace, nullspace

__all__ = [
    "ModeWindow",
    "WindowedOperator",
    "mode_span",
    "lift_frame",
    "pad_by_predicate",
    "window_rows_mask",
    "restricted_image",
    "windowed_graph",
]


@dataclass(frozen=True)
class ModeWindow:
    """Modes ``-half_width .. half_width`` in each of ``channels`` channels."""

    half_width: int
    channels: int = 1

    def __post_init__(self):
        if self.half_width < 0:
            raise InvalidInput("half_width must be nonnegative")
        if self.channels < 1:
            raise InvalidInput("channels must be positive")

    @property
    def modes_per_channel(self):
        return 2 * self.half_width + 1

    @property
    def dim(self):
        return self.channels * self.modes_per_channel

    def index_of(self, channel, n):
        if not (-self.half_width <= n <= self.half_width):
            raise InvalidInput(f"mode {n} outside window +-{self.half_width}")
        if not (0 <= channel < self.channels):
            raise InvalidInput(f"channel {channel} out of range")
        return channel * self.modes_per_channel + (n + self.half_width)

    def mode_of_index(self, i):
        if not (0 <= i < self.dim):
            raise InvalidInput("coordinate index out of range")
        c, r = divmod(i, self.modes_per_channel)
        return c, r - self.half_width

    def mode_labels(self):
        """Array of mode numbers, one per coordinate."""
        per = np.arange(-self.half_width, self.half_width + 1)
        return np.tile(per, self.channels)

    def pad(self, margin):
        """The window enlarged by ``margin`` modes on both sides."""
        if margin < 0:
            raise InvalidInput("margin must be nonnegative")
        return ModeWindow(self.half_width + margin, self.channels)


def mode_span(window, predicate):
    """Coordinate subspace of all modes whose number satisfies ``predicate``.

    The predicate sees only the mode number, so the same channels are
    selected in every channel.
    """
    labels = window.mode_labels()
    idx = [i for i in range(window.dim) if predicate(int(labels[i]))]
    return Subspace.from_indices(window.dim, idx)


def lift_frame(frame, from_window, to_window):
    """Re-index a frame over a subwindow into a larger window's layout."""
    if from_window.channels != to_window.channels:
        raise DimensionMismatch("channel counts differ")
    if from_window.half_width > to_window.half_width:
        raise DimensionMismatch("target window is smaller than source")
    frame = np.asarray(frame, dtype=np.complex128)
    if frame.shape[0] != from_window.dim:
        raise DimensionMismatch("frame does not match source window")
    out = np.zeros((to_window.dim, frame.shape[1]), dtype=np.complex128)
    shift = to_window.half_width - from_window.half_width
    per_f = from_window.modes_per_channel
    per_t = to_window.modes_per_channel
    for c in range(from_window.channels):
        out[c * per_t + shift: c * per_t + shift + per_f, :] = \
            frame[c * per_f: (c + 1) * per_f, :]
    return out


def pad_by_predicate(sub, window, margin, predicate):
    """Padded companion of a subspace of ``window``: its frame lifted into
    the window padded by ``margin``, plus every margin mode whose number
    satisfies ``predicate``.  The margin modes lie outside the lifted
    rows, so the frame stays orthonormal.

    The one builder of padded halves: ``ModelSpace.flat_padded`` and
    ``sharp_padded`` (twists, graph assemblies), the twisted cap,
    ``mv_pairing`` and ``fans.PredicatePart.padded`` all call it.  An arbitrary subspace has no canonical
    enlargement, so callers keep the base they padded themselves."""
    padded_window = window.pad(margin)
    h, per = window.half_width, padded_window.modes_per_channel
    # the predicate sees only the mode number: test each margin mode once
    margin_modes = [*range(-h - margin, -h), *range(h + 1, h + margin + 1)]
    rows = [n + h + margin for n in margin_modes if predicate(n)]
    extra = (per * np.arange(window.channels)[:, None]
             + np.array(rows, dtype=int)).ravel()
    frame = np.zeros((padded_window.dim, sub.dim + len(extra)),
                     dtype=np.complex128)
    frame[:, :sub.dim] = lift_frame(sub.frame, window, padded_window)
    frame[extra, sub.dim + np.arange(len(extra))] = 1.0
    return Subspace._trusted(frame)


def window_rows_mask(range_window, base_window):
    """Boolean mask over range-window coordinates that lie in the base."""
    if range_window.channels != base_window.channels:
        raise DimensionMismatch("channel counts differ")
    if base_window.half_width > range_window.half_width:
        raise DimensionMismatch("base window exceeds range window")
    labels = range_window.mode_labels()
    return np.abs(labels) <= base_window.half_width


def restricted_image(matrix, keep_rows):
    """Image of an operator restricted to inputs that land inside a window.

    ``matrix`` maps some domain into a long range; ``keep_rows`` is a
    boolean mask of range rows forming the window.  The result is the
    subspace of the kept coordinates reachable by inputs whose image has
    no component outside them, i.e. the window intersection of the image
    followed by the crop (which is then lossless).
    """
    m = np.asarray(matrix, dtype=np.complex128)
    keep = np.asarray(keep_rows, dtype=bool)
    if keep.shape != (m.shape[0],):
        raise DimensionMismatch("row mask does not match matrix")
    killed = m[~keep, :]
    inside = nullspace(killed)
    return Subspace.from_span(m[keep, :] @ inside)


def windowed_graph(matrix, keep_rows):
    """Graph ``{(x, Ax)}`` restricted to pairs that stay inside the window.

    ``matrix`` maps the (already windowed) domain into an extended range
    large enough that nothing is truncated; ``keep_rows`` masks the
    range rows of the target window.  Returns a subspace of
    ``domain + window`` coordinates.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    keep = np.asarray(keep_rows, dtype=bool)
    if keep.shape != (m.shape[0],):
        raise DimensionMismatch("row mask does not match matrix")
    stacked = np.vstack([np.eye(m.shape[1], dtype=np.complex128), m])
    mask = np.concatenate([np.ones(m.shape[1], dtype=bool), keep])
    return restricted_image(stacked, mask)


@dataclass(frozen=True, eq=False)
class WindowedOperator:
    """An operator from a padded window into a range window, applied with
    window-intersection semantics.

    ``matrix`` has shape (range dim, domain dim) and must be exact: the
    range window has to be large enough that no output of the symbol is
    truncated.  The base-cropped matrix is derived from it, never
    stored, because cropping first would destroy the information needed
    to intersect with the window.
    """

    domain_window: ModeWindow
    range_window: ModeWindow
    base_window: ModeWindow
    matrix: np.ndarray
    # set by circles.multiplication_operator only: the matrix's symbol
    _symbol = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.range_window.dim, self.domain_window.dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match windows "
                f"({self.range_window.dim}, {self.domain_window.dim})"
            )
        if self.base_window.channels != self.range_window.channels:
            raise DimensionMismatch("channel counts differ")
        if self.base_window.half_width > self.range_window.half_width:
            raise DimensionMismatch("base window exceeds range window")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def base_rows_mask(self):
        return window_rows_mask(self.range_window, self.base_window)

    def base_columns_mask(self):
        """Mask of padded-domain columns whose mode lies in the base."""
        return window_rows_mask(self.domain_window, self.base_window)

    def base_square(self):
        """The base-to-base compression of the operator."""
        return self.matrix[np.ix_(self.base_rows_mask(),
                                  self.base_columns_mask())]

    def apply_within_window(self, sub):
        """Window intersection of the image of ``sub``, in base coordinates."""
        if sub.ambient_dim != self.domain_window.dim:
            raise DimensionMismatch("subspace does not match operator domain")
        restricted = self.matrix @ sub.frame
        return restricted_image(restricted, self.base_rows_mask())
