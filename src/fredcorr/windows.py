"""Windowed mode spaces and window-aware operator application.

A mode window holds Fourier-type modes ``n`` in ``[-M, M]`` for each of
``channels`` channels, laid out channel-major, so coordinate ``c * (2M+1)
+ (n + M)`` is mode ``n`` of channel ``c``.

Every windowed index is decided from the window intersection of an
operator's image: the image of a subspace, intersected with the base
window, then cropped to it.  :func:`image_dim` alone decides its
dimension; :func:`restricted_image` builds it for the frames that are
still read (``WindowedOperator.apply_within_window``, fiber products).
Plain projection-cropping (take the image, chop the outside rows) is
not used anywhere because it inflates dimensions for non-monomial
symbols.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .subspaces import Subspace, current_tolerance, nullspace, rank

__all__ = [
    "ModeWindow",
    "WindowedOperator",
    "mode_span",
    "lift_frame",
    "pad_by_predicate",
    "restricted_image",
    "image_dim",
]

# The most coordinates a window can have: numpy indexes an array of at
# most this many complex (16-byte) entries.
MAX_COORDINATES = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize


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
        if self.channels * (2 * self.half_width + 1) > MAX_COORDINATES:
            raise InvalidInput(f"numpy cannot index {self.dim} coordinates")

    @property
    def modes_per_channel(self):
        return 2 * self.half_width + 1

    @property
    def dim(self):
        return self.channels * self.modes_per_channel

    def mode_labels(self):
        """The mode number of every coordinate, read-only: equal windows
        share one array (:func:`_channels_and_modes`)."""
        return _channels_and_modes(self)[1]

    def pad(self, margin):
        """The window enlarged by ``margin`` modes on both sides: one
        window per window and margin (:func:`_padded`)."""
        if margin < 0:
            raise InvalidInput("margin must be nonnegative")
        return _padded(self, margin)


def mode_span(window, predicate):
    """Coordinate subspace of all modes whose number satisfies ``predicate``.

    The predicate sees only the mode number, so the same channels are
    selected in every channel.
    """
    return Subspace._from_mask([predicate(int(n))
                                for n in window.mode_labels()])


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
    out[_lift_rows(from_window,
                   to_window.half_width - from_window.half_width)] = frame
    return out


def _margin_columns(window, margin, predicate):
    """Coordinates of the window padded by ``margin`` whose margin mode
    satisfies ``predicate``, in coordinate order."""
    h, per = window.half_width, window.modes_per_channel + 2 * margin
    # the predicate sees only the mode number: test each margin mode once
    margin_modes = [*range(-h - margin, -h), *range(h + 1, h + margin + 1)]
    rows = [n + h + margin for n in margin_modes if predicate(n)]
    return (per * np.arange(window.channels)[:, None]
            + np.array(rows, dtype=int)).ravel()


def pad_by_predicate(sub, window, margin, predicate):
    """Padded companion of a subspace of ``window``: its frame lifted into
    the window padded by ``margin``, plus every margin mode whose number
    satisfies ``predicate``.  The margin modes lie outside the lifted
    rows, so the frame stays orthonormal.  A coordinate span pads to the
    coordinate span of its lifted mask and those margin modes, whose
    columns then run in coordinate order.

    The one builder of padded halves: ``ModelSpace.flat_padded`` and
    ``sharp_padded`` (twists, graph assemblies), the twisted cap,
    ``mv_pairing`` and ``fans.fan_from_twists`` all call it, by the
    ``margin`` of the operator they feed.  An arbitrary subspace has no
    canonical enlargement, so callers keep the base they padded
    themselves."""
    if sub.ambient_dim != window.dim:
        raise DimensionMismatch("subspace does not match the window")
    n = window.channels * (window.modes_per_channel + 2 * margin)
    rows = _lift_rows(window, margin)
    extra = _margin_columns(window, margin, predicate)
    if sub._mask is not None:
        mask = np.zeros(n, dtype=bool)
        mask[rows] = sub._mask
        mask[extra] = True
        return Subspace._from_mask(mask)
    frame = np.zeros((n, sub.dim + extra.size), dtype=np.complex128)
    frame[rows, :sub.dim] = sub.frame
    frame[extra, sub.dim + np.arange(extra.size)] = 1.0
    return Subspace._trusted(frame)


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


def image_dim(op, sub, ratio):
    """Dimension of ``op.apply_within_window(sub)``, for a windowed
    operator whose sigma_min / sigma_max is at least ``ratio``.

    Above twice the current tolerance it is counted, with no image frame
    or nullspace basis: the columns of ``sub`` minus the rank of the
    operator's block at the range rows outside the window and the domain
    columns that reach them, times the same rows of ``sub`` (frame
    columns that vanish on them are dropped).  The count is exact there:
    every nullspace direction x of that product keeps |M_base x|^2 >=
    (sigma_min^2 - tol^2 sigma_max^2) |x|^2, above the orthonormalization
    cutoff.  Closer to the cutoff the image is built.

    A coordinate span's rows are unit columns, one per selected column
    that reaches the outside rows, and every other frame column vanishes
    there; a product with them only selects those columns.  So its count
    reads the block at the columns of its mask directly, entry for entry
    the product, and needs neither the rows nor the product."""
    if not ratio > 2.0 * current_tolerance():
        return op.apply_within_window(sub).dim
    out = ~op.base_rows_mask()
    cols = op.columns_reaching(out)
    if sub._mask is not None:
        return sub.dim - rank(op.entries(out, cols & sub._mask))
    rows = sub.rows(cols)
    return rows.shape[1] - rank(op.entries(out, cols)
                                @ rows[:, rows.any(axis=0)])


def _within(modes, others, lo, hi):
    """Mask of the ``modes`` n with n - k in [lo, hi] for some k in
    ``others``."""
    ks = np.sort(others)
    # some k lies in [n - hi, n - lo]
    return np.searchsorted(ks, modes - hi) < np.searchsorted(ks, modes - lo,
                                                             side="right")


@functools.lru_cache(maxsize=64)
def _channels_and_modes(window):
    """The channel and the mode number of every coordinate, read-only:
    operators on equal windows share one pair."""
    channel, pos = np.divmod(np.arange(window.dim), window.modes_per_channel)
    pos -= window.half_width
    channel.setflags(write=False)
    pos.setflags(write=False)
    return channel, pos


@functools.lru_cache(maxsize=64)
def _padded(window, margin):
    """``window.pad(margin)``, built and validated on the first call and
    then shared, as :func:`_lift_rows` is: at most 64 two-integer
    windows are kept."""
    return ModeWindow(window.half_width + margin, window.channels)


@functools.lru_cache(maxsize=64)
def _lift_rows(window, margin):
    """The row of ``window.pad(margin)`` that holds each coordinate of
    ``window``, read-only: coordinate c * per + r sits at row
    c * (per + 2 margin) + r + margin."""
    channel = _channels_and_modes(window)[0]
    rows = np.arange(window.dim) + 2 * margin * channel + margin
    rows.setflags(write=False)
    return rows


class WindowedOperator:
    """An operator from a padded window into a range window, applied with
    window-intersection semantics.

    ``matrix`` has shape (range dim, domain dim) and must be exact: the
    range window has to be large enough that no output of the symbol is
    truncated.  It is stored read-only.  The base-cropped matrix is
    derived from it, never stored, because cropping first would destroy
    the information needed to intersect with the window.

    :meth:`entries` is the one way to read a block of the matrix, and
    :meth:`columns_reaching` names the columns a block needs.  An
    operator answers both from what built it (:meth:`_lazy`): its symbol,
    by mode arithmetic; its chain, until its matrix is built; or its
    matrix.
    """

    # what built a lazy operator (:meth:`_lazy`), None otherwise
    _symbol = None
    _chain = None

    def __init__(self, domain_window, range_window, base_window, matrix):
        m = np.array(matrix, dtype=np.complex128)
        if m.shape != (range_window.dim, domain_window.dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match windows "
                f"({range_window.dim}, {domain_window.dim})"
            )
        self._set_windows(domain_window, range_window, base_window)
        m.setflags(write=False)
        self._matrix = m

    @classmethod
    def _lazy(cls, domain_window, range_window, base_window, build,
              symbol=None, chain=None):
        """Operator built from ``symbol`` or ``chain``, whose matrix
        ``build()`` returns when something first reads it."""
        op = object.__new__(cls)
        op._set_windows(domain_window, range_window, base_window)
        op._symbol, op._chain = symbol, chain
        op._build, op._matrix = build, None
        return op

    def _set_windows(self, domain_window, range_window, base_window):
        if base_window.channels != range_window.channels:
            raise DimensionMismatch("channel counts differ")
        if base_window.half_width > range_window.half_width:
            raise DimensionMismatch("base window exceeds range window")
        self.domain_window = domain_window
        self.range_window = range_window
        self.base_window = base_window
        # the channel and the mode of every range row and domain column
        self._row_channels, self._row_modes = _channels_and_modes(range_window)
        self._col_channels, self._col_modes = _channels_and_modes(domain_window)
        self._base_rows = np.abs(self._row_modes) <= base_window.half_width
        self._base_rows.setflags(write=False)

    @property
    def margin(self):
        """Modes by which the domain window pads the base window."""
        return self.domain_window.half_width - self.base_window.half_width

    @property
    def matrix(self):
        """The (range dim, domain dim) matrix, read-only."""
        if self._matrix is None:
            m = self._build()
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    def entries(self, rows, cols):
        """The block of the matrix at range ``rows`` and domain ``cols``
        (index arrays or boolean masks), as a new array.  A symbol-built
        operator copies each entry from its symbol's coefficients, as the
        band matrix does, and a chain-built one pushes the unit columns
        ``cols`` through its chain; neither reads a matrix."""
        sym = self._symbol
        if sym is not None:
            power = (self._row_modes[rows][:, None]
                     - self._col_modes[cols][None, :] - sym.d_min)
            i, j = np.nonzero((power >= 0) & (power < sym.coeffs.shape[0]))
            out = np.zeros(power.shape, dtype=np.complex128)
            out[i, j] = sym.coeffs[power[i, j], self._row_channels[rows][i],
                                   self._col_channels[cols][j]]
            return out
        if self._matrix is None and self._chain is not None:
            n = self.domain_window.dim
            idx = np.arange(n)[cols]
            unit = np.zeros((n, idx.size), dtype=np.complex128)
            unit[idx, np.arange(idx.size)] = 1.0
            return self._chain.apply(self.base_window, unit)[1][rows]
        return self.matrix[np.ix_(rows, cols)]

    def _band(self):
        # an entry can be nonzero only if its row mode minus its column
        # mode lies in [lo, hi]: the symbol's powers, or any difference
        if self._symbol is None:
            reach = self.range_window.half_width + self.domain_window.half_width
            return -reach, reach
        return self._symbol.d_min, self._symbol.d_max

    def rows_reached(self, cols):
        """Mask of the range rows in which one of the domain columns
        ``cols`` (an index array or a mask) can have a nonzero entry."""
        lo, hi = self._band()
        return _within(self._row_modes, self._col_modes[cols], lo, hi)

    def columns_reaching(self, rows):
        """Mask of the domain columns that can have a nonzero entry in one
        of the range rows ``rows`` (an index array or a mask).  A
        chain-built operator whose matrix is not built pulls the rows back
        through its chain (``fans.TwistChain._pull_back_rows``)."""
        if self._matrix is None and self._chain is not None:
            return self._chain._pull_back_rows(self.base_window, rows)
        lo, hi = self._band()
        return _within(self._col_modes, self._row_modes[rows], -hi, -lo)

    def base_rows_mask(self):
        """Mask of range rows whose mode lies in the base, read-only."""
        return self._base_rows

    def base_columns_mask(self):
        """Mask of padded-domain columns whose mode lies in the base."""
        return np.abs(self._col_modes) <= self.base_window.half_width

    def base_square(self):
        """The base-to-base compression of the operator, from its matrix."""
        return self.matrix[np.ix_(self.base_rows_mask(),
                                  self.base_columns_mask())]

    def apply_within_window(self, sub):
        """Window intersection of the image of ``sub``, in base coordinates."""
        if sub.ambient_dim != self.domain_window.dim:
            raise DimensionMismatch("subspace does not match operator domain")
        restricted = self.matrix @ sub.frame
        return restricted_image(restricted, self.base_rows_mask())
