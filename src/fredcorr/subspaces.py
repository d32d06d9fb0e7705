"""Exact subspace calculus on finite dimensional complex mode spaces.

A subspace is an explicit orthonormal frame; every index in the package
is an integer obtained from ranks of small dense matrices, so the same
quantity computed along two different routes must agree exactly.

The decision thresholds are set so that the synthetic families used in
the package keep their principal angles out of the ambiguous band; when
a cosine lands in that band anyway, the intersection switches to a
nullspace route with an absolute threshold, which resolves moderately
small angles correctly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput

__all__ = [
    "DEFAULT_TOL",
    "ANGLE_TOL",
    "AMBIGUITY_BAND",
    "FRAME_ATOL",
    "PROJECTOR_ATOL",
    "POLARIZATION_CUTOFF",
    "MIN_DET",
    "current_tolerance",
    "Subspace",
    "PairIndexReport",
    "orthonormalize",
    "singular_values",
    "rank",
    "nullspace",
    "intersection",
    "subspace_sum",
    "complement",
    "dimension_index",
    "pair_index",
    "principal_cosines",
    "direct_sum",
    "subspaces_equal",
    "random_subspace",
]

# Every decision threshold of the package, each with its reason.  Only
# DEFAULT_TOL moves (``--tol``, ``FREDCORR_TOL``); the rest are fixed.
# Relative singular value cutoff, on the matrix over a power of two.
DEFAULT_TOL = 1e-9
# A principal cosine above 1 - ANGLE_TOL is an intersection direction.
ANGLE_TOL = 1e-9
# A cosine gap 1 - sigma in (FRAME_ATOL, AMBIGUITY_BAND) sends the
# intersection to its nullspace route instead of a silent decision.
AMBIGUITY_BAND = 1e-6
# Gram defect a checked frame may carry per ten ambient coordinates (at
# least once), and the cosine gap below which a direction is exact.
FRAME_ATOL = 1e-12
# Overlap sharp^H flat a checked splitting, or two fan parts, may carry.
PROJECTOR_ATOL = 1e-10
# Singular values of a projector difference lie in [0, 1], so a relative
# cutoff would count every slightly tilted mode; a direction counts
# toward the polarization defect only when tilted past 30 degrees.
POLARIZATION_CUTOFF = 0.5
# A symbol is singular where |det| at a grid point or a zero's nearest
# circle point is at most MIN_DET times the largest value |det| can take.
MIN_DET = 1e-8


def current_tolerance():
    """The relative cutoff in force right now (flag/env overrides rebind
    the module value, so read it dynamically rather than importing it)."""
    return DEFAULT_TOL


def _svd(a, full_matrices=False, compute_uv=True):
    # the divide-and-conquer driver occasionally refuses benign inputs;
    # the transposed problem takes a different reduction and converges
    try:
        return np.linalg.svd(a, full_matrices=full_matrices,
                             compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        out = np.linalg.svd(a.conj().T, full_matrices=full_matrices,
                            compute_uv=compute_uv)
        if not compute_uv:
            return out
        u2, s2, vh2 = out
        return vh2.conj().T, s2, u2.conj().T


def _power_of_two_scaled(a):
    """(a / 2**e, e), 2**e the largest power of two not above the largest
    |real or imaginary part| of ``a`` (e = 0 if that is 0 or not finite):
    exact, with no square overflowing or underflowing in an SVD."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    peak = np.abs(parts).max(initial=0.0)
    e = math.frexp(peak)[1] - 1 if 0.0 < peak < np.inf else 0
    return np.ldexp(parts, -e).view(np.complex128), e


def singular_values(a):
    """Singular values of ``a``, descending, with :func:`_svd`'s fallback."""
    return _svd(a, compute_uv=False)


def orthonormalize(matrix):
    """Orthonormal basis of the column span of ``matrix``.

    Singular directions below the relative tolerance times the largest
    singular value are dropped.  The result has shape ``(n, r)`` with
    ``r`` the numeric rank; a zero or empty input yields shape ``(n, 0)``.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidInput("expected a 2d array of column vectors")
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = _svd(_power_of_two_scaled(a)[0])
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    r = int(np.count_nonzero(s > DEFAULT_TOL * s[0]))
    return u[:, :r]


def rank(matrix, absolute_tol=None):
    """Numeric rank with a relative singular value cutoff.

    ``absolute_tol`` switches to a direct comparison, for callers that
    need the cutoff on the same scale as some other classification.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.size == 0:
        return 0
    if absolute_tol is None:
        a = _power_of_two_scaled(a)[0]
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    cut = DEFAULT_TOL * s[0] if absolute_tol is None else absolute_tol
    return int(np.count_nonzero(s > cut))


def nullspace(matrix, absolute_tol=None):
    """Orthonormal basis of the kernel of ``matrix``.

    With ``absolute_tol`` set, singular values are compared against it
    directly instead of relative to the largest one.  Returns an
    ``(n, k)`` array whose columns span the kernel.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidInput("expected a 2d array")
    n = a.shape[1]
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if a.shape[0] == 0:
        return np.eye(n, dtype=np.complex128)
    cut = absolute_tol
    if cut is None:
        a = _power_of_two_scaled(a)[0]
    _, s, vh = _svd(a, full_matrices=True)
    if cut is None:
        cut = DEFAULT_TOL * s[0] if s.size and s[0] > 0 else np.inf
    r = int(np.count_nonzero(s > cut))
    return vh[r:].conj().T


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n: an orthonormal frame of shape (n, k), the mask
    of a coordinate span, or a record of its shape.

    ``k = 0`` frames are legal and represent the zero subspace.

    ``Subspace(frame)`` checks the Gram matrix, for frames from outside.
    Frames that are orthonormal by construction skip it via
    :meth:`_trusted`: SVD factors (``from_span``, ``intersection``,
    ``complement``, ``restricted_image`` and so fiber products) and
    valid frames placed on disjoint rows (``direct_sum`` and
    ``windows.pad_by_predicate`` of dense blocks).  So do the frames
    that records build.

    A coordinate span (``from_indices``, ``zero``, ``full``,
    :meth:`_from_mask`) is kept as its read-only boolean mask ``_mask``,
    which is None on every other subspace.  Its frame, one unit column
    per selected direction in coordinate order, is built on the first
    read of ``frame`` and then kept; ``dim``, ``ambient_dim``,
    :meth:`rows` and the routes that meet coordinate spans read the mask.

    A record (:meth:`_recorded`) keeps a counted ``(ambient_dim, dim)``
    and the builder of its frame: the graph of Q = diag(q^mode) of
    ``morphisms.Correspondence._diagonal``, the same graph with its
    halves swapped in ``graphs.sphere_path_graph``, a link pulled back by
    such a diagonal in ``morphisms.compose``, and the generic
    ``circles.twisted_cap``.  Its frame is built on the first read of
    ``frame``, which raises when the built frame's shape is not the
    recorded one, and then kept.
    """

    frame: np.ndarray
    _mask = None
    # (ambient_dim, dim) of a coordinate span or a record, else None
    _shape = None
    # a record's frame builder, until it has run
    _build = None

    def __post_init__(self):
        q = np.asarray(self.frame, dtype=np.complex128)
        if q.ndim != 2:
            raise InvalidInput("subspace frame must be a 2d array")
        if q.shape[1] > q.shape[0]:
            raise InvalidInput("frame has more columns than ambient dimension")
        if q.shape[1] > 0:
            defect = np.abs(q.conj().T @ q - np.eye(q.shape[1])).max()
            # negated so that a NaN defect is refused too
            if not defect <= FRAME_ATOL * max(1.0, q.shape[0] / 10):
                raise InvalidInput("frame columns are not orthonormal")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "frame", q)

    @classmethod
    def _trusted(cls, frame):
        """Unchecked wrap of a fresh, orthonormal-by-construction frame."""
        q = np.ascontiguousarray(frame, dtype=np.complex128)
        q.setflags(write=False)
        sub = object.__new__(cls)
        object.__setattr__(sub, "frame", q)
        return sub

    @classmethod
    def _recorded(cls, ambient_dim, dim, build):
        """Subspace of the counted dimension ``dim`` in C^ambient_dim,
        whose orthonormal frame ``build()`` returns on the first read."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "_shape", (ambient_dim, dim))
        object.__setattr__(sub, "_build", build)
        return sub

    def __getattr__(self, name):
        # only a coordinate span or a record reaches here for its frame,
        # on first read
        if name != "frame" or self._shape is None:
            raise AttributeError(name)
        if self._mask is not None:
            q = self.rows(slice(None))
        else:
            q = np.ascontiguousarray(self._build(), dtype=np.complex128)
            if q.shape != self._shape:
                raise DimensionMismatch(
                    f"built frame has shape {q.shape}, the record "
                    f"counts {self._shape}")
            object.__setattr__(self, "_build", None)
        q.setflags(write=False)
        object.__setattr__(self, "frame", q)
        return q

    @property
    def ambient_dim(self):
        return self.frame.shape[0] if self._shape is None else self._shape[0]

    @property
    def dim(self):
        return self.frame.shape[1] if self._shape is None else self._shape[1]

    def rows(self, rows):
        """The rows ``rows`` (an index array, a mask or a slice) of the
        frame; a coordinate span builds them from its mask alone."""
        mask = self._mask
        if mask is None:
            return self.frame[rows]
        coords = np.arange(mask.size)[rows]
        hit = mask[coords]
        # the frame column of a selected coordinate counts the ones before it
        cols = np.cumsum(mask)[coords[hit]] - 1
        out = np.zeros((coords.size, self._shape[1]), dtype=np.complex128)
        out[np.flatnonzero(hit), cols] = 1.0
        return out

    @classmethod
    def from_span(cls, matrix):
        """Subspace spanned by the columns of an arbitrary matrix."""
        return cls._trusted(orthonormalize(matrix))

    @classmethod
    def zero(cls, ambient_dim):
        return cls._from_mask(np.zeros(ambient_dim, dtype=bool))

    @classmethod
    def full(cls, ambient_dim):
        return cls._from_mask(np.ones(ambient_dim, dtype=bool))

    @classmethod
    def from_indices(cls, ambient_dim, indices):
        """Coordinate subspace spanned by the listed basis directions."""
        idx = np.asarray(indices, dtype=int)
        if idx.size != np.unique(idx).size:
            raise InvalidInput("duplicate coordinate indices")
        if idx.size and (idx.min() < 0 or idx.max() >= ambient_dim):
            raise InvalidInput("coordinate index out of range")
        mask = np.zeros(ambient_dim, dtype=bool)
        mask[idx] = True
        return cls._from_mask(mask)

    @classmethod
    def _from_mask(cls, mask):
        """Coordinate subspace of the directions a boolean mask selects:
        a read-only copy of the mask and its count, and no frame yet."""
        mask = np.array(mask, dtype=bool)
        mask.setflags(write=False)
        sub = object.__new__(cls)
        object.__setattr__(sub, "_mask", mask)
        object.__setattr__(sub, "_shape",
                           (mask.size, int(np.count_nonzero(mask))))
        return sub

    def projector(self):
        """The orthogonal projector onto this subspace as a dense matrix."""
        return self.frame @ self.frame.conj().T


def _check_same_ambient(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def principal_cosines(a, b):
    """Cosines of the principal angles between two subspaces, descending."""
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return np.zeros(0)
    s = singular_values(a.frame.conj().T @ b.frame)
    return np.clip(s, 0.0, 1.0)


def _intersection_nullspace(a, b):
    # Absolute threshold: a pair of unit vectors at principal angle theta
    # maps to a stacked singular value of about sqrt(1 - cos theta).
    stacked = np.hstack([a.frame, -b.frame])
    null = nullspace(stacked, absolute_tol=np.sqrt(2.0 * ANGLE_TOL))
    if null.shape[1] == 0:
        return Subspace.zero(a.ambient_dim)
    return Subspace.from_span(a.frame @ null[: a.dim, :])


def intersection(a, b):
    """Intersection of two subspaces of the same ambient space.

    Principal cosines indistinguishable from 1 select the intersection
    directions; any cosine inside the ambiguous band reroutes the whole
    computation through the stacked nullspace, whose answer wins.
    """
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    m = a.frame.conj().T @ b.frame
    u, s, _ = _svd(m)
    s = np.clip(s, 0.0, 1.0)
    gap = 1.0 - s
    if np.any((gap > FRAME_ATOL) & (gap < AMBIGUITY_BAND)):
        return _intersection_nullspace(a, b)
    keep = int(np.count_nonzero(s > 1.0 - ANGLE_TOL))
    if keep == 0:
        return Subspace.zero(a.ambient_dim)
    return Subspace._trusted(a.frame @ u[:, :keep])


def subspace_sum(a, b):
    """Span of the union of two subspaces."""
    _check_same_ambient(a, b)
    return Subspace.from_span(np.hstack([a.frame, b.frame]))


def complement(a):
    """Orthogonal complement, via the full SVD of the frame."""
    if a.dim == 0:
        return Subspace.full(a.ambient_dim)
    u, _, _ = _svd(a.frame, full_matrices=True)
    return Subspace._trusted(u[:, a.dim:])


@dataclass(frozen=True)
class PairIndexReport:
    """Integer invariants of a pair of subspaces in common ambient space."""

    dim_first: int
    dim_second: int
    ambient_dim: int
    dim_intersection: int
    codim_sum: int
    index: int


def dimension_index(a, b):
    """Index of a pair counted from dimensions: dim a + dim b - ambient.

    In finite dimension this is the value of :func:`pair_index`, so the
    only decisions behind it are the rank decisions that built ``a`` and
    ``b``.  The pair kind's inclusion and restriction routes return it,
    since the rank in each cancels; the other index routes take the same
    count inline, from dimensions they read without building both
    subspaces.  :func:`pair_index` is the audit.
    """
    _check_same_ambient(a, b)
    return a.dim + b.dim - a.ambient_dim


def pair_index(a, b):
    """Index of a pair: dim of the intersection minus codim of the sum.

    The audit route.  Both constituents are decided independently, by
    the intersection's principal angles and by the rank of the stacked
    frames; in finite dimension the result equals
    :func:`dimension_index` exactly when those two rank decisions agree,
    which the tests, criterion 11 and the ``pair_routes`` suite check
    rather than assume.
    """
    _check_same_ambient(a, b)
    inter = intersection(a, b)
    # Same absolute scale as the intersection's angle classification, so a
    # borderline direction lands on exactly one side of the count.
    sum_dim = rank(np.hstack([a.frame, b.frame]),
                   absolute_tol=np.sqrt(2.0 * ANGLE_TOL))
    codim = a.ambient_dim - sum_dim
    return PairIndexReport(
        dim_first=a.dim,
        dim_second=b.dim,
        ambient_dim=a.ambient_dim,
        dim_intersection=inter.dim,
        codim_sum=codim,
        index=inter.dim - codim,
    )


def direct_sum(*subs):
    """Block diagonal subspace of the concatenated ambient space: the
    frames in order, each on its own rows and columns.  Coordinate spans
    stack as their concatenated mask."""
    masks = [s._mask for s in subs]
    if masks and all(m is not None for m in masks):
        return Subspace._from_mask(np.concatenate(masks))
    # plain loops: compose and index call this on small frames, where
    # generator sums and the dim properties cost a measurable share
    n = k = 0
    for s in subs:
        n += s.frame.shape[0]
        k += s.frame.shape[1]
    q = np.zeros((n, k), dtype=np.complex128)
    row = col = 0
    for s in subs:
        f = s.frame
        q[row:row + f.shape[0], col:col + f.shape[1]] = f
        row += f.shape[0]
        col += f.shape[1]
    return Subspace._trusted(q)


def subspaces_equal(a, b):
    """Whether two subspaces coincide (same dim, all cosines at 1).  Two
    coordinate spans coincide exactly when their masks are equal, and
    two equal frames need no cosines."""
    _check_same_ambient(a, b)
    if a._mask is not None and b._mask is not None:
        return bool(np.array_equal(a._mask, b._mask))
    if a.dim != b.dim:
        return False
    if a.dim == 0 or np.array_equal(a.frame, b.frame):
        return True
    cos = principal_cosines(a, b)
    return bool(cos.min() > 1.0 - ANGLE_TOL)


def random_subspace(ambient_dim, dim, rng):
    """Haar-ish random subspace from a complex gaussian matrix."""
    if dim > ambient_dim:
        raise InvalidInput("dim exceeds ambient dimension")
    if dim == 0:
        return Subspace.zero(ambient_dim)
    g = rng.standard_normal((ambient_dim, dim)) + 1j * rng.standard_normal((ambient_dim, dim))
    out = Subspace.from_span(g)
    if out.dim != dim:
        raise InvalidInput("random matrix was rank deficient")
    return out
