"""Model spaces with polarizations: splittings, perturbations, and the
off-diagonal blocks that measure a polarization defect.

A splitting is a concrete orthogonal decomposition of a model space into
a sharp and a flat half; a polarization is the class of splittings whose
projectors differ by bounded rank.  Finite rank is the stand-in for
compactness throughout: norms cannot distinguish compact from bounded in
finite dimension, ranks can.  Both the commutator of an operator with a
splitting and the difference of two splittings are read off the same
two off-diagonal blocks (:func:`off_diagonal_singular_values`).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .subspaces import (
    POLARIZATION_CUTOFF,
    PROJECTOR_ATOL,
    Subspace,
    singular_values,
    subspaces_equal,
)
from .windows import ModeWindow, pad_by_predicate

__all__ = [
    "SHARP_NONNEG",
    "SHARP_NEGATIVE",
    "convention_predicate",
    "Splitting",
    "splitting_for_window",
    "ModelSpace",
    "spaces_match",
    "perturb_splitting",
    "POLARIZATION_CUTOFF",
    "off_diagonal_singular_values",
    "polarization_defect",
]

# The two mode-sign conventions used by circle models.  Which half is
# sharp depends on the geometric role of the circle (which side of it
# contributes Cauchy data), so both coexist and every circle records its
# own choice.
SHARP_NONNEG = "sharp_nonneg"
SHARP_NEGATIVE = "sharp_negative"

_PREDICATES = {
    SHARP_NONNEG: lambda n: n >= 0,
    SHARP_NEGATIVE: lambda n: n < 0,
}


def convention_predicate(name):
    """Mode predicate selecting the sharp half for a named convention."""
    try:
        return _PREDICATES[name]
    except KeyError:
        raise InvalidInput(f"unknown splitting convention: {name!r}") from None


@dataclass(frozen=True, eq=False)
class Splitting:
    """Orthogonal decomposition of the ambient space into sharp and flat.

    The symmetry S = P_sharp - P_flat must square to the identity.  Both
    halves are orthonormal frames whose dimensions fill the space, so
    tr(S^2) = n - 2 |sharp^H flat|_F^2, and S^2 = I holds exactly when
    sharp^H flat = 0; that small block is what gets checked.
    Complementary coordinate spans skip the check: :meth:`_coordinate`
    builds them from a sharp mask, whose halves keep their masks, so
    that ``morphisms.commutator_rank`` reads submatrices instead.
    """

    sharp: Subspace
    flat: Subspace

    def __post_init__(self):
        if self.sharp.ambient_dim != self.flat.ambient_dim:
            raise DimensionMismatch("sharp and flat live in different spaces")
        n = self.sharp.ambient_dim
        if self.sharp.dim + self.flat.dim != n:
            raise InvalidInput("sharp and flat dimensions do not fill the space")
        if self.sharp.dim and self.flat.dim:
            overlap = np.abs(self.sharp.frame.conj().T @ self.flat.frame).max()
            if not overlap <= PROJECTOR_ATOL:
                raise InvalidInput("splitting symmetry does not square to identity")

    @classmethod
    def _trusted(cls, sharp, flat):
        """Unchecked wrap of two halves that are complementary by
        construction."""
        split = object.__new__(cls)
        object.__setattr__(split, "sharp", sharp)
        object.__setattr__(split, "flat", flat)
        return split

    @classmethod
    def _coordinate(cls, sharp_mask):
        """Trusted splitting into the coordinate span of a sharp mask and
        that of its complement."""
        mask = np.asarray(sharp_mask, dtype=bool)
        return cls._trusted(Subspace._from_mask(mask),
                            Subspace._from_mask(~mask))

    @property
    def ambient_dim(self):
        return self.sharp.ambient_dim


def splitting_for_window(window, convention):
    """Coordinate splitting of a mode window under a named convention,
    from one mask: the convention's predicate on the mode labels."""
    return Splitting._coordinate(
        convention_predicate(convention)(window.mode_labels()))


@dataclass(frozen=True, eq=False)
class ModelSpace:
    """A finite model Hilbert space: its splitting, and for a circle's
    space the mode window and splitting convention.  The splitting's
    ambient dimension is the space's ``dim``; a window describes the
    coordinates, and must have that many.

    A windowed space can pad a splitting half into a wider window
    (:meth:`flat_padded`, :meth:`sharp_padded`, by
    ``windows.pad_by_predicate``); they return the padded ``Subspace``,
    whose base is the half itself.  Each padded half is built on the
    first call for its half and margin and then shared: the space and
    its splitting are frozen, and the frame is read-only.  A padded
    coordinate half is a mask, whose columns ``windows.image_dim`` reads
    without building its frame.
    """

    splitting: Splitting
    window: ModeWindow = None
    convention: str = None
    # stored by __post_init__ from the splitting
    dim: int = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.splitting.ambient_dim
        if self.window is not None and self.window.dim != dim:
            raise DimensionMismatch("window does not match space dimension")
        if self.convention is not None:
            convention_predicate(self.convention)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_padded", {})

    @classmethod
    def zero_space(cls):
        z = Subspace.zero(0)
        return cls(splitting=Splitting(sharp=z, flat=z))

    @property
    def is_zero(self):
        return self.dim == 0

    def _half_padded(self, half, margin):
        padded = self._padded.get((half, margin))
        if padded is not None:
            return padded
        if self.window is None or self.convention is None:
            raise InvalidInput("space has no window/convention for padding")
        # the half and the predicate of the margin modes it takes
        pred = convention_predicate(self.convention)
        sub, keep = ((self.splitting.flat, lambda n: not pred(n))
                     if half == "flat" else (self.splitting.sharp, pred))
        padded = pad_by_predicate(sub, self.window, margin, keep)
        self._padded[(half, margin)] = padded
        return padded

    def flat_padded(self, margin):
        """Canonical padded companion of the flat half.

        Extends by the margin modes satisfying the convention's flat
        predicate; works for perturbed splittings too, since the
        perturbation lives inside the base window.
        """
        return self._half_padded("flat", margin)

    def sharp_padded(self, margin):
        return self._half_padded("sharp", margin)

    def with_splitting(self, splitting):
        return ModelSpace(splitting=splitting, window=self.window,
                          convention=self.convention)


def spaces_match(a, b):
    """Whether two model spaces can be glued: one window (one dimension,
    for two windowless spaces), one convention and one splitting.

    The splitting halves are compared by ``subspaces_equal``: by mask
    for two coordinate spans, and otherwise array for array first and by
    principal angles only when that fails.
    """
    if a.dim != b.dim or a.window != b.window or a.convention != b.convention:
        return False
    sa, sb = a.splitting, b.splitting
    return sa is sb or (subspaces_equal(sa.sharp, sb.sharp)
                        and subspaces_equal(sa.flat, sb.flat))


def perturb_splitting(s, rank, seed, support=None):
    """A random splitting in the same polarization class.

    Performs ``rank`` random moves.  Each move either transfers one
    basis direction between the halves (changing their dimensions) or
    rotates a (sharp, flat) pair of directions by a random angle; the
    projector difference from ``s`` has rank at most ``2 * rank``.
    Transfers take 85 % of the moves because rotations alone can never
    change the dimension of either half, hence never change any index.

    ``support`` optionally restricts the moves to directions that are
    exactly zero off the given coordinate indices (used to stay clear of
    window boundaries when twists are in play).
    """
    if rank < 0 or rank > min(s.sharp.dim, s.flat.dim):
        raise InvalidInput("perturbation rank out of range")
    if rank == 0:
        return s
    rng = np.random.default_rng(seed)
    n = s.ambient_dim
    support_mask = None
    if support is not None:
        support_mask = np.zeros(n, dtype=bool)
        support_mask[np.asarray(list(support), dtype=int)] = True
    sharp_cols = [s.sharp.frame[:, j].copy() for j in range(s.sharp.dim)]
    flat_cols = [s.flat.frame[:, j].copy() for j in range(s.flat.dim)]

    def candidates(cols):
        # moves only swap and rotate columns, so the zeros of a column
        # outside the support stay exact
        return [j for j, c in enumerate(cols)
                if support_mask is None or not c[~support_mask].any()]

    # one preferred transfer direction per perturbation, so that several
    # transfer moves push the dimensions the same way instead of
    # cancelling pairwise
    prefer_sharp = bool(rng.integers(2))
    for _ in range(rank):
        cs = candidates(sharp_cols)
        cf = candidates(flat_cols)
        do_transfer = rng.uniform() < 0.85
        if do_transfer and (cs or cf):
            if cs and cf:
                from_sharp = prefer_sharp
            else:
                from_sharp = bool(cs)
            if from_sharp:
                j = cs[int(rng.integers(len(cs)))]
                flat_cols.append(sharp_cols.pop(j))
            else:
                j = cf[int(rng.integers(len(cf)))]
                sharp_cols.append(flat_cols.pop(j))
        elif cs and cf:
            j = cs[int(rng.integers(len(cs)))]
            k = cf[int(rng.integers(len(cf)))]
            theta = rng.uniform(0.2, 1.2)
            u, v = sharp_cols[j], flat_cols[k]
            sharp_cols[j] = np.cos(theta) * u + np.sin(theta) * v
            flat_cols[k] = -np.sin(theta) * u + np.cos(theta) * v
    to_frame = lambda cols: (np.column_stack(cols) if cols
                             else np.zeros((n, 0), dtype=np.complex128))
    return Splitting(sharp=Subspace(to_frame(sharp_cols)),
                     flat=Subspace(to_frame(flat_cols)))


def _nonzero_block(a):
    # dropping exactly-zero rows and columns keeps every nonzero
    # singular value
    nonzero = a != 0
    return a[:, nonzero.any(axis=0)][nonzero.any(axis=1)]


def _block_singular_values(raw):
    """Singular values of each block, exactly-zero rows and columns
    dropped first, concatenated."""
    # every block is formed before either SVD: interleaving the two kinds
    # of call made a wide-window operation about 7 % slower
    blocks = [_nonzero_block(x) for x in raw]
    # a block left with any entry has a nonzero one
    s = [singular_values(x) for x in blocks if x.size]
    return np.concatenate(s) if s else np.zeros(0)


def off_diagonal_singular_values(left, b, right):
    """Singular values of the blocks sharp_L^H B flat_R and
    flat_L^H B sharp_R of an operator B (the identity when ``b`` is
    None) between two splittings of one space.

    With L = R these are the singular values of the commutator
    P_sharp B - B P_sharp, which is zero but for those two blocks in the
    orthonormal basis (sharp, flat).  With B = I they are the singular
    values of the projector difference P_L - P_R = P_L (1 - P_R) -
    (1 - P_L) P_R, whose two terms have orthogonal ranges and orthogonal
    row spaces.  Rows and columns of a block that are exactly zero are
    dropped before its SVD.  A splitting whose sharp half is a
    coordinate span of mask m has unit-column frames, so
    ``morphisms.commutator_rank`` reads its blocks as B[m, ~m] and
    B[~m, m] instead of forming these products.
    """
    if left.ambient_dim != right.ambient_dim:
        raise DimensionMismatch("splittings live in different spaces")
    return _block_singular_values(
        [x.frame.conj().T @ y.frame if b is None
         else x.frame.conj().T @ b @ y.frame
         for x, y in ((left.sharp, right.flat), (left.flat, right.sharp))])


def polarization_defect(left, right):
    """Number of directions in which the sharp projectors of two
    splittings differ by more than ``POLARIZATION_CUTOFF``.  Two
    splittings lie in one polarization class at rank budget k when this
    is at most k."""
    s = off_diagonal_singular_values(left, None, right)
    return int(np.count_nonzero(s > POLARIZATION_CUTOFF))
