"""Model spaces with polarizations: splittings, perturbations,
admissible pairs, and conjugated pair assembly.

A splitting is a concrete orthogonal decomposition of a model space into
a sharp and a flat half; a polarization is the class of splittings whose
projectors differ by bounded rank.  Finite rank is the stand-in for
compactness throughout: norms cannot distinguish compact from bounded in
finite dimension, ranks can.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .subspaces import Subspace, rank, subspaces_equal
from .windows import ModeWindow, PaddedSubspace, mode_span, pad_by_predicate

__all__ = [
    "SHARP_NONNEG",
    "SHARP_NEGATIVE",
    "convention_predicate",
    "Splitting",
    "make_splitting",
    "splitting_for_window",
    "ModelSpace",
    "spaces_match",
    "perturb_splitting",
    "projector_defect_rank",
    "same_polarization",
    "AdmissiblePair",
    "admissibility_check",
    "conjugated_pair",
    "nfold_subspace",
]

# Slack of the splitting and projector checks.
PROJECTOR_ATOL = 1e-10

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
    Complementary coordinate spans skip the check via :meth:`_trusted`.
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

    @property
    def ambient_dim(self):
        return self.sharp.ambient_dim

    def symmetry(self):
        return self.sharp.projector() - self.flat.projector()


def make_splitting(space_dim, sharp_mode_predicate, labels=None):
    """Splitting of a labeled space by a predicate on the labels.

    Without explicit labels, an odd ``space_dim`` gets the symmetric
    mode labels -M..M and an even one gets 0..dim-1.
    """
    if space_dim <= 0:
        raise InvalidInput("empty ambient space")
    if labels is None:
        if space_dim % 2 == 1:
            m = space_dim // 2
            labels = list(range(-m, m + 1))
        else:
            labels = list(range(space_dim))
    if len(labels) != space_dim:
        raise InvalidInput("label count does not match dimension")
    sharp_idx = [i for i, lab in enumerate(labels) if sharp_mode_predicate(lab)]
    flat_idx = [i for i in range(space_dim) if i not in set(sharp_idx)]
    return Splitting(
        sharp=Subspace.from_indices(space_dim, sharp_idx),
        flat=Subspace.from_indices(space_dim, flat_idx),
    )


def splitting_for_window(window, convention):
    """Coordinate splitting of a mode window under a named convention."""
    pred = convention_predicate(convention)
    sharp = mode_span(window, pred)
    flat = mode_span(window, lambda n: not pred(n))
    return Splitting._trusted(sharp, flat)


@dataclass(frozen=True, eq=False)
class ModelSpace:
    """A finite model Hilbert space: labeled basis and splitting.

    Circle-derived spaces also carry their mode window and splitting
    convention so that canonical padded companions of the splitting
    halves can be formed.
    """

    dim: int
    basis_labels: tuple
    splitting: Splitting
    window: ModeWindow = None
    convention: str = None

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidInput("negative dimension")
        if len(self.basis_labels) != self.dim:
            raise InvalidInput("label count does not match dimension")
        if self.splitting.ambient_dim != self.dim:
            raise DimensionMismatch("splitting does not match space dimension")
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        if self.window is not None and self.window.dim != self.dim:
            raise DimensionMismatch("window does not match space dimension")
        if self.convention is not None:
            convention_predicate(self.convention)

    @classmethod
    def zero_space(cls):
        z = Subspace.zero(0)
        return cls(dim=0, basis_labels=(), splitting=Splitting(sharp=z, flat=z))

    @property
    def is_zero(self):
        return self.dim == 0

    def _half_padded(self, half, margin):
        if self.window is None or self.convention is None:
            raise InvalidInput("space has no window/convention for padding")
        pred = convention_predicate(self.convention)
        if half == "flat":
            base = self.splitting.flat
            keep = lambda n: not pred(n)
        else:
            base = self.splitting.sharp
            keep = pred
        padded = pad_by_predicate(base, self.window, margin, keep)
        return PaddedSubspace._trusted(base, padded, self.window, margin)

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
        return ModelSpace(dim=self.dim, basis_labels=self.basis_labels,
                          splitting=splitting, window=self.window,
                          convention=self.convention)


def spaces_match(a, b):
    """Whether two model spaces can be glued (same labels and splitting).

    Equal frames span equal subspaces, so the splitting halves are
    compared array for array first and by principal angles only when
    that fails.
    """
    if a.dim != b.dim or a.basis_labels != b.basis_labels:
        return False
    if a.convention != b.convention:
        return False
    sa, sb = a.splitting, b.splitting
    if sa is sb or (np.array_equal(sa.sharp.frame, sb.sharp.frame)
                    and np.array_equal(sa.flat.frame, sb.flat.frame)):
        return True
    return (subspaces_equal(a.splitting.sharp, b.splitting.sharp)
            and subspaces_equal(a.splitting.flat, b.splitting.flat))


def _support_ok(col, support_mask):
    if support_mask is None:
        return True
    return float(np.linalg.norm(col[~support_mask])) < 1e-9


def perturb_splitting(s, rank, seed, support=None, transfer_prob=0.85):
    """A random splitting in the same polarization class.

    Performs ``rank`` random moves.  Each move either transfers one
    basis direction between the halves (changing their dimensions) or
    rotates a (sharp, flat) pair of directions by a random angle; the
    projector difference from ``s`` has rank at most ``2 * rank``.
    Transfers dominate by default because rotations alone can never
    change the dimension of either half, hence never change any index.

    ``support`` optionally restricts the moves to directions supported
    on the given coordinate indices (used to stay clear of window
    boundaries when twists are in play).
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
        return [j for j, c in enumerate(cols) if _support_ok(c, support_mask)]

    # one preferred transfer direction per perturbation, so that several
    # transfer moves push the dimensions the same way instead of
    # cancelling pairwise
    prefer_sharp = bool(rng.integers(2))
    for _ in range(rank):
        cs = candidates(sharp_cols)
        cf = candidates(flat_cols)
        do_transfer = rng.uniform() < transfer_prob
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


def projector_defect_rank(p1, p2):
    """Rank of a projector difference, counting directions tilted by a
    definite angle.

    Singular values of a projector difference lie in [0, 1]; a relative
    cutoff would count every slightly tilted mode, so directions count
    only above 0.5 (angle beyond 30 degrees).
    """
    d = np.asarray(p1) - np.asarray(p2)
    if d.size == 0:
        return 0
    sv = np.linalg.svd(d, compute_uv=False)
    return int(np.count_nonzero(sv > 0.5))


def same_polarization(s1, s2, budget):
    """Whether two splittings lie in one polarization class at the given
    rank budget."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("splittings live in different spaces")
    d = projector_defect_rank(s1.sharp.projector(), s2.sharp.projector())
    return d <= budget


def _check_projector(p):
    p = np.asarray(p, dtype=np.complex128)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InvalidInput("projector must be a square matrix")
    if not np.allclose(p @ p, p, atol=PROJECTOR_ATOL):
        raise InvalidInput("matrix is not idempotent")
    return p


@dataclass(frozen=True, eq=False)
class AdmissiblePair:
    """A pair of projectors whose sum is a bounded-rank perturbation of
    the identity."""

    p_plus: np.ndarray
    p_minus: np.ndarray
    rank_budget: int

    def __post_init__(self):
        pp = _check_projector(self.p_plus)
        pm = _check_projector(self.p_minus)
        if pp.shape != pm.shape:
            raise DimensionMismatch("projector shapes differ")
        if self.rank_budget < 0:
            raise InvalidInput("negative rank budget")
        pp = pp.copy(); pp.setflags(write=False)
        pm = pm.copy(); pm.setflags(write=False)
        object.__setattr__(self, "p_plus", pp)
        object.__setattr__(self, "p_minus", pm)

    def defect_rank(self):
        n = self.p_plus.shape[0]
        return rank(self.p_plus + self.p_minus - np.eye(n))


def admissibility_check(p, generators, comm_rank_budget):
    """Whether the pair's defect and all its commutators stay within the
    budgets.

    The defect rank uses the pair's own budget; each commutator
    ``[P_eps, g]`` must have rank at most ``comm_rank_budget``.
    """
    n = p.p_plus.shape[0]
    if p.defect_rank() > p.rank_budget:
        return False
    for g in generators:
        g = np.asarray(g, dtype=np.complex128)
        if g.shape != (n, n):
            raise DimensionMismatch("generator dimension mismatch")
        for proj in (p.p_plus, p.p_minus):
            if rank(proj @ g - g @ proj) > comm_rank_budget:
                return False
    return True


def nfold_subspace(sub, n):
    """Block diagonal n-fold copy of a subspace."""
    if n < 1:
        raise InvalidInput("n must be positive")
    d, k = sub.ambient_dim, sub.dim
    q = np.zeros((n * d, n * k), dtype=np.complex128)
    for i in range(n):
        q[i * d:(i + 1) * d, i * k:(i + 1) * k] = sub.frame
    return Subspace(q)


def conjugated_pair(a, pair, n):
    """The pair (A applied to the n-fold first half, n-fold second half).

    ``a`` is an invertible square matrix on the n-fold ambient space,
    assembled from algebra generators; windowed (padded) applications
    are handled by the circle-model layer, which passes the already
    cropped image here.
    """
    h_minus, h_plus = pair
    if h_minus.ambient_dim != h_plus.ambient_dim:
        raise DimensionMismatch("pair halves live in different spaces")
    stacked_minus = nfold_subspace(h_minus, n)
    stacked_plus = nfold_subspace(h_plus, n)
    a = np.asarray(a, dtype=np.complex128)
    size = n * h_minus.ambient_dim
    if a.shape != (size, size):
        raise DimensionMismatch(f"matrix must be {size} x {size}")
    if rank(a) < size:
        raise InvalidInput("conjugating matrix is singular")
    return (Subspace.from_span(a @ stacked_minus.frame), stacked_plus)
