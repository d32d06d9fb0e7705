"""Correspondences between polarized model spaces: composition, indices,
twists, chains, and the composition-defect ledger.

Every index here is a pair index of explicit subspaces.  Operator-index
formulations would be identically zero for square truncations, so the
windowed pair formulation is the load-bearing one, and the classical
operator identities reappear as consistency checks between different
pair computations.

A pair index is counted from dimensions (``dimension_index``): the rank
decisions that build the correspondence, the twisted image and the
composite are the ones the integer depends on; a composite that is not
a coordinate span, a diagonal graph or a diagonal's pull-back is one
window intersection of its fiber product.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CompositionMismatch, DimensionMismatch, InvalidInput
from .spaces import (
    ModelSpace,
    _block_singular_values,
    off_diagonal_singular_values,
    spaces_match,
)
from .subspaces import (
    Subspace,
    complement,
    current_tolerance,
    intersection,
    singular_values,
)
from .windows import image_dim, restricted_image, windowed_graph

__all__ = [
    "Correspondence",
    "Twist",
    "Chain",
    "LedgerReport",
    "compose",
    "index",
    "tilde_ind",
    "delta",
    "delta_direct",
    "chain_total_index",
    "reduce_chain_ledger",
    "twist_graph",
]

_NO_MODES = np.zeros(0, dtype=bool)


def _diagonal_graph_frame(labels, q):
    """Frame of {(x, Q x)} with Q = diag(q^mode), normalized per mode.

    Column i is (1, q^n) / |(1, q^n)| on mode n >= 0 and (q^-n, 1) /
    |(q^-n, 1)| below, so no entry overflows.  The powers and norms are
    taken once per distinct |n|, with Python's ``**`` and ``math.hypot``,
    so every entry is bit for bit the per-mode loop's.
    """
    n = labels.size
    mags = np.abs(labels)
    powers = [q ** k for k in range(int(mags.max(initial=0)) + 1)]
    norms = np.array([math.hypot(1.0, p) for p in powers])
    major = (1.0 / norms)[mags]
    minor = (np.array(powers) / norms)[mags]
    nonneg = labels >= 0
    cols = np.arange(n)
    frame = np.zeros((2 * n, n), dtype=np.complex128)
    frame[cols, cols] = np.where(nonneg, major, minor)
    frame[n + cols, cols] = np.where(nonneg, minor, major)
    return frame


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A subspace of source + target, viewed as a morphism.

    :func:`compose` reads two shapes off a link: the mask of a subspace
    that is a coordinate span (:meth:`_span` builds one), and the ratio
    q of the graph of Q = diag(q^mode), which :meth:`_diagonal` records
    as ``_ratio``.  ``_ratio`` is None on every other correspondence, a
    re-based one included.  A diagonal's subspace is a record
    (``Subspace._recorded``): its frame is built only when read.
    """

    source: ModelSpace
    target: ModelSpace
    subspace: Subspace
    _ratio = None

    def __post_init__(self):
        if self.subspace.ambient_dim != self.source.dim + self.target.dim:
            raise DimensionMismatch(
                "subspace ambient does not equal source dim + target dim")

    @classmethod
    def _span(cls, source, target, source_mask, target_mask):
        """Span of the masked source and target coordinates."""
        sub = Subspace._from_mask(np.concatenate([source_mask, target_mask]))
        return cls(source=source, target=target, subspace=sub)

    @classmethod
    def _diagonal(cls, source, target, q):
        """Graph of Q = diag(q^mode) over the source window, for a ratio
        q > 0.  The ratio is what is recorded: q^mode can underflow to 0
        at wide windows, where Q is still invertible."""
        if not 0.0 < q < math.inf:
            raise InvalidInput("diagonal ratio must be positive and finite")
        n = source.dim
        sub = Subspace._recorded(2 * n, n, lambda: _diagonal_graph_frame(
            source.window.mode_labels(), q))
        link = cls(source=source, target=target, subspace=sub)
        object.__setattr__(link, "_ratio", q)
        return link

    @property
    def is_endo(self):
        return spaces_match(self.source, self.target)


def index(l):
    """Index of a correspondence against the flat-source/sharp-target
    assembly, counted as dim L + dim(flat + sharp) - ambient
    (``dimension_index``, with the assembly's dimension read off its two
    blocks instead of building it); equal to the intersection minus the
    codim of the sum that ``pair_index`` audits."""
    return (l.subspace.dim + l.source.splitting.flat.dim
            + l.target.splitting.sharp.dim - l.subspace.ambient_dim)


def compose(l1, l2):
    """Relational composition of correspondences.

    Two links that are each a coordinate span or a diagonal graph
    compose by mode arithmetic, with no SVD and no cutoff.  Q =
    diag(q^mode) is invertible, so a diagonal graph carries a coordinate
    span's mask across unchanged: span after span keeps the first source
    mask and the second target mask, span and diagonal in either order
    keep the span's masks, and two diagonals give the diagonal of
    q1 * q2.  A composite between two zero spaces is the zero subspace.
    A diagonal and any other link L, in either order, compose to L
    pulled back by Q, a record of dimension dim L.

    Any other pair, and a pull-back's frame when something reads it, is
    one window intersection of the pair's fiber product
    (:func:`_fiber_product`).
    """
    if not spaces_match(l1.target, l2.source):
        raise CompositionMismatch("target of first does not match source of second")
    source, target = l1.source, l2.target
    if source.is_zero and target.is_zero:
        return Correspondence._span(source, target, _NO_MODES, _NO_MODES)
    n1, n2 = source.dim, l1.target.dim
    m1, m2 = l1.subspace._mask, l2.subspace._mask
    q1, q2 = l1._ratio, l2._ratio
    if q1 is not None and q2 is not None:
        return Correspondence._diagonal(source, target, q1 * q2)
    if (m1 is not None or q1 is not None) and (m2 is not None or q2 is not None):
        source_mask = m2[:n2] if m1 is None else m1[:n1]
        target_mask = m1[n1:] if m2 is None else m2[n2:]
        return Correspondence._span(source, target, source_mask, target_mask)
    if q1 is None and q2 is None:
        sub = _fiber_product(l1, l2)
    else:
        # Q is invertible, so the pull-back keeps the other link's dim
        other = l2 if q2 is None else l1
        sub = Subspace._recorded(n1 + target.dim, other.subspace.dim,
                                 lambda: _fiber_product(l1, l2).frame)
    return Correspondence(source=source, target=target, subspace=sub)


def _fiber_product(l1, l2):
    """The composite of two links as one window intersection.

    With L1 framed by [A1; B1] over H1 + H2 and L2 by [A2; B2] over
    H2 + H3, the columns of [[A1, 0], [B1, -A2], [0, B2]] whose H2 rows
    vanish are the pairs (u, v) with B1 u = A2 v, and their H1 + H3 rows
    span the composite (``restricted_image``).  A direction with
    A1 u = 0 and B2 v = 0 is a collapsed middle component, the kernel
    part the defect ledger counts; it comes out as a zero column, which
    the relative tolerance drops.
    """
    n1, n2 = l1.source.dim, l1.target.dim
    f1, f2 = l1.subspace.frame, l2.subspace.frame
    k1 = f1.shape[1]
    fiber = np.zeros((n1 + f2.shape[0], k1 + f2.shape[1]), dtype=np.complex128)
    fiber[:n1 + n2, :k1] = f1
    fiber[n1:n1 + n2, k1:] = -f2[:n2]
    fiber[n1 + n2:, k1:] = f2[n2:]
    keep = np.ones(fiber.shape[0], dtype=bool)
    keep[n1:n1 + n2] = False
    return restricted_image(fiber, keep)


@dataclass(frozen=True, eq=False)
class Twist:
    """An invertible windowed operator on one model space, almost
    commuting with its polarization.

    The operator must be injective on its padded domain.  When
    ``circles.multiplication_operator`` built it, its symbol
    (:attr:`symbol`) certifies that (``circles.certified_ratio``);
    otherwise, or when the certificate does not reach twice the relative
    tolerance, the singular values of the operator's matrix decide it,
    as a rank with the relative tolerance.  Either way the decided ratio
    sigma_min / sigma_max (a lower bound, for the certificate) is kept
    for :func:`tilde_ind`.

    ``budget`` bounds the rank of the commutator with the sharp
    projector (:func:`commutator_rank`, which reads only the entries that
    couple the two halves); pass None to skip that check (useful when
    re-basing a twist onto a perturbed splitting, which inflates the
    commutator by the perturbation rank).  A certified symbol twist on a
    coordinate splitting builds no matrix for either check.
    """

    base: ModelSpace
    operator: object
    budget: int = None
    # (tolerance, index) that tilde_ind last decided
    _decided = None

    def __post_init__(self):
        # circles builds twists, so it can only be imported at call time
        from .circles import certified_ratio
        op = self.operator
        if self.base.window is None:
            raise InvalidInput("twist base must carry a mode window")
        if op.base_window != self.base.window:
            raise DimensionMismatch("operator base window does not match space")
        ratio = 0.0 if self.symbol is None else certified_ratio(self.symbol)
        if not ratio:
            s = singular_values(op.matrix)
            full = s.size == op.domain_window.dim and s[0] > 0.0
            if not (full and s[-1] > current_tolerance() * s[0]):
                raise InvalidInput("windowed operator is not injective on its domain")
            ratio = s[-1] / s[0]
        object.__setattr__(self, "_injectivity_ratio", float(ratio))
        if self.budget is not None:
            if commutator_rank(op, self.base.splitting) > self.budget:
                raise InvalidInput("twist commutator exceeds its rank budget")

    @property
    def symbol(self):
        """The symbol that built the operator, or None."""
        return self.operator._symbol

    @property
    def margin(self):
        return self.operator.domain_window.half_width - self.base.window.half_width


def _cut_block(op, base_rows, base_cols, row_half, col_half):
    """The block B[row_half, col_half] of the base compression B of
    ``op`` (masks over the base window, which ``base_rows`` and
    ``base_cols`` place in the range and the domain), cut to the rows
    and columns in which the operator can have a nonzero entry across
    the cut."""
    rows = np.zeros(base_rows.size, dtype=bool)
    rows[base_rows] = row_half
    cols = np.zeros(base_cols.size, dtype=bool)
    cols[base_cols] = col_half
    rows &= op.rows_reached(cols)
    cols &= op.columns_reaching(rows)
    return op.entries(rows, cols)


def commutator_singular_values(op, splitting):
    """Singular values of the commutator of the base compression B of a
    windowed operator with the sharp projector of ``splitting``: those of
    its two off-diagonal blocks, each with its exactly-zero rows and
    columns dropped.

    When the sharp half is a coordinate span of mask m, the blocks are
    the entries B[m, ~m] and B[~m, m] (``WindowedOperator.entries``).
    Only rows and columns that the operator couples across the cut can
    be nonzero: within the symbol's degree of the cut for a symbol-built
    operator, which then reads them off its symbol, and every one for
    any other operator, which reads its matrix.  A splitting without a
    mask (a perturbed one) takes the frame products of
    ``spaces.off_diagonal_singular_values`` with B = ``base_square()``.
    """
    m = splitting.sharp._mask
    if m is None:
        return off_diagonal_singular_values(splitting, op.base_square(),
                                            splitting)
    rows, cols = op.base_rows_mask(), op.base_columns_mask()
    return _block_singular_values([_cut_block(op, rows, cols, m, ~m),
                                   _cut_block(op, rows, cols, ~m, m)])


def commutator_rank(op, splitting):
    """Rank of the commutator of the base compression of a windowed
    operator with the sharp projector of ``splitting``: its singular
    values (:func:`commutator_singular_values`), counted under one
    relative cutoff."""
    s = commutator_singular_values(op, splitting)
    if not s.size:
        return 0
    return int(np.count_nonzero(s > current_tolerance() * s.max()))


def tilde_ind(t):
    """Twist index: the padded flat half is pushed through the operator,
    intersected with the window, and paired against the sharp half.

    The rank decision is the window intersection of the image, decided
    by ``windows.image_dim`` with the twist's injectivity ratio: counted
    from the operator's block at the rows outside the window and the
    same rows of the padded flat half (a symbol-built operator builds no
    matrix for it), or built closer to the cutoff.  The pair index is
    then counted from dimensions.

    Equals the winding number of the symbol determinant on circle
    models whose sharp half is the nonnegative-mode span.  A twist keeps
    its index with the tolerance that decided it, and returns it while
    that tolerance is in force.
    """
    tol = current_tolerance()
    if t._decided is not None and t._decided[0] == tol:
        return t._decided[1]
    sharp = t.base.splitting.sharp
    value = (image_dim(t.operator, t.base.flat_padded(t.margin),
                       t._injectivity_ratio)
             + sharp.dim - sharp.ambient_dim)
    object.__setattr__(t, "_decided", (tol, value))
    return value


def twist_graph(t):
    """The twist as an endo-correspondence: pairs (x, op x) that stay in
    the window."""
    cols = t.operator.base_columns_mask()
    m = t.operator.matrix[:, cols]
    sub = windowed_graph(m, t.operator.base_rows_mask())
    return Correspondence(source=t.base, target=t.base, subspace=sub)


def delta(l1, l2):
    """Composition defect Ind(l1) + Ind(l2) - Ind(l2 after l1).

    Splitting-independent: the shared endpoint enters through the sum of
    its sharp and flat dimensions only.
    """
    return _defect(l1, l2, compose(l1, l2))


def _defect(l1, l2, composite):
    return index(l1) + index(l2) - index(composite)


def delta_direct(l1, l2):
    """Kernel and cokernel contributions to the composition defect.

    Returns (dim of middle vectors annihilated on both outer slots,
    the same count for the orthocomplements).  The defect equals
    kernel_part - cokernel_part; the combination sign was fixed by a
    disambiguating oracle instance and is pinned in the convention
    manifest.
    """
    if not spaces_match(l1.target, l2.source):
        raise CompositionMismatch("pair is not composable")
    n1, n2 = l1.source.dim, l1.target.dim
    n3 = l2.target.dim

    def middle_slice(sub, first_dim, keep_second):
        mask = np.zeros(sub.ambient_dim, dtype=bool)
        if keep_second:
            mask[first_dim:] = True
        else:
            mask[:first_dim] = True
        return restricted_image(sub.frame, mask)

    y1 = middle_slice(l1.subspace, n1, True)
    y2 = middle_slice(l2.subspace, n2, False)
    kernel_part = intersection(y1, y2).dim
    y1c = middle_slice(complement(l1.subspace), n1, True)
    y2c = middle_slice(complement(l2.subspace), n2, False)
    cokernel_part = intersection(y1c, y2c).dim
    return kernel_part, cokernel_part


@dataclass(frozen=True, eq=False)
class Chain:
    """A run of correspondences from the zero space back to the zero
    space; endpoints of consecutive links must be the same model space."""

    links: tuple

    def __post_init__(self):
        links = tuple(self.links)
        if not links:
            raise InvalidInput("chain needs at least one link")
        if not links[0].source.is_zero:
            raise InvalidInput("chain must start at the zero space")
        if not links[-1].target.is_zero:
            raise InvalidInput("chain must end at the zero space")
        for a, b in zip(links, links[1:]):
            if not spaces_match(a.target, b.source):
                raise CompositionMismatch("adjacent links do not share their endpoint")
        object.__setattr__(self, "links", links)

    def __len__(self):
        return len(self.links)


def chain_total_index(c):
    """Sum of the link indices."""
    return sum(index(l) for l in c.links)


@dataclass(frozen=True)
class LedgerReport:
    """Record of one full reduction of a chain: the defect of each
    composition event and the index of the final closed-up morphism."""

    junctions: tuple
    delta_events: tuple
    final_index: int
    total: int


def reduce_chain_ledger(c, order):
    """Compose the chain down to a single zero-to-zero morphism in the
    given junction order, ledgering the defect of every event.

    ``order`` is a permutation of the original junction ids 0..len-2
    (junction i sits between links i and i+1).  The total of all defect
    events plus the final index must reproduce the chain total no matter
    the order; the suite checks that equality over all orders.  Each
    junction is composed once, and its defect is read off that
    composite; no composite is reused across orders.
    """
    n_junctions = len(c) - 1
    if sorted(order) != list(range(n_junctions)):
        raise InvalidInput("order must be a permutation of the junction ids")
    links = list(c.links)
    junction_ids = list(range(n_junctions))
    events = []
    for j in order:
        pos = junction_ids.index(j)
        composite = compose(links[pos], links[pos + 1])
        events.append(_defect(links[pos], links[pos + 1], composite))
        links[pos: pos + 2] = [composite]
        junction_ids.pop(pos)
    final = links[0]
    if not (final.source.is_zero and final.target.is_zero):
        raise InvalidInput("reduction did not terminate at a closed morphism")
    final_index = index(final)
    return LedgerReport(
        junctions=tuple(order),
        delta_events=tuple(events),
        final_index=final_index,
        total=sum(events) + final_index,
    )
