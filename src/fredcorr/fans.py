"""Fredholm fans: families of subspaces perturbing an orthogonal direct
sum decomposition of a windowed model space.

A fan is built from pairwise orthogonal parts spanning the ambient space
by twisting each part with a chain of windowed factors.  Inside a window
every index is a difference of finite dimensions, so of the four
classical formulas only one decides something new:

1. the stacked inclusion of the members, whose rank cancels: it counts
   sum dim m_i - n;
2. the summed twist operator, a square map whose kernel and cokernel
   match by rank-nullity: it is 0 wherever every twist maps the base
   window onto itself, and undefined otherwise;
3. the summed restricted projections m_i -> p_i, each (dim m_i - r) -
   (dim p_i - r): it equals formula 1;
4. the telescoped intersections, against the running sums: by the
   Grassmann identity it equals formula 1 exactly when each
   intersection's rank decision agrees with the sum's.

So the fan's checks audit the intersection decisions against the sum
decisions (formula 4), and that a fan whose twists keep the window has
index 0 (formula 2).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circles import LaurentSymbol, _band_apply, certified_ratio, twist_circle
from .errors import DimensionMismatch, InvalidInput, NotAFan
from .morphisms import commutator_rank
from .spaces import ModelSpace, Splitting
from .subspaces import (
    PROJECTOR_ATOL,
    _power_of_two_scaled,
    current_tolerance,
    intersection,
    singular_values,
    subspace_sum,
)
from .windows import (
    ModeWindow,
    WindowedOperator,
    _lift_rows,
    lift_frame,
    mode_span,
    pad_by_predicate,
)

__all__ = [
    "Fan",
    "FanIndexReport",
    "PredicatePart",
    "TwistChain",
    "check_fan_parts",
    "interval_part",
    "partition_parts",
    "fan_from_twists",
    "fan_index",
    "random_fan",
    "finite_rank_twist",
]


@dataclass(frozen=True, eq=False)
class PredicatePart:
    """One part of a windowed decomposition, defined by a mode predicate.

    The predicate is evaluated on the margin modes too
    (``windows.pad_by_predicate``, in :func:`fan_from_twists`), which
    gives the part a canonical companion at every margin: boundary parts
    grow into the margin, interior parts do not.
    """

    window: object
    predicate: object


def interval_part(window, lo, hi):
    """Part spanned by modes lo..hi; endpoints None leave that side
    unbounded, so the part extends through the window edge."""
    def pred(n, lo=lo, hi=hi):
        if lo is not None and n < lo:
            return False
        if hi is not None and n > hi:
            return False
        return True
    return PredicatePart(window=window, predicate=pred)


def partition_parts(window, cuts):
    """Interval parts splitting the window at the given cut modes.

    ``cuts`` are the first modes of each new block; the outer blocks are
    unbounded so they own the window edges.
    """
    cuts = sorted(int(c) for c in cuts)
    bounds = [None] + cuts + [None]
    parts = []
    for lo, nxt in zip(bounds[:-1], bounds[1:]):
        hi = None if nxt is None else nxt - 1
        parts.append(interval_part(window, lo, hi))
    return parts


class Interior(NamedTuple):
    """An interior factor on a base window of dimension ``dim``: the
    identity except on the sorted coordinates ``support``, where its
    rows and columns are the square ``block``.  ``sigma`` holds the
    block's (sigma_min, sigma_max), which whoever makes the record knows:
    :func:`_interior_support` from one SVD of the block, a rotation from
    its being unitary."""

    dim: int
    support: np.ndarray
    block: np.ndarray
    sigma: tuple

    def ratio(self, dim):
        """sigma_min / sigma_max of the factor embedded into a window of
        dimension ``dim``: the block's, with 1 beside them unless the
        block fills that window."""
        if not self.support.size:
            return 1.0
        lo, hi = self.sigma
        if self.support.size < dim:
            lo, hi = min(lo, 1.0), max(hi, 1.0)
        return lo / hi if hi > 0.0 else 0.0


@dataclass(frozen=True, eq=False)
class TwistChain:
    """Composable twist: an ordered tuple of factors, first acting first.

    A factor is ("sym", LaurentSymbol), ("slot", (channel, scalar
    symbol)) acting on one channel only, or ("interior", square matrix
    on the base window whose difference from the identity is supported
    away from the window edge), kept as its :class:`Interior` record; a
    dense matrix is scanned for it once, when the chain is built.
    Keeping the factors instead of a fixed matrix lets the chain be
    realized at full margin after further composition; a fixed matrix
    could not grow its own domain.

    :meth:`apply` pushes a frame through the factors one at a time and
    never forms the chain matrix: a symbol or slot factor is
    shift-and-add over its coefficient planes, an interior factor one
    block update on its support.  :meth:`realize` is the chain's
    windowed operator, which answers block reads with :meth:`apply` on
    unit columns and :meth:`_pull_back_rows`, and :meth:`certified_ratio`
    bounds the conditioning of the composite from its factors, so
    ``windows.image_dim`` can count the window intersection of an image
    instead of building it.
    """

    factors: tuple

    def __post_init__(self):
        factors = []
        for kind, data in self.factors:
            if kind not in ("sym", "slot", "interior"):
                raise InvalidInput(f"unknown twist factor kind {kind!r}")
            if kind == "interior" and not isinstance(data, Interior):
                data = _interior_support(data)
            factors.append((kind, data))
        object.__setattr__(self, "factors", tuple(factors))
        # the walk over each window met so far (:meth:`_steps`)
        object.__setattr__(self, "_walks", {})

    @property
    def margin(self):
        """Modes by which the chain pads its domain: its symbols' reaches."""
        return sum(_symbol_of(kind, data).reach
                   for kind, data in self.factors if kind != "interior")

    def then(self, *factors):
        """The chain followed by ``factors``; with none, the chain itself."""
        if not factors:
            return self
        return TwistChain(factors=self.factors + factors)

    def _steps(self, window):
        """The walk of :meth:`_walk` over ``window``, taken on the first
        call and then kept: the factors are frozen, and realizing the
        chain, pushing frames, pulling rows back and certifying its ratio
        all read it."""
        walk = self._walks.get(window)
        if walk is None:
            walk = self._walks[window] = self._walk(window)
        return walk

    def _walk(self, window):
        """(kind, data, symbol or None, source window, target window) of
        each factor, first first, and the range window; a symbol or slot
        factor widens its source by its degree, and a factor that does
        not fit its window is refused."""
        cur = window.pad(self.margin)
        steps = []
        for kind, data in self.factors:
            sym = None if kind == "interior" else _symbol_of(kind, data)
            if sym is None and data.dim != window.dim:
                raise DimensionMismatch(
                    "interior factor is not square on the base window")
            if kind == "sym" and sym.channels != cur.channels:
                raise DimensionMismatch(
                    "symbol channels do not match the windows")
            if kind == "slot" and (sym.channels != 1
                                   or not 0 <= data[0] < cur.channels):
                raise DimensionMismatch(
                    "slot factor does not act on one channel")
            nxt = cur if sym is None else cur.pad(sym.degree)
            steps.append((kind, data, sym, cur, nxt))
            cur = nxt
        return tuple(steps), cur

    def apply(self, window, frame):
        """(range window, image) of a frame over ``window.pad(margin)``.

        Each symbol or slot factor widens the window by its own degree,
        so nothing is truncated until the final crop by the caller; an
        interior factor acts on the coordinates of the base window.
        """
        out = np.array(frame, dtype=np.complex128)
        if out.shape[0] != window.pad(self.margin).dim:
            raise DimensionMismatch("frame does not match the padded window")
        steps, end = self._steps(window)
        for kind, data, sym, cur, nxt in steps:
            if sym is None:
                rows = _interior_rows(data.support, window, cur)
                out[rows] = data.block @ out[rows]
            elif kind == "sym":
                out = _band_apply(sym, cur, nxt, out)
            else:
                ch = data[0]
                per, per_nxt = cur.modes_per_channel, nxt.modes_per_channel
                src = out[ch * per:(ch + 1) * per]
                out = lift_frame(out, cur, nxt)
                out[ch * per_nxt:(ch + 1) * per_nxt] = _band_apply(
                    sym, ModeWindow(cur.half_width),
                    ModeWindow(nxt.half_width), src)
        return end, out

    def _pull_back_rows(self, window, rows):
        """The mask of the padded-domain columns whose image can be
        nonzero on ``rows`` (an index array or a mask over the rows of
        :meth:`apply`'s range window).  The rows are pulled back through
        the factors, last first, by mode arithmetic.  A symbol factor
        moves them by the powers of its nonzero coefficient planes,
        between the channels each plane couples; a slot factor does so on
        its own channel and keeps the others in place; an interior factor
        adds its whole support when they meet it.  The column mask may
        hold extra columns, whose images vanish on those rows."""
        steps, end = self._steps(window)
        # mask[c, j] stands for coordinate c * per + j of the window
        mask = np.zeros((end.channels, end.modes_per_channel), dtype=bool)
        mask.reshape(-1)[rows] = True
        for kind, data, sym, cur, nxt in reversed(steps):
            if sym is None:
                on = _interior_rows(data.support, window, cur)
                flat = mask.reshape(-1)
                if flat[on].any():
                    flat[on] = True
            elif kind == "sym":
                mask = _pull_back(sym, cur, nxt, mask)
            else:
                ch, d = data[0], nxt.half_width - cur.half_width
                lifted = mask[:, d:d + cur.modes_per_channel].copy()
                lifted[ch] = _pull_back(sym, cur, nxt, mask[ch:ch + 1])[0]
                mask = lifted
        return mask.reshape(-1)

    def realize(self, window):
        """Windowed operator of the whole chain over ``window``, which
        answers block reads from the chain and builds its matrix, the
        image of the identity frame, on first read."""
        domain = window.pad(self.margin)
        _, end = self._steps(window)
        return WindowedOperator._lazy(domain, end, window, lambda: self.apply(
            window, np.eye(domain.dim, dtype=np.complex128))[1], chain=self)

    def certified_ratio(self, window):
        """A lower bound on sigma_min / sigma_max of :meth:`realize`'s
        matrix: the product of the factor ratios, which bounds the
        composite because every factor is a tall injective map.

        A symbol factor contributes ``circles.certified_ratio``.  A slot
        factor with symbol a is block diagonal, isometries beside a's band
        matrix, so it gives min(1, lo) / max(1, S) where S = ``a.norm_sum``
        and lo = ``certified_ratio(a)`` * S.  An interior factor is the
        identity outside its support S, so its singular values are its
        block's together with 1 whenever S is not the whole window.
        """
        ratio = 1.0
        for kind, data, sym, cur, _ in self._steps(window)[0]:
            if sym is None:
                ratio *= data.ratio(cur.dim)
            else:
                sym_ratio = certified_ratio(sym)
                if kind == "slot":
                    scale = sym.norm_sum
                    sym_ratio = min(1.0, sym_ratio * scale) / max(1.0, scale)
                ratio *= sym_ratio
            if not ratio:
                return 0.0
        return ratio


def _symbol_of(kind, data):
    return data[1] if kind == "slot" else data


def _interior_rows(idx, window, cur):
    """Rows of ``cur``, a padding of ``window``, that hold the base
    coordinates ``idx``."""
    return _lift_rows(window, cur.half_width - window.half_width)[idx]


def _pull_back(sym, source, target, mask):
    """The (channel, position) mask over ``source`` of the inputs of
    multiplication by ``sym`` that can reach the (channel, position) mask
    ``mask`` over ``target``, a padding of ``source`` by s modes.
    Position j of mode n reaches position j + s + p through the plane of
    power p."""
    per = source.modes_per_channel
    shift = target.half_width - source.half_width
    out = np.zeros((mask.shape[0], per), dtype=bool)
    for k, plane in enumerate(sym.coeffs):
        if plane.any():
            at = sym.d_min + shift + k
            out |= (plane != 0).T @ mask[:, at:at + per]
    return out


def _interior_support(data):
    """The :class:`Interior` record of a square matrix: the coordinates
    where it differs from the identity (its nonzero entries off the
    diagonal and its diagonal entries other than 1), its block on them,
    and the block's extreme singular values."""
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise DimensionMismatch("interior factor is not a square matrix")
    diff = data != 0
    np.fill_diagonal(diff, np.diagonal(data) != 1)
    idx = np.flatnonzero(diff.any(axis=0) | diff.any(axis=1))
    block = data[np.ix_(idx, idx)]
    if not np.isfinite(block).all():
        raise InvalidInput("interior factor entries must be finite")
    sigma = (1.0, 1.0)
    if idx.size:
        s = singular_values(block)
        sigma = (float(s[-1]), float(s[0]))
    return Interior(data.shape[0], idx, block, sigma)


def _as_chain(twist):
    if twist is None or isinstance(twist, TwistChain):
        return twist
    if isinstance(twist, np.ndarray):
        return TwistChain(factors=(("interior", twist),))
    if hasattr(twist, "coeffs") and hasattr(twist, "channels"):
        return TwistChain(factors=(("sym", twist),))
    raise InvalidInput("twist must be None, a Laurent symbol, an interior "
                       "matrix, or a TwistChain")


def check_fan_parts(parts, n):
    """Refuse parts that cannot carry a fan over an ambient of dimension
    ``n``: each lies in it, their dimensions add up to it, and they are
    pairwise orthogonal."""
    for p in parts:
        if p.ambient_dim != n:
            raise DimensionMismatch("fan subspace in wrong ambient space")
    if sum(p.dim for p in parts) != n:
        raise NotAFan("part dimensions do not add up to the ambient")
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            if a.dim and b.dim and not \
                    np.abs(a.frame.conj().T @ b.frame).max() <= PROJECTOR_ATOL:
                raise NotAFan("parts are not pairwise orthogonal")


@dataclass(frozen=True, eq=False)
class Fan:
    """Ordered parts and members over a common ambient space.

    ``construction`` optionally records (part, operator or None) pairs
    from :func:`fan_from_twists`; it is what makes formula 2 possible.
    """

    ambient: ModelSpace
    parts: tuple
    members: tuple
    construction: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.parts) != len(self.members):
            raise InvalidInput("parts and members differ in length")
        if not self.parts:
            raise InvalidInput("a fan needs at least one part")
        n = self.ambient.dim
        for s in self.members:
            if s.ambient_dim != n:
                raise DimensionMismatch("fan subspace in wrong ambient space")
        check_fan_parts(self.parts, n)

    @property
    def n_parts(self):
        return len(self.parts)


@dataclass(frozen=True)
class FanIndexReport:
    """The four index formulas of the module docstring; formula2 is None
    when some twist does not map the base window onto itself (or the fan
    carries no twist data)."""

    formula1: int
    formula2: object
    formula3: int
    formula4: int


def fan_from_twists(space, parts, twists, budget=None):
    """Fan with members[i] = window intersection of twist_i(part_i padded).

    ``parts`` are :class:`PredicatePart` objects over the space's window;
    ``twists`` are per-part chains (a Laurent symbol, an interior square
    matrix, a TwistChain, or None).  Every twist must almost commute
    with every part projector: the commutator rank of the base-cropped
    twist with each part's coordinate splitting (the part against the
    rest of the window) is checked against ``budget``.
    """
    if space.window is None:
        raise InvalidInput("fan construction needs a windowed ambient space")
    if len(parts) != len(twists):
        raise InvalidInput("parts and twists differ in length")
    window = space.window
    bases = []
    for part in parts:
        if part.window.dim != window.dim:
            raise DimensionMismatch("part window does not match the ambient")
        bases.append(mode_span(part.window, part.predicate))
    # each part against the rest of the window, from the part's own mask
    splittings = [Splitting._coordinate(base._mask) for base in bases]
    members, construction = [], []
    for part, base, twist in zip(parts, bases, twists):
        chain = _as_chain(twist)
        op = None if chain is None else chain.realize(window)
        construction.append((part, op))
        if op is None:
            members.append(base)
            continue
        # the member builds the matrix, which the commutator then reads
        members.append(op.apply_within_window(pad_by_predicate(
            base, part.window, op.margin, part.predicate)))
        # by default the margin modes crossing a part boundary, plus slack
        # for small-rank perturbations riding on top of a shift
        cap = 2 * op.margin * window.channels + 4 if budget is None else budget
        for split in splittings:
            if commutator_rank(op, split) > cap:
                raise NotAFan(
                    "twist does not almost commute with a part projector "
                    f"(budget {cap})"
                )
    return Fan(ambient=space, parts=tuple(bases),
               members=tuple(members), construction=tuple(construction))


def _invertible_on_window(op):
    """Whether the twist maps the base window bijectively onto itself:
    no leakage out of the base rows, and an invertible square part.
    Both are decided relative to the operator's scale, on its matrix
    over a power of two (``subspaces._power_of_two_scaled``), so no
    singular value overflows."""
    tol = current_tolerance()
    m = _power_of_two_scaled(op.matrix)[0]
    rows, cols = op.base_rows_mask(), op.base_columns_mask()
    leak = m[np.ix_(~rows, cols)]
    if leak.size and np.abs(leak).max() > tol * np.abs(m).max():
        return False
    s = singular_values(m[np.ix_(rows, cols)])
    return s[-1] > tol * s[0]


def fan_index(f):
    """The four index formulas of a fan: formulas 1 and 3 are counted,
    formula 2 takes one invertibility decision per twist, and formula 4
    an intersection and a sum per member after the first."""
    n = f.ambient.dim
    formula1 = sum(m.dim for m in f.members) - n
    formula2 = None
    if f.construction is not None and all(
            op is None or _invertible_on_window(op)
            for _, op in f.construction):
        formula2 = 0
    formula3 = sum(m.dim - p.dim for m, p in zip(f.members, f.parts))

    running = f.members[0]
    overlaps = 0
    for m in f.members[1:]:
        overlaps += intersection(running, m).dim
        running = subspace_sum(running, m)
    formula4 = overlaps - (n - running.dim)

    return FanIndexReport(formula1=formula1, formula2=formula2,
                          formula3=formula3, formula4=formula4)


def finite_rank_twist(window, vecs_out, vecs_in, scale=0.5):
    """Interior factor I + scale * sum u_i v_i^H on the base window.

    With unit vectors and scale below 1/rank the perturbation cannot
    reach -1 in spectrum, so the factor stays invertible.
    """
    m = np.eye(window.dim, dtype=np.complex128)
    for u, v in zip(vecs_out, vecs_in):
        m += scale * np.outer(u, v.conj())
    return m


def _random_unit_interior(rng, window, edge_gap):
    mask = np.abs(window.mode_labels()) <= window.half_width - edge_gap
    v = np.zeros(window.dim, dtype=np.complex128)
    v[mask] = rng.standard_normal(int(mask.sum())) \
        + 1j * rng.standard_normal(int(mask.sum()))
    return v / np.linalg.norm(v)


def random_fan(rng, half_width=6, channels=1, budget=None):
    """Synthetic fan: random interval partition, each part twisted by a
    mode shift, a finite-rank rotation of the identity, or nothing.
    ``budget`` is :func:`fan_from_twists`'s."""
    circle = twist_circle(half_width, channels=channels)
    space = circle.space()
    window = space.window
    lo, hi = -half_width + 1, half_width
    if hi - lo < 3:  # each of up to 4 parts needs its own cut mode
        raise InvalidInput(
            f"4 random parts need half_width >= 2, got {half_width}")
    n_parts = int(rng.integers(2, 5))
    cuts = sorted(rng.choice(np.arange(lo, hi), size=n_parts - 1,
                             replace=False).tolist())
    parts = partition_parts(window, cuts)
    twists = []
    for _ in parts:
        kind = rng.integers(0, 4)
        if kind == 0:
            twists.append(None)
        elif kind == 1:
            k = int(rng.choice([-2, -1, 1, 2]))
            twists.append(LaurentSymbol.monomial(k, channels=channels))
        else:
            nvec = int(rng.integers(1, 3))
            outs = [_random_unit_interior(rng, window, 1) for _ in range(nvec)]
            ins = [_random_unit_interior(rng, window, 1) for _ in range(nvec)]
            twists.append(finite_rank_twist(window, outs, ins,
                                            scale=0.4 / nvec))
    return fan_from_twists(space, parts, twists, budget=budget)
