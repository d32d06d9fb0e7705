"""Fredholm fans: families of subspaces perturbing an orthogonal direct
sum decomposition of a windowed model space.

A fan is built from pairwise orthogonal parts spanning the ambient space
by twisting each part with a chain of windowed factors.  Its index can
be read off four different ways (stacked inclusion, summed twist
operator, summed restricted projections, telescoped intersections); all
present formulas must agree, and the tests check that they do rather
than assuming it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotAFan
from .spaces import ModelSpace, make_splitting
from .subspaces import (
    current_tolerance,
    intersection,
    rank,
    subspace_sum,
    restricted_projection_index,
)
from .windows import WindowedOperator, mode_span

__all__ = [
    "Fan",
    "FanIndexReport",
    "PredicatePart",
    "TwistChain",
    "interval_part",
    "half_part",
    "partition_parts",
    "fan_from_twists",
    "fan_index",
    "twist_fan",
    "random_fan",
    "finite_rank_twist",
    "plain_ambient_space",
]


@dataclass(frozen=True, eq=False)
class PredicatePart:
    """One part of a windowed decomposition, defined by a mode predicate.

    The predicate is evaluated on padded windows too, which gives the
    part a canonical companion at every margin: boundary parts grow into
    the margin, interior parts do not.
    """

    window: object
    predicate: object

    def base(self):
        return mode_span(self.window, self.predicate)

    def padded(self, margin):
        return mode_span(self.window.pad(margin), self.predicate)


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


def half_part(window, side):
    if side == "nonneg":
        return PredicatePart(window=window, predicate=lambda n: n >= 0)
    if side == "negative":
        return PredicatePart(window=window, predicate=lambda n: n < 0)
    raise InvalidInput(f"unknown half side {side!r}")


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


def plain_ambient_space(dim, labels=None):
    """Model space with no window and a trivial splitting, for fans whose
    ambient is an abstract direct sum rather than a single circle."""
    if labels is None:
        labels = tuple(range(dim))
    return ModelSpace(dim=dim, basis_labels=tuple(labels),
                      splitting=make_splitting(dim, lambda n: False,
                                               labels=labels))


@dataclass(frozen=True, eq=False)
class TwistChain:
    """Composable twist: an ordered tuple of factors, first acting first.

    A factor is ("sym", LaurentSymbol) or ("interior", square matrix on
    the base window whose difference from the identity is supported away
    from the window edge).  Keeping the factors instead of a fixed
    matrix lets the chain be realized at full margin after further
    composition; a fixed matrix could not grow its own domain.
    """

    factors: tuple

    def __post_init__(self):
        for kind, _ in self.factors:
            if kind not in ("sym", "interior"):
                raise InvalidInput(f"unknown twist factor kind {kind!r}")

    @property
    def margin(self):
        return sum(f.degree for kind, f in self.factors if kind == "sym")

    def then(self, factor):
        return TwistChain(factors=self.factors + (factor,))

    def realize(self, window):
        """Windowed operator of the whole chain over ``window``.

        The domain is padded by the total symbol degree; each symbol
        factor widens the current window by its own degree so nothing is
        truncated until the final crop by the caller.
        """
        from .circles import symbol_band_matrix
        cur = window.pad(self.margin)
        mat = np.eye(cur.dim, dtype=np.complex128)
        for kind, data in self.factors:
            if kind == "interior":
                if data.shape != (window.dim, window.dim):
                    raise DimensionMismatch(
                        "interior factor is not square on the base window")
                pos = np.flatnonzero(
                    np.abs(cur.mode_labels().astype(int)) <= window.half_width)
                big = np.eye(cur.dim, dtype=np.complex128)
                big[np.ix_(pos, pos)] = data
                mat = big @ mat
            else:
                nxt = cur.pad(data.degree)
                mat = symbol_band_matrix(data, cur, nxt) @ mat
                cur = nxt
        return WindowedOperator(domain_window=window.pad(self.margin),
                                range_window=cur, base_window=window,
                                matrix=mat)


def _as_chain(twist):
    if twist is None or isinstance(twist, TwistChain):
        return twist
    if isinstance(twist, np.ndarray):
        return TwistChain(factors=(("interior", twist),))
    if hasattr(twist, "coeffs") and hasattr(twist, "channels"):
        return TwistChain(factors=(("sym", twist),))
    raise InvalidInput("twist must be None, a Laurent symbol, an interior "
                       "matrix, or a TwistChain")


@dataclass(frozen=True, eq=False)
class Fan:
    """Ordered parts and members over a common ambient space.

    ``construction`` optionally records (part, chain) pairs from
    :func:`fan_from_twists`; it is what makes formula 2 and
    :func:`twist_fan` possible.
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
        for s in self.parts + self.members:
            if s.ambient_dim != n:
                raise DimensionMismatch("fan subspace in wrong ambient space")
        if sum(p.dim for p in self.parts) != n:
            raise NotAFan("part dimensions do not add up to the ambient")
        for i, a in enumerate(self.parts):
            for b in self.parts[i + 1:]:
                if a.dim and b.dim and \
                        np.abs(a.frame.conj().T @ b.frame).max() > 1e-9:
                    raise NotAFan("parts are not pairwise orthogonal")

    @property
    def n_parts(self):
        return len(self.parts)


@dataclass(frozen=True)
class FanIndexReport:
    """The four index formulas; formula2 is None when some twist is not
    exactly invertible on the window (or the fan carries no twist data)."""

    formula1: int
    formula2: object
    formula3: int
    formula4: int


def _base_square(op):
    rows = op.base_rows_mask()
    cols = op.base_columns_mask()
    return op.matrix[np.ix_(rows, cols)]


def _default_budget(chain, window):
    # margin modes crossing a part boundary, plus slack for small-rank
    # perturbations riding on top of a shift
    return 2 * chain.margin * window.channels + 4


def _member_of(chain, part, window):
    op = chain.realize(window)
    return op, op.apply_within_window(part.padded(chain.margin))


def fan_from_twists(space, parts, twists, budget=None):
    """Fan with members[i] = window intersection of twist_i(part_i padded).

    ``parts`` are :class:`PredicatePart` objects over the space's window;
    ``twists`` are per-part chains (a Laurent symbol, an interior square
    matrix, a TwistChain, or None).  Every twist must almost commute
    with every part projector: the commutator rank of the base-cropped
    twist with the part projector is checked against ``budget``.
    """
    if space.window is None:
        raise InvalidInput("fan construction needs a windowed ambient space")
    if len(parts) != len(twists):
        raise InvalidInput("parts and twists differ in length")
    window = space.window
    projectors = []
    for part in parts:
        if part.window.dim != window.dim:
            raise DimensionMismatch("part window does not match the ambient")
        projectors.append(part.base().projector())
    chains = [_as_chain(t) for t in twists]
    members = []
    for part, chain in zip(parts, chains):
        if chain is None:
            members.append(part.base())
            continue
        op, member = _member_of(chain, part, window)
        b = _base_square(op)
        cap = _default_budget(chain, window) if budget is None else budget
        for p in projectors:
            if rank(b @ p - p @ b) > cap:
                raise NotAFan(
                    "twist does not almost commute with a part projector "
                    f"(budget {cap})"
                )
        members.append(member)
    return Fan(ambient=space, parts=tuple(p.base() for p in parts),
               members=tuple(members),
               construction=tuple(zip(parts, chains)))


def _invertible_on_window(op):
    """Whether the twist maps the base window bijectively onto itself:
    no leakage out of the base rows, and an invertible square part."""
    tol = current_tolerance()
    rows = op.base_rows_mask()
    cols = op.base_columns_mask()
    leak = op.matrix[np.ix_(~rows, cols)]
    if leak.size and np.abs(leak).max() > tol:
        return False
    square = op.matrix[np.ix_(rows, cols)]
    s = np.linalg.svd(square, compute_uv=False)
    return s[-1] > tol * s[0]


def fan_index(f):
    """All four index formulas of a fan, computed independently."""
    n = f.ambient.dim
    # The stacked inclusion of the members, from their direct sum (dim T)
    # into the ambient (dim n), has kernel T - r and cokernel n - r; its
    # rank r cancels, so formula 1 needs no SVD.
    formula1 = sum(m.dim for m in f.members) - n

    formula2 = None
    if f.construction is not None:
        window = f.ambient.window
        ops = [None if chain is None else chain.realize(window)
               for _, chain in f.construction]
        if all(op is None or _invertible_on_window(op) for op in ops):
            acc = np.zeros((n, n), dtype=np.complex128)
            for (part, _), op in zip(f.construction, ops):
                p = part.base().projector()
                acc += p if op is None else _base_square(op) @ p
            ker = n - rank(acc)
            coker = n - rank(acc.conj().T)
            formula2 = ker - coker

    formula3 = sum(
        restricted_projection_index(m, p).index
        for m, p in zip(f.members, f.parts)
    )

    running = f.members[0]
    overlaps = 0
    for m in f.members[1:]:
        overlaps += intersection(running, m).dim
        running = subspace_sum(running, m)
    formula4 = overlaps - (n - running.dim)

    return FanIndexReport(formula1=formula1, formula2=formula2,
                          formula3=formula3, formula4=formula4)


def twist_fan(f, edge_twists):
    """Append a twist factor to each member (None leaves it alone).

    Needs the fan's construction data: the new factor joins the stored
    chain, which is then realized at full margin with a single final
    window intersection.  Retwisting an already cropped member would
    clip the boundary data that carries the winding.
    """
    if f.construction is None:
        raise InvalidInput("fan carries no construction data to retwist")
    if len(edge_twists) != f.n_parts:
        raise InvalidInput("one edge twist per part expected")
    window = f.ambient.window
    new_members = []
    new_construction = []
    for (part, chain), twist in zip(f.construction, edge_twists):
        extra = _as_chain(twist)
        if extra is None:
            new_chain = chain
        else:
            new_chain = extra if chain is None else \
                TwistChain(factors=chain.factors + extra.factors)
        if new_chain is None:
            new_members.append(part.base())
        else:
            _, member = _member_of(new_chain, part, window)
            new_members.append(member)
        new_construction.append((part, new_chain))
    return Fan(ambient=f.ambient, parts=f.parts, members=tuple(new_members),
               construction=tuple(new_construction))


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
    labels = window.mode_labels()
    mask = np.abs(labels.astype(int)) <= window.half_width - edge_gap
    v = np.zeros(window.dim, dtype=np.complex128)
    v[mask] = rng.standard_normal(int(mask.sum())) \
        + 1j * rng.standard_normal(int(mask.sum()))
    return v / np.linalg.norm(v)


def random_fan(rng, half_width=6, channels=1, max_parts=4):
    """Synthetic fan: random interval partition, each part twisted by a
    mode shift, a finite-rank rotation of the identity, or nothing."""
    from .circles import twist_circle, LaurentSymbol
    circle = twist_circle(half_width, channels=channels)
    space = circle.space()
    window = space.window
    n_parts = int(rng.integers(2, max_parts + 1))
    lo, hi = -half_width + 1, half_width
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
    return fan_from_twists(space, parts, twists)
