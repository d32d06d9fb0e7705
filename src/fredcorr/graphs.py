"""Directed multigraphs of domains glued along circles, and the index of
the associated transmission problem by three routes: vertex/edge
additivity, a fan over the edge direct sum, and self-gluing for
one-loop graphs.

Each edge carries a windowed circle model with its own splitting; each
vertex carries the boundary-value subspace of its domain inside the
ordered direct sum of its incident edge blocks (outgoing blocks first,
then incoming, each sorted by edge identifier).  Incoming-assembly
blocks take the sharp half on outgoing edges and the flat half on
incoming ones; the outgoing assembly is the complement blockwise.

Edge twists enter the additive route through the twist index of the
edge symbol and enter the fan route by composition onto the vertex
data of the edge's target vertex: the target block holds the flat half,
and only flat-side blocks can absorb a winding inside a finite window
(the sharp side loses the same dimensions the twist index gains, which
is the same asymmetry that makes chain builders push their twists onto
the outgoing cap).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .circles import (LaurentSymbol, annulus_correspondence,
                      random_laurent_symbol, symbol_twist, twist_circle,
                      weighted_diagonal)
from .errors import InvalidInput, DimensionMismatch, SelfLoopUnsupported
from .fans import Interior, TwistChain
from .morphisms import tilde_ind
from .subspaces import (Subspace, _power_of_two_scaled, current_tolerance,
                         direct_sum, rank)
from .windows import ModeWindow, image_dim

__all__ = [
    "GraphEdge",
    "DecompositionGraph",
    "boundary_slots",
    "vertex_index",
    "edge_index",
    "global_index_additive",
    "global_index_fan",
    "global_index_selfglue",
    "has_self_loops",
    "to_dot",
    "sphere_path_graph",
    "torus_graph",
    "random_graph",
]


@dataclass(frozen=True, eq=False)
class GraphEdge:
    """One oriented gluing circle: endpoints, circle model, optional twist."""

    source: object
    target: object
    space: object
    twist: object = None


@dataclass(frozen=True, eq=False)
class DecompositionGraph:
    """Vertices, identified edges, and per-vertex boundary data.

    ``edges`` maps sortable edge identifiers to :class:`GraphEdge`;
    ``vertex_data`` maps each vertex either to a plain Subspace of its
    boundary space or to a :class:`fans.TwistChain` recipe applied to
    the incoming assembly (the only form the twisted fan route can
    compose onto).
    """

    vertices: tuple
    edges: dict = field(default_factory=dict)
    vertex_data: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise InvalidInput("duplicate vertices")
        half = None
        for eid, e in self.edges.items():
            if e.source not in vs or e.target not in vs:
                raise InvalidInput(f"edge {eid!r} has endpoint outside the graph")
            sp = e.space
            if sp.window is None or sp.convention is None:
                raise InvalidInput(f"edge {eid!r} space has no window/convention")
            if sp.window.channels != 1:
                raise InvalidInput("edge circles must be scalar (one channel)")
            if half is None:
                half = sp.window.half_width
            elif sp.window.half_width != half:
                raise InvalidInput("all edge windows must share one half width")
            if e.twist is not None and e.twist.base.dim != sp.dim:
                raise DimensionMismatch(
                    f"edge {eid!r} twist does not act on its circle")
        out = {v: [] for v in self.vertices}
        inc = {v: [] for v in self.vertices}
        for eid, e in self.edges.items():
            out[e.source].append(eid)
            inc[e.target].append(eid)
        # every vertex's boundary slots, read by boundary_slots
        object.__setattr__(self, "_slots", {
            v: tuple((eid, "out") for eid in sorted(out[v]))
            + tuple((eid, "in") for eid in sorted(inc[v]))
            for v in self.vertices})
        # and the window of each vertex with slots, read by _vertex_window
        object.__setattr__(self, "_windows", {
            v: ModeWindow(half, channels=len(slots))
            for v, slots in self._slots.items() if slots})
        for v in self.vertices:
            if v not in self.vertex_data:
                raise InvalidInput(f"vertex {v!r} has no boundary data")
            data = self.vertex_data[v]
            if isinstance(data, Subspace):
                need = sum(self.edges[e].space.dim
                           for e, _ in boundary_slots(self, v))
                if data.ambient_dim != need:
                    raise DimensionMismatch(
                        f"data of vertex {v!r} has ambient {data.ambient_dim},"
                        f" boundary space has dimension {need}")
            elif not isinstance(data, TwistChain):
                raise InvalidInput(
                    "vertex data must be a Subspace or a TwistChain recipe")

    @property
    def half_width(self):
        for e in self.edges.values():
            return e.space.window.half_width
        return None


def boundary_slots(g, v):
    """Ordered (edge id, role) blocks of the boundary space of ``v``:
    outgoing blocks first, each group sorted by edge id.  A self-loop
    contributes one block of each role.  The graph orders them once,
    when it is built."""
    return g._slots.get(v, ())


def _vertex_window(g, v):
    """The window of the boundary space of ``v``, one channel per slot;
    None when ``v`` has no slots."""
    return g._windows.get(v)


def _assembly_halves(g, v, which, margin=0):
    """The splitting halves of the boundary slots, in slot order.

    ``which`` is "in" (sharp on outgoing, flat on incoming) or "out"
    (the blockwise complement), each padded by ``margin``
    (``ModelSpace.sharp_padded``/``flat_padded``).
    """
    halves = []
    for eid, role in boundary_slots(g, v):
        sp = g.edges[eid].space
        take_sharp = (role == "out") == (which == "in")
        halves.append(sp.sharp_padded(margin) if take_sharp
                      else sp.flat_padded(margin))
    return halves


def _assembly(g, v, which, margin=0):
    """Block stack of the slots' halves (:func:`_assembly_halves`) by
    ``subspaces.direct_sum``."""
    halves = _assembly_halves(g, v, which, margin)
    return direct_sum(*halves) if halves else Subspace.zero(0)


def _member_dim(g, v, extra_factors=()):
    """Dimension of the vertex member: ``windows.image_dim`` of the
    vertex chain followed by ``extra_factors``, on the incoming assembly
    padded by the realized operator's margin, with the chain's certified
    ratio.  The assembly is a coordinate span, so above the cutoff only
    its unit columns that the chain pulls back from the rows outside the
    window are pushed, and no member is built."""
    data = g.vertex_data[v]
    if isinstance(data, Subspace):
        return data.dim
    window = _vertex_window(g, v)
    if window is None:
        return 0
    chain = data.then(*extra_factors)
    op = chain.realize(window)
    return image_dim(op, _assembly(g, v, "in", op.margin),
                     chain.certified_ratio(window))


def vertex_index(g, v):
    """Pair index of the vertex data against the outgoing assembly,
    counted from their dimensions: dim member + dim outgoing - n, with
    the member dimension of a recipe counted by :func:`_member_dim`."""
    if v not in g.vertex_data:
        raise InvalidInput(f"vertex {v!r} has no boundary data")
    # the outgoing assembly's dim - ambient dim, summed over its blocks
    return _member_dim(g, v) + sum(h.dim - h.ambient_dim
                                   for h in _assembly_halves(g, v, "out"))


def edge_index(g, e):
    """Twist index of the edge symbol with the edge's own splitting."""
    t = g.edges[e].twist
    return 0 if t is None else tilde_ind(t)


def global_index_additive(g):
    """Sum of all vertex and edge indices.

    Handles self-loops; note that for a twisted self-loop the window
    truncation of the gluing recurrence can make this sum differ from
    the self-gluing pair index, which is the oracle-pinned one.
    """
    return (sum(vertex_index(g, v) for v in g.vertices)
            + sum(edge_index(g, e) for e in g.edges))


def _fan_extras(g, v):
    """The twists of the incoming edges of ``v`` as slot factors, each
    acting by the edge's own symbol over a power of two on its slot: a
    constant moves no windowed image's dimension, and a slot far from
    the identity slots beside it would take the chain's certified ratio
    under the cutoff."""
    slots = boundary_slots(g, v)
    twisted = [(c, g.edges[eid].twist) for c, (eid, role) in enumerate(slots)
               if role == "in" and g.edges[eid].twist is not None]
    if twisted and not isinstance(g.vertex_data[v], TwistChain):
        raise InvalidInput(
            f"vertex {v!r} has twisted incoming edges but no recipe data;"
            " the fan route cannot compose a twist onto a cropped subspace")
    extras = []
    for c, t in twisted:
        if t.symbol is None:
            raise InvalidInput("edge twist carries no symbol")
        extras.append(("slot", (c, t.symbol._over_power_of_two())))
    return tuple(extras)


def global_index_fan(g):
    """Fan index over the edge direct sum: parts are the incoming
    assemblies, members the vertex data with edge twists composed onto
    their target blocks.

    The index is formula 1 of ``fan_index``, the sum of the member
    dimensions minus the ambient dimension, so each member is counted
    by :func:`_member_dim` and never built: the vertex chain followed by
    the slot factors is pushed only on the columns of the padded halves
    that reach the rows outside the window, and the count is the rank of
    that small block.  The parts
    need no ``check_fan_parts`` pass: they are the sharp half of each edge at
    its source and the flat half at its target, so their dimensions fill
    each edge block, and every ``Splitting`` keeps its halves orthogonal
    to ``PROJECTOR_ATOL``.  Twisted members need recipe vertex data; a
    twist composed after the crop would clip the boundary modes that
    carry its winding.
    """
    for eid, e in g.edges.items():
        if e.source == e.target:
            raise SelfLoopUnsupported(
                f"edge {eid!r} starts and ends at one vertex;"
                " use global_index_selfglue")
    if not g.edges:
        return 0
    total = (2 * g.half_width + 1) * len(g.edges)
    return sum(_member_dim(g, v, _fan_extras(g, v))
               for v in g.vertices) - total


def global_index_selfglue(l, phi):
    """Pair index of an endo-correspondence L against the graph G =
    {(x, phi x)} of a twist, over the pairs that stay in the window.

    This is the one-vertex one-loop model: L holds the boundary values on
    both copies of the circle, G the gluing condition.  The index is
    counted, dim L + dim G - ambient (the count of ``dimension_index``,
    taken inline): phi is injective, so dim G is that of phi's windowed
    image of the base columns (``windows.image_dim``), and no frame of G
    is built.

    It warns when one subspace contains the other, with dim(L cap G) =
    dim L - rank R for L framed by [A; B], R = M_b A - B placed on the
    base rows and M_b phi's block at the base columns.  R subtracts
    terms on the scales of 1 and of M_b, so its rank is decided against
    tol * (1 + ||M_b||_F), with a large M_b taken over its power of two.
    """
    if not l.is_endo:
        raise DimensionMismatch("self-gluing needs an endo-correspondence")
    n = phi.base.dim
    if l.subspace.ambient_dim != 2 * n:
        raise DimensionMismatch("twist does not act on the gluing circle")
    op = phi.operator
    cols = op.base_columns_mask()
    graph_dim = image_dim(op, Subspace._from_mask(cols),
                          phi._injectivity_ratio)
    small = min(l.subspace.dim, graph_dim)
    if small > 0:
        frame = l.subspace.frame
        m_b = op.entries(np.ones(op.range_window.dim, dtype=bool), cols)
        s = 2.0 ** -max(_power_of_two_scaled(m_b)[1], 0)
        resid = (s * m_b) @ frame[:n]
        resid[op.base_rows_mask()] -= s * frame[n:]
        cut = current_tolerance() * (s + np.linalg.norm(s * m_b))
        if l.subspace.dim - rank(resid, absolute_tol=cut) == small:
            warnings.warn("self-gluing pair is degenerate: one subspace "
                          "contains the other", RuntimeWarning, stacklevel=2)
    return l.subspace.dim + graph_dim - 2 * n


def has_self_loops(g):
    return any(e.source == e.target for e in g.edges.values())


def sphere_path_graph(half_width, twist=None, radii=(2.0, 1.0)):
    """Disk--annulus--disk path; an optional transmission symbol rides on
    the edge into the outgoing disk, whose recipe data can absorb it."""
    r1, r2 = radii
    outer = twist_circle(half_width, r1)
    inner = twist_circle(half_width, r2)
    tw = None if twist is None else symbol_twist(twist, inner)
    edges = {
        "e1": GraphEdge("in", "mid", outer.space()),
        "e2": GraphEdge("mid", "out", inner.space(), twist=tw),
    }
    ann = annulus_correspondence(outer, inner).subspace
    d = ann.ambient_dim // 2
    # mid slots are (e2, out) then (e1, in): swap the correspondence halves
    mid = Subspace._recorded(ann.ambient_dim, ann.dim, lambda: np.vstack(
        [ann.frame[d:], ann.frame[:d]]))
    data = {
        "in": TwistChain(factors=()),
        "mid": mid,
        "out": TwistChain(factors=(("sym", LaurentSymbol.monomial(1)),)),
    }
    return DecompositionGraph(vertices=("in", "mid", "out"),
                              edges=edges, vertex_data=data)


def torus_graph(q, k, half_width):
    """One annulus vertex self-glued along one circle, weight q, twist z^k."""
    if not (0.0 < q < 1.0):
        raise InvalidInput("weight q must lie strictly between 0 and 1")
    circle = twist_circle(half_width)
    tw = symbol_twist(LaurentSymbol.monomial(k), circle) if k else None
    edges = {"e": GraphEdge("v", "v", circle.space(), twist=tw)}
    data = {"v": weighted_diagonal(circle, q).subspace}
    return DecompositionGraph(vertices=("v",), edges=edges, vertex_data=data)


def _rotation_factor(rng, window, band):
    """Unitary rotation of two window coordinates with modes inside the
    interior band, as an interior chain factor."""
    pool = np.flatnonzero(np.abs(window.mode_labels()) <= band)
    i, j = rng.choice(pool, size=2, replace=False)
    theta = rng.uniform(0.3, 1.2)
    phase = np.exp(2j * np.pi * rng.uniform())
    c, s = np.cos(theta), np.sin(theta)
    block = np.array([[c, -np.conj(phase) * s], [phase * s, c]])
    if i > j:  # the support is sorted, as flatnonzero sorts it
        i, j, block = j, i, block[::-1, ::-1]
    # a rotation is unitary: both extreme singular values are 1
    return ("interior", Interior(window.dim, np.array([i, j]), block,
                                 (1.0, 1.0)))


def _shift_factor(rng, window):
    js = rng.integers(-1, 2, size=window.channels)
    if not np.any(js):
        return None
    lo, hi = int(js.min()), int(js.max())
    coeffs = np.zeros((hi - lo + 1, window.channels, window.channels),
                      dtype=np.complex128)
    for c, j in enumerate(js):
        coeffs[int(j) - lo, c, c] = 1.0
    return ("sym", LaurentSymbol(coeffs=coeffs, d_min=lo))


def random_graph(rng, half_width=8, twist_probability=0.6):
    """Self-loop-free synthetic graph with recipe vertex data.

    Vertex recipes are block mode shifts plus a couple of interior
    rotations applied to the incoming assembly; edge twists are
    monomials or random symbols of the exactly-windowable class.
    """
    if half_width < 5:  # the rotations need modes inside |n| <= half_width - 4
        raise InvalidInput(f"a random graph needs half_width >= 5, got {half_width}")
    n_vertices = int(rng.integers(2, 5))
    n_edges = int(rng.integers(max(2, n_vertices - 1), 7))
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    circle = twist_circle(half_width)
    edges = {}
    for i in range(n_edges):
        if i < n_vertices - 1:
            s, t = i, i + 1  # spine keeps every vertex incident
        else:
            s, t = rng.choice(n_vertices, size=2, replace=False)
        if rng.random() < twist_probability:
            if rng.random() < 0.5:
                sym = LaurentSymbol.monomial(int(rng.choice([-2, -1, 1, 2])))
            else:
                sym = random_laurent_symbol(rng, channels=1,
                                            degree=int(rng.integers(1, 3)))
            tw = symbol_twist(sym, circle)
        else:
            tw = None
        edges[f"e{i}"] = GraphEdge(f"v{s}", f"v{t}", circle.space(), twist=tw)
    g_probe = DecompositionGraph(vertices=vertices, edges=edges,
                                 vertex_data={v: TwistChain(factors=())
                                              for v in vertices})
    data = {}
    for v in vertices:
        window = _vertex_window(g_probe, v)
        factors = []
        for _ in range(int(rng.integers(0, 3))):
            factors.append(_rotation_factor(rng, window, half_width - 4))
        shift = _shift_factor(rng, window)
        if shift is not None:
            factors.append(shift)
        data[v] = TwistChain(factors=tuple(factors))
    return DecompositionGraph(vertices=vertices, edges=edges, vertex_data=data)


def _twist_label(twist):
    if twist is None:
        return "1"
    sym = twist.symbol
    if sym is None:
        return "op"
    if sym.coeffs.shape == (1, 1, 1):
        c = sym.coeffs[0, 0, 0]
        coef = "" if c == 1.0 else \
            (f"{c.real:.3g}" if c.imag == 0.0 else f"({c:.3g})")
        power = "" if sym.d_min == 0 else f"z^{sym.d_min}"
        return (coef + (" " if coef and power else "") + power) or "1"
    return f"sym[{sym.d_min}..{sym.d_max}]"


def to_dot(g):
    """Deterministic DOT rendering with vertex indices and twist labels."""
    lines = ["digraph decomposition {"]
    for v in sorted(g.vertices, key=str):
        lines.append(f'  "{v}" [label="{v} (ind {vertex_index(g, v)})"];')
    for eid in sorted(g.edges, key=str):
        e = g.edges[eid]
        lines.append(f'  "{e.source}" -> "{e.target}" '
                     f'[label="{eid}: {_twist_label(e.twist)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
