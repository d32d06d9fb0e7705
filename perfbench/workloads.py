"""The three benchmark workloads: input generators, operations and checks.

Every input comes from this file's own generator, seeded by the
benchmark's ``--seed``; fredcorr's random helpers (``random_graph``,
``random_laurent_symbol``, ``random_fan``) are not used, so a change to
them cannot change a workload.  Within a workload every operation has the
same window, channel count and graph shape and only seeded coefficients
vary, so the median and the tail of a run never straddle size classes.

Each expected integer is known from the construction (or from
``numpy.roots``), never from a stored copy of fredcorr's output.  The
graph workload additionally checks a property the method must have:
the additive route equals the fan route.

An operation is a callable ``op(item)`` that returns a list of
``(label, got, expected)`` triples.  ``item.known_fault`` names the
labels that are allowed to fail because of a fault in the program the
benchmark keeps visible on purpose; such an operation counts as failed
but does not make the run incorrect.
"""

import itertools
from dataclasses import dataclass

import numpy as np

import fredcorr as fc


@dataclass(frozen=True)
class Item:
    """One operation's input, with the truth computed apart from fredcorr."""

    data: object
    known_fault: tuple = ()


# ---------------------------------------------------------------- ledger

LEDGER_WINDOW = 8
LEDGER_CIRCLES = 4
# Junction orders of a five-link chain; one round visits each once.
LEDGER_ORDERS = tuple(itertools.permutations(range(LEDGER_CIRCLES)))


def _unit_phase(rng):
    return np.exp(2j * np.pi * rng.uniform())


def _coefficient(rng):
    """A nonzero complex coefficient of modulus in [0.5, 2)."""
    return (0.5 + rng.uniform(0.0, 1.5)) * _unit_phase(rng)


def ledger_pool(rng):
    """24 sphere chains on four nested circles, one per junction order.

    The cap is twisted by c z^k with k = +-2, so every operation has the
    same matrix shapes; the chain total is 1 + k.
    """
    items = []
    for order in LEDGER_ORDERS:
        radii = [2.0]
        for _ in range(LEDGER_CIRCLES - 1):
            radii.append(radii[-1] * rng.uniform(0.5, 0.85))
        k = int(rng.choice([-2, 2]))
        items.append(Item(data=dict(radii=tuple(radii), power=k,
                                    coefficient=_coefficient(rng),
                                    order=order, truth=1 + k)))
    return items


def ledger_op(item):
    d = item.data
    circles = [fc.chain_circle(LEDGER_WINDOW, r) for r in d["radii"]]
    cap = fc.LaurentSymbol.monomial(d["power"], coefficient=d["coefficient"])
    links = ([fc.disk_correspondence(circles[0], "incoming")]
             + [fc.annulus_correspondence(a, b)
                for a, b in zip(circles, circles[1:])]
             + [fc.circles.twisted_cap(circles[-1], cap)])
    chain = fc.Chain(links=tuple(links))
    total = fc.chain_total_index(chain)
    ledger = fc.reduce_chain_ledger(chain, d["order"])
    return [("chain_total", total, d["truth"]),
            ("ledger_total", ledger.total, d["truth"])]


# ----------------------------------------------------------- wide-window

WIDE_WINDOW = 48
WIDE_CHANNELS = 2
WIDE_SEEDED_PER_ROUND = 6
# Inputs of the kept fault: fixed, whatever the seed, so that their share
# of the attempted operations is the same in every run.
WIDE_FAULT_SEED = 507060
WIDE_FAULTS_PER_ROUND = 2


def _polymul(a, b):
    """Product of matrix polynomials given as (powers, c, c) arrays."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1,) + a.shape[1:],
                   dtype=np.complex128)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i + j] += a[i] @ b[j]
    return out


def _unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return q


def _conjugate(rng, coeffs):
    """U A(z) V with seeded constant unitaries U and V."""
    u = _unitary(rng, coeffs.shape[1])
    v = _unitary(rng, coeffs.shape[1])
    return np.einsum("ij,pjk,kl->pil", u, coeffs, v)


def _unipotent(rng, upper):
    """I + N0 + N1 z with N0, N1 strictly triangular: det == 1."""
    c = np.zeros((2, 2, 2), dtype=np.complex128)
    c[0] = np.eye(2)
    i, j = (0, 1) if upper else (1, 0)
    for p in range(2):
        c[p, i, j] = 0.6 * (rng.standard_normal() + 1j * rng.standard_normal())
    return c


def wide_symbol(rng):
    """U D(z) P(z) V with D = diag(c0 z, c1 z^k1), k1 in {-1, 0, 1}.

    P = (upper unipotent)(lower unipotent) has powers 0..2 and det 1, so
    det = const * z^(1 + k1) and the winding is 1 + k1.  Channel 0 always
    carries z^1, which makes the top power 3 and the degree 3 for every
    draw: all operations share one window size.
    """
    k1 = int(rng.choice([-1, 0, 1]))
    diag = np.zeros((3, 2, 2), dtype=np.complex128)  # powers -1..1
    diag[2, 0, 0] = _coefficient(rng)
    diag[k1 + 1, 1, 1] = _coefficient(rng)
    p = _polymul(_unipotent(rng, upper=True), _unipotent(rng, upper=False))
    a = _polymul(diag, p) if rng.random() < 0.5 else _polymul(p, diag)
    return dict(coeffs=_conjugate(rng, a), d_min=-1, truth=1 + k1)


def wide_fault_symbol(rng):
    """U diag(p(z), c z^-3) V with p = (z - a)(z - b), |a| <= 0.5, |b| >= 2.

    det has one zero inside the unit disk, one outside and a pole of
    order 3, so the winding is 1 - 3 = -2; the degree is 3 as for the
    seeded symbols.
    """
    a = rng.uniform(0.1, 0.5) * _unit_phase(rng)
    b = rng.uniform(2.0, 4.0) * _unit_phase(rng)
    c = np.zeros((6, 2, 2), dtype=np.complex128)  # powers -3..2
    c[3:, 0, 0] = [a * b, -(a + b), 1.0]
    c[0, 1, 1] = _coefficient(rng)
    return dict(coeffs=_conjugate(rng, c), d_min=-3, truth=1 - 3)


def wide_pool(rng):
    """One round: six seeded symbols, then two fixed fault symbols."""
    items = [Item(data=wide_symbol(rng))
             for _ in range(WIDE_SEEDED_PER_ROUND)]
    fault_rng = np.random.default_rng(WIDE_FAULT_SEED)
    items += [Item(data=wide_fault_symbol(fault_rng),
                   known_fault=("tilde_ind",))
              for _ in range(WIDE_FAULTS_PER_ROUND)]
    return items


def wide_op(item):
    d = item.data
    sym = fc.LaurentSymbol(coeffs=d["coeffs"], d_min=d["d_min"])
    twist = fc.symbol_twist(sym, fc.twist_circle(WIDE_WINDOW,
                                                 channels=WIDE_CHANNELS))
    return [("tilde_ind", fc.tilde_ind(twist), d["truth"]),
            ("winding", fc.winding_number(sym), d["truth"])]


# ------------------------------------------------------------- graph-fan

GRAPH_WINDOW = 24
GRAPH_VERTICES = ("v0", "v1", "v2")
# (edge id, source, target): a triangle plus one chord, no self-loop.
GRAPH_EDGES = (("e0", "v0", "v1"), ("e1", "v1", "v2"),
               ("e2", "v2", "v0"), ("e3", "v0", "v2"))
GRAPH_POOL = 4


def _slot_count(v):
    return sum((s == v) + (t == v) for _, s, t in GRAPH_EDGES)


def roots_winding(coeffs, d_min):
    """Winding of a scalar Laurent polynomial: zeros inside the unit disk
    plus the lowest power, counted with ``numpy.roots``."""
    roots = np.roots(np.asarray(coeffs)[::-1])
    return int(np.count_nonzero(np.abs(roots) < 1.0)) + d_min


def _rotation(rng, dim, labels, band):
    """Unitary rotation of two coordinates whose modes lie in the band."""
    i, j = rng.choice(np.flatnonzero(np.abs(labels) <= band), size=2,
                      replace=False)
    theta = rng.uniform(0.3, 1.2)
    phase = _unit_phase(rng)
    m = np.eye(dim, dtype=np.complex128)
    m[i, i] = m[j, j] = np.cos(theta)
    m[i, j] = -np.conj(phase) * np.sin(theta)
    m[j, i] = phase * np.sin(theta)
    return m


def graph_spec(rng):
    """Seeded coefficients of one graph of the fixed shape.

    Edge symbols are c z^k (1 + a z) with k in {-1, 0} and |a| <= 1/2:
    degree 1 always, the zero -1/a lies outside the disk, so the winding
    is k.  Zeros inside the disk would hit the tilde_ind fault that
    wide-window keeps; here the roots count only confirms k.  Each vertex recipe is one interior rotation followed by a
    block shift diag(z^{+-1}); both keep the degree at 1.
    """
    edges = []
    for eid, _, _ in GRAPH_EDGES:
        c = _coefficient(rng)
        a = rng.uniform(0.1, 0.5) * _unit_phase(rng)
        k = int(rng.choice([-1, 0]))
        coeffs = (c, c * a)
        edges.append(dict(coeffs=coeffs, d_min=k,
                          winding=roots_winding(coeffs, k)))
    recipes = {}
    for v in GRAPH_VERTICES:
        n = _slot_count(v)
        window = fc.ModeWindow(GRAPH_WINDOW, channels=n)
        rot = _rotation(rng, window.dim, window.mode_labels(),
                        GRAPH_WINDOW - 4)
        shifts = rng.choice([-1, 1], size=n)
        recipes[v] = dict(rotation=rot, shifts=tuple(int(s) for s in shifts))
    return dict(edges=edges, recipes=recipes)


def graph_pool(rng):
    return [Item(data=graph_spec(rng)) for _ in range(GRAPH_POOL)]


def _shift_symbol(shifts):
    n = len(shifts)
    coeffs = np.zeros((3, n, n), dtype=np.complex128)  # powers -1..1
    for ch, j in enumerate(shifts):
        coeffs[j + 1, ch, ch] = 1.0
    return fc.LaurentSymbol(coeffs=coeffs, d_min=-1)


def graph_op(item):
    d = item.data
    circle = fc.twist_circle(GRAPH_WINDOW)
    edges = {}
    for (eid, s, t), e in zip(GRAPH_EDGES, d["edges"]):
        sym = fc.LaurentSymbol.scalar(e["coeffs"], e["d_min"])
        edges[eid] = fc.GraphEdge(s, t, circle.space(),
                                  twist=fc.symbol_twist(sym, circle))
    data = {v: fc.TwistChain(factors=(("interior", r["rotation"]),
                                      ("sym", _shift_symbol(r["shifts"]))))
            for v, r in d["recipes"].items()}
    g = fc.DecompositionGraph(vertices=GRAPH_VERTICES, edges=edges,
                              vertex_data=data)
    additive = fc.global_index_additive(g)
    checks = [("additive_equals_fan", additive, fc.global_index_fan(g))]
    for (eid, _, _), e in zip(GRAPH_EDGES, d["edges"]):
        checks.append((f"edge_index[{eid}]", fc.edge_index(g, eid),
                       e["winding"]))
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    pool: object
    op: object


WORKLOADS = {
    "ledger": Workload("ledger", ledger_pool, ledger_op),
    "wide-window": Workload("wide-window", wide_pool, wide_op),
    "graph-fan": Workload("graph-fan", graph_pool, graph_op),
}
