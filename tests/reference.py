"""Small readers and dense references shared by the test files: the
coordinate of a window mode and the channel-by-channel layout formulas
(the base rows of a wider window, a frame, coordinates and a padded
half lifted into it), a coordinate span from its indices, membership of
a vector in a subspace, a twist re-based onto another splitting, a
symbol evaluated on points of the circle, the winding counted from the
roots of the determinant (what ``circles.winding_number`` reads off its
grid values when a bound certifies them), a graph vertex's member built
as a frame (what ``graphs._member_dim`` counts without building), the
boundary pairing with its twisted image built (what
``circles.mv_pairing`` counts), the twist graph built as a frame (what
``graphs.global_index_selfglue`` counts), the random symbol composed of
validated symbols (what ``circles.random_laurent_symbol`` multiplies as
coefficient planes), the product count of a windowed image (what
``windows.image_dim`` reads off a coordinate span's columns), an
interior factor's ratio from the SVD of its block (what
``fans.Interior`` records carry), and the index routes whose ranks
cancel decided by those ranks: the restricted projection index, fan
formulas 2 and 3, and the pair kind's inclusion and restriction routes
(what ``fans.fan_index`` and ``cli.run_pair`` count)."""

from dataclasses import dataclass

import numpy as np

from fredcorr import fans, graphs
from fredcorr.circles import (LaurentSymbol, _det_floor, _horner,
                              multiplication_operator)
from fredcorr.errors import DimensionMismatch, InvalidInput, SymbolSingular
from fredcorr.morphisms import Correspondence, Twist
from fredcorr.subspaces import (Subspace, _check_same_ambient, complement,
                                dimension_index, direct_sum, intersection,
                                rank, subspace_sum)
from fredcorr.windows import ModeWindow, pad_by_predicate, restricted_image


def coord(window, channel, n):
    """The coordinate of mode ``n`` on ``channel``: the channel-major
    layout c * (2M + 1) + n + M."""
    assert -window.half_width <= n <= window.half_width
    assert 0 <= channel < window.channels
    return channel * window.modes_per_channel + n + window.half_width


def in_base(range_window, base_window):
    """Mask of the range-window coordinates whose mode lies in the base
    window, one channel block at a time."""
    per, h = range_window.modes_per_channel, range_window.half_width
    block = np.abs(np.arange(per) - h) <= base_window.half_width
    return np.tile(block, range_window.channels)


def lift_by_channel(frame, from_window, to_window):
    """A frame over ``from_window`` re-indexed into ``to_window``, one
    channel block at a time: channel c's rows c * per .. (c + 1) * per
    move to rows c * per' + shift onwards."""
    out = np.zeros((to_window.dim, frame.shape[1]), dtype=np.complex128)
    shift = to_window.half_width - from_window.half_width
    per_f = from_window.modes_per_channel
    per_t = to_window.modes_per_channel
    for c in range(from_window.channels):
        out[c * per_t + shift: c * per_t + shift + per_f] = \
            frame[c * per_f: (c + 1) * per_f]
    return out


def lifted_rows(idx, window, cur):
    """Rows of ``cur``, a padding of ``window``, holding the coordinates
    ``idx``: coordinate c * per + r sits at row c * per' + r + shift."""
    shift = cur.half_width - window.half_width
    return idx + 2 * shift * (idx // window.modes_per_channel) + shift


def pad_by_channel(sub, window, margin, predicate):
    """``windows.pad_by_predicate`` one channel block at a time: a mask
    lifted by reshaping it to (channels, modes), and a frame lifted by
    :func:`lift_by_channel`, then stacked beside the unit columns of the
    margin modes that ``predicate`` keeps, in coordinate order."""
    padded = window.pad(margin)
    labels = padded.mode_labels()
    extra = np.flatnonzero([abs(int(n)) > window.half_width
                            and predicate(int(n)) for n in labels])
    per, per_w = padded.modes_per_channel, window.modes_per_channel
    if sub._mask is not None:
        mask = np.zeros((window.channels, per), dtype=bool)
        mask[:, margin:margin + per_w] = sub._mask.reshape(-1, per_w)
        mask = mask.ravel()
        mask[extra] = True
        return mask
    frame = np.hstack([lift_by_channel(sub.frame, window, padded),
                       np.zeros((padded.dim, extra.size))])
    frame[extra, sub.dim + np.arange(extra.size)] = 1.0
    return frame


def mode_at(window, i):
    """(channel, mode) of coordinate ``i``, the inverse of :func:`coord`."""
    assert 0 <= i < window.dim
    c, r = divmod(i, window.modes_per_channel)
    return c, r - window.half_width


def from_indices(ambient_dim, indices):
    """Coordinate subspace spanned by the listed basis directions."""
    idx = np.asarray(indices, dtype=int)
    if idx.size != np.unique(idx).size:
        raise InvalidInput("duplicate coordinate indices")
    if idx.size and (idx.min() < 0 or idx.max() >= ambient_dim):
        raise InvalidInput("coordinate index out of range")
    mask = np.zeros(ambient_dim, dtype=bool)
    mask[idx] = True
    return Subspace._from_mask(mask)


def contains(sub, other):
    """Whether ``other`` (a Subspace or a vector) lies inside ``sub``:
    its normalized residual off ``sub`` stays below 1e-8."""
    if isinstance(other, Subspace):
        vecs = other.frame
    else:
        v = np.asarray(other, dtype=np.complex128).reshape(-1, 1)
        vecs = v / np.linalg.norm(v)
    assert vecs.shape[0] == sub.ambient_dim
    resid = vecs - sub.frame @ (sub.frame.conj().T @ vecs)
    return not resid.size or float(np.abs(resid).max()) < 1e-8


def rebased(t, splitting):
    """The twist ``t`` over its base space with another splitting, with
    no commutator budget (a perturbation inflates the commutator)."""
    return Twist(base=t.base.with_splitting(splitting), operator=t.operator)


def eval_grid(sym, zs):
    """The symbol at each point of ``zs``, as an (N, c, c) stack."""
    zs = np.asarray(zs, dtype=np.complex128)
    powers = zs[:, None] ** np.arange(sym.coeffs.shape[0])
    vals = np.tensordot(powers, sym.coeffs, axes=(1, 0))
    return vals * (zs ** sym.d_min)[:, None, None]


def roots_winding_number(sym):
    """``circles.winding_number`` by the roots of the stored P alone:
    c*d_min plus the zeros inside the unit disk, refused when a nonzero
    zero's nearest circle point r/|r| has |P| at most the ``MIN_DET``
    floor."""
    p = sym._det_coeffs
    roots = np.roots(p[::-1])
    near = roots[roots != 0]
    dets = _horner(p, near / np.abs(near))
    if np.abs(dets).min(initial=np.inf) <= _det_floor(sym):
        raise SymbolSingular("determinant too close to zero on the circle")
    inside = int(np.count_nonzero(np.abs(roots) < 1.0))
    return sym.channels * sym.d_min + inside


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


def twist_graph(t):
    """The twist as an endo-correspondence: pairs (x, op x) that stay in
    the window, built as a frame."""
    cols = t.operator.base_columns_mask()
    m = t.operator.matrix[:, cols]
    sub = windowed_graph(m, t.operator.base_rows_mask())
    return Correspondence(source=t.base, target=t.base, subspace=sub)


def pushed_assembly(g, v, extras=()):
    """The padded incoming assembly pushed through the vertex recipe
    followed by ``extras``: (chain, base window, image, mask of the image
    rows inside the base window)."""
    chain = g.vertex_data[v].then(*extras)
    window = graphs._vertex_window(g, v)
    frame = graphs._assembly(g, v, "in", margin=chain.margin).frame
    cur, image = chain.apply(window, frame)
    return chain, window, image, in_base(cur, window)


def vertex_subspace(g, v):
    """The boundary-value subspace of a vertex: its data, or the window
    intersection of its recipe applied to the padded incoming assembly."""
    data = g.vertex_data[v]
    if isinstance(data, Subspace):
        return data
    if graphs._vertex_window(g, v) is None:
        return Subspace.zero(0)
    if not data.factors:
        return graphs._assembly(g, v, "in")
    _, _, image, keep = pushed_assembly(g, v)
    return restricted_image(image, keep)


def built_mv_pairing(sphere_pair, sym, n):
    """``circles.mv_pairing`` with the twisted image of the padded n-fold
    negative half built and orthonormalized (``apply_within_window``)."""
    h_minus, h_plus = sphere_pair
    half = h_minus.ambient_dim // 2
    window = ModeWindow(half, channels=n)
    op = multiplication_operator(sym, window)
    padded = pad_by_predicate(direct_sum(*[h_minus] * n), window, op.margin,
                              lambda m: m < 0)
    twisted = dimension_index(op.apply_within_window(padded),
                              direct_sum(*[h_plus] * n))
    return twisted - n * dimension_index(h_minus, h_plus)


def _unipotent_factor(rng, channels, degree, upper):
    coeffs = np.zeros((degree + 1, channels, channels), dtype=np.complex128)
    coeffs[0] = np.eye(channels)
    for p in range(degree + 1):
        block = rng.standard_normal((channels, channels)) \
            + 1j * rng.standard_normal((channels, channels))
        coeffs[p] += 0.6 * (np.triu(block, k=1) if upper
                            else np.tril(block, k=-1))
    return LaurentSymbol(coeffs=coeffs, d_min=0)


def _product(a, b):
    """The symbol a(z) @ b(z), one coefficient plane pair at a time."""
    out = np.zeros((a.coeffs.shape[0] + b.coeffs.shape[0] - 1,)
                   + a.coeffs.shape[1:], dtype=np.complex128)
    for i in range(a.coeffs.shape[0]):
        for j in range(b.coeffs.shape[0]):
            out[i + j] += a.coeffs[i] @ b.coeffs[j]
    return LaurentSymbol(coeffs=out, d_min=a.d_min + b.d_min)


def composed_random_laurent_symbol(rng, channels=1, degree=2):
    """``circles.random_laurent_symbol`` as a composition of symbols: the
    diagonal, the two unipotent factors, their product, the mixed product
    and the conjugated result are each built as a ``LaurentSymbol``, from
    the same draws of ``rng`` in the same order (the real and imaginary
    parts of U drawn apart, then those of V)."""
    ks = rng.integers(-1, 2, size=channels)
    pbud = max(degree - 1, 0)
    up_deg = int(rng.integers(0, pbud + 1))
    d = np.zeros((3, channels, channels), dtype=np.complex128)
    for i, k in enumerate(ks):
        c = 0.5 + rng.uniform(0.0, 1.5) * np.exp(2j * np.pi * rng.uniform())
        d[int(k) + 1, i, i] = c
    diag = LaurentSymbol(coeffs=d, d_min=-1)
    mix = _product(_unipotent_factor(rng, channels, up_deg, upper=True),
                   _unipotent_factor(rng, channels, pbud - up_deg, upper=False))
    sym = _product(diag, mix) if rng.random() < 0.5 else _product(mix, diag)
    if channels > 1:
        u, _ = np.linalg.qr(rng.standard_normal((channels, channels))
                            + 1j * rng.standard_normal((channels, channels)))
        v, _ = np.linalg.qr(rng.standard_normal((channels, channels))
                            + 1j * rng.standard_normal((channels, channels)))
        c = sym.coeffs.copy()
        for p in range(c.shape[0]):
            c[p] = u @ c[p] @ v
        sym = LaurentSymbol(coeffs=c, d_min=sym.d_min)
    return sym


def product_image_dim(op, sub):
    """The counted branch of ``windows.image_dim`` by its product: the
    columns of ``sub`` minus the rank of the operator's block at the rows
    outside the window and the columns reaching them, times the same rows
    of ``sub``'s frame (columns that vanish on them dropped)."""
    out = ~op.base_rows_mask()
    cols = op.columns_reaching(out)
    rows = sub.frame[cols]
    return sub.dim - rank(op.entries(out, cols) @ rows[:, rows.any(axis=0)])


def interior_ratio(factor, dim):
    """sigma_min / sigma_max of an interior factor embedded into a window
    of dimension ``dim``, from one SVD of its block."""
    if not factor.support.size:
        return 1.0
    s = np.linalg.svd(factor.block, compute_uv=False)
    lo, hi = s[-1], s[0]
    if factor.support.size < dim:
        lo, hi = min(lo, 1.0), max(hi, 1.0)
    return float(lo / hi) if hi > 0.0 else 0.0


@dataclass(frozen=True)
class RestrictionReport:
    """Kernel/cokernel data of an orthogonal projection restricted to a
    subspace, viewed as a map onto the target."""

    rank: int
    kernel_dim: int
    cokernel_dim: int
    index: int


def restricted_projection_index(a, target):
    """Index of ``P_target`` restricted to ``a``, as a map into ``target``,
    from the rank of the compressed matrix, which cancels from it."""
    _check_same_ambient(a, target)
    m = target.frame.conj().T @ a.frame
    r = rank(m)
    ker = a.dim - r
    coker = target.dim - r
    return RestrictionReport(rank=r, kernel_dim=ker, cokernel_dim=coker,
                             index=ker - coker)


def dense_fan_formulas(f):
    """(formula 2, formula 3) of a fan decided by ranks: the kernel minus
    the cokernel of the n x n summed twist sum_i T_i P_i, when every twist
    maps the base window onto itself (else None), and the summed
    restricted projection indices of the members onto their parts."""
    n = f.ambient.dim
    formula2 = None
    if f.construction is not None and all(
            op is None or fans._invertible_on_window(op)
            for _, op in f.construction):
        acc = np.zeros((n, n), dtype=np.complex128)
        for part, (_, op) in zip(f.parts, f.construction):
            p = part.projector()
            acc += p if op is None else op.base_square() @ p
        formula2 = (n - rank(acc)) - (n - rank(acc.conj().T))
    formula3 = sum(restricted_projection_index(m, p).index
                   for m, p in zip(f.members, f.parts))
    return formula2, formula3


def dense_fan_index(f):
    """``fans.fan_index`` with formulas 2 and 3 decided by ranks: the
    same formulas 1 and 4, beside :func:`dense_fan_formulas`."""
    formula2, formula3 = dense_fan_formulas(f)
    running, overlaps = f.members[0], 0
    for m in f.members[1:]:
        overlaps += intersection(running, m).dim
        running = subspace_sum(running, m)
    n = f.ambient.dim
    return fans.FanIndexReport(
        formula1=sum(m.dim for m in f.members) - n, formula2=formula2,
        formula3=formula3, formula4=overlaps - (n - running.dim))


def dense_pair_routes(a, b):
    """(inclusion, restriction) routes of a pair decided by ranks: the
    stacked inclusion a + b -> C^n, and the projection of ``a`` onto the
    complement of ``b``."""
    n = a.ambient_dim
    r = rank(np.hstack([a.frame, -b.frame]))
    inclusion = (a.dim + b.dim - r) - (n - r)
    return inclusion, restricted_projection_index(a, complement(b)).index


def svd_calls(fn, *args):
    """The number of ``numpy.linalg.svd`` calls that ``fn(*args)`` makes."""
    svd, calls = np.linalg.svd, []

    def spy(*a, **kw):
        calls.append(1)
        return svd(*a, **kw)

    np.linalg.svd = spy
    try:
        fn(*args)
    finally:
        np.linalg.svd = svd
    return len(calls)
