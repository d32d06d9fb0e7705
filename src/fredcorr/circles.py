"""Weighted Laurent-mode circles and the exactly solvable geometry on
them: disk and annulus correspondences, multiplication twists, winding
numbers, and the sphere/torus scenario builders.

A symbol's determinant is z^(c*d_min) times a polynomial P.  A symbol
computes P's coefficients once, when it is built (``_det_polynomial``),
and every reader of its determinant reads them: on the unit circle
|det A(z)| = |P(z)|, which gives the construction check and the grid
floor of sigma_min that the twist certificate starts from, and the
winding number is c*d_min plus the zeros of P inside the disk.

Mode bases are normalized per mode (the mode-k vector on a circle of
radius r carries the factor r^k), so circle subspaces are plain
coordinate spans and every index is radius-independent; radii survive
only in the annulus transfer factors q^n.

Two splitting conventions are in play, chosen per circle role: circles
that cap chains take sharp = negative modes (incoming disk index 0,
outgoing disk index 1), while twist, bordism, and graph-edge circles
take sharp = nonnegative modes (twist index = winding number).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput, SymbolSingular
from .morphisms import _NO_MODES, Chain, Correspondence, Twist
from .spaces import (
    SHARP_NEGATIVE,
    SHARP_NONNEG,
    ModelSpace,
    splitting_for_window,
)
from .subspaces import (
    MIN_DET,
    Subspace,
    _power_of_two_scaled,
    current_tolerance,
    direct_sum,
)
from .windows import (MAX_COORDINATES, ModeWindow, WindowedOperator,
                      image_dim, mode_span, pad_by_predicate)

__all__ = [
    "LaurentSymbol",
    "LaurentCircle",
    "chain_circle",
    "twist_circle",
    "multiplication_operator",
    "symbol_band_matrix",
    "certified_ratio",
    "symbol_twist",
    "winding_number",
    "disk_correspondence",
    "annulus_correspondence",
    "twisted_cap",
    "build_sphere_chain",
    "build_torus",
    "weighted_diagonal",
    "sphere_hardy_pair",
    "mv_pairing",
    "random_laurent_symbol",
    "stabilization_m0",
]

# Grid of the construction check and of the first certificate bound.
VALIDATION_GRID = 512
# Finest grid of the injectivity certificate (two doublings of the
# validation grid); past it the operator's singular values decide.
CERTIFICATE_GRID_CAP = 2 ** 11


def _unit_grid(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


# the points of the construction check, computed once
_VALIDATION_POINTS = _unit_grid(VALIDATION_GRID)
_VALIDATION_POINTS.setflags(write=False)


def _horner(coeffs, zs):
    """sum_k coeffs[k] * z**k at each point of ``zs``, lowest power first."""
    acc = np.full(zs.shape, coeffs[-1], dtype=np.complex128)
    for a in coeffs[-2::-1]:
        acc *= zs
        acc += a
    return acc


def _det_floor(sym):
    # |det A(z)| <= ||A(z)||^c <= (sum_p ||A_p||_F)^c on the unit circle
    return MIN_DET * sym._scaled_norm_sum ** sym.channels


def _det_polynomial(coeffs):
    """Coefficients of P(z) = det A(z) / z^(c*d_min) = det sum_p A_p z^p,
    lowest power first: the inverse DFT of that determinant on the
    deg P + 1 = c*(planes - 1) + 1 roots of unity.  A one-channel
    symbol is its own determinant, so P is its coefficients."""
    planes, c = coeffs.shape[:2]
    if c == 1:
        return coeffs[:, 0, 0]
    if planes == 1:
        return np.linalg.det(coeffs)
    n = c * (planes - 1) + 1
    # w[j, k] = exp(2 pi i j k / n), read off the grid by index
    w = _unit_grid(n)[np.outer(np.arange(n), np.arange(n)) % n]
    vals = (w[:, :planes] @ coeffs.reshape(planes, c * c)).reshape(n, c, c)
    return w.conj() @ np.linalg.det(vals) / n


def _grid_floor(sym, n):
    """(min |det A(z)|, min |det A(z)| / ||A(z)||_F^(c-1)) over the n-th
    roots of unity.  The second is a floor of sigma_min(A(z)) there:
    sigma_min is |det| over the product of the other c - 1 singular
    values, each at most ||A||_F.  |det A| is |P|, and ||A||_F^2 is the
    Laurent polynomial sum_{p,q} tr(A_p^H A_q) z^(q-p) of the
    coefficients' Gram traces."""
    zs = _VALIDATION_POINTS if n == VALIDATION_GRID else _unit_grid(n)
    dets = np.abs(_horner(sym._det_coeffs, zs))
    low = float(dets.min())
    c = sym.channels
    if c == 1:
        return low, low
    planes = sym.coeffs.shape[0]
    flat = sym._scaled_coeffs.reshape(planes, c * c)
    gram = flat.conj() @ flat.T
    # sum_k G_k z^k over k >= 0 with G_k = sum_p tr(A_p^H A_(p+k)); the
    # terms k < 0 are its conjugate, and G_0 is counted once
    half = _horner(np.array([gram.trace(k) for k in range(planes)]), zs)
    norms2 = 2.0 * half.real - gram.trace().real
    if not norms2.min() > 0.0:
        # A(z) vanishes at a grid point, and so does sigma_min
        return low, 0.0
    return low, float((dets / norms2 ** ((c - 1) / 2)).min())


@dataclass(frozen=True, eq=False)
class LaurentSymbol:
    """A matrix of Laurent polynomials: coeffs[p] is the coefficient
    matrix of z**(d_min + p).

    Construction strips zero planes at both ends and computes, once, what
    every reader of the symbol's determinant needs: the coefficients of
    P = det A / z^(c*d_min) (``_det_polynomial``: the coefficients
    themselves on one channel, else one batch of deg P + 1
    determinants), the norm sum S = sum_p ||A_p||_F and the grid floor
    of sigma_min(A(z)).  It validates invertibility on the unit circle by
    evaluating |P| on ``VALIDATION_GRID`` points, relative to the largest
    value S^c that the coefficients allow |det| there.  All but
    ``norm_sum`` are taken on ``_scaled_coeffs``, the coefficients over
    the power of two of their largest real or imaginary part
    (``subspaces._power_of_two_scaled``, which the relative rank cutoffs
    share).  Each reader compares quantities of one degree, so the
    scale cancels.
    """

    coeffs: np.ndarray
    d_min: int
    # stored by __post_init__ from the stripped coefficients
    d_max: int = field(init=False, repr=False)
    degree: int = field(init=False, repr=False)
    norm_sum: float = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 3 or c.shape[1] != c.shape[2] or c.shape[0] == 0:
            raise InvalidInput("coefficients must have shape (powers, c, c)")
        # a power beyond any window's modes would overflow numpy's integers
        if max(-self.d_min, self.d_min + len(c) - 1) > MAX_COORDINATES:
            raise InvalidInput(f"symbol powers exceed +-{MAX_COORDINATES}")
        # canonicalize: strip zero planes at both ends
        nz = np.flatnonzero((c != 0).any(axis=(1, 2)))
        if not nz.size:
            raise SymbolSingular("symbol is identically zero")
        lo, hi = int(nz[0]), int(nz[-1])
        d_min = int(self.d_min + lo)
        d_max = d_min + hi - lo
        c = c[lo: hi + 1].copy()
        c.setflags(write=False)
        # NaN != 0 and infinity kept their planes
        if not np.isfinite(c).all():
            raise InvalidInput("symbol coefficients must be finite")
        scaled, exponent = _power_of_two_scaled(c)
        scaled.setflags(write=False)
        norms = np.linalg.norm(scaled, axis=(1, 2))
        # sum_p |d_min + p| ||A_p||_F bounds |dA/dtheta| on the circle
        slope = float(np.abs(d_min + np.arange(norms.size)) @ norms)
        det_coeffs = _det_polynomial(scaled)
        det_coeffs.setflags(write=False)
        total = float(norms.sum())
        for name, value in (("coeffs", c), ("d_min", d_min), ("d_max", d_max),
                            ("degree", max(abs(d_min), abs(d_max))),
                            ("norm_sum", total * 2.0 ** exponent),
                            ("_scaled_coeffs", scaled),
                            ("_scaled_norm_sum", total),
                            ("_slope", slope), ("_det_coeffs", det_coeffs)):
            object.__setattr__(self, name, value)
        low, floor = _grid_floor(self, VALIDATION_GRID)
        if low <= _det_floor(self):
            raise SymbolSingular("symbol determinant vanishes on the circle")
        object.__setattr__(self, "_sigma_floor", floor)

    @property
    def channels(self):
        return self.coeffs.shape[1]

    @property
    def reach(self):
        """Modes by which a symbol action pads its domain: the degree."""
        return self.degree

    @classmethod
    def monomial(cls, k, channels=1, coefficient=1.0):
        return cls(coeffs=(coefficient * np.eye(channels, dtype=np.complex128))[None, :, :],
                   d_min=k)

    @classmethod
    def scalar(cls, coefficients, d_min):
        """Scalar symbol from a coefficient list for powers d_min..."""
        c = np.asarray(coefficients, dtype=np.complex128).reshape(-1, 1, 1)
        return cls(coeffs=c, d_min=d_min)

    def _over_power_of_two(self):
        """The symbol with the coefficients ``_scaled_coeffs``, with no
        second validation: every stored reading but ``norm_sum`` already
        belongs to them, and ``norm_sum`` becomes ``_scaled_norm_sum``."""
        sym = object.__new__(LaurentSymbol)
        sym.__dict__.update(self.__dict__, coeffs=self._scaled_coeffs,
                            norm_sum=self._scaled_norm_sum)
        return sym

    def product(self, other):
        """Pointwise matrix product self(z) @ other(z)."""
        if self.channels != other.channels:
            raise DimensionMismatch("channel counts differ")
        return LaurentSymbol(coeffs=_plane_product(self.coeffs, other.coeffs),
                             d_min=self.d_min + other.d_min)


def _plane_product(a, b):
    """Coefficient planes of the product of two matrix polynomials."""
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:], dtype=np.complex128)
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            out[i + j] += pa @ pb
    return out


def winding_number(sym):
    """Winding of the symbol determinant around zero: c*d_min plus the
    number of zeros inside the unit disk of the symbol's stored
    P = det A / z^(c*d_min).

    Rounding moves zeros that P lacks towards 0 or infinity, far from
    the circle.  A zero whose nearest circle point r/|r| has |P| at most
    the ``MIN_DET`` floor makes the symbol singular, at any angle.
    """
    p = sym._det_coeffs
    roots = np.roots(p[::-1])
    near = roots[roots != 0]
    dets = _horner(p, near / np.abs(near))
    if np.abs(dets).min(initial=np.inf) <= _det_floor(sym):
        raise SymbolSingular("determinant too close to zero on the circle")
    return sym.channels * sym.d_min + int(np.count_nonzero(np.abs(roots) < 1.0))


@dataclass(frozen=True)
class LaurentCircle:
    """A windowed Laurent-mode circle: modes -half_width..half_width in
    each channel, with a named splitting convention.  Its one
    ``window`` is built with it."""

    half_width: int
    radius: float = 1.0
    channels: int = 1
    convention: str = SHARP_NONNEG
    window: ModeWindow = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidInput("radius must be positive")
        if self.half_width < 1:
            raise InvalidInput("window must contain at least modes -1..1")
        object.__setattr__(self, "window",
                           ModeWindow(self.half_width, self.channels))

    def space(self):
        """The model space, built on the first call and then shared."""
        if "_space" not in self.__dict__:
            w = self.window
            object.__setattr__(self, "_space", ModelSpace(
                splitting=splitting_for_window(w, self.convention),
                window=w,
                convention=self.convention,
            ))
        return self._space


def chain_circle(half_width, radius=1.0, channels=1):
    """Circle in the convention used by chain caps (sharp = n < 0)."""
    return LaurentCircle(half_width, radius, channels, SHARP_NEGATIVE)


def twist_circle(half_width, radius=1.0, channels=1):
    """Circle in the convention used by twists and graph edges."""
    return LaurentCircle(half_width, radius, channels, SHARP_NONNEG)


def symbol_band_matrix(sym, from_window, to_window):
    """Exact matrix of multiplication by a symbol between two windows:
    :func:`_band_apply` on the identity frame.

    The target window must be wide enough that no output mode of any
    input mode is truncated.
    """
    if not sym.channels == from_window.channels == to_window.channels:
        raise DimensionMismatch("symbol channels do not match the windows")
    if to_window.half_width < from_window.half_width + sym.degree:
        raise DimensionMismatch("target window truncates the symbol action")
    return _band_apply(sym, from_window, to_window,
                       np.eye(from_window.dim, dtype=np.complex128))


def _band_apply(sym, from_window, to_window, frame):
    """``symbol_band_matrix(sym, from_window, to_window) @ frame`` by
    shift-and-add over the coefficient planes, on the channel-major
    (channel, mode, column) view of the frame."""
    c = sym.channels
    per = from_window.modes_per_channel
    k = frame.shape[1]
    src = frame.reshape(c, per * k)
    out = np.zeros((c, to_window.modes_per_channel, k), dtype=np.complex128)
    # input mode n sits at row n + from_hw, its image mode n + shift at
    # row n + shift + to_hw
    base = sym.d_min + to_window.half_width - from_window.half_width
    for p, plane in enumerate(sym.coeffs):
        if plane.any():
            out[:, base + p: base + p + per, :] += \
                (plane @ src).reshape(c, per, k)
    return out.reshape(to_window.dim, k)


def certified_ratio(sym):
    """A lower bound on sigma_min / sigma_max of every band matrix of the
    symbol, or 0.0 when the grid does not certify one above twice the
    current relative tolerance.

    A band matrix whose range window holds every output mode is the
    Laurent operator of the symbol restricted to coordinate inputs, so by
    Parseval its sigma_min is at least the infimum over |z| = 1 of
    sigma_min(A(z)), and its sigma_max at most S = sum_p ||A_p||_F.  The
    infimum is bounded below by the grid floor of |det A| / ||A||_F^(c-1)
    minus the Lipschitz term (pi / N) * sum_p |d_min + p| ||A_p||_F, and
    the grid is doubled, from the validation grid, until that bound
    exceeds 2 * tol * S or reaches ``CERTIFICATE_GRID_CAP``.
    """
    scale = sym._scaled_norm_sum
    n, floor = VALIDATION_GRID, sym._sigma_floor
    while True:
        bound = floor - math.pi / n * sym._slope
        if bound > 2.0 * current_tolerance() * scale:
            return bound / scale
        n *= 2
        if n > CERTIFICATE_GRID_CAP:
            return 0.0
        _, floor = _grid_floor(sym, n)


def multiplication_operator(sym, base_window):
    """Windowed operator of multiplication by a Laurent symbol.

    The domain is the base window padded by the symbol's reach, which the
    callers read back as the operator's ``margin``; the range pads the
    domain by the degree, so no output mode of any padded input is
    truncated.  Only here is ``sym`` recorded on the operator,
    for ``Twist.symbol``.  The operator reads its entries off the
    symbol (``WindowedOperator.entries``), and builds the band matrix
    (:func:`symbol_band_matrix`) once, when something first reads its
    ``matrix``: the frame of a generic ``twisted_cap`` when something
    reads it, an image closer to the cutoff than the certificate covers,
    and the commutator with a splitting that records no mask.
    """
    if sym.channels != base_window.channels:
        raise DimensionMismatch("symbol channels do not match the windows")
    domain = base_window.pad(sym.reach)
    rng_w = domain.pad(sym.degree)
    return WindowedOperator._lazy(
        domain, rng_w, base_window,
        lambda: symbol_band_matrix(sym, domain, rng_w), symbol=sym)


def symbol_twist(sym, circle):
    """The multiplication twist of a symbol on a circle model.

    It carries no commutator budget: each off-diagonal block of the
    commutator has at most degree * channels nonzero rows (the modes
    within the symbol degree of the splitting cut), so the structural
    bound 2 * degree * channels could never refuse.
    """
    op = multiplication_operator(sym, circle.window)
    return Twist(base=circle.space(), operator=op)


def disk_correspondence(circle, side):
    """Cauchy data of a disk glued along the circle.

    The incoming disk contributes the nonnegative modes as a morphism
    out of the zero space; the outgoing disk contributes the
    nonpositive modes into the zero space.
    """
    space = circle.space()
    zero = ModelSpace.zero_space()
    labels = circle.window.mode_labels()
    if side == "incoming":
        return Correspondence._span(zero, space, _NO_MODES, labels >= 0)
    if side == "outgoing":
        return Correspondence._span(space, zero, labels <= 0, _NO_MODES)
    raise InvalidInput("side must be 'incoming' or 'outgoing'")


def annulus_correspondence(outer, inner):
    """Cauchy data of the annulus between two circles, as the graph of
    the diagonal mode-transfer map from the outer to the inner circle."""
    if outer.half_width != inner.half_width or outer.channels != inner.channels:
        raise DimensionMismatch("annulus circles must share window and channels")
    if outer.radius <= inner.radius:
        raise InvalidInput("outer radius must exceed inner radius")
    return Correspondence._diagonal(outer.space(), inner.space(),
                                    inner.radius / outer.radius)


def twisted_cap(circle, sym):
    """Outgoing disk whose Cauchy data is pushed through a symbol.

    The symbol acts on the padded nonpositive half before the window
    intersection, so the cap absorbs the full transmission data; its
    index moves by exactly the winding number.  A scalar monomial c z^k
    maps the nonpositive modes onto the modes n <= k, so its cap is that
    coordinate span of the window, built with no operator.

    Any other cap is a record (``Subspace._recorded``) of the dimension
    that ``windows.image_dim`` counts on the half padded by the
    operator's margin.  Its frame is the operator's window intersection
    of that half, built only when read.  Their relative cutoffs scale
    each block by a power of two, so no singular value overflows.
    """
    space = circle.space()
    zero = ModelSpace.zero_space()
    labels = circle.window.mode_labels()
    if sym is None or sym.coeffs.shape == (1, 1, 1) and circle.channels == 1:
        k = 0 if sym is None else sym.d_min
        return Correspondence._span(space, zero, labels <= k, _NO_MODES)
    op = multiplication_operator(sym, circle.window)
    padded = pad_by_predicate(Subspace._from_mask(labels <= 0), circle.window,
                              op.margin, lambda n: n <= 0)
    sub = Subspace._recorded(
        space.dim, image_dim(op, padded, certified_ratio(sym)),
        lambda: op.apply_within_window(padded).frame)
    return Correspondence(source=space, target=zero, subspace=sub)


def build_sphere_chain(half_width, twists=(), radii=(2.0, 1.0)):
    """The sphere cut into two disks and an annulus, with optional
    transmission symbols.

    All inserted symbols are composed onto the outgoing cap: a
    symmetric graph-type link cannot carry a winding inside a finite
    window (its dimension count forces the wrong sign), while the cap
    construction adds exactly the total winding to the chain index.
    """
    r1, r2 = radii
    outer = chain_circle(half_width, r1)
    inner = chain_circle(half_width, r2)
    prod = None
    for sym in twists:
        if sym.channels != 1:
            raise InvalidInput("sphere chain twists must be scalar symbols")
        prod = sym if prod is None else prod.product(sym)
    return Chain(links=(
        disk_correspondence(outer, "incoming"),
        annulus_correspondence(outer, inner),
        twisted_cap(inner, prod),
    ))


def weighted_diagonal(circle, q):
    """Endo-correspondence {(a, Q a)} with Q = diag(q^mode), q > 0."""
    space = circle.space()
    return Correspondence._diagonal(space, space, q)


def build_torus(q, k, half_width):
    """Self-gluing data of the torus model: the weighted diagonal over
    one circle and the monomial twist z^k along the gluing."""
    if not (0.0 < q < 1.0):
        raise InvalidInput("weight q must lie strictly between 0 and 1")
    circle = twist_circle(half_width)
    l = weighted_diagonal(circle, q)
    t = symbol_twist(LaurentSymbol.monomial(k), circle)
    return l, t


def sphere_hardy_pair(half_width):
    """The two disk-side mode subspaces of one circle window."""
    w = ModeWindow(half_width)
    return (mode_span(w, lambda n: n < 0), mode_span(w, lambda n: n >= 0))


def mv_pairing(sphere_pair, sym, n):
    """Boundary pairing of a symbol against a two-disk decomposition.

    Applies the symbol to the n-fold negative half (padded, then window
    intersected) and compares the resulting pair index with n copies of
    the untwisted one.  The positive half cancels, so this is the
    dimension of the twisted image (``windows.image_dim``) minus n times
    that of the negative half.
    """
    h_minus, h_plus = sphere_pair
    if h_minus.ambient_dim != h_plus.ambient_dim:
        raise DimensionMismatch("pair halves live in different spaces")
    if h_minus.ambient_dim % 2 != 1:
        raise InvalidInput("pair must live on a symmetric mode window")
    window = ModeWindow(h_minus.ambient_dim // 2, channels=n)
    op = multiplication_operator(sym, window)
    padded = pad_by_predicate(direct_sum(*[h_minus] * n), window, op.margin,
                              lambda m: m < 0)
    return image_dim(op, padded, certified_ratio(sym)) - n * h_minus.dim


def _unipotent(rng, channels, degree, upper):
    # det == 1 identically: triangular nilpotent part, nonnegative powers only
    coeffs = np.zeros((degree + 1, channels, channels), dtype=np.complex128)
    coeffs[0] = np.eye(channels)
    for p in range(degree + 1):
        block = rng.standard_normal((channels, channels)) \
            + 1j * rng.standard_normal((channels, channels))
        coeffs[p] += 0.6 * (np.triu(block, k=1) if upper else np.tril(block, k=-1))
    return coeffs


def random_laurent_symbol(rng, channels=1, degree=2):
    """Random invertible Laurent matrix symbol with a known structure.

    Built as U D(z) P(z) V (or U P(z) D(z) V), with D a diagonal of nonzero
    monomials c_i z^{k_i}, P a product of unipotent triangular factors whose
    entries use nonnegative powers of z only, and U, V constant unitaries.
    det A is then a constant times z^{sum k_i}, so the symbol is invertible
    on every circle and the monomial-normalized determinant has no zeros
    near the unit circle.  That keeps the windowed twist index of these
    symbols exactly stable at moderate window sizes; symbols with
    determinant zeros just inside the circle would need windows growing
    like log(tol)/log|zero| before their index settles.
    """
    ks = rng.integers(-1, 2, size=channels)
    pbud = max(degree - 1, 0)
    up_deg = int(rng.integers(0, pbud + 1))
    diag = np.zeros((3, channels, channels), dtype=np.complex128)
    for i, k in enumerate(ks):
        c = 0.5 + rng.uniform(0.0, 1.5) * np.exp(2j * np.pi * rng.uniform())
        diag[int(k) + 1, i, i] = c
    mix = _plane_product(_unipotent(rng, channels, up_deg, True),
                         _unipotent(rng, channels, pbud - up_deg, False))
    coeffs = (_plane_product(diag, mix) if rng.random() < 0.5
              else _plane_product(mix, diag))
    if channels > 1:
        # the real and imaginary parts of U, then of V
        g = rng.standard_normal((2, 2, channels, channels))
        u, v = (np.linalg.qr(re + 1j * im)[0] for re, im in g)
        for p in range(coeffs.shape[0]):
            coeffs[p] = u @ coeffs[p] @ v
    return LaurentSymbol(coeffs=coeffs, d_min=-1)


def stabilization_m0(degree, k=0):
    """Smallest window at which circle-model indices are stable."""
    return 2 * (degree + abs(k)) + 2
