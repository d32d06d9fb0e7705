"""Span tracer that wraps fredcorr's layer functions from outside.

Nothing under ``src/`` is edited.  Each target is wrapped where callers
look it up:

* a module-level function is rebound in every ``fredcorr`` module that
  holds it, because ``from .subspaces import intersection`` makes a
  local binding that rebinding the defining module would miss;
* a class constructor is wrapped through its ``__post_init__`` (the
  validation the dataclass runs on every construction), a method on its
  class;
* the LAPACK kernel is wrapped at ``numpy.linalg.svd``, the attribute
  every fredcorr call site looks up at call time.

Every wrapped call records a span ``(name, parent, start, end)``; self
time is a span's duration minus that of its wrapped children.
:meth:`Tracer.uninstall` puts every original object back.
"""

import gzip
import sys
import time

import numpy as np

# (layer, module, attribute): attribute "Class" wraps Class.__post_init__,
# "Class.method" wraps that method, anything else a module function.
TARGETS = (
    ("subspaces", "fredcorr.subspaces", "Subspace"),
    ("subspaces", "fredcorr.subspaces", "intersection"),
    ("subspaces", "fredcorr.subspaces", "_intersection_nullspace"),
    ("subspaces", "fredcorr.subspaces", "pair_index"),
    ("subspaces", "fredcorr.subspaces", "rank"),
    ("subspaces", "fredcorr.subspaces", "nullspace"),
    ("subspaces", "fredcorr.subspaces", "orthonormalize"),
    ("windows", "fredcorr.windows", "restricted_image"),
    ("spaces", "fredcorr.spaces", "Splitting"),
    ("spaces", "fredcorr.spaces", "ModelSpace"),
    ("morphisms", "fredcorr.morphisms", "compose"),
    ("morphisms", "fredcorr.morphisms", "delta"),
    ("morphisms", "fredcorr.morphisms", "index"),
    ("morphisms", "fredcorr.morphisms", "tilde_ind"),
    ("morphisms", "fredcorr.morphisms", "Twist"),
    ("circles", "fredcorr.circles", "LaurentSymbol"),
    ("circles", "fredcorr.circles", "symbol_band_matrix"),
    ("circles", "fredcorr.circles", "winding_number"),
    ("circles", "fredcorr.circles", "LaurentCircle.space"),
    ("fans", "fredcorr.fans", "fan_index"),
    ("fans", "fredcorr.fans", "TwistChain.realize"),
    ("graphs", "fredcorr.graphs", "vertex_index"),
    ("graphs", "fredcorr.graphs", "global_index_additive"),
    ("graphs", "fredcorr.graphs", "global_index_fan"),
)
SVD_NAME = "kernel.svd"


def svd_flops(m, n, compute_uv=True, full_matrices=True):
    """Floating point operations of a complex m x n SVD, from its shape.

    Golub and Van Loan's counts for the Golub-Kahan-Reinsch SVD (m >= n;
    the transpose otherwise): 4mn^2 - 4n^3/3 for the singular values
    alone, 4m^2n + 8mn^2 + 9n^3 with the full U, 14mn^2 + 8n^3 with the
    thin one, each times four for complex arithmetic.  A computed
    figure, not a hardware counter; an integer, so that sums repeat
    exactly.
    """
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        real = 4 * m * n * n - 4 * n ** 3 // 3
    elif full_matrices:
        real = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        real = 14 * m * n * n + 8 * n ** 3
    return 4 * real


def _fredcorr_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fredcorr"
                                  or name.startswith("fredcorr."))]


class Tracer:
    """Records spans of wrapped calls; install, run, uninstall, summarize."""

    def __init__(self):
        self.names = []      # span name per name id
        self.spans = []      # (name id, parent span, start, end, outermost)
        self.svd_shapes = []  # (m, n, compute_uv, full_matrices)
        self._stack = []
        self._depth = {}
        self._restore = []   # (owner, attribute, original)

    # -- recording

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, depth = self.spans, self._stack, self._depth
        depth[nid] = 0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = depth[nid] == 0
            depth[nid] += 1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[nid] -= 1
                spans[idx] = (nid, parent, start, end, outer)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_svd(self, fn):
        inner = self._wrap(SVD_NAME, fn)
        shapes = self.svd_shapes

        def svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            shape = np.shape(a)
            shapes.append((shape[-2], shape[-1], bool(compute_uv),
                           bool(full_matrices)))
            return inner(a, full_matrices, compute_uv, *args, **kwargs)

        svd.__wrapped__ = fn
        return svd

    # -- installing

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target; the originals are kept for :meth:`uninstall`."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            modules = _fredcorr_modules()
            for layer, modname, attr in TARGETS:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    wrapper = self._wrap(f"{layer}.{attr}",
                                         cls.__dict__[meth])
                    self._set(cls, meth, wrapper)
                elif isinstance(getattr(owner, attr), type):
                    cls = getattr(owner, attr)
                    wrapper = self._wrap(f"{layer}.{attr}",
                                         cls.__dict__["__post_init__"])
                    self._set(cls, "__post_init__", wrapper)
                else:
                    original = getattr(owner, attr)
                    wrapper = self._wrap(f"{layer}.{attr}", original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapper)
            self._set(np.linalg, "svd", self._wrap_svd(np.linalg.svd))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Put every original object back, last wrapped first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summarizing

    def summary(self):
        """Per name: calls, total seconds (outermost spans) and self seconds."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.spans)
        for nid, parent, start, end, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = [0.0] * n
        for i, (nid, _, start, end, outer) in enumerate(self.spans):
            calls[nid] += 1
            self_time[nid] += end - start - child[i]
            if outer:
                total[nid] += end - start
        return {name: dict(calls=calls[i], total_s=total[i],
                           self_s=self_time[i])
                for i, name in enumerate(self.names)}

    def svd_stats(self):
        """(largest dimension of any SVD input, total computed flops)."""
        max_dim = max((max(m, k) for m, k, _, _ in self.svd_shapes),
                      default=0)
        flops = sum(svd_flops(m, k, uv, full)
                    for m, k, uv, full in self.svd_shapes)
        return max_dim, flops

    def write_spans(self, path):
        """Raw spans as gzipped tab-separated lines: name, parent span,
        start and end in microseconds from the first span."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name\tparent\tstart_us\tend_us\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for nid, parent, start, end, _ in self.spans:
                fh.write(f"{self.names[nid]}\t{parent}\t"
                         f"{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n")
