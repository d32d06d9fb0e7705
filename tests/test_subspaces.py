"""Tests for the subspace calculus layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredcorr.errors import DimensionMismatch, InvalidInput
from fredcorr.subspaces import (
    Subspace,
    complement,
    dimension_index,
    direct_sum,
    intersection,
    nullspace,
    orthonormalize,
    pair_index,
    principal_cosines,
    random_subspace,
    rank,
    subspace_sum,
    subspaces_equal,
)

from reference import contains, restricted_projection_index


def test_orthonormalize_shapes():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    q = orthonormalize(a)
    assert q.shape == (8, 3)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)


def test_orthonormalize_drops_dependent_columns():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((10, 2))
    stacked = np.hstack([a, a @ np.array([[1.0], [2.0]])])
    q = orthonormalize(stacked)
    assert q.shape == (10, 2)


def test_orthonormalize_zero_input():
    q = orthonormalize(np.zeros((5, 4)))
    assert q.shape == (5, 0)


def test_frame_validation_rejects_skew():
    bad = np.ones((4, 2))
    with pytest.raises(InvalidInput):
        Subspace(bad)
    nan_frame = np.eye(4)[:, :2]
    nan_frame[3, 1] = np.nan
    with pytest.raises(InvalidInput):
        Subspace(nan_frame)


def _run_every_route():
    # one example of each route that builds frames, splittings and padded
    # companions for itself
    from fredcorr.circles import (
        LaurentSymbol,
        build_sphere_chain,
        mv_pairing,
        random_laurent_symbol,
        sphere_hardy_pair,
        symbol_twist,
        twist_circle,
        winding_number,
    )
    from fredcorr.fans import fan_index, random_fan
    from fredcorr.graphs import (
        global_index_additive,
        global_index_fan,
        random_graph,
        sphere_path_graph,
    )
    from fredcorr.morphisms import (
        chain_total_index,
        reduce_chain_ledger,
        tilde_ind,
    )

    chain = build_sphere_chain(6, twists=(LaurentSymbol.scalar([1.0, 0.4], 1),))
    total = chain_total_index(chain)
    assert total == 2
    for order in [(0, 1), (1, 0)]:
        assert reduce_chain_ledger(chain, order).total == total

    sym = random_laurent_symbol(np.random.default_rng(3), channels=2, degree=2)
    assert tilde_ind(symbol_twist(sym, twist_circle(8, channels=2))) \
        == mv_pairing(sphere_hardy_pair(6), sym, 2) == winding_number(sym)

    g = random_graph(np.random.default_rng([9, 0]))
    assert global_index_fan(g) == global_index_additive(g)

    g = sphere_path_graph(6, twist=LaurentSymbol.monomial(2))
    assert global_index_fan(g) == global_index_additive(g) == 3

    rep = fan_index(random_fan(np.random.default_rng([8, 0])))
    assert rep.formula1 == rep.formula3 == rep.formula4


def _spy_on_mask_frames(monkeypatch):
    """The frames that coordinate spans build on a read of ``frame``."""
    built = []
    real = Subspace.__getattr__

    def spy(self, name):
        frame = real(self, name)
        built.append(frame)
        return frame

    monkeypatch.setattr(Subspace, "__getattr__", spy)
    return built


def test_trusted_frames_pass_the_public_check(monkeypatch):
    # Route every frame the package builds for itself through the Gram
    # check of the public constructor, along one example of each route,
    # and check every frame a coordinate span builds from its mask.
    checked = []

    def public(cls, frame):
        checked.append(frame.shape)
        return cls(frame)

    monkeypatch.setattr(Subspace, "_trusted", classmethod(public))
    built = _spy_on_mask_frames(monkeypatch)
    _run_every_route()
    assert checked and built
    for frame in built:
        Subspace(frame)


def test_counting_routes_build_no_coordinate_frame(monkeypatch):
    # a twist circle's space, a sphere ledger and a certified twist index
    # read each coordinate span off its mask
    import itertools

    from fredcorr.circles import (
        LaurentSymbol,
        annulus_correspondence,
        chain_circle,
        disk_correspondence,
        random_laurent_symbol,
        symbol_twist,
        twist_circle,
        twisted_cap,
        winding_number,
    )
    from fredcorr.morphisms import (
        Chain,
        chain_total_index,
        reduce_chain_ledger,
        tilde_ind,
    )
    from fredcorr.subspaces import current_tolerance

    built = _spy_on_mask_frames(monkeypatch)
    assert twist_circle(1024, channels=2).space().dim == 2 * 2049

    circles = [chain_circle(8, r) for r in (2.0, 1.5, 1.1, 0.8)]
    cap = LaurentSymbol.monomial(2, coefficient=0.7)
    chain = Chain(links=(
        disk_correspondence(circles[0], "incoming"),
        *[annulus_correspondence(a, b) for a, b in zip(circles, circles[1:])],
        twisted_cap(circles[-1], cap)))
    assert chain_total_index(chain) == 3
    for order in itertools.permutations(range(len(chain) - 1)):
        assert reduce_chain_ledger(chain, order).total == 3

    sym = random_laurent_symbol(np.random.default_rng(3), channels=2, degree=2)
    t = symbol_twist(sym, twist_circle(48, channels=2))
    assert t._injectivity_ratio > 2.0 * current_tolerance()
    assert tilde_ind(t) == winding_number(sym)
    assert not built

    # the spy sees a frame once something reads it
    assert twist_circle(4).space().splitting.sharp.frame.shape == (9, 5)
    assert len(built) == 1


def test_trusted_splittings_and_companions_pass_the_public_checks(monkeypatch):
    # The same routes, with every coordinate splitting sent through its
    # public constructor's checks, and every padded companion (all built
    # by pad_by_predicate) checked to contain its lifted base.
    import sys

    from fredcorr import windows
    from fredcorr.spaces import Splitting

    checked = []

    def public_splitting(cls, sharp, flat):
        checked.append("splitting")
        return cls(sharp=sharp, flat=flat)

    real = windows.pad_by_predicate

    def checked_companion(sub, window, margin, predicate):
        padded = real(sub, window, margin, predicate)
        lifted = Subspace(windows.lift_frame(sub.frame, window,
                                             window.pad(margin)))
        assert contains(padded, lifted)
        checked.append("companion")
        return padded

    monkeypatch.setattr(Splitting, "_trusted", classmethod(public_splitting))
    for name, mod in list(sys.modules.items()):
        if name.startswith("fredcorr") and \
                getattr(mod, "pad_by_predicate", None) is real:
            monkeypatch.setattr(mod, "pad_by_predicate", checked_companion)
    _run_every_route()
    assert {"splitting", "companion"} <= set(checked)


def test_from_indices():
    s = Subspace.from_indices(6, [4, 1])
    assert s.dim == 2
    assert contains(s, np.eye(6)[1])
    assert contains(s, np.eye(6)[4])
    assert not contains(s, np.eye(6)[0])
    with pytest.raises(InvalidInput):
        Subspace.from_indices(6, [1, 1])


def test_rank_and_nullspace():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((6, 4))
    a[:, 3] = a[:, 0] + a[:, 1]
    assert rank(a) == 3
    null = nullspace(a)
    assert null.shape == (4, 1)
    np.testing.assert_allclose(a @ null, 0.0, atol=1e-10)


def test_intersection_coordinate_planes():
    a = Subspace.from_indices(7, [0, 1, 2])
    b = Subspace.from_indices(7, [2, 3])
    inter = intersection(a, b)
    assert inter.dim == 1
    assert contains(inter, np.eye(7)[2])


def test_intersection_engineered_shared_vector():
    rng = np.random.default_rng(14)
    n = 12
    shared = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fill_a = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    fill_b = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    a = Subspace.from_span(np.column_stack([shared, fill_a]))
    b = Subspace.from_span(np.column_stack([shared, fill_b]))
    inter = intersection(a, b)
    assert inter.dim == 1
    assert contains(inter, shared / np.linalg.norm(shared))


def test_intersection_disjoint_random():
    rng = np.random.default_rng(15)
    a = random_subspace(20, 5, rng)
    b = random_subspace(20, 6, rng)
    assert intersection(a, b).dim == 0


def test_intersection_small_angle_uses_fallback():
    # two lines at angle ~1e-4: distinct, but cosine sits in the band
    eps = 1e-4
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([np.cos(eps), np.sin(eps), 0.0])
    a = Subspace.from_span(v1.reshape(-1, 1))
    b = Subspace.from_span(v2.reshape(-1, 1))
    assert intersection(a, b).dim == 0
    assert pair_index(a, b).index == 1 + 1 - 3


def test_sum_and_complement():
    rng = np.random.default_rng(16)
    a = random_subspace(9, 4, rng)
    c = complement(a)
    assert c.dim == 5
    assert intersection(a, c).dim == 0
    assert subspace_sum(a, c).dim == 9
    assert subspaces_equal(complement(c), a)


@pytest.mark.parametrize("n,da,db,seed", [
    (10, 3, 4, 0),
    (10, 7, 8, 1),
    (15, 0, 9, 2),
    (15, 15, 4, 3),
    (21, 11, 10, 4),
])
def test_pair_index_dimension_identity(n, da, db, seed):
    rng = np.random.default_rng(seed)
    a = random_subspace(n, da, rng)
    b = random_subspace(n, db, rng)
    rep = pair_index(a, b)
    assert rep.index == da + db - n == dimension_index(a, b)
    assert rep.dim_intersection - rep.codim_sum == rep.index
    # and the two constituents satisfy the modular law
    assert rep.dim_intersection + (n - rep.codim_sum) == da + db


def test_dimension_index_checks_ambient():
    with pytest.raises(DimensionMismatch):
        dimension_index(Subspace.full(3), Subspace.full(4))


def test_pair_index_symmetry():
    rng = np.random.default_rng(17)
    a = random_subspace(14, 6, rng)
    b = random_subspace(14, 9, rng)
    assert pair_index(a, b).index == pair_index(b, a).index


def test_pair_index_duality():
    # dim(A cap B) equals the codim of the sum of the complements
    rng = np.random.default_rng(18)
    n = 13
    shared = random_subspace(n, 2, rng)
    a = subspace_sum(shared, random_subspace(n, 3, rng))
    b = subspace_sum(shared, random_subspace(n, 4, rng))
    lhs = intersection(a, b).dim
    rhs = pair_index(complement(a), complement(b)).codim_sum
    assert lhs == rhs == 2


def test_restricted_projection_index_matches_dims():
    rng = np.random.default_rng(19)
    for da, dt in [(3, 3), (5, 2), (2, 7), (0, 4)]:
        a = random_subspace(11, da, rng)
        t = random_subspace(11, dt, rng)
        rep = restricted_projection_index(a, t)
        assert rep.index == da - dt
        assert rep.kernel_dim >= 0 and rep.cokernel_dim >= 0


def test_direct_sum():
    a = Subspace.from_indices(3, [0])
    b = Subspace.from_indices(4, [1, 2])
    d = direct_sum(a, b)
    assert d.ambient_dim == 7 and d.dim == 3
    assert contains(d, np.eye(7)[0])
    assert contains(d, np.eye(7)[4])


def test_ambient_mismatch_raises():
    a = Subspace.zero(4)
    b = Subspace.zero(5)
    with pytest.raises(DimensionMismatch):
        intersection(a, b)


def test_zero_and_full_edge_cases():
    z = Subspace.zero(6)
    f = Subspace.full(6)
    assert pair_index(z, f).index == 0
    assert pair_index(z, z).index == -6
    assert pair_index(f, f).index == 6
    assert intersection(z, f).dim == 0
    assert subspaces_equal(subspace_sum(z, f), f)


def test_principal_cosines_rotation_invariant():
    rng = np.random.default_rng(20)
    a = random_subspace(8, 3, rng)
    # re-span with a random invertible column mix
    mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a2 = Subspace.from_span(a.frame @ mix)
    assert subspaces_equal(a, a2)
    np.testing.assert_allclose(principal_cosines(a, a2), 1.0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_pair_index_identity_property(n, seed, data):
    da = data.draw(st.integers(min_value=0, max_value=n))
    db = data.draw(st.integers(min_value=0, max_value=n))
    rng = np.random.default_rng(seed)
    a = random_subspace(n, da, rng)
    b = random_subspace(n, db, rng)
    assert pair_index(a, b).index == da + db - n
