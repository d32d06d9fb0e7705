"""Tests for splittings, model spaces, perturbations and the
polarization defect."""

import dataclasses

import numpy as np
import pytest

from fredcorr import spaces
from fredcorr.errors import DimensionMismatch, InvalidInput
from fredcorr.spaces import (
    SHARP_NEGATIVE,
    SHARP_NONNEG,
    ModelSpace,
    Splitting,
    off_diagonal_singular_values,
    perturb_splitting,
    polarization_defect,
    spaces_match,
    splitting_for_window,
)
from fredcorr.subspaces import (
    Subspace,
    direct_sum,
    pair_index,
    random_subspace,
)
from fredcorr.windows import ModeWindow, lift_frame

from reference import contains, coord


def hardy_space(m, convention=SHARP_NONNEG, channels=1):
    w = ModeWindow(m, channels=channels)
    return ModelSpace(
        splitting=splitting_for_window(w, convention),
        window=w,
        convention=convention,
    )


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
    return Splitting._coordinate(
        [bool(sharp_mode_predicate(lab)) for lab in labels])


def test_make_splitting_window_counts():
    s = make_splitting(5, lambda n: n >= 0)
    assert s.sharp.dim == 3 and s.flat.dim == 2


def test_make_splitting_all_sharp():
    s = make_splitting(5, lambda n: True)
    assert s.flat.dim == 0 and s.sharp.dim == 5


def test_make_splitting_two_channel_labels():
    labels = [(n, c) for c in range(2) for n in (-1, 0, 1)]
    s = make_splitting(6, lambda lab: lab[1] == 1, labels=labels)
    assert s.sharp.dim == 3 and s.flat.dim == 3


def test_make_splitting_empty_raises():
    with pytest.raises(InvalidInput):
        make_splitting(0, lambda n: True)


def test_splitting_validation_rejects_overlap():
    a = Subspace.from_indices(4, [0, 1])
    b = Subspace.from_indices(4, [1, 2])
    with pytest.raises(InvalidInput):
        Splitting(sharp=a, flat=b)


def test_splitting_validation_rejects_small_tilt():
    # S^2 - I is -sin^2(theta) I = -1e-8 I here, which a relative
    # tolerance on S^2 can pass; the overlap sharp^H flat = sin(theta)
    # is far above the slack
    theta = 1e-4
    sharp = Subspace(np.array([[np.cos(theta)], [np.sin(theta)]]))
    flat = Subspace.from_indices(2, [1])
    with pytest.raises(InvalidInput):
        Splitting(sharp=sharp, flat=flat)


def test_splitting_symmetry_squares_to_identity():
    s = splitting_for_window(ModeWindow(3), SHARP_NEGATIVE)
    sym = s.sharp.projector() - s.flat.projector()
    np.testing.assert_allclose(sym @ sym, np.eye(7), atol=1e-12)
    assert s.sharp.dim == 3 and s.flat.dim == 4


def test_perturb_rank_zero_is_identity():
    s = splitting_for_window(ModeWindow(4), SHARP_NONNEG)
    assert perturb_splitting(s, 0, seed=5) is s


def test_perturb_projector_difference_rank():
    s = make_splitting(4, lambda n: n >= 0, labels=[-2, -1, 0, 1])
    p = perturb_splitting(s, 1, seed=7)
    assert polarization_defect(s, p) <= 2


def test_perturb_seeds_stay_in_polarization_class():
    s = splitting_for_window(ModeWindow(5), SHARP_NONNEG)
    for seed in (0, 1):
        p = perturb_splitting(s, 3, seed=seed)
        assert polarization_defect(s, p) <= 6
        assert p.sharp.dim + p.flat.dim == s.ambient_dim


def test_perturb_transfers_change_dimensions():
    s = splitting_for_window(ModeWindow(6), SHARP_NONNEG)
    changed = 0
    for seed in range(20):
        p = perturb_splitting(s, 2, seed=seed)
        if p.sharp.dim != s.sharp.dim:
            changed += 1
    # transfers dominate, so most perturbations move a dimension
    assert changed >= 16


def test_perturb_support_restriction():
    w = ModeWindow(5)
    s = splitting_for_window(w, SHARP_NONNEG)
    interior = [coord(w, 0, n) for n in range(-3, 4)]
    boundary = [coord(w, 0, n) for n in (-5, -4, 4, 5)]
    for seed in range(10):
        p = perturb_splitting(s, 2, seed=seed, support=interior)
        eye = np.eye(w.dim)
        for i in boundary:
            side = s.sharp if contains(s.sharp, eye[i]) else s.flat
            new_side = p.sharp if side is s.sharp else p.flat
            assert contains(new_side, eye[i])


def test_perturb_rank_bound_raises():
    s = make_splitting(5, lambda n: n >= 0)
    with pytest.raises(InvalidInput):
        perturb_splitting(s, 3, seed=0)


def test_unrelated_perturbation_keeps_pair_indices():
    # perturbing one space's splitting cannot move indices computed in
    # another space
    rng = np.random.default_rng(3)
    a = random_subspace(9, 4, rng)
    b = random_subspace(9, 6, rng)
    before = pair_index(a, b).index
    unrelated = splitting_for_window(ModeWindow(6), SHARP_NONNEG)
    for seed in range(50):
        perturb_splitting(unrelated, 1 + seed % 3, seed=seed)
        assert pair_index(a, b).index == before


def test_nfold_subspace_dims():
    # the n-fold block copy mv_pairing stacks with direct_sum, and mixed
    # blocks with an empty one, against a block loop
    rng = np.random.default_rng(6)
    sub = random_subspace(5, 2, rng)
    for subs in ([sub] * 3, [sub, Subspace.zero(2), random_subspace(4, 3, rng)],
                 [sub]):
        ref = np.zeros((sum(s.ambient_dim for s in subs),
                        sum(s.dim for s in subs)), dtype=np.complex128)
        row = col = 0
        for s in subs:
            ref[row:row + s.ambient_dim, col:col + s.dim] = s.frame
            row, col = row + s.ambient_dim, col + s.dim
        np.testing.assert_array_equal(direct_sum(*subs).frame, ref)
    s3 = direct_sum(*[Subspace.from_indices(4, [1, 3])] * 3)
    assert s3.ambient_dim == 12 and s3.dim == 6


def test_off_diagonal_values_are_the_projector_difference_spectrum():
    # P_L - P_R is Hermitian, so its singular values are the absolute
    # eigenvalues; the two blocks must carry every nonzero one
    for m in (4, 6):
        for convention in (SHARP_NONNEG, SHARP_NEGATIVE):
            s = splitting_for_window(ModeWindow(m), convention)
            for rank in (1, 2, 3):
                for seed in range(3):
                    p = perturb_splitting(s, rank, seed=seed)
                    d = s.sharp.projector() - p.sharp.projector()
                    dense = np.abs(np.linalg.eigvalsh(d))
                    dense = np.sort(dense[dense > 1e-9])
                    blocks = np.sort(off_diagonal_singular_values(s, None, p))
                    np.testing.assert_allclose(blocks, dense, atol=1e-9)
                    assert polarization_defect(s, p) == \
                        np.count_nonzero(dense > 0.5) <= 2 * rank


def test_polarization_defect_counts_transfers_both_ways():
    w = ModeWindow(3)
    s = splitting_for_window(w, SHARP_NONNEG)
    eye = np.eye(w.dim)
    sharp_idx = [coord(w, 0, n) for n in range(0, 4)]
    flat_idx = [coord(w, 0, n) for n in range(-3, 0)]

    def split(sharp):
        flat = [i for i in range(w.dim) if i not in sharp]
        return Splitting(sharp=Subspace(eye[:, sharp]),
                         flat=Subspace(eye[:, flat]))

    assert polarization_defect(s, s) == 0
    # one direction moved sharp -> flat, one flat -> sharp, and both
    assert polarization_defect(s, split(sharp_idx[1:])) == 1
    assert polarization_defect(s, split(sharp_idx + flat_idx[:1])) == 1
    assert polarization_defect(s, split(sharp_idx[1:] + flat_idx[:1])) == 2


def test_polarization_defect_counts_only_definite_tilts():
    w = ModeWindow(3)
    s = splitting_for_window(w, SHARP_NONNEG)
    u = s.sharp.frame[:, :1]
    v = s.flat.frame[:, :1]
    for theta, expected in ((0.2, 0), (0.45, 0), (0.6, 2), (1.2, 2)):
        sharp = np.hstack([np.cos(theta) * u + np.sin(theta) * v,
                           s.sharp.frame[:, 1:]])
        flat = np.hstack([-np.sin(theta) * u + np.cos(theta) * v,
                          s.flat.frame[:, 1:]])
        turned = Splitting(sharp=Subspace(sharp), flat=Subspace(flat))
        # a rotation by theta tilts two directions by sin(theta)
        assert polarization_defect(s, turned) == expected
        np.testing.assert_allclose(
            off_diagonal_singular_values(s, None, turned),
            [np.sin(theta)] * 2, atol=1e-12)


def test_polarization_defect_rejects_other_spaces():
    with pytest.raises(DimensionMismatch):
        polarization_defect(splitting_for_window(ModeWindow(3), SHARP_NONNEG),
                            splitting_for_window(ModeWindow(4), SHARP_NONNEG))


def test_zero_space_and_match():
    z = ModelSpace.zero_space()
    assert z.is_zero and z.dim == 0
    h1 = hardy_space(3)
    h2 = hardy_space(3)
    h3 = hardy_space(3, convention=SHARP_NEGATIVE)
    assert spaces_match(h1, h2)
    assert not spaces_match(h1, h3)
    assert not spaces_match(h1, z)


def _space_pairs():
    """(name, a, b, whether they glue) for the identities that
    ``spaces_match`` compares."""
    nine = splitting_for_window(ModeWindow(4), SHARP_NONNEG)
    wide = ModelSpace(splitting=nine, window=ModeWindow(4),
                      convention=SHARP_NONNEG)
    h = hardy_space(3)
    moved = h.with_splitting(perturb_splitting(h.splitting, 1, seed=2))
    zero = ModelSpace.zero_space()
    return [
        ("equal windows, conventions and halves", h, hardy_space(3), True),
        ("one space", h, h, True),
        ("a circle space and its copy", hardy_space(2, channels=3),
         hardy_space(2, channels=3), True),
        # one splitting of 9 coordinates, laid out by two windows
        ("windows of one dimension", wide,
         ModelSpace(splitting=nine, window=ModeWindow(1, 3),
                    convention=SHARP_NONNEG), False),
        ("another convention", h, ModelSpace(
            splitting=h.splitting, window=h.window,
            convention=SHARP_NEGATIVE), False),
        ("a perturbed splitting", h, moved, False),
        ("another window width", h, hardy_space(4), False),
        ("zero spaces", zero, ModelSpace.zero_space(), True),
        ("a zero space and a circle space", zero, h, False),
        ("windowless spaces of one dimension",
         ModelSpace(splitting=nine), ModelSpace(splitting=nine), True),
        ("windowless spaces of two dimensions", ModelSpace(splitting=nine),
         ModelSpace(splitting=h.splitting), False),
        ("a windowless and a windowed space", ModelSpace(
            splitting=nine, convention=SHARP_NONNEG), wide, False),
    ]


@pytest.mark.parametrize("name, a, b, glue", _space_pairs(),
                         ids=[p[0] for p in _space_pairs()])
def test_spaces_match_table(name, a, b, glue):
    assert spaces_match(a, b) is glue
    assert spaces_match(b, a) is glue


def test_model_space_window_must_fit_its_splitting():
    split = splitting_for_window(ModeWindow(4), SHARP_NONNEG)
    for w in (ModeWindow(3), ModeWindow(4, 2)):
        with pytest.raises(DimensionMismatch):
            ModelSpace(splitting=split, window=w)
    with pytest.raises(InvalidInput):
        ModelSpace(splitting=split, window=ModeWindow(4), convention="up")
    space = ModelSpace(splitting=split, window=ModeWindow(1, 3))
    assert space.dim == 9 and space.window == ModeWindow(1, 3)


def test_model_space_is_its_splitting_window_and_convention():
    assert [f.name for f in dataclasses.fields(ModelSpace) if f.init] == [
        "splitting", "window", "convention"]
    h = hardy_space(3, channels=2)
    assert h.dim == h.splitting.ambient_dim == h.window.dim == 14
    assert ModelSpace.zero_space().window is None


def test_spaces_match_compares_subspaces_not_frames():
    h = hardy_space(4)
    rng = np.random.default_rng(3)

    def rotated(sub):
        g = rng.standard_normal((sub.dim, sub.dim)) \
            + 1j * rng.standard_normal((sub.dim, sub.dim))
        u, _ = np.linalg.qr(g)
        return Subspace(sub.frame @ u)

    s = h.splitting
    turned = h.with_splitting(Splitting(sharp=rotated(s.sharp),
                                        flat=rotated(s.flat)))
    assert not np.array_equal(turned.splitting.sharp.frame, s.sharp.frame)
    assert spaces_match(h, turned) and spaces_match(turned, h)
    for seed in range(4):
        moved = h.with_splitting(perturb_splitting(s, 1, seed=seed))
        assert not spaces_match(h, moved)


def test_flat_padded_companion():
    h = hardy_space(3, convention=SHARP_NEGATIVE)
    padded = h.flat_padded(2)
    # flat = modes n >= 0 under this convention; margin adds modes 4, 5
    assert h.splitting.flat.dim == 4
    assert padded.dim == 6
    pw = h.window.pad(2)
    assert contains(padded, np.eye(pw.dim)[coord(pw, 0, 5)])
    assert not contains(padded, np.eye(pw.dim)[coord(pw, 0, -5)])


def test_padded_halves_are_built_once_per_margin(monkeypatch):
    calls = []
    real = spaces.pad_by_predicate
    monkeypatch.setattr(spaces, "pad_by_predicate",
                        lambda *a: calls.append(a[2]) or real(*a))
    h = hardy_space(4)
    first = h.flat_padded(2)
    assert h.flat_padded(2) is first
    assert not first.frame.flags.writeable
    assert h.sharp_padded(2) is not first
    assert h.flat_padded(3).dim == first.dim + 1
    assert calls == [2, 2, 3]
    # a re-based space starts with no padded halves of its own
    moved = h.with_splitting(perturb_splitting(h.splitting, 1, seed=3))
    assert moved.flat_padded(2) is not first
    assert calls == [2, 2, 3, 2]


def test_sharp_padded_companion_after_perturbation():
    h = hardy_space(3)
    pert = perturb_splitting(h.splitting, 1, seed=11)
    h2 = h.with_splitting(pert)
    padded = h2.sharp_padded(1)
    assert padded.dim == pert.sharp.dim + 1
    lifted = lift_frame(pert.sharp.frame, h.window, h.window.pad(1))
    assert contains(padded, Subspace(lifted))
