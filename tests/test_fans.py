"""Tests for the fan layer: construction, the four index formulas, and
retwisting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredcorr import fans
from fredcorr.circles import LaurentSymbol, twist_circle
from fredcorr.errors import DimensionMismatch, InvalidInput, NotAFan
from fredcorr.fans import (
    Fan,
    PredicatePart,
    TwistChain,
    fan_from_twists,
    fan_index,
    finite_rank_twist,
    interval_part,
    partition_parts,
    random_fan,
)
from fredcorr.subspaces import principal_cosines, subspaces_equal
from fredcorr.windows import mode_span

from reference import coord, dense_fan_formulas, dense_fan_index, svd_calls


def retwist(f, syms):
    """The fan rebuilt by ``fan_from_twists`` with each construction
    chain followed by one more symbol (None leaves the chain alone)."""
    chains = []
    for (_, op), sym in zip(f.construction, syms):
        chain = None if op is None else op._chain
        if sym is not None:
            chain = TwistChain(factors=(("sym", sym),)) if chain is None \
                else chain.then(("sym", sym))
        chains.append(chain)
    return fan_from_twists(f.ambient, [p for p, _ in f.construction], chains)


def halves(window):
    """The nonnegative and the negative half, as fan parts."""
    return [PredicatePart(window=window, predicate=lambda n: n >= 0),
            PredicatePart(window=window, predicate=lambda n: n < 0)]


def circle_setup(m=6):
    space = twist_circle(m).space()
    return space, space.window


def all_formulas(report):
    vals = [report.formula1, report.formula3, report.formula4]
    if report.formula2 is not None:
        vals.append(report.formula2)
    return vals


def test_untwisted_fan_is_zero():
    space, w = circle_setup()
    f = fan_from_twists(space, partition_parts(w, [-2, 3]), [None] * 3)
    rep = fan_index(f)
    assert rep == type(rep)(formula1=0, formula2=0, formula3=0, formula4=0)
    for part, member in zip(f.parts, f.members):
        assert subspaces_equal(part, member)


def test_sphere_fan_index_one():
    space, w = circle_setup()
    z = LaurentSymbol.monomial(1)
    f = fan_from_twists(space, halves(w),
                        [None, z])
    rep = fan_index(f)
    assert (rep.formula1, rep.formula3, rep.formula4) == (1, 1, 1)
    assert rep.formula2 is None
    assert subspaces_equal(f.members[1], mode_span(w, lambda n: n <= 0))


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-10, 1e-12])
def test_leaking_twist_has_no_formula_2_at_any_scale(scale):
    # c (1 + z/2) on the nonnegative part pushes its top mode out of the
    # window at every c, so formula 2 does not apply; the leak is decided
    # relative to the operator, not against the bare cutoff
    space, w = circle_setup()
    sym = LaurentSymbol.scalar([scale, 0.5 * scale], 0)
    f = fan_from_twists(space, partition_parts(w, [0]), [None, sym])
    rep = fan_index(f)
    assert rep.formula2 is None
    assert (rep.formula1, rep.formula3, rep.formula4) == (-1, -1, -1)


@pytest.mark.parametrize("scale", [2.0 ** -1000, 1.0, 2.0 ** 1000, 1.7e308])
def test_scaled_interior_twists_keep_formula_2(scale):
    # every part twisted by c (I + 0.4 u v^H): the invertibility of the
    # twists on the window is decided over their power of two, so at
    # c = 1.7e308, where sigma_max overflows, formula 2 keeps its value
    space, w = circle_setup()
    rng = np.random.default_rng(5)
    parts = partition_parts(w, [-2, 3])
    twists = []
    for _ in parts:
        u, v = (fans._random_unit_interior(rng, w, 1) for _ in range(2))
        twists.append(scale * finite_rank_twist(w, [u], [v], scale=0.4))
    rep = fan_index(fan_from_twists(space, parts, twists))
    assert (rep.formula1, rep.formula2, rep.formula3, rep.formula4) \
        == (0, 0, 0, 0)


def test_identity_twists_keep_parts():
    space, w = circle_setup(5)
    parts = partition_parts(w, [0])
    eye = np.eye(w.dim, dtype=np.complex128)
    ident_sym = LaurentSymbol.monomial(0, channels=1)
    f = fan_from_twists(space, parts, [eye, ident_sym])
    for part, member in zip(f.parts, f.members):
        assert subspaces_equal(part, member)
    assert fan_index(f).formula2 == 0


def test_shift_twist_moves_interval():
    space, w = circle_setup()
    z = LaurentSymbol.monomial(1)
    parts = [interval_part(w, None, -3), interval_part(w, -2, 2),
             interval_part(w, 3, None)]
    f = fan_from_twists(space, parts, [None, z, None])
    assert subspaces_equal(f.members[1], mode_span(w, lambda n: -1 <= n <= 3))
    # boundary part drags its padded companion through the edge
    g = fan_from_twists(space, parts, [z, None, None])
    assert subspaces_equal(g.members[0], mode_span(w, lambda n: n <= -2))


def test_finite_rank_twist_stays_close():
    rng = np.random.default_rng(5)
    space, w = circle_setup()
    parts = partition_parts(w, [0])
    u = np.zeros(w.dim, dtype=np.complex128)
    v = np.zeros(w.dim, dtype=np.complex128)
    u[coord(w, 0, 1)] = 1.0
    v[coord(w, 0, -1)] = 1.0
    f = fan_from_twists(space, parts, [finite_rank_twist(w, [u], [v], 0.3), None])
    rep = fan_index(f)
    assert all_formulas(rep) == [0, 0, 0, 0]
    cos = principal_cosines(f.members[0], f.parts[0])
    assert f.members[0].dim == f.parts[0].dim
    assert cos.min() > 0.8


def test_three_part_shift_pattern():
    space, w = circle_setup()
    z = LaurentSymbol.monomial(1)
    zi = LaurentSymbol.monomial(-1)
    parts = partition_parts(w, [-2, 3])
    f = fan_from_twists(space, parts, [z, zi, None])
    rep = fan_index(f)
    # bottom part extends one mode through the window edge (+1), the
    # interior shift and the untwisted part contribute nothing
    assert all_formulas(rep) == [1, 1, 1]
    dims = [m.dim for m in f.members]
    assert sum(dims) - w.dim == 1


def test_retwist_sphere_fan():
    space, w = circle_setup()
    z = LaurentSymbol.monomial(1)
    zi = LaurentSymbol.monomial(-1)
    f = fan_from_twists(space, halves(w),
                        [None, z])
    assert fan_index(retwist(f, [None, z])).formula1 == 2
    assert fan_index(retwist(f, [None, zi])).formula1 == 0
    assert fan_index(retwist(f, [z, None])).formula1 == 0
    untouched = retwist(f, [None, None])
    for a, b in zip(untouched.members, f.members):
        assert subspaces_equal(a, b)


def test_opposite_interior_twists_cancel():
    space, w = circle_setup()
    z = LaurentSymbol.monomial(1)
    zi = LaurentSymbol.monomial(-1)
    f = fan_from_twists(space, partition_parts(w, [-3, 0, 3]), [None] * 4)
    rep = fan_index(retwist(f, [None, z, zi, None]))
    assert all_formulas(rep) == [0, 0, 0]


def test_refining_an_untwisted_part_keeps_value():
    space, w = circle_setup()
    z = LaurentSymbol.monomial(1)
    coarse = fan_from_twists(space, partition_parts(w, [0]), [z, None])
    fine = fan_from_twists(space, partition_parts(w, [0, 4]), [z, None, None])
    a, b = fan_index(coarse), fan_index(fine)
    assert a.formula1 == b.formula1
    assert a.formula3 == b.formula3
    assert a.formula4 == b.formula4


@pytest.mark.parametrize("channels", [1, 2])
def test_part_predicates_run_once_per_coordinate(channels):
    # three parts at M = 32: the untwisted one is read on the 65 modes
    # of each channel, a twisted one on its operator's margin modes too
    window = twist_circle(32, channels=channels).window
    calls = []

    def counted(i, lo, hi):
        def pred(n):
            calls.append(i)
            return (lo is None or n >= lo) and (hi is None or n <= hi)
        return PredicatePart(window=window, predicate=pred)

    parts = [counted(0, None, -11), counted(1, -10, 10), counted(2, 11, None)]
    twists = [LaurentSymbol.monomial(2, channels=channels), None,
              LaurentSymbol.monomial(-1, channels=channels)]
    space = twist_circle(32, channels=channels).space()
    f = fan_from_twists(space, parts, twists)
    margins = [2, 0, 1]
    assert [calls.count(i) for i in range(3)] == [
        window.dim + 2 * m for m in margins]
    assert [p.dim for p in f.parts] == [22 * channels, 21 * channels,
                                        22 * channels]
    rep = fan_index(f)
    assert rep.formula1 == rep.formula3 == rep.formula4
    # the index reads the parts the fan keeps, not their predicates
    assert len(calls) == 3 * window.dim + 2 * sum(margins)


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(6):
        f = random_fan(rng)
        rep = fan_index(f)
        for _ in range(10):
            perm = rng.permutation(f.n_parts)
            g = Fan(ambient=f.ambient,
                    parts=tuple(f.parts[i] for i in perm),
                    members=tuple(f.members[i] for i in perm))
            rep_p = fan_index(g)
            assert rep_p.formula1 == rep.formula1
            assert rep_p.formula3 == rep.formula3
            assert rep_p.formula4 == rep.formula4


def test_random_fans_four_formulas_agree():
    rng = np.random.default_rng(71)
    for _ in range(40):
        rep = fan_index(random_fan(rng))
        assert len(set(all_formulas(rep))) == 1


def test_random_retwists_stay_consistent():
    rng = np.random.default_rng(72)
    for _ in range(20):
        f = random_fan(rng)
        syms = [None if rng.random() < 0.5
                else LaurentSymbol.monomial(int(rng.choice([-1, 1])))
                for _ in range(f.n_parts)]
        rep = fan_index(retwist(f, syms))
        assert len(set(all_formulas(rep))) == 1


def test_budget_violation_raises():
    space, w = circle_setup()
    z = LaurentSymbol.monomial(1)
    with pytest.raises(NotAFan):
        fan_from_twists(space, partition_parts(w, [0]), [z, None], budget=0)


def test_overlapping_parts_rejected():
    space, w = circle_setup()
    nonneg = mode_span(w, lambda n: n >= 0)
    neg = mode_span(w, lambda n: n < 0)
    with pytest.raises(NotAFan):
        Fan(ambient=space, parts=(nonneg, nonneg), members=(nonneg, nonneg))
    f = Fan(ambient=space, parts=(nonneg, neg), members=(nonneg, neg))
    assert fan_index(f).formula1 == 0
    assert fan_index(f).formula2 is None


def test_chain_validation():
    space, w = circle_setup()
    with pytest.raises(InvalidInput):
        TwistChain(factors=(("weird", None),))
    bad = np.eye(3, dtype=np.complex128)
    chain = TwistChain(factors=(("interior", bad),))
    with pytest.raises(DimensionMismatch):
        chain.realize(w)
    # an interior matrix that is not square is refused at construction
    for shape in ((w.dim,), (w.dim, w.dim - 1), (2, w.dim, w.dim)):
        with pytest.raises(DimensionMismatch):
            TwistChain(factors=(("interior", np.ones(shape)),))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=-1, max_value=1),
       st.integers(min_value=-1, max_value=1))
def test_two_part_shift_fans_agree(cut, k1, k2):
    space, w = circle_setup(5)
    syms = [None if k == 0 else LaurentSymbol.monomial(k) for k in (k1, k2)]
    f = fan_from_twists(space, partition_parts(w, [cut]), syms)
    rep = fan_index(f)
    assert len(set(all_formulas(rep))) == 1
    # window-edge contributions: the lower part carries k1, the interior
    # boundary between the parts cancels, the top edge carries -k2
    assert rep.formula1 == k1 - k2


def test_part_commutator_count_matches_the_dense_commutator(monkeypatch):
    # fan_from_twists counts each part's commutator on the off-diagonal
    # blocks of the part's coordinate splitting; each splitting passes
    # the public check, and the dense commutator with the part projector
    # is the reference
    from fredcorr import fans
    from fredcorr.spaces import Splitting
    from fredcorr.subspaces import rank
    real = fans.commutator_rank
    compared = []

    def checked(op, split):
        Splitting(sharp=split.sharp, flat=split.flat)
        p = split.sharp.projector()
        b = op.base_square()
        got = real(op, split)
        assert got == rank(b @ p - p @ b)
        compared.append(got)
        return got

    monkeypatch.setattr(fans, "commutator_rank", checked)
    for seed in range(8):
        random_fan(np.random.default_rng([seed, 3]), channels=1 + seed % 2)
    assert any(compared)
    space, w = circle_setup()
    z = LaurentSymbol.monomial(1)
    fan_from_twists(space, partition_parts(w, [0]), [z, None], budget=1)


def test_fan_index_reads_the_realized_operators(monkeypatch):
    # each chain is realized once, by fan_from_twists; formula 2 reads
    # the kept operators and stops at the first one that leaks
    from fredcorr import fans
    realized, checked = [], []
    realize, invertible = TwistChain.realize, fans._invertible_on_window

    def realize_spy(chain, window):
        realized.append(chain)
        return realize(chain, window)

    def invertible_spy(op):
        checked.append(op)
        return invertible(op)

    monkeypatch.setattr(TwistChain, "realize", realize_spy)
    monkeypatch.setattr(fans, "_invertible_on_window", invertible_spy)
    space, w = circle_setup()
    f = fan_from_twists(space, partition_parts(w, [-2, 3]),
                        [LaurentSymbol.monomial(1), None,
                         LaurentSymbol.monomial(-1)])
    ops = [op for _, op in f.construction]
    assert ops[1] is None and len(realized) == 2
    # z carries mode M out of the window, so formula 2 gives up at once
    assert fan_index(f).formula2 is None
    assert len(realized) == 2 and checked == [ops[0]]


@pytest.mark.parametrize("half_width", [6, 32])
@pytest.mark.parametrize("seed", range(8))
def test_counted_formulas_equal_the_dense_ranks_on_fan_scenarios(seed,
                                                                half_width):
    # the fan kind's random fans, at its default window and at 32
    f = random_fan(np.random.default_rng(seed), half_width=half_width)
    rep = fan_index(f)
    assert (rep.formula2, rep.formula3) == dense_fan_formulas(f)


def test_counted_formulas_equal_the_dense_ranks_on_random_fans():
    rng = np.random.default_rng(31)
    for _ in range(100):
        f = random_fan(rng)
        rep = fan_index(f)
        assert (rep.formula2, rep.formula3) == dense_fan_formulas(f)


def test_fan_index_runs_no_svd_for_formulas_2_and_3():
    # the dense route ranks one compressed projection per part (when it
    # is not empty) and, where formula 2 applies, the summed twist and
    # its adjoint; the counted route decides none of them
    applied = set()
    for seed in range(8):
        f = random_fan(np.random.default_rng(seed))
        rep = fan_index(f)
        assert rep == dense_fan_index(f)
        applied.add(rep.formula2 is not None)
        saved = sum(1 for m, p in zip(f.members, f.parts) if m.dim and p.dim)
        saved += 2 if rep.formula2 is not None else 0
        assert svd_calls(dense_fan_index, f) - svd_calls(fan_index, f) \
            == saved
    assert applied == {True, False}


@pytest.mark.parametrize("square", ["invertible", "singular"])
def test_invertibility_survives_a_refused_svd(monkeypatch, square):
    # the SVD driver refusing once sends the decision to the transposed
    # problem (subspaces.singular_values), which decides the same
    space, w = circle_setup()
    rng = np.random.default_rng(2)
    u, v = (fans._random_unit_interior(rng, w, 1) for _ in range(2))
    m = finite_rank_twist(w, [u], [v], scale=0.4)
    if square == "singular":
        m[w.dim // 2, :] = 0.0
    op = TwistChain(factors=(("interior", m),)).realize(w)
    expected = fans._invertible_on_window(op)
    assert expected == (square == "invertible")
    svd, refused = np.linalg.svd, []

    def refuse_once(a, *args, **kwargs):
        if not refused:
            refused.append(a.shape)
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refuse_once)
    assert fans._invertible_on_window(op) == expected
    assert refused == [(w.dim, w.dim)]
