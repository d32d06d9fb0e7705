"""The property-suite registry: determinism, coverage, and the
convention manifest round-trip."""

import pytest

from fredcorr import cli, verify


def test_registry_lists_every_suite():
    names = verify.available_suites()
    assert "conventions" in names
    assert "fan_four_formulas" in names
    assert "graph_fan_vs_additive" in names
    assert names == sorted(names)


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        verify.run_suite("nope")


@pytest.mark.parametrize("name,count", [
    ("pair_routes", 20),
    ("twist_winding", 5),
    ("twist_additivity", 4),
    ("delta_splitting_invariance", 6),
    ("delta_direct_combination", 8),
    ("chain_association", 3),
    ("fan_four_formulas", 10),
    ("graph_fan_vs_additive", 5),
    ("sphere_radii", 4),
    ("torus_weights", 4),
    ("mv_pairing", None),
    ("window_stability", 2),
    ("conventions", None),
])
def test_suite_passes(name, count):
    rep = verify.run_suite(name, seed=5, count=count)
    assert rep.ok, [c for c in rep.checks if not c.ok]


@pytest.mark.parametrize("name,kind", [
    ("pair_routes", "pair"),
    ("sphere_radii", "chain"),
    ("mv_pairing", "rh_transmission"),
])
def test_scenario_suites_count_the_scenario_checks(name, kind):
    # a scenario suite reports each of its kind's checks over every draw
    report, _ = cli.run_scenario({"version": 1, "kind": kind})
    rep = verify.run_suite(name, seed=1, count=3)
    assert sorted(c.name for c in rep.checks) == \
        sorted(c["name"] for c in report["checks"])
    assert all(c.total == 3 for c in rep.checks)


def test_deterministic_given_seed():
    a = verify.run_suite("pair_routes", seed=9, count=15)
    b = verify.run_suite("pair_routes", seed=9, count=15)
    assert a == b


def test_manifest_contents():
    m = verify.load_conventions()
    assert m["version"] == 1
    assert m["incoming_disk_index"] == 0
    assert m["outgoing_disk_index"] == 1
    assert m["sphere_total_index"] == 1
    assert m["torus_twist_sign"] == -1
    assert m["mv_pairing_sign"] == 1
    assert m["delta_cokernel_sign"] == -1
    assert m["twist_index_equals_winding"] is True


def test_manifest_matches_recomputation():
    rep = verify.run_suite("conventions")
    assert rep.ok
    assert len(rep.checks) == len(verify.load_conventions())
