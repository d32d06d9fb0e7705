"""Pinned integer corpus: every integer a scenario reports and every
``fredcorr verify`` suite line, compared against ``corpus.json``.

The corpus covers each scenario kind at seeds 0-7, at the kind's default
window and at window 32, with and without ``--budget 1``: the integers
of each report's ``results`` and the exit code (2 for a refusal, which
prints no report).  It also holds every suite line at seeds 0 and 7.
Each entry runs ``cli.main`` in-process, as ``fredcorr`` does.  The
symbol kinds are also run with every symbol's reach
(``LaurentSymbol.reach``) widened by five modes, and must keep their
pinned integers: every padding is read off the operator the reach built.

Random scalar symbols are monomials c z^k (``random_laurent_symbol``
with one channel), and random multichannel symbols have a constant times
a power of z as determinant, so no entry has a determinant zero off the
origin inside the unit disk: the corpus pins no integer of the twist
index fault for such symbols.

Regenerate with ``PYTHONPATH=src python tests/test_corpus.py``, only for
a change that means to alter an integer.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from fredcorr import cli, subspaces
from fredcorr.circles import LaurentSymbol, multiplication_operator
from fredcorr.verify import available_suites
from fredcorr.windows import ModeWindow

CORPUS = pathlib.Path(__file__).with_name("corpus.json")
SEEDS = range(8)
SUITE_SEEDS = (0, 7)
# the kinds whose scenarios can act by a Laurent symbol
SYMBOL_KINDS = ("twist", "rh_transmission", "chain", "sphere", "fan",
                "graph", "torus")
# 1.7e308 + 0.5e308 z, as a transmission symbol and as a cap twist
_LARGEST = {"d_min": 0, "entries": [[[1.7e308, 0.5e308]]]}
LARGEST_SCENARIOS = (
    {"version": 1, "kind": "rh_transmission", "symbol": _LARGEST},
    {"version": 1, "kind": "chain", "twists": [_LARGEST]},
    {"version": 1, "kind": "sphere", "twists": [_LARGEST]},
)


@pytest.fixture(autouse=True)
def _restore_tol():
    saved = subspaces.DEFAULT_TOL
    yield
    subspaces.DEFAULT_TOL = saved


def _integers(value):
    """The integers of a report value, in its shape; floats, flags and
    nulls dropped."""
    if isinstance(value, dict):
        return {k: i for k, v in value.items()
                if (i := _integers(v)) not in (None, {}, [])}
    if isinstance(value, list):
        return [i for v in value if (i := _integers(v)) not in (None, {}, [])]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def _main(argv):
    """Exit code and stdout of one in-process ``fredcorr`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def kind_entries(kind, directory):
    """Corpus entries of one scenario kind, keyed by their flags."""
    path = pathlib.Path(directory) / f"{kind}.json"
    path.write_text(json.dumps({"version": 1, "kind": kind}))
    entries = {}
    for seed in SEEDS:
        for window in (None, 32):
            for budget in (None, 1):
                flags = ["--seed", str(seed)]
                if window is not None:
                    flags += ["--window", str(window)]
                if budget is not None:
                    flags += ["--budget", str(budget)]
                code, out = _main(["index", str(path), "--format", "json",
                                   *flags])
                results = (_integers(json.loads(out)["results"]) if out
                           else None)
                entries[" ".join(flags)] = {"exit": code, "results": results}
    return entries


def suite_entries(suite):
    """Exit code and printed lines of one suite at each pinned seed."""
    entries = {}
    for seed in SUITE_SEEDS:
        code, out = _main(["verify", suite, "--seed", str(seed)])
        entries[f"--seed {seed}"] = {"exit": code, "lines": out.splitlines()}
    return entries


def _pinned():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("kind", cli.KINDS)
def test_scenario_integers_match_the_corpus(kind, tmp_path):
    want = _pinned()["scenarios"][kind]
    got = kind_entries(kind, tmp_path)
    assert sorted(got) == sorted(want)
    for flags in want:
        assert got[flags] == want[flags], f"{kind} {flags}"


def test_suite_lines_match_the_corpus():
    want = _pinned()["suites"]
    assert sorted(want) == sorted(available_suites())
    for suite in want:
        assert suite_entries(suite) == want[suite], suite


def _checked_integers(path, flags=()):
    """Exit code, integers and check statuses of one scenario file."""
    code, out = _main(["index", str(path), "--format", "json", *flags])
    report = json.loads(out)
    return (code, _integers(report["results"]),
            {c["status"] for c in report["checks"]})


def test_a_wider_reach_moves_every_symbol_route_together(monkeypatch,
                                                         tmp_path):
    # every padding of a symbol action is read off the operator that the
    # symbol's reach built, so five more modes of reach on every symbol
    # change no integer and fail no check
    largest = []
    for i, scenario in enumerate(LARGEST_SCENARIOS):
        path = tmp_path / f"largest{i}.json"
        path.write_text(json.dumps(scenario))
        largest.append((path, _checked_integers(path)))
    monkeypatch.setattr(LaurentSymbol, "reach",
                        property(lambda sym: sym.degree + 5))
    assert multiplication_operator(LaurentSymbol.monomial(1),
                                   ModeWindow(4)).margin == 6
    pinned = _pinned()["scenarios"]
    for kind in SYMBOL_KINDS:
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"version": 1, "kind": kind}))
        for seed in SEEDS:
            flags = ("--seed", str(seed))
            want = pinned[kind][" ".join(flags)]
            assert want["exit"] == 0
            assert _checked_integers(path, flags) \
                == (0, want["results"], {"PASS"}), f"{kind} seed {seed}"
    for path, want in largest:
        assert want[0] == 0 and want[2] == {"PASS"}
        assert _checked_integers(path) == want, path.read_text()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {
            "scenarios": {k: kind_entries(k, tmp) for k in cli.KINDS},
            "suites": {s: suite_entries(s) for s in available_suites()},
        }
    CORPUS.write_text(json.dumps(corpus, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
