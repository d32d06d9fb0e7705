"""Every decision threshold is named once, in the table at the top of
``subspaces.py``: no other float constant below 1e-3 appears in ``src/``,
and the modules that use a threshold import it from there."""

import ast
from pathlib import Path

from fredcorr import circles, fans, spaces, subspaces

SRC = Path(__file__).resolve().parent.parent / "src" / "fredcorr"
TABLE = ("DEFAULT_TOL", "ANGLE_TOL", "AMBIGUITY_BAND", "FRAME_ATOL",
         "PROJECTOR_ATOL", "POLARIZATION_CUTOFF", "MIN_DET")


def table_values(tree):
    """The value nodes of the module-level assignments to table names."""
    return {id(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in TABLE}


def stray_small_constants(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = table_values(tree) if path.name == "subspaces.py" else set()
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, (float, complex))
            and 0 < abs(node.value) < 1e-3 and id(node) not in allowed]


def test_small_float_constants_live_only_in_the_table():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "subspaces.py" for p in paths)
    stray = [line for p in paths for line in stray_small_constants(p)]
    assert not stray, stray


def test_every_table_name_is_defined_in_subspaces():
    tree = ast.parse((SRC / "subspaces.py").read_text(encoding="utf-8"))
    assert len(table_values(tree)) == len(TABLE)


def test_users_import_the_table_entries():
    assert spaces.PROJECTOR_ATOL is subspaces.PROJECTOR_ATOL
    assert spaces.POLARIZATION_CUTOFF is subspaces.POLARIZATION_CUTOFF
    assert fans.PROJECTOR_ATOL is subspaces.PROJECTOR_ATOL
    assert circles.MIN_DET is subspaces.MIN_DET
