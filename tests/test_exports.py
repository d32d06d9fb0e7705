"""Every declared export resolves, and importing the package pulls in no
optional compiler."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import fredcorr

MODULES = sorted(m.name for m in pkgutil.iter_modules(fredcorr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"fredcorr.{name}")
    missing = [a for a in getattr(mod, "__all__", ()) if not hasattr(mod, a)]
    assert not missing


def test_package_exports_are_declared_by_their_modules():
    # each public package name is some module's declared export
    declared = {}
    for name in MODULES:
        mod = importlib.import_module(f"fredcorr.{name}")
        for attr in getattr(mod, "__all__", ()):
            declared.setdefault(attr, []).append(getattr(mod, attr))
    for attr in dir(fredcorr):
        value = getattr(fredcorr, attr)
        if attr.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert any(value is v for v in declared.get(attr, ())), attr


def test_import_does_not_load_numba():
    code = "import sys, fredcorr; print('numba' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_perfbench_trace_targets_resolve():
    # the benchmark's tracer wraps these names from outside; a deleted or
    # renamed one would break ``perfbench/run.py --trace 1``
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for _, modname, attr in tracer.TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), attr
        elif isinstance(getattr(owner, attr), type):
            assert "__post_init__" in vars(getattr(owner, attr)), attr
        else:
            assert callable(getattr(owner, attr)), attr
