"""The benchmark reaches into adaptnc by name: ``bench/workloads.py`` calls
``pkg.<name>`` on the package, and ``bench/spans.py`` wraps the functions and
methods it lists. A rename or deletion in the package must fail here, not
silently in a benchmark run or under ``--trace 1``. The bench files are read,
never imported, so no cache is written next to them."""

import importlib
import re
from pathlib import Path

import adaptnc
import adaptnc.cli  # noqa: F401  (workloads use pkg.cli)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans_tables() -> dict:
    source = (BENCH / "spans.py").read_text(encoding="utf-8")
    namespace = {}
    exec(compile(source, str(BENCH / "spans.py"), "exec"), namespace)
    return namespace


def test_every_package_name_the_workloads_use_exists():
    source = (BENCH / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bpkg\.(\w+)", source))
    assert "solve_monotone" in names
    missing = sorted(name for name in names if not hasattr(adaptnc, name))
    assert not missing, missing


def test_every_traced_function_and_method_resolves():
    tables = _spans_tables()
    for _, module, attr, _ in tables["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for _, module, cls_name, attr, _ in tables["METHODS"]:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None, (module, cls_name)
        # the tracer wraps cls.__dict__[attr], so the method must be defined
        # on that class, not inherited
        assert attr in vars(cls), (cls_name, attr)
