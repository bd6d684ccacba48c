"""The benchmark reaches into adaptnc by name: ``bench/workloads.py`` calls
``pkg.<name>`` on the package, and ``bench/spans.py`` wraps the functions and
methods it lists. A rename or deletion in the package must fail here, not
silently in a benchmark run or under ``--trace 1``; so must one of an
attribute, keyword or field order the workloads read below those names. The
bench files are read, never imported, so no cache is written next to them."""

import ast
import dataclasses
import importlib
import inspect
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


def _flow_spec_call_fields() -> list:
    """The FlowSpec field each positional argument of the workloads'
    ``pkg.FlowSpec(...)`` call fills: ``self.<name>`` passes the bench flow's
    field of that name, and ``pkg.ChannelModel(...)`` the channel."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "FlowSpec"
    ]
    assert len(calls) == 1
    names = []
    for arg in calls[0].args:
        if isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "ChannelModel":
            names.append("channel")
        else:
            assert isinstance(arg, ast.Attribute), ast.dump(arg)
            names.append(arg.attr)
    return names


def test_flow_spec_takes_the_workloads_positional_arguments_in_order():
    names = _flow_spec_call_fields()
    assert len(names) == 6
    assert [f.name for f in dataclasses.fields(adaptnc.FlowSpec)][: len(names)] == names


def test_attributes_the_workloads_read_below_package_names():
    channel = adaptnc.ChannelModel((0.3, 0.3))
    assert adaptnc.DecodingTable(channel, 3).values.shape == (4, 4)
    flow = adaptnc.FlowSpec(0, channel, 1.0, 0.5)
    assert adaptnc.service_curve(flow, 3).values.shape == (4,)
    assert callable(getattr(adaptnc.BlockPolicy, "decision_vector", None))
    policy = adaptnc.VarianceConstrainedPolicy(channel, 3, 5.0)
    assert isinstance(policy.k_cap, int) and isinstance(policy.table, adaptnc.PolicyTable)
    assert "keep_samples" in inspect.signature(adaptnc.monte_carlo_throughput).parameters
    # learning_run is called with its first five arguments by position
    assert list(inspect.signature(adaptnc.learning_run).parameters)[:5] == [
        "policy", "frames", "horizon", "channel", "rng",
    ]
    assert {"bellman_evals", "reward_evals"} <= set(adaptnc.solve_monotone(3, channel).stats)
