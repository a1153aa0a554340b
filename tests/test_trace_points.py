"""The benchmark patches library names by lookup; each must exist.

``perfbench/tracing.py`` wraps the callables that ``trace_points()`` lists,
and each workload's ``hook()`` in ``perfbench/workload.py`` wraps a few
more, all through ``Patcher.replace``, which looks each one up with
``vars(owner)[attr]``.  A renamed or deleted name breaks only the
benchmark run, which the default test run does not reach, so this makes
the same lookups here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    # registered under its top-level name: workload.py does ``from tracing import ...``
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workload = _load("workload")


def test_every_hook_point_exists():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.trace_points()
               if attr not in vars(owner)]
    assert not missing


class CountingPatcher(tracing.Patcher):
    def __init__(self):
        super().__init__()
        self.replaced = []

    def replace(self, owner, attr, make):
        super().replace(owner, attr, make)
        self.replaced.append(f"{owner.__name__.removeprefix('ihvit.')}.{attr}")


def _bindings():
    """Every name bound in an ``ihvit`` module or in a class defined there."""
    out = {}
    for m in tracing._ihvit_modules():
        for k, v in list(vars(m).items()):
            out[(m.__name__, k)] = v
            if isinstance(v, type) and v.__module__ == m.__name__:
                out.update({(f"{m.__name__}.{k}", a): w for a, w in vars(v).items()})
    return out


@pytest.mark.parametrize("name, replaced", [
    ("train-ihvit", ["Adam.step", "train.evaluate", "train.load_split", "train.combined_loss"]),
    ("eval-ihvit", ["train.evaluate", "Arm.predict_probs"]),
    ("prep-mixedres", []),
])
def test_workload_hooks_install_and_undo(name, replaced, tmp_path):
    wl = workload.WORKLOADS[name](0, tmp_path)
    before = _bindings()
    patcher = CountingPatcher()
    wl.hook(patcher, tracing.OpClock())
    try:
        assert patcher.replaced == replaced
    finally:
        patcher.undo()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
