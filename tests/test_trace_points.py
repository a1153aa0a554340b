"""The benchmark's tracer patches library names by lookup; each must exist.

``perfbench/tracing.py`` wraps the callables that ``trace_points()`` lists,
looking each one up with ``vars(owner)[attr]``.  A renamed or deleted name
breaks only the traced benchmark run, which the default test run does not
reach, so this checks the same lookup here.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_hook_point_exists():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.trace_points()
               if attr not in vars(owner)]
    assert not missing
