"""The benchmark tracer wraps graypath functions by name: every name it
reads must still exist, so that a rename fails here and not in the
benchmark.  perfbench/tracer.py is read, never edited."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from graypath.fixtures import fixture
from graypath.highercells import Tower

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("graypath_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


def _function(qual):
    layer, name = qual.split(".")
    module = importlib.import_module(f"graypath.{layer}")
    return module, getattr(module, name)


@pytest.mark.parametrize("qual", [f"{layer}.{name}"
                                  for layer, names in tracer.ENTRY_POINTS.items()
                                  for name in names])
def test_entry_point_is_a_function_of_its_module(qual):
    module, fn = _function(qual)
    assert inspect.isfunction(fn), qual
    assert fn.__module__ == module.__name__, qual


@pytest.mark.parametrize("qual", sorted(tracer.REDUNDANCY_KEYS))
def test_redundancy_key_arguments_are_parameters(qual):
    _, fn = _function(qual)
    if inspect.isclass(fn):
        fn = fn.__init__
    base, extra = tracer.REDUNDANCY_KEYS[qual]
    params = inspect.signature(fn).parameters
    assert all(arg in params for arg in (base, *extra)), (qual, list(params))


@pytest.mark.parametrize("prop", sorted(tracer.TOWER_PROPERTIES))
def test_tower_stage_is_a_property_cached_in_its_slot(prop):
    slot = tracer.TOWER_PROPERTIES[prop]
    assert isinstance(vars(Tower).get(prop), property), prop
    tw = Tower(fixture("T1"))
    assert getattr(tw, slot) is None
    stage = getattr(tw, prop)
    assert getattr(tw, slot) is stage
