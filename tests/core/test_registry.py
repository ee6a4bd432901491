"""Tests for the uniform component registry (`repro.core.registry`)."""

import sys

import pytest

from repro.core.engine.executors import resolve_executor
from repro.core.registry import REGISTRIES, Registry, all_registries, self_check
from repro.errors import CheckerError, SchedulerError


@pytest.fixture
def scratch():
    """A throwaway registry, removed from the global catalog afterwards."""
    registry = Registry("test-widgets", what="widget")
    yield registry
    REGISTRIES.pop("test-widgets", None)


def test_register_and_get(scratch):
    scratch.register("a", 1)
    assert scratch.get("a") == 1
    assert scratch["a"] == 1


def test_register_as_decorator(scratch):
    @scratch.register("fn")
    def fn():
        return 42

    assert fn() == 42  # the decorator returns the object unchanged
    assert scratch.get("fn") is fn


def test_deferred_entry_imports_on_first_lookup(scratch, monkeypatch):
    monkeypatch.delitem(sys.modules, "colorsys", raising=False)
    scratch.register_deferred("hsv", "colorsys:rgb_to_hsv")
    assert "hsv" in scratch
    assert scratch.names() == ("hsv",)
    assert "colorsys" not in sys.modules
    resolved = scratch.get("hsv")
    assert resolved is sys.modules["colorsys"].rgb_to_hsv
    assert scratch["hsv"] is resolved


def test_unknown_name_raises_configured_error(scratch):
    with pytest.raises(ValueError, match="unknown widget 'nope'"):
        scratch.get("nope")
    with pytest.raises(ValueError, match="available"):
        scratch["nope"]


def test_custom_error_type():
    registry = Registry("test-scheds", error=SchedulerError)
    try:
        with pytest.raises(SchedulerError, match="unknown test-sched"):
            registry.get("missing")
    finally:
        REGISTRIES.pop("test-scheds", None)


def test_get_with_default_is_soft(scratch):
    assert scratch.get("nope", None) is None
    assert scratch.get("nope", "fallback") == "fallback"


def test_duplicate_registration_rejected(scratch):
    scratch.register("a", 1)
    with pytest.raises(ValueError, match="already registered"):
        scratch.register("a", 2)
    scratch.unregister("a")
    scratch.register("a", 2)  # deliberate replacement path
    assert scratch.get("a") == 2


def test_mapping_semantics(scratch):
    scratch.register("z", 26)
    scratch.register("a", 1)
    assert "z" in scratch
    assert "missing" not in scratch  # must not raise
    assert len(scratch) == 2
    assert list(scratch) == ["z", "a"]  # registration order, not sorted
    assert scratch.names() == ("z", "a")
    assert dict(scratch.items()) == {"z": 26, "a": 1}
    assert sorted(scratch) == ["a", "z"]


def test_catalog_is_complete():
    catalog = all_registries()
    assert set(catalog) >= {"schedulers", "hash-backends", "scheme-kinds",
                            "workloads", "faults", "seeded-bugs", "mixers",
                            "roundings", "executors"}
    for kind, registry in catalog.items():
        assert registry.kind == kind
        assert len(registry) > 0, f"registry {kind!r} is empty"


def test_self_check_resolves_every_name():
    resolved = self_check()
    assert ("workloads", "radix") in resolved
    assert ("schedulers", "random") in resolved
    assert ("hash-backends", "python") in resolved
    assert ("schedulers", "dpor") in resolved
    assert ("memory-models", "tso") in resolved
    assert ("memory-models", "pso") in resolved
    assert ("executors", "serial") in resolved
    assert ("executors", "process-pool") in resolved
    assert len(resolved) >= 35


def test_executors_registry_covers_every_transport():
    catalog = all_registries()
    assert list(catalog["executors"]) == ["serial", "process-pool"]


def test_resolve_executor_explicit_name_wins():
    assert resolve_executor("serial", 8) == "serial"
    assert resolve_executor("process-pool", 1) == "process-pool"
    with pytest.raises(CheckerError):
        resolve_executor("no-such-backend", 2)


def test_resolve_executor_auto():
    # auto follows the worker topology: one worker is the serial path.
    assert resolve_executor("auto", 1) == "serial"
    assert resolve_executor("auto", 2) == "process-pool"
    assert resolve_executor("auto", 4) == "process-pool"


def test_memory_models_registry_in_catalog():
    catalog = all_registries()
    assert "memory-models" in catalog
    assert set(catalog["memory-models"]) == {"sc", "tso", "pso"}


def test_lookup_errors_suggest_close_names():
    from repro.errors import SchedulerError
    from repro.sim.memmodel import MEMORY_MODELS
    from repro.sim.scheduler import make_scheduler

    with pytest.raises(SchedulerError, match="did you mean 'dpor'"):
        make_scheduler("dpro")
    with pytest.raises(SchedulerError, match="did you mean 'random'"):
        make_scheduler("randm")
    with pytest.raises(ValueError, match="did you mean 'tso'"):
        MEMORY_MODELS.get("tos")
    from repro.core.engine.executors import EXECUTORS
    from repro.errors import CheckerError

    with pytest.raises(CheckerError,
                       match="unknown executor backend 'proces-pool' "
                             r"\(did you mean 'process-pool'\?\)"):
        EXECUTORS.get("proces-pool")
    # No near-miss: the hint is omitted, the inventory still printed.
    with pytest.raises(SchedulerError, match="available"):
        make_scheduler("fifo")


def test_workloads_keep_table1_order():
    """Table 1 lists applications grouped by determinism class; the
    registry must preserve that order for `repro list` and table1."""
    from repro.workloads import REGISTRY

    names = list(REGISTRY)
    assert names[0] == "blackscholes"
    assert names[-1] == "radiosity"
    assert len(names) == 17
    assert names.index("radix") < names.index("waterNS") < names.index("barnes")


def test_scheduler_registry_raises_scheduler_error():
    from repro.sim.scheduler import SCHEDULERS, make_scheduler

    assert set(SCHEDULERS) == {"random", "round_robin", "pct", "dpor"}
    with pytest.raises(SchedulerError, match="unknown scheduler"):
        make_scheduler("fifo")


def test_rounding_registry_backs_the_cli():
    from repro.cli import ROUNDINGS

    assert set(ROUNDINGS) == {"none", "default", "mantissa", "floor"}
    assert not ROUNDINGS["none"]().enabled
    assert ROUNDINGS["default"]().enabled
