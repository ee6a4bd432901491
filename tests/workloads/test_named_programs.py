"""The CLI's name dispatcher: ``repro.workloads.build_named_program``.

A name resolves through exactly one family — fault probe, seeded bug,
or Table 1 workload — and a parameter the target does not take is a
``CheckerError`` naming it, never a raw ``TypeError``.  No name outside
the three registries ever builds a program.
"""

import inspect
import keyword
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import CheckerError
from repro.sim.faults import FAULT_REGISTRY
from repro.workloads import REGISTRY, _check_params, build_named_program
from repro.workloads.seeded_bugs import SEEDED


def _target(name):
    """The constructor or factory *name* dispatches to."""
    for registry in (FAULT_REGISTRY, SEEDED, REGISTRY):
        if name in registry:
            return registry.get(name)
    raise AssertionError(f"{name!r} is registered nowhere")


def _takes_kwargs(target) -> bool:
    return any(p.kind is p.VAR_KEYWORD
               for p in inspect.signature(target).parameters.values())


REGISTERED = sorted({*FAULT_REGISTRY, *SEEDED, *REGISTRY})


def test_build_named_program_dispatch_order():
    # fault probes and seeded bugs shadow nothing in the workload
    # registry; each name resolves through its own family.
    assert type(build_named_program("fft")) is REGISTRY.get("fft")
    assert (type(build_named_program("deadlock-fault"))
            is FAULT_REGISTRY.get("deadlock-fault"))
    assert (type(build_named_program("seeded-radix"))
            is type(SEEDED.get("seeded-radix")()))


@pytest.mark.parametrize("app", ["fft", "deadlock-fault"])
def test_build_named_program_rejects_unknown_params(app):
    with pytest.raises(CheckerError,
                       match=r"takes no parameter 'bogus'; accepted: "
                             r"n_workers"):
        build_named_program(app, n_workers=2, bogus=1)


def test_build_named_program_passes_any_key_to_a_kwargs_target():
    # Seeded-bug factories take **kwargs and forward them; the check
    # leaves those to the constructor they reach.
    program = build_named_program("seeded-radix", n_workers=2)
    assert program.n_workers == 2


def test_cli_app_factory_is_picklable():
    from repro.cli import _AppFactory

    factory = pickle.loads(pickle.dumps(_AppFactory("fft")))
    assert factory.app == "fft"
    assert factory(n_workers=2).name == "fft"


_IDENTS = st.from_regex(r"[a-z_][a-z0-9_]{0,12}", fullmatch=True).filter(
    lambda key: not keyword.iskeyword(key))


@given(st.text(max_size=24).filter(lambda name: name not in REGISTERED),
       st.dictionaries(_IDENTS, st.integers(), max_size=3))
def test_unregistered_name_never_builds_a_program(name, params):
    with pytest.raises((ValueError, CheckerError)):
        build_named_program(name, **params)


@given(st.sampled_from(REGISTERED), _IDENTS, st.integers())
def test_unknown_keyword_is_named_unless_the_target_takes_kwargs(
        name, key, value):
    target = _target(name)
    accepted = inspect.signature(target).parameters
    if key in accepted:
        return
    if _takes_kwargs(target):
        # The key is the constructor's to accept or refuse.
        assert _check_params(name, target, {key: value}) is None
        return
    with pytest.raises(CheckerError, match=f"takes no parameter '{key}'"):
        build_named_program(name, **{key: value})
