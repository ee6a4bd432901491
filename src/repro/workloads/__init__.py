"""Analogs of the paper's 17 applications (Section 7.1, Table 1).

Each module recreates one application's determinism *mechanism* at a
scale a simulated machine can run thousands of times; see the module
docstrings for the mapping.  :data:`REGISTRY` lists the applications in
Table 1 order; :func:`make` builds one by name with default parameters.
"""

from __future__ import annotations

from repro.core.registry import Registry
from repro.errors import CheckerError
from repro.workloads.barnes import Barnes
from repro.workloads.blackscholes import Blackscholes
from repro.workloads.canneal import Canneal
from repro.workloads.cholesky import Cholesky
from repro.workloads.common import Workload
from repro.workloads.fft import Fft
from repro.workloads.fluidanimate import Fluidanimate
from repro.workloads.lu import Lu
from repro.workloads.ocean import Ocean
from repro.workloads.pbzip2 import Pbzip2
from repro.workloads.radiosity import Radiosity
from repro.workloads.radix import Radix
from repro.workloads.seeded_bugs import (SEEDED_BUGS, seeded_program,
                                         seeded_radix, seeded_waterNS,
                                         seeded_waterSP)
from repro.workloads.sphinx3 import Sphinx3
from repro.workloads.streamcluster import Streamcluster
from repro.workloads.swaptions import Swaptions
from repro.workloads.volrend import Volrend
from repro.workloads.water import WaterNS, WaterSP

#: The 17 applications in Table 1 order (grouped by determinism class).
#: A :class:`~repro.core.registry.Registry`, so registration order *is*
#: Table 1 order and unknown names raise the canonical ValueError.
REGISTRY = Registry("workloads")
for _name, _cls in (
    ("blackscholes", Blackscholes),
    ("fft", Fft),
    ("lu", Lu),
    ("radix", Radix),
    ("streamcluster", Streamcluster),
    ("swaptions", Swaptions),
    ("volrend", Volrend),
    ("fluidanimate", Fluidanimate),
    ("ocean", Ocean),
    ("waterNS", WaterNS),
    ("waterSP", WaterSP),
    ("cholesky", Cholesky),
    ("pbzip2", Pbzip2),
    ("sphinx3", Sphinx3),
    ("barnes", Barnes),
    ("canneal", Canneal),
    ("radiosity", Radiosity),
):
    REGISTRY.register(_name, _cls)
del _name, _cls


def make(name: str, n_workers: int = 8, **kwargs) -> Workload:
    """Instantiate a Table 1 application analog by name."""
    return REGISTRY.get(name)(n_workers=n_workers, **kwargs)


def build_named_program(app: str, **params):
    """The CLI's name dispatcher: fault probe, seeded bug, or workload.

    A parameter the target does not take is a
    :class:`~repro.errors.CheckerError` naming the accepted ones, never
    a raw ``TypeError``.
    """
    from repro.sim.faults import FAULT_REGISTRY, make_fault
    from repro.workloads.seeded_bugs import SEEDED

    if app in FAULT_REGISTRY:
        _check_params(app, FAULT_REGISTRY.get(app), params)
        return make_fault(app, **params)
    if app in SEEDED:
        factory = SEEDED[app]
        _check_params(app, factory, params)
        return factory(**params)
    if app in REGISTRY:
        _check_params(app, REGISTRY.get(app), params)
    return make(app, **params)


def _check_params(app: str, target, params: dict) -> None:
    """Reject keys *target*'s signature does not accept (a target
    taking ``**kwargs`` accepts any)."""
    import inspect

    accepted = []
    for name, param in inspect.signature(target).parameters.items():
        if param.kind is param.VAR_KEYWORD:
            return
        if param.kind is not param.POSITIONAL_ONLY:
            accepted.append(name)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise CheckerError(
            f"{app!r} takes no parameter "
            f"{', '.join(repr(key) for key in unknown)}; "
            f"accepted: {', '.join(accepted)}")


def all_names() -> tuple:
    return tuple(REGISTRY)


__all__ = ["REGISTRY", "make", "build_named_program", "all_names", "Workload", "Barnes",
           "Blackscholes", "Canneal", "Cholesky", "Fft", "Fluidanimate",
           "Lu", "Ocean", "Pbzip2", "Radiosity", "Radix", "Sphinx3",
           "Streamcluster", "Swaptions", "Volrend", "WaterNS", "WaterSP",
           "SEEDED_BUGS", "seeded_program", "seeded_radix",
           "seeded_waterNS", "seeded_waterSP"]
