"""Session planning: resolve a config into what the executors run.

A :class:`SessionPlan` is the validated, fully-resolved form of a
:class:`~repro.core.engine.model.CheckConfig`: the resolved worker
topology, the retry policy, and factories for the session-scoped
controller, runner, and wall-clock budget.  Executors consume the plan;
they never re-derive anything from the raw config.  It holds no
per-run state (runs are ``range(runs)``): every pool task builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.checker.policies import NO_RETRY, SessionBudget
from repro.core.control.controller import InstantCheckControl
from repro.core.engine.model import CheckConfig
from repro.errors import CheckerError
from repro.sim.memmodel import MEMORY_MODELS
from repro.sim.program import Program, Runner
from repro.sim.scheduler import SCHEDULERS, make_scheduler


@dataclass(frozen=True)
class SessionPlan:
    """Everything the executors need to run one checking session."""

    program: Program
    config: CheckConfig
    n_workers: int

    @classmethod
    def from_config(cls, program: Program, config: CheckConfig,
                    n_workers: int | None = None) -> SessionPlan:
        """Validate *config* and resolve it into a plan.

        *n_workers* overrides the config's ``workers`` knob when the
        caller already resolved it (the parallel facade does).
        """
        from repro.core.engine.executors import resolve_workers

        if config.runs < 2:
            raise CheckerError("determinism checking needs at least 2 runs")
        if (config.judge_variant is not None
                and config.judge_variant not in config.variant_names()):
            raise CheckerError(
                f"judge_variant {config.judge_variant!r} is not produced by "
                f"this session; configured variants: {config.variant_names()}")
        MEMORY_MODELS.get(config.memory_model)  # fail early on a typo
        if cls.scheduler_is_systematic(config):
            # A systematic scheduler's exploration frontier lives in the
            # one scheduler instance the serial executor reuses across
            # runs; pool workers rebuild schedulers per run and would
            # restart it every time.
            if config.executor not in ("auto", "serial"):
                raise CheckerError(
                    f"scheduler {config.scheduler!r} is systematic and "
                    f"requires the serial executor (got "
                    f"{config.executor!r})")
            n_workers = 1
        if n_workers is None:
            n_workers = (resolve_workers(config.workers)
                         if config.workers != 1 else 1)
        return cls(program=program, config=config, n_workers=n_workers)

    @property
    def retry(self):
        """The effective retry policy (None in the config means none)."""
        return self.config.retry if self.config.retry is not None else NO_RETRY

    def make_control(self) -> InstantCheckControl:
        """The session-scoped controller (run 1 records, later runs replay)."""
        config = self.config
        return InstantCheckControl(
            zero_fill=config.zero_fill,
            malloc_replay=config.malloc_replay,
            libcall_replay=config.libcall_replay,
            io_hash=config.io_hash,
            strict_replay=config.strict_replay,
            ignores=config.ignores,
        )

    def make_runner(self, control, tele, checkpoint_hook=None) -> Runner:
        """A runner wired up the way one checking session needs it.

        *checkpoint_hook* is invoked with each checkpoint record the
        moment it is taken (the shmem backend's streaming publish).
        """
        config = self.config
        scheduler = make_scheduler(config.scheduler, config.granularity)
        return Runner(self.program, scheme_factory=dict(config.schemes),
                      control=control, scheduler=scheduler,
                      n_cores=config.n_cores,
                      migrate_prob=config.migrate_prob,
                      max_steps=config.max_steps, telemetry=tele,
                      checkpoint_hook=checkpoint_hook,
                      memory_model=config.memory_model)

    @staticmethod
    def scheduler_is_systematic(config: CheckConfig) -> bool:
        """Does this config name a frontier-carrying scheduler (DPOR)?"""
        cls = SCHEDULERS.get(config.scheduler, None)
        return bool(cls is not None and getattr(cls, "systematic", False))

    def new_budget(self) -> SessionBudget:
        """A freshly-armed wall-clock budget for one session execution."""
        return SessionBudget(deadline_s=self.config.deadline_s,
                             run_deadline_s=self.config.run_deadline_s).start()
