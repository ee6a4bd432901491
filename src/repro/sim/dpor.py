"""Systematic exploration: dynamic partial-order reduction (DPOR).

The paper's evaluation *samples* interleavings (random / PCT serialized
scheduling, Section 7.1); its Section 6.2 discussion of systematic
testing is what this module makes concrete.  :class:`DporScheduler` is
a drop-in :class:`~repro.sim.scheduler.Scheduler` that *enumerates*
interleavings instead of sampling them, one interleaving per
``runner.run()`` call, pruning schedules that only permute independent
steps — the classic Flanagan–Godefroid dynamic partial-order reduction
with sleep sets, in the stateless re-execution style of "Stateless
Model Checking for TSO and PSO" (PAPERS.md).

How it plugs in
---------------
The engine's serial executor reuses **one** runner — and therefore one
scheduler instance — for every run of a session, so the exploration
frontier survives from run to run: ``begin_run`` analyzes the previous
execution for races, extends the backtrack sets, and forces the next
unexplored branch.  Each session run is one equivalence-class-distinct
interleaving until the frontier is exhausted, after which the scheduler
replays the first interleaving (keeping later runs harmlessly
identical).  ``CheckConfig(scheduler="dpor")`` therefore turns a
sampled determinism session into an exhaustive one for small programs.
The scheduler is marked ``systematic``: session planning pins it to the
serial executor, because pool workers rebuild schedulers per run and
would restart the frontier every time.

Each run replays the exploration stack up to the branch it forces, so
the race analysis after it visits only the blocks from that branch on.
The clocks and access history of the replayed prefix come from the
previous run's analysis, and its races were folded then: they sit at
nodes shallower than the forced one, whose backtrack and done sets only
grew since, so folding them again would queue nothing.  The cached prefix
is compared block by block with the new run's, and a mismatch falls
back to a full analysis, so the exploration is exactly that of
re-analysing every run from its first block.

Dependence is computed from *footprints* — the shared-object read/write
sets of each executed op (:func:`op_footprint`).  Store-buffer drains
(:mod:`repro.sim.memmodel`) appear as scheduling actors with write
footprints, so under ``tso``/``pso`` the *reorderings themselves* are
branch points and DPOR steers straight into the delayed-visibility
schedules random testing rarely finds (the gap is gated in
``tests/sim/test_dpor.py``).

Budget and resumability
-----------------------
``max_runs`` bounds exploration; :meth:`DporScheduler.export_frontier`
/ :meth:`import_frontier` serialize the backtrack stack as plain JSON
so a later session can resume where a bounded one stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CheckerError
from repro.sim.context import Op
from repro.sim.scheduler import SCHEDULERS, DecisionScheduler, Scheduler

#: The pseudo-object written by ops that change the *hashable state* as
#: a whole (checkpoints, barriers, frees, ISA ops) and read by every
#: store/drain: reordering a store across a checkpoint changes the
#: checkpoint's hash, so they must be dependent — while two stores to
#: different addresses stay independent (R/R on this object).
STATE = ("state",)

READ, WRITE = "R", "W"

#: The format version :meth:`DporScheduler.export_frontier` writes and
#: :meth:`DporScheduler.import_frontier` accepts.
FRONTIER_VERSION = 2


def _sync_object(obj) -> tuple:
    """A stable identity for a lock/condvar/barrier within one run.

    Sync objects are rebuilt per run; their ``name`` (all the sim's
    sync types carry one) keys them across runs so Mazurkiewicz keys
    from different runs are comparable.
    """
    name = getattr(obj, "name", None)
    return ("sync", type(obj).__name__,
            name if name is not None else id(obj))


def _buffer_object(model, tid: int, address: int) -> tuple:
    """The footprint object of one store-buffer FIFO.

    Keyed exactly as the memory model keys its queues
    (:meth:`~repro.sim.memmodel.StoreBufferModel.key_for`): one object
    per thread under TSO, one per (thread, location) under PSO — so two
    drains of *different* location queues of the same thread are
    independent under PSO, exactly as the hardware reorders them.  A
    model without ``key_for`` (SC stand-ins in tests) falls back to the
    per-thread object.
    """
    key_for = getattr(model, "key_for", None)
    if key_for is None:
        return ("buf", tid)
    return ("buf",) + tuple(key_for(tid, address))


def op_footprint(actor: int, op: Op | None, runner) -> frozenset:
    """The shared-object access set of one executed (or pending) step.

    Returns a frozenset of ``(object, "R"|"W")`` pairs; two steps are
    *dependent* iff they touch a common object and at least one writes
    it (:func:`dependent`).  The map is deliberately conservative —
    over-approximating dependence costs extra exploration, never
    soundness.  Library calls (``rand``/``time``) write hidden shared
    state; under InstantCheck control they are replayed from the log,
    whose record order is itself schedule state, so they stay writes.
    """
    if op is None:  # wakeup delivery: pure control transfer
        return frozenset()
    kind = op.kind
    args = op.args
    buffering = (runner is not None and runner.machine is not None
                 and runner.machine.memory_model is not None)
    model = runner.machine.memory_model if buffering else None
    if kind == "load" or kind == "read_old":
        return frozenset({(("m", args[0]), READ)})
    if kind == "store":
        if buffering:
            # A buffered store is private until it drains; it only
            # orders against its own queue's drains (the WRITE) and
            # against the thread's buffer-emptying fences (the READ on
            # the per-thread object the fence footprint writes).
            return frozenset({(_buffer_object(model, actor, args[0]),
                               WRITE),
                              (("buf", actor), READ)})
        return frozenset({(("m", args[0]), WRITE), (STATE, READ)})
    if kind == "drain":
        owner, address = args
        return frozenset({(("m", address), WRITE), (STATE, READ),
                          (_buffer_object(model, owner, address), WRITE),
                          (("buf", owner), READ)})
    if kind in ("compute", "yield"):
        return frozenset()
    footprint: set = set()
    if kind in ("lock", "unlock"):
        footprint.add((_sync_object(args[0]), WRITE))
    elif kind == "cond_wait":
        footprint.add((_sync_object(args[0]), WRITE))
        footprint.add((_sync_object(args[1]), WRITE))
    elif kind in ("cond_signal", "cond_broadcast"):
        footprint.add((_sync_object(args[0]), WRITE))
    elif kind in ("barrier", "checkpoint", "isa"):
        footprint.add((STATE, WRITE))
    elif kind == "rand":
        footprint.add((("rand",), WRITE))
    elif kind == "time":
        footprint.add((("time",), WRITE))
    elif kind == "malloc":
        footprint.add((("heap",), WRITE))
    elif kind == "free":
        footprint.add((("heap",), WRITE))
        footprint.add((STATE, WRITE))
    elif kind == "write_out":
        footprint.add((("fd", args[0]), WRITE))
    if buffering:
        # Fences retire the issuing thread's *entire* buffer as part of
        # their step.  The per-thread ``("buf", tid)`` WRITE keeps them
        # ordered against every pending drain and buffered store of the
        # thread — per-queue objects would be unsound here, because a
        # fence also conflicts with drains of queues it happened to
        # empty in this trace but would not in a reordering.
        drained = getattr(runner, "fence_drained", ())
        if drained:
            footprint.add((STATE, READ))
            footprint.add((("buf", actor), WRITE))
            for address in drained:
                footprint.add((("m", address), WRITE))
    return frozenset(footprint)


def dependent(a: frozenset, b: frozenset) -> bool:
    """Do two footprints conflict (shared object, at least one write)?"""
    if not a or not b:
        return False
    objs_b = {}
    for obj, typ in b:
        objs_b[obj] = WRITE if (typ == WRITE or objs_b.get(obj) == WRITE) \
            else READ
    for obj, typ in a:
        other = objs_b.get(obj)
        if other is not None and (typ == WRITE or other == WRITE):
            return True
    return False


def mazurkiewicz_key(trace) -> tuple:
    """Canonical key of a trace's Mazurkiewicz equivalence class.

    *trace* is ``[(actor, footprint), ...]`` in execution order.  The
    key is the Foata normal form: events are layered so each sits one
    level above its latest dependent predecessor (same actor counts as
    dependent — program order).  Two interleavings get equal keys iff
    one can be reached from the other by swapping adjacent independent
    steps, so ``len({keys})`` counts trace classes exactly.
    """
    placed: list = []  # (actor, per-actor index, footprint, level)
    counts: dict = {}
    for actor, footprint in trace:
        index = counts.get(actor, 0)
        counts[actor] = index + 1
        level = 0
        for other_actor, _, other_fp, other_level in placed:
            if other_level >= level and (
                    other_actor == actor or dependent(footprint, other_fp)):
                level = other_level + 1
        placed.append((actor, index, footprint, level))
    if not placed:
        return ()
    top = max(level for *_, level in placed)
    return tuple(
        frozenset((actor, index) for actor, index, _, level in placed
                  if level == lv)
        for lv in range(top + 1))


def _preference(runnable: list) -> list:
    """Default branch order: threads (ascending tid) before drains
    (ascending pseudo-tid magnitude).  *runnable* must be sorted, as
    the runtime hands it to :meth:`Scheduler.pick`.

    Delaying drains first means the *initial* DPOR execution under
    tso/pso is the maximally reordered one — buffered stores stay
    invisible as long as the program allows — which is exactly the
    schedule random sampling is least likely to produce.
    """
    return ([a for a in runnable if a >= 0]
            + [a for a in reversed(runnable) if a < 0])


def _fp_to_json(footprint):
    """A footprint (or None) as JSON-serializable nested lists."""
    if footprint is None:
        return None
    return sorted(([list(obj), typ] for obj, typ in footprint), key=repr)


def _fp_from_json(items):
    if items is None:
        return None
    return frozenset((tuple(obj), typ) for obj, typ in items)


def _sleep_to_json(sleep: dict) -> list:
    """``{actor: footprint|None}`` as a JSON-stable list of pairs."""
    return [[actor, _fp_to_json(fp)] for actor, fp in sorted(sleep.items())]


def _sleep_from_json(items) -> dict:
    return {actor: _fp_from_json(fp) for actor, fp in items}


@dataclass
class _Node:
    """One scheduling decision of the current exploration path.

    The sleep sets map a sleeping actor to the *remembered block
    footprint* it had when its branch was explored here — the union of
    the op footprints the actor executed before the next decision
    point.  A sleeper wakes when a later step's footprint is dependent
    with that remembered block (single-op lookahead is unsound under
    ``sync`` granularity, where one scheduling step is a whole op
    block: a drain independent of a thread's *next* op may still
    conflict with a later op of the same block).  ``None`` stands for
    an unknown block and wakes on any nonempty footprint.
    """

    chosen: int
    enabled: tuple
    done: set = field(default_factory=set)
    backtrack: set = field(default_factory=set)
    block: dict = field(default_factory=dict)  # actor -> explored block fp
    sleep0: dict = field(default_factory=dict)        # sleep set on entry
    branch_sleep: dict = field(default_factory=dict)  # sleep at branch start


@SCHEDULERS.register("dpor")
class DporScheduler(Scheduler):
    """Source-DPOR with sleep sets over re-executed runs.

    One scheduler instance explores one program: every ``begin_run``
    folds the races of the previous execution into the backtrack sets
    and forces the deepest unexplored branch.  Runs that start while
    the frontier is exhausted (or past ``max_runs``) replay the first
    interleaving and are flagged via :attr:`exhausted` /
    :attr:`budget_exhausted`.
    """

    #: The runtime reports every executed step via :meth:`observe_step`.
    wants_observations = True
    #: Session planning pins systematic schedulers to the serial
    #: executor — the frontier lives in this instance.
    systematic = True

    def __init__(self, granularity: str = "sync", max_runs: int = 4096):
        super().__init__(granularity)
        self.max_runs = max_runs
        self._runner = None
        self._stack: list[_Node] = []
        self._forced: list[int] = []
        self.runs_started = 0
        self.exhausted = False
        self.budget_exhausted = False
        self._pending_analysis = False
        self._forced_depth = -1
        self._drop_analysis_cache()
        self._reset_run_state()

    def _drop_analysis_cache(self) -> None:
        """Forget the last analysed run; the next analysis is full."""
        self._cached_blocks: list = []   # [(actor, footprint, node)]
        self._cached_clocks: list = []   # block index -> vector clock
        self._cached_history: dict = {}  # object -> [(step, actor, type)]
        self._cached_last_write: dict = {}  # object -> (step, actor)
        self._cached_readers: dict = {}  # object -> [(step, actor), ...]

    def _reset_run_state(self) -> None:
        self._trace: list = []           # [(actor, footprint)]
        self._node_of_step: list = []    # step index -> stack index
        self._depth = 0                  # choose() calls this run
        self._current_node = -1
        self._sleep: dict = {}           # actor -> remembered block fp
        self._blocked = False            # sleep-set blocked (redundant)
        self._inconsistent = False       # forced replay diverged
        self._frozen = False             # replaying after exhaustion

    # -- wiring ---------------------------------------------------------------

    def bind_runner(self, runner) -> None:
        """The runtime hands us its runner so footprints can inspect
        pending ops and drain queues."""
        self._runner = runner

    def begin_run(self, seed: int) -> None:
        self._flush_analysis()
        frozen = self.exhausted or self.runs_started >= self.max_runs
        if self.runs_started >= self.max_runs and not self.exhausted:
            self.budget_exhausted = True
        self.runs_started += 1
        self._reset_run_state()
        self._frozen = frozen
        self._pending_analysis = not frozen
        # The branch this run forces: every node below it replays the
        # choice the previous run made there.
        self._forced_depth = len(self._stack) - 1

    # -- per-run choices ------------------------------------------------------

    def choose(self, runnable: list, current: int | None) -> int:
        if self._frozen or self._blocked:
            return _preference(runnable)[0]
        depth = self._depth
        self._depth += 1
        if depth < len(self._stack):
            node = self._stack[depth]
            if node.chosen not in runnable:
                # Deterministic replay should revisit identical choice
                # points; a mismatch means the program's control flow
                # depends on something outside the schedule.  Abandon
                # the analysis of this run rather than mis-attribute.
                self._inconsistent = True
                self._blocked = True
                return _preference(runnable)[0]
            self._sleep = dict(node.branch_sleep)
            self._current_node = depth
            return node.chosen
        candidates = [a for a in _preference(runnable)
                      if a not in self._sleep]
        if not candidates:
            # Every enabled actor is asleep: any continuation replays an
            # already-explored trace class.  Finish the run (the runtime
            # cannot abort mid-run) but mark it redundant.
            self._blocked = True
            return _preference(runnable)[0]
        chosen = candidates[0]
        node = _Node(chosen=chosen, enabled=tuple(runnable),
                     done={chosen}, backtrack=set(),
                     sleep0=dict(self._sleep),
                     branch_sleep=dict(self._sleep))
        self._stack.append(node)
        self._current_node = depth
        return chosen

    def observe_step(self, actor: int, op: Op | None) -> None:
        """The runtime reports each executed step (threads and drains)."""
        if self._frozen or self._blocked:
            return
        footprint = op_footprint(actor, op, self._runner)
        self._trace.append((actor, footprint))
        node_index = self._current_node
        self._node_of_step.append(node_index)
        if 0 <= node_index < len(self._stack):
            # Remember the block this actor executed at its decision
            # node — sleep sets at sibling branches wake on it.
            block = self._stack[node_index].block
            block[actor] = block.get(actor, frozenset()) | footprint
        sleep = self._sleep
        if not sleep:
            return
        for sleeper, blockfp in list(sleep.items()):
            if sleeper == actor:
                del sleep[sleeper]
            elif footprint and (blockfp is None
                                or dependent(footprint, blockfp)):
                del sleep[sleeper]

    # -- exploration bookkeeping ----------------------------------------------

    @property
    def last_run_redundant(self) -> bool:
        """Did the last run only replay an explored class (sleep-set
        blocked, replay-diverged, or post-exhaustion)?"""
        return self._blocked or self._inconsistent or self._frozen

    @property
    def last_trace(self) -> list:
        """The last run's ``[(actor, footprint)]`` trace (up to a
        sleep-block, if one occurred)."""
        return list(self._trace)

    def has_more(self) -> bool:
        """Is there an unexplored branch within budget?"""
        self._flush_analysis()
        return not self.exhausted and self.runs_started < self.max_runs

    def _flush_analysis(self) -> None:
        if not self._pending_analysis:
            return
        self._pending_analysis = False
        if self._inconsistent:
            self._drop_analysis_cache()
        else:
            self._blocks = self._block_trace()
            self._analyze_races()
        self._advance_frontier()

    def _block_trace(self) -> list:
        """The run's trace aggregated into scheduling blocks.

        The analysis must work at the granularity the scheduler can
        actually branch on: one event per decision node, its footprint
        the union of the ops the quantum executed.  Op-level events
        would let an actor's *first* op masquerade as an initial of a
        reversing sequence whose remainder its own block then tramples
        (e.g. a block ``load x; store r1`` looks movable before a
        ``r1``-queue drain if only the load is consulted).
        """
        blocks: list = []  # [(actor, footprint, node index), ...]
        for step, (actor, footprint) in enumerate(self._trace):
            node = self._node_of_step[step]
            if blocks and blocks[-1][2] == node:
                blocks[-1] = (actor, blocks[-1][1] | footprint, node)
            else:
                blocks.append((actor, footprint, node))
        return blocks

    def _analyze_races(self) -> None:
        """Fold the finished run's races into the backtrack sets.

        Vector clocks (actor -> latest block of that actor in the
        causal past) give happens-before; for each block *j*, every
        dependent, unordered earlier block *i* is a *race*, and
        :meth:`_schedule_reversal` queues a branch that reverses it.

        Only the blocks from the forced branch on are visited.  The
        blocks before it replay the previous analysed run, so their
        clocks and access history come from that run's analysis (see
        :meth:`_resume_point`).  Skipping their races is exact: a race
        ``(i, j)`` with *j* in the prefix was folded by the run that
        executed the prefix, at a node shallower than the forced one —
        the same object now, whose ``done``/``backtrack`` only grew
        since and whose ``enabled``/``sleep0`` never change — so
        folding it again would queue nothing.
        """
        blocks = self._blocks
        fresh = self._resume_point(blocks)
        step_clock = self._cached_clocks
        last_write = self._cached_last_write
        readers = self._cached_readers
        history = self._cached_history
        clocks: dict[int, dict] = {}
        for k in range(fresh):
            clocks[blocks[k][0]] = step_clock[k]
        for j in range(fresh, len(blocks)):
            p, footprint, _node = blocks[j]
            pre = clocks.get(p, {})
            clock = dict(pre)
            merges = []
            racing: set = set()
            for obj, typ in footprint:
                writer = last_write.get(obj)
                if writer is not None:
                    merges.append(writer[0])
                if typ == WRITE:
                    for (i, _q) in readers.get(obj, ()):
                        merges.append(i)
                for (i, q, other_typ) in history.get(obj, ()):
                    if q != p and (typ == WRITE or other_typ == WRITE):
                        racing.add(i)
            for i in sorted(racing):
                if pre.get(blocks[i][0], -1) < i:  # unordered only
                    self._schedule_reversal(i, j, step_clock)
            for i in merges:
                for actor, idx in step_clock[i].items():
                    if clock.get(actor, -1) < idx:
                        clock[actor] = idx
            clock[p] = j
            clocks[p] = clock
            step_clock.append(clock)
            for obj, typ in footprint:
                if typ == WRITE:
                    last_write[obj] = (j, p)
                    readers[obj] = []
                else:
                    readers.setdefault(obj, []).append((j, p))
                history.setdefault(obj, []).append((j, p, typ))
        self._cached_blocks = blocks

    def _resume_point(self, blocks: list) -> int:
        """The first block of *blocks* that :meth:`_analyze_races` must
        visit; the cached analysis state is cut back to the blocks
        before it.

        That is the first block executed at the forced branch's node or
        a deeper one.  The cache checks itself: unless the previous
        analysed run's blocks up to there equal this run's (actor,
        footprint and node), the cache is dropped and the whole run is
        analysed.
        """
        depth = self._forced_depth
        fresh = 0
        while fresh < len(blocks) and blocks[fresh][2] < depth:
            fresh += 1
        cached = self._cached_blocks
        if fresh == 0 or cached[:fresh] != blocks[:fresh]:
            self._drop_analysis_cache()
            return 0
        del self._cached_clocks[fresh:]
        history = self._cached_history
        last_write = self._cached_last_write
        readers = self._cached_readers
        # Only objects the dropped blocks touched have a different
        # state after the prefix than after the whole previous run.
        dirty = {obj for _actor, footprint, _node in cached[fresh:]
                 for obj, _typ in footprint}
        for obj in dirty:
            entries = history[obj]
            while entries and entries[-1][0] >= fresh:
                entries.pop()
            if not entries:
                del history[obj]
                last_write.pop(obj, None)
                readers.pop(obj, None)
                continue
            # The last write and the reads after it, as the forward
            # pass left them when it finished the prefix.
            start = len(entries)
            while start and entries[start - 1][2] != WRITE:
                start -= 1
            if start:
                last_write[obj] = entries[start - 1][:2]
            else:
                last_write.pop(obj, None)
            readers[obj] = [entry[:2] for entry in entries[start:]]
        return fresh

    def _schedule_reversal(self, i: int, j: int, step_clock: list) -> None:
        """Queue a branch at *i*'s node that reverses the race *(i, j)*.

        This is the source-set rule (Abdulla et al., PAPERS.md), not
        plain Flanagan–Godefroid "add the racing actor": with sleep
        sets, *j*'s actor may be asleep at the node while the reversed
        class is still unexplored — it is then reachable only through
        the *weak initials* of the reversing sequence ``v``: the steps
        after *i* that do not happen-after it, ending with *j*.  An
        initial is any actor whose first step in ``v`` commutes all the
        way to its front; one covered initial (explored, queued, or
        asleep — asleep means an ancestor branch already covers it)
        proves the reversal redundant, otherwise one enabled initial is
        queued.  If none is enabled (the initial was woken mid-run by a
        step invisible to the clocks, e.g. a lock handoff), every
        unexplored enabled actor is queued instead — conservative, but
        sleep sets flag any resulting replays as redundant.
        """
        blocks = self._blocks
        node_index = blocks[i][2]
        if not 0 <= node_index < len(self._stack):
            return
        node = self._stack[node_index]
        done, backtrack = node.done, node.backtrack
        if all(actor in done or actor in backtrack
               for actor in node.enabled):
            # Every outcome below is a no-op: an enabled initial is
            # covered, and the fallback adds nothing new.
            return
        i_actor = blocks[i][0]
        v = [k for k in range(i + 1, j)
             if step_clock[k].get(i_actor, -1) < i] + [j]
        initials = []
        seen: set = set()
        for pos, k in enumerate(v):
            actor = blocks[k][0]
            if actor in seen:
                continue  # an earlier block of the same actor leads it
            seen.add(actor)
            if all(not dependent(blocks[k][1], blocks[v[m]][1])
                   for m in range(pos)):
                if (actor in done or actor in backtrack
                        or actor in node.sleep0):
                    return  # one covered initial settles the race
                initials.append(actor)
        for actor in initials:
            if actor in node.enabled:
                node.backtrack.add(actor)
                return
        node.backtrack.update(
            actor for actor in node.enabled if actor not in node.done)

    def _advance_frontier(self) -> None:
        """Pop to the deepest node with an untried branch; force it."""
        while self._stack:
            node = self._stack[-1]
            # Branches already covered by the sleep set would replay an
            # explored class; retire them without running anything.
            for actor in list(node.backtrack):
                if actor in node.sleep0:
                    node.done.add(actor)
            candidates = _preference(
                sorted(a for a in node.backtrack if a not in node.done))
            if candidates:
                branch = candidates[0]
                # Explored siblings go to sleep for the new branch, each
                # carrying the block footprint it was seen to execute.
                # Siblings retired *without* running (sleep0 coverage)
                # keep the footprint they were already sleeping on —
                # ``None`` would wake them on any step at all.
                sleep = dict(node.sleep0)
                for done_actor in node.done:
                    footprint = node.block.get(done_actor)
                    if footprint is None:
                        footprint = node.sleep0.get(done_actor)
                    sleep[done_actor] = footprint
                node.branch_sleep = sleep
                node.done.add(branch)
                node.chosen = branch
                self._forced = [n.chosen for n in self._stack]
                return
            self._stack.pop()
        self.exhausted = True
        self._forced = []

    # -- resumable frontier ---------------------------------------------------

    def export_frontier(self) -> dict:
        """The exploration state as plain JSON-serializable data."""
        self._flush_analysis()
        return {
            "version": FRONTIER_VERSION,
            "runs_started": self.runs_started,
            "exhausted": self.exhausted,
            "budget_exhausted": self.budget_exhausted,
            "stack": [{
                "chosen": node.chosen,
                "enabled": list(node.enabled),
                "done": sorted(node.done),
                "backtrack": sorted(node.backtrack),
                "block": _sleep_to_json(node.block),
                "sleep0": _sleep_to_json(node.sleep0),
                "branch_sleep": _sleep_to_json(node.branch_sleep),
            } for node in self._stack],
        }

    def import_frontier(self, state: dict) -> None:
        """Resume a previously exported exploration frontier.

        Raises :class:`~repro.errors.CheckerError` unless *state* is in
        the format :meth:`export_frontier` writes (version
        ``FRONTIER_VERSION``).
        """
        version = state.get("version")
        if version != FRONTIER_VERSION:
            raise CheckerError(
                f"DPOR frontier has format version {version!r}; this "
                f"scheduler reads version {FRONTIER_VERSION}")
        self.runs_started = int(state.get("runs_started", 0))
        self.exhausted = bool(state.get("exhausted", False))
        self.budget_exhausted = bool(state.get("budget_exhausted", False))
        self._stack = [
            _Node(chosen=item["chosen"], enabled=tuple(item["enabled"]),
                  done=set(item["done"]), backtrack=set(item["backtrack"]),
                  block=_sleep_from_json(item.get("block", ())),
                  sleep0=_sleep_from_json(item.get("sleep0", ())),
                  branch_sleep=_sleep_from_json(item.get("branch_sleep", ())))
            for item in state.get("stack", ())]
        self._forced = [node.chosen for node in self._stack]
        self._pending_analysis = False
        self._drop_analysis_cache()
        self._reset_run_state()


class TracingDecisionScheduler(DecisionScheduler):
    """A :class:`DecisionScheduler` that also records footprint traces.

    The brute-force half of the DPOR exhaustiveness cross-check: it
    replays explicit decision vectors *and* logs the same
    ``(actor, footprint)`` trace DPOR logs, so both sides feed
    :func:`mazurkiewicz_key` identically.
    """

    wants_observations = True

    def __init__(self, decisions=(), granularity: str = "sync"):
        super().__init__(decisions, granularity)
        self._runner = None
        self.trace: list = []

    def bind_runner(self, runner) -> None:
        self._runner = runner

    def begin_run(self, seed: int) -> None:
        super().begin_run(seed)
        self.trace = []

    def observe_step(self, actor: int, op: Op | None) -> None:
        self.trace.append((actor, op_footprint(actor, op, self._runner)))
