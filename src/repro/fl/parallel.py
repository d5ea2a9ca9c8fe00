"""The parallel round-execution engine.

``FederatedSimulation.run_round`` has two embarrassingly parallel fan-out
points: the selected clients' local training (``produce_update``) and the
BaFFLe validators' votes.  Both dominate the wall-clock cost of a round —
BackFed (Dao et al., 2025) identifies sequential client execution as *the*
bottleneck of FL-backdoor benchmarking — yet the seed implementation ran
them strictly sequentially on one core.

:class:`RoundExecutor` abstracts the fan-out:

- :class:`SequentialExecutor` (default) runs everything in-process, in
  deterministic order — byte-for-byte the classic behavior;
- :class:`ProcessPoolRoundExecutor` fans tasks out over a
  ``concurrent.futures.ProcessPoolExecutor`` with **batched dispatch**:
  each round phase submits exactly one task per worker, carrying that
  worker's whole slice of the fan-out (cohort chunks plus per-model
  clients, or a contiguous run of validators), so dispatch and pickling
  overhead is O(workers) per round instead of O(clients + validators);
- :class:`ThreadPoolRoundExecutor` fans the same work out over in-process
  threads: the training and validation kernels are numpy/BLAS-bound and
  release the GIL, so threads overlap them with **zero IPC** — no
  pickling, no arena attachments, direct use of the live client and
  validator objects;
- :class:`PipelinedRoundExecutor` wraps any of the above for the
  pipelined simulation loop: validator votes are *submitted*
  (:meth:`RoundExecutor.submit_validators`) rather than awaited, so round
  ``r + 1`` client tasks overlap round ``r`` validator tasks in the same
  worker pool, bounded by its ``pipeline_depth`` knob.

Cohort stacking (:mod:`repro.fl.cohort`) is **on by default** inside the
pool and thread engines (``cohort_size=None`` means "stack the whole
eligible fan-out"); the sequential executor keeps the classic per-model
loop unless a cohort size is requested explicitly.

Asynchronous validation
-----------------------
:meth:`RoundExecutor.submit_validators` returns a :class:`PendingVotes`
handle instead of blocking on the votes.  For a process pool the tasks are
genuinely in flight; the handle holds a store reference for every version
it shipped to workers, so a later rollback (which releases the history's
own references) can never unlink a shared-memory segment a straggler task
is still reading — references drop only when the handle is collected, or,
for abandoned handles (rolled-back rounds), when their last task finishes
(a deferred-release list the executor reaps opportunistically and drains
on ``close``).

Because every task's randomness comes from a keyed
:class:`~repro.fl.rng.RngStreams` child (not a shared sequential stream),
and weights travel losslessly in the active precision-policy dtype
(float64 by default, float32 under the opt-in policy), every
executor/store combination commits **bit-identical** global models and
round records for the same seed and policy.

Weight transport
----------------
Weights reach workers one of two ways, chosen by the bound
:class:`~repro.fl.model_store.ModelStore`:

- **Version keys** (shared-memory store): the server publishes each new
  model into the store's ``multiprocessing.shared_memory`` arena exactly
  once and ships only integer version keys per task.  Workers attach to
  the arena in their initializer and resolve keys locally, so per-round
  transport is O(1 new model) — independent of history length and of how
  many clients or validators fan out.
- **Codec blobs** (in-process store): the legacy path; candidate, global
  and history weights travel per task as self-describing
  :class:`~repro.fl.compression.CompressedSegment` bytes — encoded with
  the same :class:`~repro.fl.compression.WeightCodec` the bound store
  runs, so the pipe path compresses exactly like the arena path — costing
  O(model x (clients + validators x history)) per round (compressed
  payload bytes; the raw float64 figure is tracked alongside).

Either way the executor counts the model-weight bytes it moves across
process boundaries; :class:`~repro.fl.simulation.FederatedSimulation`
surfaces the per-round figure in its round records
(``RoundRecord.transport_bytes``).

Worker-side state
-----------------
Workers are initialized once per pool with the (parallel-safe) client and
validator populations, a structural template network, and the store's
attachment handle.  Worker processes keep per-version model caches and
arena attachments, both evicted as the server retires versions (the
server's minimum live version travels with each task as the eviction
floor).  Validator error profiles are shared through the server's
:class:`~repro.fl.model_store.ValidatorProfileTable`: tasks return the
profiles they compute, the server files them under committed versions, and
future tasks receive them as hints — so a profile is computed once
process-wide and the commit-time reuse (``note_committed``) reaches
workers.

Entities that are stateful across rounds in ways the parent must observe
(e.g. the adaptive attacker, which reads the live defense history and
records its self-check outcomes) declare ``parallel_safe = False`` and are
always executed in the parent process — correctness never depends on the
executor choice.

BLAS thread budget
------------------
A forked worker inherits a full OpenBLAS thread pool, so ``workers``
processes would run ``workers x cores`` BLAS threads on ``cores`` cores,
next to the parent's own.  The pool instead gives each worker a fixed
lane, ``max(1, cores // workers)`` threads and never more than the
parent has (:func:`repro.nn.blas.lane_threads`), and holds the parent to
the same lane while the pool is open; ``close`` and the demotion to
threads give the parent its own count back.  The budget is derived, not
configured: it changes speed, not results (the equivalence tests compare
capped pool runs with the uncapped sequential run bit for bit).
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import wait as _wait_futures
from typing import TYPE_CHECKING

import numpy as np

from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.cohort import cohort_updates, plan_cohorts
from repro.fl.compression import (
    CompressedSegment,
    IdentityCodec,
    WeightCodec,
    decode_segment,
)
from repro.fl.faults import (
    DEFAULT_POOL_REBUILDS,
    DEFAULT_TASK_RETRIES,
    FaultPlan,
    InjectedWorkerCrash,
    ResilienceStats,
)
from repro.fl.model_store import (
    ModelStore,
    ShmWorkerView,
    ValidatorProfileTable,
    make_model_store,
    reap_orphan_segments,
)
from repro.fl.registry import ClientRegistry
from repro.fl.rng import RngStreams
from repro.nn import blas
from repro.nn.network import Network
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard: this module is
    # imported by repro.fl.simulation, which repro.core.baffle imports, so
    # importing repro.core here at runtime would close a circle.
    from repro.core.baffle import ValidatorPool
    from repro.core.validation import ValidationContext, Validator


#: Round-loop execution modes accepted by :func:`make_executor` /
#: :func:`make_engine` (also the config validation set and the CLI
#: ``--exec-mode`` choices).
EXECUTION_MODES = ("sync", "pipelined")

#: Multi-worker engine kinds accepted by :func:`make_executor` /
#: :func:`make_engine` (and the CLI ``--engine`` choices): ``"process"``
#: fans out over worker processes, ``"thread"`` over in-process threads,
#: ``"auto"`` resolves to ``"process"``.
ENGINE_KINDS = ("auto", "process", "thread")

#: Default speculation depth of the pipelined mode: how many rounds may
#: run ahead of their unresolved validator quorums (0 = synchronous).
DEFAULT_PIPELINE_DEPTH = 1


def _is_parallel_safe(obj: object) -> bool:
    """Whether an entity may run in a worker process (opt-in attribute)."""
    return bool(getattr(obj, "parallel_safe", False))


class PendingVotes:
    """Handle for one round's in-flight (or deferred) validator votes.

    ``collect()`` blocks until every vote is available, files the computed
    profiles, releases the handle's store references and returns the vote
    dict — calling it is exactly the second half of the synchronous
    ``run_validators``.  ``abandon()`` discards a handle whose round was
    rolled back: the result is dropped, but the store references stay
    alive until every in-flight task finished (``reap()`` / the executor's
    deferred-release list), so straggler workers never read an unlinked
    segment.
    """

    def __init__(
        self, gather, futures=(), cleanup=None, on_abandon=None, on_error=None
    ) -> None:
        self._gather = gather
        self._futures = list(futures)
        self._cleanup = cleanup
        self._on_abandon = on_abandon
        self._on_error = on_error
        self._votes: dict[int, int] | None = None
        self._errors_drained = False
        self._deferred = False
        self.abandoned = False

    def done(self) -> bool:
        """Whether no task of this handle is still executing."""
        return all(future.done() for future in self._futures)

    def collect(self) -> dict[int, int]:
        """Votes ``{validator_id: vote}`` (blocks; idempotent)."""
        if self.abandoned:
            raise RuntimeError("cannot collect abandoned votes")
        if self._votes is None:
            try:
                self._votes = self._gather()
            finally:
                self._release()
        return self._votes

    def abandon(self) -> None:
        """Discard the result; defer reference release until tasks finish."""
        if self.abandoned or self._votes is not None:
            self.abandoned = True
            return
        self.abandoned = True
        if self.done() or self._on_abandon is not None:
            self._release()
        # else: no deferral channel — wait so references cannot outlive us.
        else:  # pragma: no cover - defensive; executors always pass one
            self.wait()

    def reap(self) -> bool:
        """Release an abandoned handle's references if its tasks finished."""
        if not self.done():
            return False
        self._release()
        return True

    def wait(self) -> None:
        """Block until every task finished, then release references."""
        if self._futures:
            _wait_futures(self._futures)
        self._release()

    def _drain_errors(self) -> None:
        """Surface a written-off handle's task errors exactly once.

        A collected handle's errors already propagated through
        ``gather()``; only abandoned/deferred handles historically
        discarded theirs.  Those now flow through ``on_error`` so the
        executor can count (``abandoned_task_errors``) and trace them.
        """
        if self._errors_drained or not (self.abandoned or self._deferred):
            return
        self._errors_drained = True
        if self._on_error is None:
            return
        for future in self._futures:
            if not future.done() or future.cancelled():
                continue
            error = future.exception()
            if error is not None:
                self._on_error(error)

    def _release(self) -> None:
        if not self.done():
            # A task is still running (reassigned straggler): its store
            # references must outlive it.  Hand the handle to the
            # executor's deferred-release list instead of releasing now.
            if self._on_abandon is not None and not self._deferred:
                self._deferred = True
                self._on_abandon(self)
            return
        self._drain_errors()
        cleanup, self._cleanup = self._cleanup, None
        if cleanup is not None:
            cleanup()


#: A picklable reference to one model's weights: ``(version, blob)`` where
#: a ``None`` blob means "resolve ``version`` from the shared arena" and a
#: present blob carries the serialized weights through the pipe (version
#: ``None`` for unversioned one-shot models like blob-path candidates).
ModelRef = tuple[int | None, bytes | None]


class RoundExecutor:
    """Strategy interface for executing one round's independent tasks.

    ``bind`` hands the executor the static population *before* the first
    fan-out (process pools ship it to workers exactly once); ``run_clients``
    and ``run_validators`` execute one round's tasks and return results in
    deterministic order, regardless of completion order.

    Every executor also carries a resilience layer (``bind_faults``):
    an optional :class:`~repro.fl.faults.FaultPlan` to replay failures
    from, a per-task straggler deadline, retry/rebuild budgets, and the
    :class:`~repro.fl.faults.ResilienceStats` ledger recording what the
    recovery machinery did.
    """

    def __init__(self) -> None:
        #: Injected-failure schedule (empty = fault-free).
        self.fault_plan: FaultPlan = FaultPlan.empty()
        #: Per-task deadline in seconds (``None`` = wait forever); a task
        #: exceeding it is written off as a straggler and recomputed.
        self.task_deadline_s: float | None = None
        self.max_task_retries: int = DEFAULT_TASK_RETRIES
        self.max_pool_rebuilds: int = DEFAULT_POOL_REBUILDS
        #: Recovery-incident ledger; shared down the demotion ladder so
        #: one run keeps one ledger.
        self.resilience = ResilienceStats()
        # Vote drops already accounted for, as (round, validator) pairs —
        # a pipelined replay re-submits the round and must not re-count.
        self._counted_drops: set[tuple[int, int]] = set()

    def bind_faults(
        self,
        plan: "FaultPlan | str | None" = None,
        task_deadline_s: float | None = None,
        max_task_retries: int | None = None,
        max_pool_rebuilds: int | None = None,
    ) -> None:
        """Attach a fault plan and/or tune the recovery budgets."""
        if plan is not None:
            self.fault_plan = FaultPlan.parse(plan)
        if task_deadline_s is not None:
            if task_deadline_s <= 0:
                raise ValueError(
                    f"task_deadline_s must be > 0, got {task_deadline_s}"
                )
            self.task_deadline_s = float(task_deadline_s)
        if max_task_retries is not None:
            self.max_task_retries = int(max_task_retries)
        if max_pool_rebuilds is not None:
            self.max_pool_rebuilds = int(max_pool_rebuilds)

    def _note(
        self, name: str, round_idx: int | None = None, n: int = 1, **attrs
    ) -> None:
        """Record ``n`` recovery incidents (ledger + traced mirror)."""
        self.resilience.inc(name, n)
        tracer = getattr(self, "_tracer", NULL_TRACER)
        if tracer.enabled:
            tracer.metrics.counter(f"resilience.{name}").inc(n)
            tracer.event(
                f"resilience.{name}", cat="resilience",
                round_idx=round_idx, **attrs,
            )

    def _fault_directive(
        self, round_idx: int, phase: str, index: int, hard: bool = False
    ) -> tuple[str, float] | None:
        """Consume this dispatch slot's planned fault, if any.

        Returns the directive :func:`_apply_fault` executes at task
        start.  ``hard=True`` (process-pool dispatch) maps a crash to a
        worker ``os._exit`` so the parent sees a genuine
        ``BrokenProcessPool``; otherwise the task raises
        :class:`InjectedWorkerCrash` in-process.
        """
        if not self.fault_plan:
            return None
        if self.fault_plan.take("crash", round_idx, phase, index) is not None:
            return ("exit" if hard else "raise", 0.0)
        delay = self.fault_plan.take("delay", round_idx, phase, index)
        if delay is not None:
            return ("delay", delay.param)
        return None

    def _dropped_votes(
        self, round_idx: int, validator_ids: Sequence[int]
    ) -> frozenset[int]:
        """Requested validators whose votes this round loses."""
        if not self.fault_plan:
            return frozenset()
        dropped = self.fault_plan.dropped(round_idx) & set(validator_ids)
        for vid in sorted(dropped):
            if (round_idx, vid) not in self._counted_drops:
                self._counted_drops.add((round_idx, vid))
                self._note("dropped_votes", round_idx=round_idx, validator=vid)
        return dropped

    def _count_abandoned_error(self, error: BaseException) -> None:
        """A written-off task died after abandonment: count + log it."""
        self._note("abandoned_task_errors", error=repr(error)[:200])

    def bind(
        self,
        clients: Sequence[Client] | None = None,
        validator_pool: "ValidatorPool | None" = None,
        template: Network | None = None,
        store: ModelStore | None = None,
        profile_table: ValidatorProfileTable | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        """Register the populations and stores this executor fans out over.

        ``tracer`` is pure instrumentation and rebindable (unlike the
        populations): the simulation hands its tracer down here so the
        executor can time fan-out work and merge worker span batches.
        """

    @property
    def transport_bytes(self) -> int:
        """Cumulative model-weight bytes moved across process boundaries
        (codec-compressed payload bytes on the store path)."""
        return 0

    @property
    def raw_transport_bytes(self) -> int:
        """What :attr:`transport_bytes` would be without compression."""
        return 0

    @property
    def store(self) -> ModelStore | None:
        """The model store bound to this executor (None = unbound)."""
        return None

    @property
    def blas_threads(self) -> dict[str, int]:
        """The BLAS thread budget the engine holds right now: ``parent``
        and ``per_worker`` thread counts, ``nproc`` and ``workers``.
        Empty when it holds none (in-process engines)."""
        return {}

    def submit_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> PendingVotes:
        """Launch one round's votes without waiting for them.

        The base implementation defers the whole computation into
        ``collect()`` (an in-process executor has nothing to overlap);
        process pools override it with genuine task submission.
        """
        return PendingVotes(
            gather=lambda: self.run_validators(
                pool, validator_ids, context, round_idx, streams
            )
        )

    def run_clients(
        self,
        clients: Sequence[Client],
        contributor_ids: Sequence[int],
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        streams: RngStreams,
    ) -> list[np.ndarray]:
        """Collect ``produce_update`` results, ordered as ``contributor_ids``."""
        raise NotImplementedError

    def run_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> dict[int, int]:
        """Collect votes ``{validator_id: vote}`` for the given context."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def __enter__(self) -> "RoundExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialExecutor(RoundExecutor):
    """In-process execution in deterministic order (the default).

    Execution never crosses a process boundary, so the store is not used
    for transport — but a store bound here (by :func:`make_executor`) is
    still exposed through :attr:`store` so
    :class:`~repro.fl.simulation.FederatedSimulation` adopts it for the
    defense history instead of silently defaulting to a fresh in-process
    store the caller never sees.

    ``cohort_size >= 2`` gathers a round's cohortable honest clients into
    stacked training chunks (:mod:`repro.fl.cohort`) of at most that many
    models — bit-identical updates, single batched kernels.  The default
    (``None``) keeps the classic per-model loop: the sequential executor
    is the reference implementation, so it only stacks on request.
    """

    def __init__(self, cohort_size: int | None = None) -> None:
        super().__init__()
        if cohort_size is not None and cohort_size < 0:
            raise ValueError(f"cohort_size must be >= 0, got {cohort_size}")
        self.cohort_size = cohort_size
        self._store: ModelStore | None = None
        self._tracer: Tracer | NullTracer = NULL_TRACER

    def _inject_inline(self, round_idx: int, phase: str) -> None:
        """Apply this phase's planned faults in the calling thread.

        The injection point is *before* any task work and before any rng
        stream is touched, so a planned crash here consumes the entry and
        counts the retry directly — re-running the not-yet-started phase
        body is literally what catching :class:`InjectedWorkerCrash` and
        retrying would do, with zero recomputed state either way.
        """
        if not self.fault_plan:
            return
        if self.fault_plan.take("crash", round_idx, phase, 0) is not None:
            self._note("retries", round_idx=round_idx, phase=phase)
        delay = self.fault_plan.take("delay", round_idx, phase, 0)
        if delay is not None:
            # No deadline machinery in-process: the straggler just runs
            # late, exactly like a slow validator on the caller's thread.
            time.sleep(delay.param)

    def bind(
        self,
        clients: Sequence[Client] | None = None,
        validator_pool: "ValidatorPool | None" = None,
        template: Network | None = None,
        store: ModelStore | None = None,
        profile_table: ValidatorProfileTable | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        if store is not None:
            self._store = store
        if tracer is not None:
            self._tracer = tracer

    @property
    def store(self) -> ModelStore | None:
        return self._store

    def run_clients(
        self,
        clients: Sequence[Client],
        contributor_ids: Sequence[int],
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        streams: RngStreams,
    ) -> list[np.ndarray]:
        self._inject_inline(round_idx, "train")
        chunks = plan_cohorts(
            clients,
            contributor_ids,
            global_model,
            self.cohort_size if self.cohort_size is not None else 1,
        )
        results: dict[int, np.ndarray] = {}
        for chunk in chunks:
            with self._tracer.span(
                "train.cohort", cat="worker", round_idx=round_idx,
                clients=len(chunk),
            ):
                updates = cohort_updates(
                    global_model,
                    [clients[cid].dataset for cid in chunk],
                    config,
                    [streams.client_rng(round_idx, cid) for cid in chunk],
                )
            results.update(zip(chunk, updates))
        for cid in contributor_ids:
            if cid in results:
                continue
            with self._tracer.span(
                "train.client", cat="worker", round_idx=round_idx, client=cid
            ):
                results[cid] = clients[cid].produce_update(
                    global_model, config, round_idx,
                    streams.client_rng(round_idx, cid),
                )
        return [results[cid] for cid in contributor_ids]

    def run_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> dict[int, int]:
        self._inject_inline(round_idx, "validate")
        dropped = self._dropped_votes(round_idx, validator_ids)
        votes: dict[int, int] = {}
        for vid in validator_ids:
            if vid in dropped:
                continue
            with self._tracer.span(
                "validate.vote", cat="worker", round_idx=round_idx,
                validator=vid,
            ):
                votes[vid] = pool.get(vid).vote(
                    context, streams.validator_rng(round_idx, vid)
                )
        return votes


# ----------------------------------------------------------------------
# Worker-process side of the process-pool backend
# ----------------------------------------------------------------------
_W_CLIENTS: dict[int, Client] = {}
_W_VALIDATORS: dict[int, Validator] = {}
_W_TEMPLATE: Network | None = None
_W_MODELS: dict[int, Network] = {}
_W_STORE: ShmWorkerView | None = None
_W_REGISTRY: ClientRegistry | None = None
_W_TRACING = False
#: Locally recorded span rows, drained into each task's return payload:
#: ``(name, cat, start_ns, dur_ns, tid, round_idx, attrs)`` on the
#: worker's own monotonic clock.
_W_SPANS: list[tuple] = []
#: ``(attach_count, cache_hits)`` of the worker store view already
#: reported to the server (deltas ship with each drain).
_W_STORE_STATS = [0, 0]


def _init_worker(
    clients: dict[int, Client],
    validators: dict[int, Validator],
    template: Network | None,
    store_handle,
    registry: ClientRegistry | None = None,
    trace_enabled: bool = False,
) -> None:
    global _W_TEMPLATE, _W_STORE, _W_REGISTRY, _W_TRACING
    _W_CLIENTS.clear()
    _W_CLIENTS.update(clients)
    _W_VALIDATORS.clear()
    _W_VALIDATORS.update(validators)
    _W_MODELS.clear()
    _W_TEMPLATE = template
    _W_STORE = store_handle.attach() if store_handle is not None else None
    _W_REGISTRY = registry
    _W_TRACING = bool(trace_enabled)
    _W_SPANS.clear()
    _W_STORE_STATS[0] = _W_STORE_STATS[1] = 0


def _init_pool_worker(blas_threads: int | None, *world) -> None:
    """Pool-process initializer: the BLAS budget, then the worker world.

    The budget is set here, not in :func:`_init_worker`, because local
    replay also runs that on the parent's own globals and must leave the
    parent's thread count alone.
    """
    if blas_threads is not None:
        blas.set_blas_threads(blas_threads)
    _init_worker(*world)


#: ``id()`` of the executor whose world the *parent-process* copy of the
#: worker globals currently mirrors (see :func:`_bind_local_worker`).
#: Pool workers never consult this; their initializer overwrites the
#: globals regardless of what a fork inherited.
_W_LOCAL_OWNER: int | None = None


def _bind_local_worker(executor: "ProcessPoolRoundExecutor") -> None:
    """Point this process's worker globals at ``executor``'s world.

    Local replay of a worker slice (straggler reassignment, pool-death
    fallback) then runs the *same module-level task functions* a pool
    worker runs, initialized from the same inputs — so a recomputed
    slice is bit-identical to the one the lost worker would have
    returned.
    """
    global _W_LOCAL_OWNER
    if _W_LOCAL_OWNER == id(executor):
        return
    handle = executor._store.worker_handle() if executor._use_store else None
    registry = (
        executor._registry.worker_view()
        if executor._registry is not None
        else None
    )
    _init_worker(
        executor._clients,
        executor._validators,
        executor._template,
        handle,
        registry,
        executor._tracer.enabled,
    )
    _W_LOCAL_OWNER = id(executor)


def _apply_fault(directive: tuple[str, float] | None) -> None:
    """Execute one injected-fault directive at task start.

    ``("delay", s)`` sleeps — a straggler; ``("raise", _)`` dies with
    :class:`InjectedWorkerCrash` (the thread/sequential recovery path);
    ``("exit", _)`` hard-kills the worker process so the pool's parent
    observes a genuine ``BrokenProcessPool``, exactly like a segfault or
    an OOM kill.  Directives fire *before* any task work and before any
    rng stream argument is touched, which is what makes retry-by-replay
    with the same keyed streams bit-identical.
    """
    if directive is None:
        return
    kind, param = directive
    if kind == "delay":
        time.sleep(param)
    elif kind == "raise":
        raise InjectedWorkerCrash("planned task crash (fault plan)")
    elif kind == "exit":  # pragma: no cover - dies before coverage flushes
        os._exit(13)


class _WorkerSpan:
    """Worker-local span context: appends a row to :data:`_W_SPANS`."""

    __slots__ = ("name", "cat", "round_idx", "attrs", "_start_ns")

    def __init__(self, name, cat, round_idx, attrs):
        self.name = name
        self.cat = cat
        self.round_idx = round_idx
        self.attrs = attrs
        self._start_ns = 0

    def __enter__(self) -> "_WorkerSpan":
        self._start_ns = time.monotonic_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        _W_SPANS.append(
            (
                self.name,
                self.cat,
                self._start_ns,
                time.monotonic_ns() - self._start_ns,
                threading.get_ident(),
                self.round_idx,
                self.attrs,
            )
        )
        return False


def _wspan(name: str, round_idx: int | None = None, **attrs):
    """A worker-side span when tracing is on, else the shared no-op."""
    if not _W_TRACING:
        return NULL_TRACER.span(name)
    return _WorkerSpan(name, "worker", round_idx, attrs)


def _drain_worker_trace():
    """Pack this worker's recorded spans for the task result payload.

    Returns ``None`` when tracing is off (the common case, so untraced
    task results are byte-identical to the pre-tracing wire format plus
    one ``None``).  Otherwise ``(pid, sent_ns, rows, store_stats)``:
    ``sent_ns`` is this worker's monotonic clock at packing time (the
    server's offset estimator), ``store_stats`` the ``(attaches,
    cache_hits)`` delta of the arena view since the previous drain.
    """
    if not _W_TRACING:
        return None
    rows = list(_W_SPANS)
    _W_SPANS.clear()
    store_stats = None
    if _W_STORE is not None:
        store_stats = (
            _W_STORE.attach_count - _W_STORE_STATS[0],
            _W_STORE.cache_hits - _W_STORE_STATS[1],
        )
        _W_STORE_STATS[0] = _W_STORE.attach_count
        _W_STORE_STATS[1] = _W_STORE.cache_hits
    return (os.getpid(), time.monotonic_ns(), rows, store_stats)


def _worker_client(cid: int) -> Client:
    """Resolve a client id inside a worker.

    Registry-backed pools materialize the client's shard *here*, from the
    worker's own copy of the pool + partition spec — per-round IPC never
    carries a shard; :func:`_client_slice_task` discards the
    materializations when its slice completes.
    """
    client = _W_CLIENTS.get(cid)
    if client is None:
        assert _W_REGISTRY is not None, f"unknown client id {cid} in worker"
        client = _W_REGISTRY[cid]
    return client


def _materialize(ref: ModelRef) -> Network:
    """A fresh ``Network`` carrying the referenced weights.

    Arena attachments are cached in the worker view keyed by version and
    dropped on the server's release path (the eviction floor travels with
    every task), so a version read twice never re-opens its segment.
    """
    assert _W_TEMPLATE is not None, "worker used before initialization"
    model = _W_TEMPLATE.clone()
    version, blob = ref
    if blob is not None:
        # Blobs are self-describing codec segments (same format the store
        # arena holds), decoded through the process-global registry.
        model.set_flat(decode_segment(CompressedSegment.from_buffer(blob)))
    else:
        assert _W_STORE is not None, "version ref without an attached store"
        assert version is not None
        model.set_flat(_W_STORE.get(version, _W_TEMPLATE.num_parameters))
    return model


def _evict_retired(live_floor: int | None) -> None:
    """Drop cached attachments for versions the server has retired."""
    if _W_STORE is not None:
        _W_STORE.evict_below(live_floor)


def _client_slice_task(
    cohorts: Sequence[Sequence[int]],
    singles: Sequence[int],
    model_ref: ModelRef,
    config: LocalTrainingConfig,
    round_idx: int,
    cohort_seed_seqs: Sequence[Sequence[np.random.SeedSequence]],
    single_seed_seqs: Sequence[np.random.SeedSequence],
    live_floor: int | None,
    fault: tuple[str, float] | None = None,
) -> tuple[list[tuple[int, np.ndarray]], tuple | None]:
    """Train one worker's whole slice of a round's client fan-out.

    One task per worker per round: the slice carries this worker's cohort
    chunks (stacked training) *and* its per-model clients, so the global
    model is materialized once for everything and dispatch overhead is
    O(workers), not O(clients).  Returns ``(results, trace_payload)``;
    the payload is ``None`` unless the pool was initialized with tracing
    on (:func:`_drain_worker_trace`).  ``fault`` is the slot's injected
    directive, applied before any work (:func:`_apply_fault`).
    """
    _apply_fault(fault)
    _evict_retired(live_floor)
    with _wspan("materialize", round_idx):
        model = _materialize(model_ref)
    out: list[tuple[int, np.ndarray]] = []
    try:
        for client_ids, seed_seqs in zip(cohorts, cohort_seed_seqs):
            with _wspan("train.cohort", round_idx, clients=len(client_ids)):
                updates = cohort_updates(
                    model,
                    [_worker_client(cid).dataset for cid in client_ids],
                    config,
                    [np.random.default_rng(seq) for seq in seed_seqs],
                )
            out.extend(zip(client_ids, updates))
        for cid, seq in zip(singles, single_seed_seqs):
            with _wspan("train.client", round_idx, client=cid):
                update = _worker_client(cid).produce_update(
                    model, config, round_idx, np.random.default_rng(seq)
                )
            out.append((cid, update))
    finally:
        # Registry-backed workers hold shards only for the slice's
        # lifetime — worker RSS is bounded by the slice, not the round.
        if _W_REGISTRY is not None:
            _W_REGISTRY.end_round()
    return out, _drain_worker_trace()


def _resolve_history(history_refs: Sequence[ModelRef]) -> list[int]:
    """Materialize history models into the per-version worker cache.

    Across rounds the history shifts by one entry, so all but one model
    are already cached; entries older than the oldest live history version
    are dropped.  An empty history (defense active before any model was
    accepted) resolves to an empty list and must fall through to the
    validator, which abstains on it — exactly like the sequential path.
    """
    history_versions = [version for version, _ in history_refs]
    for ref in history_refs:
        version = ref[0]
        assert version is not None  # history entries are always versioned
        if version not in _W_MODELS:
            _W_MODELS[version] = _materialize(ref)
    if history_versions:
        oldest = min(history_versions)
        for version in [v for v in _W_MODELS if v < oldest]:
            del _W_MODELS[version]
    return history_versions


def _materialize_candidate(candidate_ref: ModelRef) -> Network:
    """The round's candidate, warm-cached under its version when it has one.

    An accepted candidate becomes the next round's newest history entry,
    so caching it here (and its arena attachment) makes the steady-state
    per-round materialization cost exactly one new model.  Rejected
    versions never reappear and age out when the eviction floor passes
    them (versions are monotonic, so the pin is bounded by the look-back
    window).
    """
    version = candidate_ref[0]
    if version is not None and version in _W_MODELS:
        return _W_MODELS[version]
    model = _materialize(candidate_ref)
    if version is not None:
        _W_MODELS[version] = model
    return model


def _validate_one(
    validator_id: int,
    candidate: Network,
    history_versions: Sequence[int],
    round_idx: int,
    seed_seq: np.random.SeedSequence,
    profile_hints: Mapping[int, object],
) -> tuple[int, dict[int, object], object | None]:
    """One validator vote; returns ``(vote, new_profiles, candidate_profile)``.

    ``new_profiles`` are the history-version profiles this task computed
    beyond the server's hints, ``candidate_profile`` is the (yet
    uncommitted) candidate's profile — both flow back into the server's
    shared :class:`~repro.fl.model_store.ValidatorProfileTable`.
    """
    from repro.core.validation import ValidationContext

    validator = _W_VALIDATORS[validator_id]
    seed_cache = getattr(validator, "seed_profile_cache", None)
    if callable(seed_cache) and profile_hints:
        seed_cache(profile_hints)
    context = ValidationContext(
        candidate=candidate,
        history=[(v, _W_MODELS[v]) for v in history_versions],
    )
    rng = np.random.default_rng(seed_seq)
    vote = validator.vote(context, rng)

    new_profiles: dict[int, object] = {}
    cached = getattr(validator, "cached_profiles", None)
    if callable(cached):
        missing = [v for v in history_versions if v not in profile_hints]
        new_profiles = cached(missing)
    take_pending = getattr(validator, "take_pending_profile", None)
    candidate_profile = take_pending() if callable(take_pending) else None
    return vote, new_profiles, candidate_profile


def _validator_task(
    validator_id: int,
    candidate_ref: ModelRef,
    history_refs: Sequence[ModelRef],
    round_idx: int,
    seed_seq: np.random.SeedSequence,
    profile_hints: Mapping[int, object],
    live_floor: int | None,
) -> tuple[int, dict[int, object], object | None]:
    """One validator's vote as a standalone task (single-validator slice)."""
    _evict_retired(live_floor)
    history_versions = _resolve_history(history_refs)
    candidate = _materialize_candidate(candidate_ref)
    return _validate_one(
        validator_id, candidate, history_versions, round_idx, seed_seq,
        profile_hints,
    )


def _validator_slice_task(
    validator_ids: Sequence[int],
    candidate_ref: ModelRef,
    history_refs: Sequence[ModelRef],
    round_idx: int,
    seed_seqs: Sequence[np.random.SeedSequence],
    profile_hints: Mapping[int, Mapping[int, object]],
    live_floor: int | None,
    fault: tuple[str, float] | None = None,
) -> tuple[list[tuple[int, int, dict[int, object], object | None]], tuple | None]:
    """Vote one worker's whole slice of a round's validators in one task.

    The candidate and history are materialized once per slice (validators
    only read them), so per-round decode/attach work is O(new versions)
    and dispatch overhead is O(workers), not O(validators).  Returns
    ``(results, trace_payload)`` like :func:`_client_slice_task`.
    """
    _apply_fault(fault)
    _evict_retired(live_floor)
    with _wspan("materialize", round_idx):
        history_versions = _resolve_history(history_refs)
        candidate = _materialize_candidate(candidate_ref)
    results = []
    for vid, seq in zip(validator_ids, seed_seqs):
        with _wspan("validate.vote", round_idx, validator=vid):
            vote, new_profiles, candidate_profile = _validate_one(
                vid, candidate, history_versions, round_idx, seq,
                profile_hints.get(vid, {}),
            )
        results.append((vid, vote, new_profiles, candidate_profile))
    return results, _drain_worker_trace()


def _plan_slices(
    cohorts: Sequence[Sequence[int]],
    singles: Sequence[int],
    workers: int,
) -> list[tuple[list[list[int]], list[int]]]:
    """Pack cohort chunks and per-model clients into <= ``workers`` slices.

    Greedy least-loaded assignment by client count, deterministic (ties go
    to the lowest slice index), so each worker receives exactly one task
    per round phase carrying its whole share of the fan-out.
    """
    count = len(cohorts) + len(singles)
    if count == 0:
        return []
    slices: list[tuple[list[list[int]], list[int]]] = [
        ([], []) for _ in range(min(workers, count))
    ]
    loads = [0] * len(slices)
    for chunk in cohorts:
        index = loads.index(min(loads))
        slices[index][0].append(list(chunk))
        loads[index] += len(chunk)
    for cid in singles:
        index = loads.index(min(loads))
        slices[index][1].append(cid)
        loads[index] += 1
    return [s for s in slices if s[0] or s[1]]


def _traced_call(tracer, name, round_idx, attrs, fn, *args):
    """Run ``fn(*args)`` inside a span — the thread engine's task wrapper.

    With the null tracer this is one extra frame and a shared no-op
    context manager, so untraced thread rounds stay effectively free.
    """
    with tracer.span(name, cat="worker", round_idx=round_idx, **attrs):
        return fn(*args)


def _resilient_call(executor, fault, tracer, name, round_idx, attrs, fn, *args):
    """Thread-engine task body: fault injection, then retry-by-replay.

    The injected directive applies only to the first attempt (one-shot,
    like the plan entry that produced it) and fires *before* ``fn`` runs
    or any of its rng arguments is touched, so a retry recomputes from
    pristine keyed streams — bit-identical to the fault-free task.
    """
    attempt = 0
    while True:
        try:
            _apply_fault(fault)
            return _traced_call(tracer, name, round_idx, attrs, fn, *args)
        except InjectedWorkerCrash:
            fault = None
            attempt += 1
            executor._note("retries", round_idx=round_idx, task=name)
            if attempt > executor.max_task_retries:  # pragma: no cover
                raise


def _chunk_evenly(items: Sequence, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, balanced runs."""
    items = list(items)
    if not items:
        return []
    parts = min(parts, len(items))
    base, extra = divmod(len(items), parts)
    chunks, start = [], 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


class ProcessPoolRoundExecutor(RoundExecutor):
    """Fan rounds out over worker processes, one task per worker per phase.

    Parameters
    ----------
    workers:
        Worker-process count (>= 2; use :func:`make_executor` to fall back
        to :class:`SequentialExecutor` for 0/1).
    cohort_size:
        Stack up to this many cohortable honest clients per cohort chunk
        (:mod:`repro.fl.cohort`); chunks spread over the workers so each
        stacks its slice of the fan-out.  ``None`` (the default) stacks
        the whole eligible fan-out; ``0``/``1`` disables stacking.
    """

    def __init__(self, workers: int, cohort_size: int | None = None) -> None:
        super().__init__()
        if workers < 2:
            raise ValueError(
                f"ProcessPoolRoundExecutor needs >= 2 workers, got {workers}; "
                "use make_executor() for an automatic sequential fallback"
            )
        if cohort_size is not None and cohort_size < 0:
            raise ValueError(f"cohort_size must be >= 0, got {cohort_size}")
        self.workers = workers
        self.cohort_size = cohort_size
        #: Monotonic pool generation; bumped on every rebuild so several
        #: futures of one breakage trigger exactly one teardown.
        self._pool_epoch = 0
        #: Set once the rebuild budget is exhausted: the thread engine
        #: this executor degraded to, which owns every later round.
        self._demoted: "ThreadPoolRoundExecutor | None" = None
        self._clients: dict[int, Client] = {}
        self._registry: ClientRegistry | None = None
        self._validators: dict[int, Validator] = {}
        self._template: Network | None = None
        self._store: ModelStore | None = None
        self._profile_table: ValidatorProfileTable | None = None
        self._bound: set[str] = set()
        self._pool: ProcessPoolExecutor | None = None
        self._held_global: int | None = None
        self._pipe_bytes = 0
        self._pipe_raw_bytes = 0
        self._tracer: Tracer | NullTracer = NULL_TRACER
        #: Deferred-release list: abandoned vote handles whose tasks are
        #: still in flight; their store references drop at the next reap.
        self._abandoned: list[PendingVotes] = []
        #: Per-worker BLAS threads; the parent holds the same cap while
        #: the pool is open (``None`` while it holds none).
        self._blas_lane: int | None = None

    # ------------------------------------------------------------------
    # Population binding / pool lifecycle
    # ------------------------------------------------------------------
    def bind(
        self,
        clients: Sequence[Client] | None = None,
        validator_pool: "ValidatorPool | None" = None,
        template: Network | None = None,
        store: ModelStore | None = None,
        profile_table: ValidatorProfileTable | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        if tracer is not None:
            if self._pool is not None and tracer.enabled and not (
                self._tracer.enabled
            ):
                # Worker tracing is decided at pool start (initargs);
                # enabling it later would silently lose worker spans.
                raise RuntimeError(
                    "cannot enable tracing after the pool started"
                )
            self._tracer = tracer
        if (
            clients is None
            and validator_pool is None
            and template is None
            and store is None
            and profile_table is None
        ):
            return
        if self._pool is not None:
            raise RuntimeError("cannot bind populations after the pool started")
        # Each population binds exactly once: workers see one consistent
        # snapshot, and sharing an executor across simulations fails loudly
        # instead of silently running the first simulation against the
        # second's clients.
        for field, provided in (
            ("clients", clients),
            ("validator_pool", validator_pool),
            ("template", template),
            ("store", store),
            ("profile_table", profile_table),
        ):
            if provided is not None and field in self._bound:
                raise RuntimeError(
                    f"executor already has {field} bound; "
                    "use one executor per simulation"
                )
        if clients is not None:
            self._bound.add("clients")
            if isinstance(clients, ClientRegistry):
                # Virtual population: keep the handle; workers receive a
                # picklable view and materialize their own shards.
                self._registry = clients
            else:
                self._clients = {
                    c.client_id: c for c in clients if _is_parallel_safe(c)
                }
        if validator_pool is not None:
            self._bound.add("validator_pool")
            self._validators = {
                vid: validator
                for vid, validator in validator_pool.as_dict().items()
                if _is_parallel_safe(validator)
            }
        if template is not None:
            self._bound.add("template")
            self._template = template
        if store is not None:
            self._bound.add("store")
            self._store = store
        if profile_table is not None:
            self._bound.add("profile_table")
            self._profile_table = profile_table

    @property
    def _use_store(self) -> bool:
        """Ship version keys (shared arena) instead of pickled blobs?"""
        return self._store is not None and self._store.shareable

    @property
    def store(self) -> ModelStore | None:
        return self._store

    @property
    def blas_threads(self) -> dict[str, int]:
        if self._blas_lane is None:
            return {}
        return {
            "parent": blas.get_blas_threads(),
            "per_worker": self._blas_lane,
            "nproc": blas.available_cores(),
            "workers": self.workers,
        }

    def _restore_blas(self) -> None:
        """Drop the parent's BLAS cap; the last cap dropped restores the
        count the parent had before any pool capped it."""
        if self._blas_lane is not None:
            blas.release_cap(id(self))
            self._blas_lane = None

    @property
    def transport_bytes(self) -> int:
        total = self._pipe_bytes
        if self._use_store:
            # Every byte copied into the shared arena is readable by all
            # workers at once — that copy *is* the transport (compressed
            # payload bytes when the store runs a non-identity codec).
            total += self._store.bytes_published
        return total

    @property
    def raw_transport_bytes(self) -> int:
        total = self._pipe_raw_bytes
        if self._use_store:
            total += self._store.raw_bytes_published
        return total

    @property
    def _codec(self) -> WeightCodec:
        """The weight codec blobs are encoded with (the bound store's)."""
        codec = getattr(self._store, "codec", None)
        return codec if codec is not None else IdentityCodec()

    def _encode_blob(self, model: Network) -> tuple[bytes, int]:
        """Codec-encoded pipe blob + the raw policy-dtype byte count it covers.

        Delta codecs fall back to their dense form here (a pipe blob has
        no resolvable parent version on the far side).
        """
        flat = model.get_flat()
        return self._codec.encode(flat).to_bytes(), flat.nbytes

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._template is None:
                raise RuntimeError(
                    "executor needs a template network; bind(template=...) "
                    "first (FederatedSimulation does this automatically)"
                )
            # The template travels once, as a pickled Network (float64
            # arrays pickle losslessly); per-round weights travel as store
            # version keys or, without a shareable store, as blobs.
            handle = self._store.worker_handle() if self._use_store else None
            worker_registry = (
                self._registry.worker_view() if self._registry is not None else None
            )
            # Workers and parent share the cores: each gets its lane of
            # BLAS threads.  A rebuilt pool reuses the lane; one rebuilt
            # after demotion caps only its workers, not the parent the
            # thread engine now runs in.
            lane = self._blas_lane or blas.lane_threads(self.workers)
            if self._blas_lane is None and self._demoted is None and lane:
                blas.hold_cap(id(self), lane)
                self._blas_lane = lane
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_pool_worker,
                initargs=(
                    lane,
                    self._clients,
                    self._validators,
                    self._template,
                    handle,
                    worker_registry,
                    self._tracer.enabled,
                ),
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._restore_blas()
        for pending in self._abandoned:  # all tasks done after shutdown
            pending.wait()
        self._abandoned.clear()
        if self._demoted is not None:
            self._demoted.close()
        if self._held_global is not None:
            if self._store is not None and self._held_global in self._store:
                self._store.release(self._held_global)
            self._held_global = None
        self._reap_shm_orphans()

    def _defer_release(self, pending: PendingVotes) -> None:
        self._abandoned.append(pending)

    def _reap_abandoned(self) -> None:
        self._abandoned = [p for p in self._abandoned if not p.reap()]

    # ------------------------------------------------------------------
    # Crash recovery / degradation ladder
    # ------------------------------------------------------------------
    def _reap_shm_orphans(self, round_idx: int | None = None) -> None:
        """Unlink ``/dev/shm`` segments stranded by dead processes.

        Crash hygiene for the shared arena: a worker (or a whole previous
        run) that died while pinning versions must not leak tmpfs pages
        forever.  This run's own arenas are protected by prefix.
        """
        prefix = getattr(self._store, "name_prefix", None)
        reaped = reap_orphan_segments((prefix,) if prefix else ())
        if reaped:
            self._note("orphans_reaped", round_idx=round_idx, n=len(reaped))

    def _recover_pool(self, epoch: int, round_idx: int | None = None) -> bool:
        """Tear down a dead pool; ``True`` while the budget allows a new one.

        Epoch-tagged for idempotence: every future of one breakage raises
        ``BrokenExecutor``, but only the first observer (submitted against
        the still-current epoch) tears down, reaps and counts — late
        observers just resubmit against the already-rebuilt pool.
        """
        if epoch == self._pool_epoch:
            pool, self._pool = self._pool, None
            self._pool_epoch += 1
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            self._note("pool_rebuilds", round_idx=round_idx)
            # The dead workers' futures all count as done now, so any
            # deferred references they pinned can drop, and segments
            # stranded by processes that no longer exist get unlinked.
            self._reap_abandoned()
            self._reap_shm_orphans(round_idx)
        return self.resilience.pool_rebuilds <= self.max_pool_rebuilds

    def _demote_to_thread(
        self, round_idx: int | None = None
    ) -> "ThreadPoolRoundExecutor":
        """Give up on worker processes: hand every later round to threads.

        The parent holds the exact populations it shipped to the pool, so
        the thread engine is populated directly from them; the fault plan,
        deadlines and the resilience ledger carry over — one run, one
        ledger, no matter how far down the ladder it slid.
        """
        if self._demoted is None:
            demoted = ThreadPoolRoundExecutor(
                self.workers, cohort_size=self.cohort_size
            )
            demoted._clients = dict(self._clients)
            demoted._registry = self._registry
            demoted._validators = dict(self._validators)
            demoted._vote_locks = {
                vid: threading.Lock() for vid in demoted._validators
            }
            demoted._store = self._store
            demoted._tracer = self._tracer
            demoted.fault_plan = self.fault_plan
            demoted.task_deadline_s = self.task_deadline_s
            demoted.max_task_retries = self.max_task_retries
            demoted.resilience = self.resilience
            demoted._counted_drops = self._counted_drops
            self._demoted = demoted
            self._restore_blas()
            self._note("engine_demotions", round_idx=round_idx, to="thread")
        return self._demoted

    def _result_with_deadline(self, future: Future):
        """``future.result()`` under the straggler deadline (if any)."""
        if self.task_deadline_s is None:
            return future.result()
        return future.result(timeout=self.task_deadline_s)

    def _run_slice_local(self, task_fn, plan: tuple):
        """Recompute one worker slice in the parent process.

        Runs the *same* module-level task function on the same arguments
        against locally bound worker globals (:func:`_bind_local_worker`),
        so the result is bit-identical to what the lost worker would have
        returned.
        """
        return _traced_call(
            self._tracer, "recover.local_replay", None, {},
            self._run_slice_local_inner, task_fn, plan,
        )

    def _run_slice_local_inner(self, task_fn, plan: tuple):
        _bind_local_worker(self)
        return task_fn(*plan)

    def _abandon_client_straggler(self, future: Future, model_ref: ModelRef) -> None:
        """Write off a straggling client slice without dropping its refs.

        The straggler worker may still be attached to the shipped global
        model version; a deferred handle pins it until the task actually
        finishes (and surfaces the task's eventual error through the
        ``abandoned_task_errors`` counter).
        """
        version = model_ref[0]
        held: int | None = None
        if (
            version is not None
            and self._store is not None
            and not self._store.closed
            and version in self._store
        ):
            self._store.acquire(version)
            held = version

        def cleanup() -> None:
            if (
                held is not None
                and self._store is not None
                and not self._store.closed
                and held in self._store
            ):
                self._store.release(held)

        PendingVotes(
            gather=lambda: {},
            futures=(future,),
            cleanup=cleanup,
            on_abandon=self._defer_release,
            on_error=self._count_abandoned_error,
        ).abandon()

    # ------------------------------------------------------------------
    # Round fan-out
    # ------------------------------------------------------------------
    def _global_model_ref(
        self, global_model: Network
    ) -> tuple[ModelRef, int, int]:
        """Reference for this round's global model + per-task pipe cost
        (compressed and raw bytes)."""
        if self._use_store:
            # Content-deduplicated publish: right after a committed round
            # the global model *is* the latest history entry, so this
            # usually resolves to an already-live version and ships zero
            # new bytes.  The executor keeps one reference so undefended
            # runs (no history holding the version) stay resolvable, and
            # trades it for the next round's version.
            version = self._store.publish(global_model.get_flat())
            if self._held_global is not None:
                self._store.release(self._held_global)
            self._held_global = version
            return (version, None), 0, 0
        blob, raw = self._encode_blob(global_model)
        return (None, blob), len(blob), raw

    def run_clients(
        self,
        clients: Sequence[Client],
        contributor_ids: Sequence[int],
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        streams: RngStreams,
    ) -> list[np.ndarray]:
        if self._demoted is not None:
            return self._demoted.run_clients(
                clients, contributor_ids, global_model, config, round_idx,
                streams,
            )
        self._reap_abandoned()
        self._ensure_pool()  # fails loudly when no template is bound
        if self._registry is not None:
            remote_ids = [
                cid
                for cid in contributor_ids
                if self._registry.is_parallel_safe(cid)
            ]
        else:
            remote_ids = [cid for cid in contributor_ids if cid in self._clients]
        model_ref, pipe_cost, pipe_raw = self._global_model_ref(global_model)
        live_floor = self._store.min_live_version() if self._use_store else None
        # Cohort chunks: each worker stacks its slice of the parallel-safe
        # fan-out (cohort_size=None stacks everything eligible, spread
        # evenly over the workers).  A registry plans from metadata — no
        # parent-side materialization.
        chunks = plan_cohorts(
            self._registry if self._registry is not None else self._clients,
            remote_ids,
            global_model,
            self.cohort_size if self.cohort_size is not None else len(remote_ids),
            spread_over=self.workers,
        )
        cohorted = {cid for chunk in chunks for cid in chunk}
        singles = [cid for cid in remote_ids if cid not in cohorted]
        # Batched dispatch: exactly one task per worker, carrying that
        # worker's cohort chunks and per-model clients together.  The
        # fully built argument tuples are kept so crash recovery can
        # resubmit (or locally replay) a slice bit-identically.
        slice_plans: list[tuple] = [
            (
                slice_cohorts,
                slice_singles,
                model_ref,
                config,
                round_idx,
                [
                    [streams.client_seq(round_idx, cid) for cid in chunk]
                    for chunk in slice_cohorts
                ],
                [streams.client_seq(round_idx, cid) for cid in slice_singles],
                live_floor,
            )
            for slice_cohorts, slice_singles in _plan_slices(
                chunks, singles, self.workers
            )
        ]
        self._pipe_bytes += pipe_cost * len(slice_plans)
        self._pipe_raw_bytes += pipe_raw * len(slice_plans)
        remote = cohorted.union(singles)
        # Entities that must run in the parent (stateful / unpicklable)
        # overlap with the workers' wall-clock, then everything is gathered
        # in contributor order so results are order-deterministic.
        results: dict[int, np.ndarray] = {
            cid: clients[cid].produce_update(
                global_model, config, round_idx, streams.client_rng(round_idx, cid)
            )
            for cid in contributor_ids
            if cid not in remote
        }
        for rows, trace_payload in self._run_client_slices(
            slice_plans, round_idx
        ):
            self._tracer.merge_worker(trace_payload)
            results.update(rows)
        return [results[cid] for cid in contributor_ids]

    def _run_client_slices(
        self, slice_plans: list[tuple], round_idx: int
    ) -> list[tuple]:
        """Execute the round's training slices, surviving crashes/stragglers.

        A straggling slice (deadline exceeded) is written off and replayed
        locally; a dead pool is rebuilt and the whole phase resubmitted —
        the plans are pure argument tuples over keyed rng streams, so any
        re-execution is bit-identical and nothing is merged until the
        phase as a whole succeeded (no duplicated worker spans).
        """
        if not slice_plans:
            return []
        attempts = 0
        while True:
            epoch = self._pool_epoch
            try:
                pool = self._ensure_pool()
                futures: list[Future] = [
                    pool.submit(
                        _client_slice_task,
                        *plan,
                        self._fault_directive(round_idx, "train", i, hard=True),
                    )
                    for i, plan in enumerate(slice_plans)
                ]
                collected: list[tuple] = []
                for index, future in enumerate(futures):
                    try:
                        collected.append(self._result_with_deadline(future))
                    except FuturesTimeout:
                        self._note(
                            "straggler_reassignments", round_idx=round_idx,
                            phase="train", slot=index,
                        )
                        self._abandon_client_straggler(
                            future, slice_plans[index][2]
                        )
                        collected.append(
                            self._run_slice_local(
                                _client_slice_task, slice_plans[index]
                            )
                        )
                return collected
            except BrokenExecutor:
                attempts += 1
                self._note(
                    "retries", round_idx=round_idx, n=len(slice_plans),
                    phase="train",
                )
                if (
                    self._recover_pool(epoch, round_idx)
                    and attempts <= self.max_task_retries
                ):
                    continue
                # Budget exhausted: finish this round in the parent, then
                # demote permanently so later rounds skip the dead pool.
                collected = [
                    self._run_slice_local(_client_slice_task, plan)
                    for plan in slice_plans
                ]
                self._demote_to_thread(round_idx)
                return collected

    def submit_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> PendingVotes:
        if self._demoted is not None:
            return self._demoted.submit_validators(
                pool, validator_ids, context, round_idx, streams
            )
        self._reap_abandoned()
        history_versions = [version for version, _ in context.history]
        held_versions: list[int] = []
        if self._use_store:
            candidate_version = context.candidate_version
            if candidate_version is None or candidate_version not in self._store:
                # Standalone contexts (defense not staged through a store)
                # publish the candidate here; the initial publish reference
                # is the hold, released with the handle.
                candidate_version = self._store.publish_new(
                    context.candidate.get_flat()
                )
            else:
                self._store.acquire(candidate_version)
            held_versions.append(candidate_version)
            candidate_ref: ModelRef = (candidate_version, None)
            history_refs: list[ModelRef] = []
            per_task_pipe = 0
            per_task_raw = 0
            for version, model in context.history:
                if version in self._store:
                    # Hold every version shipped by key: a rollback may
                    # release the history's reference while these tasks are
                    # still in flight; this hold keeps the segment mapped
                    # (and the worker eviction floor below it) until then.
                    self._store.acquire(version)
                    held_versions.append(version)
                    history_refs.append((version, None))
                else:
                    # Same standalone case for the history: a version the
                    # arena cannot resolve travels as a blob (keyed by its
                    # history version so worker caches stay correct).
                    blob, raw = self._encode_blob(model)
                    history_refs.append((version, blob))
                    per_task_pipe += len(blob)
                    per_task_raw += raw
        else:
            candidate_blob, candidate_raw = self._encode_blob(context.candidate)
            history_blobs = [
                self._encode_blob(model) for _, model in context.history
            ]
            candidate_ref = (None, candidate_blob)
            history_refs = list(
                zip(history_versions, (blob for blob, _ in history_blobs))
            )
            per_task_pipe = len(candidate_blob) + sum(
                len(blob) for blob, _ in history_blobs
            )
            per_task_raw = candidate_raw + sum(raw for _, raw in history_blobs)
        live_floor = self._store.min_live_version() if self._use_store else None

        table = self._profile_table
        dropped = self._dropped_votes(round_idx, validator_ids)
        remote_vids = [
            vid
            for vid in validator_ids
            if vid in self._validators and vid not in dropped
        ]
        # Batched dispatch: one contiguous slice of validators per worker,
        # sharing a single candidate/history materialization per task.
        # The argument tuples are kept so crash recovery can resubmit (or
        # locally replay) any slice bit-identically.
        slice_plans: list[tuple] = [
            (
                vids,
                candidate_ref,
                history_refs,
                round_idx,
                [streams.validator_seq(round_idx, vid) for vid in vids],
                {vid: table.hints(vid, history_versions) for vid in vids}
                if table is not None
                else {},
                live_floor,
            )
            for vids in _chunk_evenly(remote_vids, self.workers)
        ]
        # One mutable [future, submit_epoch] slot per slice; a slot whose
        # submission found the pool already broken holds ``None`` and is
        # recovered at gather time.
        futures: list[Future] = []
        slots: list[list] = []
        try:
            executor_pool = self._ensure_pool()
            for index, plan in enumerate(slice_plans):
                future = executor_pool.submit(
                    _validator_slice_task,
                    *plan,
                    self._fault_directive(
                        round_idx, "validate", index, hard=True
                    ),
                )
                futures.append(future)
                slots.append([future, self._pool_epoch])
        except BrokenExecutor:
            while len(slots) < len(slice_plans):
                slots.append([None, self._pool_epoch])
        self._pipe_bytes += per_task_pipe * len(slice_plans)
        self._pipe_raw_bytes += per_task_raw * len(slice_plans)
        remote = set(remote_vids)

        def gather() -> dict[int, int]:
            # Parent-side (non-parallel-safe) votes run while the workers
            # chew, then everything is gathered in id order.
            collected: dict[int, int] = {
                vid: pool.get(vid).vote(
                    context, streams.validator_rng(round_idx, vid)
                )
                for vid in validator_ids
                if vid not in remote and vid not in dropped
            }
            for index, plan in enumerate(slice_plans):
                rows, trace_payload = self._collect_validator_slice(
                    slots[index], plan, round_idx, index
                )
                self._tracer.merge_worker(trace_payload)
                for vid, vote, new_profiles, candidate_profile in rows:
                    collected[vid] = vote
                    if table is None:
                        continue
                    for version, profile in new_profiles.items():
                        table.put(vid, version, profile)
                    if candidate_profile is not None and (
                        context.candidate_version is not None
                    ):
                        table.stage(
                            vid, context.candidate_version, candidate_profile
                        )
            return {
                vid: collected[vid] for vid in validator_ids if vid in collected
            }

        def cleanup() -> None:
            if self._store is None or self._store.closed:
                return
            for version in held_versions:
                self._store.release(version)

        return PendingVotes(
            gather=gather,
            futures=futures,
            cleanup=cleanup,
            on_abandon=self._defer_release,
            on_error=self._count_abandoned_error,
        )

    def _collect_validator_slice(
        self, slot: list, plan: tuple, round_idx: int, index: int
    ) -> tuple:
        """One validation slice's rows, surviving stragglers and pool death.

        A straggler (deadline exceeded) is written off and replayed
        locally — its future stays in the vote handle, whose release
        auto-defers until the abandoned task actually finished, so the
        store references it may still read stay alive.  A dead pool is
        rebuilt and the slice resubmitted while the budget lasts, then
        the executor demotes and replays locally.
        """
        attempts = 0
        while True:
            future, epoch = slot
            if future is None:
                return self._run_slice_local(_validator_slice_task, plan)
            try:
                return self._result_with_deadline(future)
            except FuturesTimeout:
                self._note(
                    "straggler_reassignments", round_idx=round_idx,
                    phase="validate", slot=index,
                )
                return self._run_slice_local(_validator_slice_task, plan)
            except BrokenExecutor:
                attempts += 1
                self._note("retries", round_idx=round_idx, phase="validate")
                if (
                    not self._recover_pool(epoch, round_idx)
                    or attempts > self.max_task_retries
                ):
                    self._demote_to_thread(round_idx)
                    return self._run_slice_local(_validator_slice_task, plan)
                try:
                    slot[0] = self._ensure_pool().submit(
                        _validator_slice_task, *plan
                    )
                    slot[1] = self._pool_epoch
                except BrokenExecutor:  # pragma: no cover - raced breakage
                    slot[0] = None

    def run_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> dict[int, int]:
        return self.submit_validators(
            pool, validator_ids, context, round_idx, streams
        ).collect()


class ThreadPoolRoundExecutor(RoundExecutor):
    """Fan rounds out over in-process threads — zero IPC, zero pickling.

    The training and validation kernels are numpy/BLAS-bound and release
    the GIL, so a thread pool overlaps them while every object stays
    live: clients and validators are used directly (their caches persist
    across rounds exactly like the sequential path), models are shared by
    reference, and :attr:`transport_bytes` is structurally zero.

    Thread-safety contract
    ----------------------
    Only ``parallel_safe`` entities run on pool threads; everything else
    runs in the calling thread, like the process pool's parent fallback.
    Candidate and history networks are shared read-only across voting
    threads (eval-mode forward does not mutate layer state), and a
    per-validator lock serializes votes of the *same* validator across
    overlapping pipelined rounds, so a validator's instance state is only
    ever mutated under its lock or from the simulation thread between
    rounds.

    Cohort stacking defaults to the whole eligible fan-out in a single
    stacked task (``cohort_size=None``): the stacked kernels already feed
    BLAS batched matmuls (which multithread internally), so splitting the
    stack across Python threads would mostly duplicate the Python-side
    training loop instead of adding parallelism.

    The process pool's BLAS thread budget does not apply here: every pool
    thread calls into the parent's one OpenBLAS, whose thread count this
    engine leaves as it finds it (:attr:`blas_threads` is empty).
    """

    def __init__(self, workers: int, cohort_size: int | None = None) -> None:
        super().__init__()
        if workers < 2:
            raise ValueError(
                f"ThreadPoolRoundExecutor needs >= 2 workers, got {workers}; "
                "use make_executor() for an automatic sequential fallback"
            )
        if cohort_size is not None and cohort_size < 0:
            raise ValueError(f"cohort_size must be >= 0, got {cohort_size}")
        self.workers = workers
        self.cohort_size = cohort_size
        self._clients: dict[int, Client] = {}
        self._registry: ClientRegistry | None = None
        self._validators: dict[int, Validator] = {}
        self._store: ModelStore | None = None
        self._bound: set[str] = set()
        self._pool: ThreadPoolExecutor | None = None
        self._vote_locks: dict[int, threading.Lock] = {}
        self._tracer: Tracer | NullTracer = NULL_TRACER
        #: Bottom rung of the degradation ladder: once the thread pool
        #: cannot accept work any more, tasks run on the calling thread.
        self._inline = False

    def bind(
        self,
        clients: Sequence[Client] | None = None,
        validator_pool: "ValidatorPool | None" = None,
        template: Network | None = None,
        store: ModelStore | None = None,
        profile_table: ValidatorProfileTable | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        if tracer is not None:
            # Threads share the server's clock and tracer: spans record
            # directly, no batching or offset normalization needed.
            self._tracer = tracer
        # Same one-shot semantics as the process pool: sharing an executor
        # across simulations fails loudly.  Template and profile table are
        # accepted for interface parity but unused — threads read the live
        # objects, so there is nothing to ship or to shuttle back.
        for field, provided in (
            ("clients", clients),
            ("validator_pool", validator_pool),
            ("store", store),
        ):
            if provided is not None and field in self._bound:
                raise RuntimeError(
                    f"executor already has {field} bound; "
                    "use one executor per simulation"
                )
        if clients is not None:
            self._bound.add("clients")
            if isinstance(clients, ClientRegistry):
                # Zero-IPC engine: materialization happens in the calling
                # thread (shard lists are built before submit), so the
                # registry is used directly — no worker view needed.
                self._registry = clients
            else:
                self._clients = {
                    c.client_id: c for c in clients if _is_parallel_safe(c)
                }
        if validator_pool is not None:
            self._bound.add("validator_pool")
            self._validators = {
                vid: validator
                for vid, validator in validator_pool.as_dict().items()
                if _is_parallel_safe(validator)
            }
            self._vote_locks = {vid: threading.Lock() for vid in self._validators}
        if store is not None:
            self._bound.add("store")
            self._store = store

    @property
    def store(self) -> ModelStore | None:
        return self._store

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-round"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _submit(self, fn, *args) -> Future:
        """Submit to the thread pool, degrading to the calling thread.

        A pool that cannot accept work any more (shut down / interpreter
        teardown mid-run) is the thread engine's flavor of pool death:
        instead of failing the round, the engine demotes itself to
        sequential-in-place execution — same task wrappers, same keyed
        streams, so the results do not change.
        """
        if not self._inline:
            try:
                return self._ensure_pool().submit(fn, *args)
            except RuntimeError:
                self._inline = True
                self._note("engine_demotions", to="sequential")
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:
            future.set_exception(error)
        return future

    def _thread_result(self, future: Future, recompute, round_idx, phase, slot):
        """A task's result under the straggler deadline.

        ``recompute`` rebuilds the task from *fresh* keyed streams in the
        calling thread (the straggler may still be consuming the rng
        objects it was handed, so the originals must not be reused) —
        keyed streams make the recomputation bit-identical.
        """
        if self.task_deadline_s is None:
            return future.result()
        try:
            return future.result(timeout=self.task_deadline_s)
        except FuturesTimeout:
            self._note(
                "straggler_reassignments", round_idx=round_idx, phase=phase,
                slot=slot,
            )
            return recompute()

    def run_clients(
        self,
        clients: Sequence[Client],
        contributor_ids: Sequence[int],
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        streams: RngStreams,
    ) -> list[np.ndarray]:
        if self._registry is not None:
            remote_ids = [
                cid
                for cid in contributor_ids
                if self._registry.is_parallel_safe(cid)
            ]
            resolve = self._registry.__getitem__
            plan_source = self._registry
        else:
            remote_ids = [cid for cid in contributor_ids if cid in self._clients]
            resolve = self._clients.__getitem__
            plan_source = self._clients
        chunks = plan_cohorts(
            plan_source,
            remote_ids,
            global_model,
            self.cohort_size if self.cohort_size is not None else len(remote_ids),
        )
        cohorted = {cid for chunk in chunks for cid in chunk}
        # Shard lists and bound methods are resolved here, in the calling
        # thread, so a registry materializes clients race-free before any
        # pool thread runs; the simulation discards them after the round.
        # Submission ordinals are the fault plan's dispatch slots.
        slot = 0
        chunk_futures: list[tuple[list[int], int, Future]] = []
        for chunk in chunks:
            chunk_futures.append((
                chunk,
                slot,
                self._submit(
                    _resilient_call,
                    self,
                    self._fault_directive(round_idx, "train", slot),
                    self._tracer,
                    "train.cohort",
                    round_idx,
                    {"clients": len(chunk)},
                    cohort_updates,
                    global_model,
                    [resolve(cid).dataset for cid in chunk],
                    config,
                    [streams.client_rng(round_idx, cid) for cid in chunk],
                ),
            ))
            slot += 1
        futures: dict[int, tuple[int, Future]] = {}
        for cid in remote_ids:
            if cid in cohorted:
                continue
            futures[cid] = (
                slot,
                self._submit(
                    _resilient_call,
                    self,
                    self._fault_directive(round_idx, "train", slot),
                    self._tracer,
                    "train.client",
                    round_idx,
                    {"client": cid},
                    resolve(cid).produce_update,
                    global_model,
                    config,
                    round_idx,
                    streams.client_rng(round_idx, cid),
                ),
            )
            slot += 1
        results: dict[int, np.ndarray] = {
            cid: clients[cid].produce_update(
                global_model, config, round_idx, streams.client_rng(round_idx, cid)
            )
            for cid in contributor_ids
            if cid not in futures and cid not in cohorted
        }
        for chunk, chunk_slot, future in chunk_futures:
            updates = self._thread_result(
                future,
                lambda chunk=chunk: cohort_updates(
                    global_model,
                    [resolve(cid).dataset for cid in chunk],
                    config,
                    [streams.client_rng(round_idx, cid) for cid in chunk],
                ),
                round_idx, "train", chunk_slot,
            )
            results.update(zip(chunk, updates))
        for cid, (cid_slot, future) in futures.items():
            results[cid] = self._thread_result(
                future,
                lambda cid=cid: resolve(cid).produce_update(
                    global_model, config, round_idx,
                    streams.client_rng(round_idx, cid),
                ),
                round_idx, "train", cid_slot,
            )
        return [results[cid] for cid in contributor_ids]

    def submit_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> PendingVotes:
        tracer = self._tracer

        def vote_under_lock(vid, validator, lock, rng):
            # The per-validator lock also serializes a straggler's late
            # vote against its deadline-driven local recomputation — the
            # two compute identical values, never concurrently.
            with lock:
                with tracer.span(
                    "validate.vote", cat="worker", round_idx=round_idx,
                    validator=vid,
                ):
                    return validator.vote(context, rng)

        dropped = self._dropped_votes(round_idx, validator_ids)
        futures: dict[int, tuple[int, Future]] = {}
        slot = 0
        for vid in validator_ids:
            if vid not in self._validators or vid in dropped:
                continue
            futures[vid] = (
                slot,
                self._submit(
                    _resilient_call,  # repro: allow[pickle-safety] -- thread pool shares the address space, nothing pickles
                    self,
                    self._fault_directive(round_idx, "validate", slot),
                    NULL_TRACER,  # vote_under_lock opens the span itself
                    "validate.task",
                    round_idx,
                    {},
                    vote_under_lock,
                    vid,
                    self._validators[vid],
                    self._vote_locks[vid],
                    streams.validator_rng(round_idx, vid),
                ),
            )
            slot += 1

        def gather() -> dict[int, int]:
            local: dict[int, int] = {
                vid: pool.get(vid).vote(
                    context, streams.validator_rng(round_idx, vid)
                )
                for vid in validator_ids
                if vid not in futures and vid not in dropped
            }
            collected: dict[int, int] = {}
            for vid in validator_ids:
                if vid in dropped:
                    continue
                if vid not in futures:
                    collected[vid] = local[vid]
                    continue
                vid_slot, future = futures[vid]
                collected[vid] = self._thread_result(
                    future,
                    lambda vid=vid: vote_under_lock(
                        vid,
                        self._validators[vid],
                        self._vote_locks[vid],
                        streams.validator_rng(round_idx, vid),
                    ),
                    round_idx, "validate", vid_slot,
                )
            return collected

        # No store references travel (the context holds the models alive),
        # so an abandoned handle needs no deferred release — stragglers
        # just finish and their results are dropped.  Their errors are
        # still drained and counted, though.
        return PendingVotes(
            gather=gather,
            futures=[future for _, future in futures.values()],
            on_abandon=lambda pending: None,
            on_error=self._count_abandoned_error,
        )

    def run_validators(
        self,
        pool: "ValidatorPool",
        validator_ids: Sequence[int],
        context: ValidationContext,
        round_idx: int,
        streams: RngStreams,
    ) -> dict[int, int]:
        return self.submit_validators(
            pool, validator_ids, context, round_idx, streams
        ).collect()


class PipelinedRoundExecutor(RoundExecutor):
    """Executor for the pipelined round loop: overlap rounds ``r`` and ``r+1``.

    Wraps an inner executor (sequential or process pool) and exposes
    ``pipeline_depth`` — the number of rounds
    :class:`~repro.fl.simulation.FederatedSimulation` may run ahead of
    their unresolved validator quorums.  The simulation detects this
    attribute and switches to its pipelined loop: round ``r``'s votes are
    *submitted* (:meth:`submit_validators`), round ``r + 1``'s client tasks
    are then fed into the same pool, so both kinds of task interleave on
    the workers; ``pipeline_depth = 0`` degenerates to today's synchronous
    semantics and commits bit-identical models.
    """

    def __init__(self, inner: RoundExecutor, pipeline_depth: int = DEFAULT_PIPELINE_DEPTH) -> None:
        if pipeline_depth < 0:
            raise ValueError(
                f"pipeline_depth must be >= 0, got {pipeline_depth}"
            )
        if isinstance(inner, PipelinedRoundExecutor):
            raise ValueError("cannot nest pipelined executors")
        self.inner = inner
        self.pipeline_depth = pipeline_depth

    def bind(self, **populations) -> None:
        self.inner.bind(**populations)

    def bind_faults(self, **kwargs) -> None:
        self.inner.bind_faults(**kwargs)

    @property
    def resilience(self) -> ResilienceStats:
        return self.inner.resilience

    @property
    def fault_plan(self) -> FaultPlan:
        return self.inner.fault_plan

    @property
    def task_deadline_s(self) -> float | None:
        return self.inner.task_deadline_s

    @property
    def transport_bytes(self) -> int:
        return self.inner.transport_bytes

    @property
    def raw_transport_bytes(self) -> int:
        return self.inner.raw_transport_bytes

    @property
    def store(self) -> ModelStore | None:
        return self.inner.store

    @property
    def blas_threads(self) -> dict[str, int]:
        return self.inner.blas_threads

    def run_clients(self, *args, **kwargs) -> list[np.ndarray]:
        return self.inner.run_clients(*args, **kwargs)

    def run_validators(self, *args, **kwargs) -> dict[int, int]:
        return self.inner.run_validators(*args, **kwargs)

    def submit_validators(self, *args, **kwargs) -> PendingVotes:
        return self.inner.submit_validators(*args, **kwargs)

    def close(self) -> None:
        self.inner.close()


def make_executor(
    workers: int,
    store: ModelStore | None = None,
    mode: str = "sync",
    pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    cohort_size: int | None = None,
    engine: str = "auto",
    faults: "FaultPlan | str | None" = None,
    task_deadline_s: float | None = None,
) -> RoundExecutor:
    """Executor for a worker count: 0/1 -> sequential, N>=2 -> worker pool.

    ``engine`` picks the multi-worker backend (:data:`ENGINE_KINDS`):
    ``"process"`` (and ``"auto"``) builds a
    :class:`ProcessPoolRoundExecutor`, ``"thread"`` a
    :class:`ThreadPoolRoundExecutor`.  ``store`` binds the configured
    model store at construction, so a pool executor can never silently
    fall back to pickle-pipe transport because a caller forgot to connect
    the two (the historical failure mode: store and executor were built
    by separate factories and only met inside ``FederatedSimulation``).
    ``mode="pipelined"`` wraps the executor for the pipelined round loop
    with the given speculation depth.  ``cohort_size`` controls stacked
    cohort training (:mod:`repro.fl.cohort`): ``None`` keeps each
    executor's default (stack everything eligible on the pools, classic
    per-model on sequential), ``>= 2`` forces that chunk size everywhere,
    ``0``/``1`` disables stacking.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if mode not in EXECUTION_MODES:
        raise ValueError(
            f"mode must be one of {EXECUTION_MODES}, got {mode!r}"
        )
    if engine not in ENGINE_KINDS:
        raise ValueError(
            f"engine must be one of {ENGINE_KINDS}, got {engine!r}"
        )
    executor: RoundExecutor
    if workers <= 1:
        executor = SequentialExecutor(cohort_size=cohort_size)
    elif engine == "thread":
        executor = ThreadPoolRoundExecutor(workers, cohort_size=cohort_size)
    else:
        executor = ProcessPoolRoundExecutor(workers, cohort_size=cohort_size)
    if store is not None:
        executor.bind(store=store)
    if faults is not None or task_deadline_s is not None:
        executor.bind_faults(plan=faults, task_deadline_s=task_deadline_s)
    if mode == "pipelined":
        executor = PipelinedRoundExecutor(executor, pipeline_depth)
    return executor


class RoundEngine:
    """A matched (executor, store) pair from :func:`make_engine`.

    Context manager closing both in the safe order — executor first (its
    shutdown waits for in-flight tasks and drains the deferred-release
    list), store second (unlinking any remaining segments).
    """

    def __init__(self, executor: RoundExecutor, store: ModelStore) -> None:
        self.executor = executor
        self.store = store

    @property
    def codec(self):
        """The store's transport codec (:mod:`repro.fl.compression`)."""
        return self.store.codec

    def __enter__(self) -> "RoundEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self.executor.close()
        finally:
            self.store.close()


def make_engine(
    workers: int,
    store: str = "auto",
    mode: str = "sync",
    pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    codec: str | None = None,
    require_lossless: bool = True,
    cohort_size: int | None = None,
    engine: str = "auto",
    faults: "FaultPlan | str | None" = None,
    task_deadline_s: float | None = None,
) -> RoundEngine:
    """The one factory for a round-execution engine.

    Builds the model store for the worker count (``store`` is a
    :data:`~repro.fl.model_store.STORE_KINDS` name) and an executor with
    that store pre-bound, so the transport path is decided here, in one
    place, instead of emerging from whether two separately constructed
    objects happened to meet.  ``engine`` picks the multi-worker backend
    (:data:`ENGINE_KINDS`); the thread engine shares the caller's address
    space, so ``store="auto"`` resolves to the in-process store for it —
    a shared-memory arena would only add copies.

    ``codec`` selects the store's weight-compression codec
    (:mod:`repro.fl.compression`; name or instance, default identity);
    with ``require_lossless=True`` (the default) lossy codecs are rejected
    here, before anything is built — the bit-identical equivalence matrix
    only holds for lossless codecs, so admitting a lossy one for a scale
    run is an explicit opt-out (``require_lossless=False``).

    ``cohort_size`` controls stacked cohort client training
    (bit-identical, pure throughput — see :mod:`repro.fl.cohort`);
    ``None`` keeps the per-executor default.

    ``faults`` (a spec string or :class:`~repro.fl.faults.FaultPlan`) and
    ``task_deadline_s`` arm the executor's resilience layer — see
    :mod:`repro.fl.faults` and :meth:`RoundExecutor.bind_faults`.
    """
    if engine not in ENGINE_KINDS:
        raise ValueError(
            f"engine must be one of {ENGINE_KINDS}, got {engine!r}"
        )
    if store == "auto" and engine == "thread":
        store = "inprocess"
    model_store = make_model_store(
        workers, store, codec=codec, require_lossless=require_lossless
    )
    executor = make_executor(
        workers,
        store=model_store,
        mode=mode,
        pipeline_depth=pipeline_depth,
        cohort_size=cohort_size,
        engine=engine,
        faults=faults,
        task_deadline_s=task_deadline_s,
    )
    return RoundEngine(executor, model_store)
