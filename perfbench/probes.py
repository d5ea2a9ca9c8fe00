"""Instrumentation installed from outside the program under test.

Two kinds of probe wrap public entry points of ``repro`` for the duration
of a benchmark run and are removed afterwards:

- *round probes* (always on): one clock read at each defended-round
  boundary (``FederatedSimulation.run_round``) and the fingerprint of the
  final committed model when ``FederatedSimulation.run`` returns;
- *layer probes* (traced runs only): a span around each layer's entry
  points, recorded by a :class:`~spans.SpanRecorder`, plus the counters
  the per-layer ratios need.

Functions that other modules import by name are patched at every import
site, so callers see the wrapper whichever module they call through.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from perfbench.outcomes import model_fingerprint
from perfbench.spans import SpanRecorder


@dataclass
class RoundLog:
    """What the round probes saw while the session was in its rounds phase."""

    measuring: bool = False
    #: ``(round_idx, seconds)`` of every round run while measuring.
    rounds: list[tuple[int, float]] = field(default_factory=list)
    transport_bytes: int = 0
    retries: int = 0
    final_model: dict | None = None


class _Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _spanned(recorder: SpanRecorder, name: str, fn, before=None, after=None):
    """``fn`` inside a span ``name``; ``after`` returns counters to add."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.open(name)
        if token is None:
            return fn(*args, **kwargs)
        state = before(args) if before is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(token)
        if after is not None:
            for key, value in after(args, result, state).items():
                recorder.count(name, key, value)
        return result

    return wrapper


def _install_round_probes(patcher: _Patcher, log: RoundLog) -> None:
    from repro.fl.simulation import FederatedSimulation

    def time_round(run_round):
        @functools.wraps(run_round)
        def wrapper(self):
            if not log.measuring:
                return run_round(self)
            start = time.perf_counter()
            record = run_round(self)
            log.rounds.append((record.round_idx, time.perf_counter() - start))
            log.transport_bytes += record.transport_bytes
            log.retries += record.retries
            return record

        return wrapper

    def fingerprint_final_model(run):
        @functools.wraps(run)
        def wrapper(self, num_rounds):
            records = run(self, num_rounds)
            if log.measuring:
                log.final_model = model_fingerprint(self.global_model.get_flat())
            return records

        return wrapper

    patcher.replace(FederatedSimulation, "run_round", time_round)
    patcher.replace(FederatedSimulation, "run", fingerprint_final_model)


def _install_layer_probes(patcher: _Patcher, recorder: SpanRecorder) -> None:
    from repro.attacks.adaptive import AdaptiveReplacementClient
    from repro.attacks.model_replacement import ModelReplacementClient
    from repro.core import errors, lof, validation
    from repro.core.baffle import BaffleDefense
    from repro.core.validation import MisclassificationValidator
    from repro.experiments import environment, scenarios
    from repro.fl import cohort, parallel
    from repro.fl.aggregation import FedAvgAggregator
    from repro.fl.client import HonestClient
    from repro.fl.model_store import ModelStore, ShmWorkerView
    from repro.fl.simulation import FederatedSimulation
    from repro.nn.network import Network
    from repro.nn.stacked import StackedNetwork

    def span(owners, attr, name, before=None, after=None):
        for owner in owners:
            patcher.replace(
                owner, attr,
                lambda fn: _spanned(recorder, name, fn, before, after),
            )

    def vote_positions(args, result, state):
        # Profiles an Algorithm 2 vote needs: every history model plus the
        # candidate, unless the validator abstains for lack of history.
        validator, context = args[0], args[1]
        needed = len(context.history) + 1
        return {"positions": needed if needed > validator.min_history else 0}

    def published_before(args):
        return args[0].bytes_published

    def published_after(args, result, before):
        return {"bytes": args[0].bytes_published - before}

    span([environment, scenarios], "build_environment", "environment.build_environment")
    span([FederatedSimulation], "run_round", "simulation.run_round")
    executors = [
        parallel.RoundExecutor,
        parallel.SequentialExecutor,
        parallel.ProcessPoolRoundExecutor,
        parallel.ThreadPoolRoundExecutor,
        parallel.PipelinedRoundExecutor,
    ]
    for attr in ("run_clients", "run_validators", "submit_validators"):
        owners = [cls for cls in executors if attr in cls.__dict__]
        name = "parallel.run_clients" if attr == "run_clients" else "parallel.validators"
        span(owners, attr, name)
    span([parallel.PendingVotes], "collect", "parallel.validators.collect")
    span(
        [HonestClient, ModelReplacementClient, AdaptiveReplacementClient],
        "produce_update", "client.produce_update",
    )
    span(
        [cohort, parallel], "cohort_updates", "cohort.cohort_updates",
        after=lambda args, result, state: {"models": len(args[1])},
    )
    for method in ("forward", "backward", "clone"):
        span([Network], method, f"nn.Network.{method}")
    for method in ("forward", "backward"):
        span([StackedNetwork], method, f"nn.StackedNetwork.{method}")
    span(
        [errors, validation], "model_error_profile", "errors.error_profiles",
        after=lambda args, result, state: {"models": 1},
    )
    span(
        [errors, validation], "stacked_error_profiles", "errors.error_profiles",
        after=lambda args, result, state: {"models": len(args[0])},
    )
    span([MisclassificationValidator], "vote", "validation.vote", after=vote_positions)
    span([lof, validation], "local_outlier_factor", "lof.local_outlier_factor")
    span(
        [BaffleDefense], "review", "baffle.review",
        after=lambda args, result, state: {"rejections": int(not result.accepted)},
    )
    span([BaffleDefense], "record_outcome", "baffle.record_outcome")
    span([FedAvgAggregator], "aggregate", "aggregation.aggregate")
    span(
        [ModelStore], "publish", "model_store.publish",
        before=published_before, after=published_after,
    )
    span(
        [ModelStore], "publish_new", "model_store.publish",
        before=published_before, after=published_after,
    )
    span([ModelStore, ShmWorkerView], "get", "model_store.get")


@contextmanager
def installed(log: RoundLog, recorder: SpanRecorder | None):
    """Install the round probes, and the layer probes when ``recorder``."""
    patcher = _Patcher()
    try:
        _install_round_probes(patcher, log)
        if recorder is not None:
            _install_layer_probes(patcher, recorder)
        yield
    finally:
        patcher.restore()
