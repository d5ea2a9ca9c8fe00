"""The benchmark's workloads: worlds, sweep cells and seeds.

Every workload is an :class:`~repro.experiments.configs.ExperimentConfig`
plus the cells it runs over one environment per seed.  Only the world
fields and the worker budget are set; engine, store, execution mode,
codec and cohort stay at their defaults, so a change to what ``auto``
picks shows up as a gain or a loss here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Seeds whose reference outcomes are stored and that may be used while
#: sizing or tuning a change.
TUNING_SEEDS = tuple(range(20))
#: Held out: never used to size or tune a change, so a claimed gain can be
#: re-checked on it.  Its reference outcomes are stored too.
HELD_OUT_SEED = 20
#: Reviewed rounds (round >= defense_start) a run times at least, so
#: ``round_ms_p90`` has at least ten samples beyond it.
MIN_ROUNDS = 100

TABLE1_LOOKBACKS = (10, 20, 30)
TABLE1_MODES = ("clients", "server", "both")


def world_seed(seed: int) -> int:
    """The environment seed a ``--seed`` selects (always one with a reference).

    Seeds outside the stored set map onto the tuning seeds, never onto the
    held-out one.
    """
    if seed == HELD_OUT_SEED or seed in TUNING_SEEDS:
        return seed
    return TUNING_SEEDS[seed % len(TUNING_SEEDS)]


def worker_budget() -> int:
    """``nproc``, but at least 2 so the pool workloads always run a pool."""
    return max(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    world: str  # reference file the outcomes are checked against
    why: str
    workers: int

    def base_config(self):
        from repro.experiments.configs import ExperimentConfig

        if self.world == "table1":
            return ExperimentConfig(workers=self.workers)
        # The FedAvg regime of bench_parallel_engine's full world: 64
        # clients of ~64 samples, 32 per round, B=10, 4 local epochs, and a
        # look-back of 6 (the shortest whose history reaches a validator's
        # minimum for voting) so Algorithm 2 runs but stays a small share.
        # Ten pretraining rounds keep set-up short.  The defense reviews
        # rounds 10-59, fifty per scenario, so two passes time the hundred
        # reviewed rounds a run needs; injections stay at rounds 29/34/39.
        return ExperimentConfig(
            num_clients=64,
            clients_per_round=32,
            batch_size=10,
            local_epochs=4,
            pool_size=4608,
            pretrain_rounds=10,
            defense_start=10,
            total_rounds=60,
            lookback=6,
            num_validators=8,
            quorum=4,
            workers=self.workers,
        )

    def cells(self) -> list[tuple[str, object]]:
        """``(key, config)`` for each scenario run of one workload pass."""
        base = self.base_config()
        if self.world == "table1":
            # The Table I look-back sweep at split 0.90, in sweep_lookback's
            # cell order; all cells share one pretrained environment.
            return [
                (f"l{lookback}-{mode}", base.with_updates(lookback=lookback, mode=mode))
                for lookback in TABLE1_LOOKBACKS
                for mode in TABLE1_MODES
            ]
        return [("wide", base)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1-inproc", "table1",
            "Table I sweep in-process: Algorithm 2 (profiles, LOF) and model "
            "copies are a third of round time; dispatch and store do nothing",
            workers=0,
        ),
        Workload(
            "table1-pool", "table1",
            "same sweep on an nproc worker pool: dispatch, shm store and IPC "
            "dominate small tasks; outcomes must equal table1-inproc's",
            workers=worker_budget(),
        ),
        Workload(
            "wide-pool", "wide",
            "wide FedAvg world on an nproc pool: training, stacking and "
            "transport are the round, validation is nearly idle",
            workers=worker_budget(),
        ),
    )
}
