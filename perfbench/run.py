"""Benchmark of BaFFLe's feedback loop, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-inproc --seed 0 --seconds 20 --trace 0

A run builds the workload's environment several times (``setup_s`` is the
median), then runs whole passes over the workload's cells through the
public experiment API until ``--seconds`` have passed and at least
:data:`~perfbench.workloads.MIN_ROUNDS` rounds reviewed by the defense
were timed.  Every
scenario run is checked against the stored reference outcome.  With
``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` layer probes record spans and the last line holds the
per-layer metrics.  Each run also writes a JSON artefact under
``perfbench/out/`` for ``perfbench/report.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script: import the harness as a package and the program
    # under test from this checkout's src/, never from an installed copy.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench import hostinfo, metrics, probes, stats  # noqa: E402
from perfbench.outcomes import (  # noqa: E402
    FailTally,
    differences,
    load_reference,
    outcome_of,
    same_numerics,
)
from perfbench.report import print_record  # noqa: E402
from perfbench.spans import SpanRecorder, merge_totals, read_spool  # noqa: E402
from perfbench.workloads import MIN_ROUNDS, WORKLOADS, world_seed  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"
#: Environment builds per run; ``setup_s`` is their median.
SETUP_REPS = 5


def _cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _stop_children() -> None:
    """Stop and reap every process this run started.

    The pool's workers are joined when each scenario closes its executor,
    but ``multiprocessing`` starts a resource-tracker process with the first
    shared-memory segment and leaves it to exit by itself some time after
    the interpreter does.  Closing its pipe here ends it, and waiting for
    it means no process of the run outlives the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


def _run_cell(run_name, config, seed, expected, exact, tally, log) -> list[float]:
    """One scenario run, checked and counted in ``tally``.

    Returns the latencies of the rounds the defense reviewed (from
    ``config.defense_start`` on): the rounds that run the feedback loop.
    """
    from perfbench import outcomes
    from repro.experiments.scenarios import run_stable_scenario

    before = outcomes.shm_segments()
    first_round = len(log.rounds)
    log.final_model = None
    problems = []
    try:
        result = run_stable_scenario(config, seed)
    except Exception as exc:  # a failing run is counted; the benchmark goes on
        traceback.print_exc(file=sys.stderr)
        problems.append(f"raised {type(exc).__name__}: {exc}")
    else:
        problems += differences(outcome_of(result.records, log.final_model), expected, exact)
    after = outcomes.shm_segments()
    if before is not None and after is not None and after - before:
        problems.append(f"left {len(after - before)} /dev/shm segment(s)")
    tally.record(run_name, problems)
    return [s for idx, s in log.rounds[first_round:] if idx >= config.defense_start]


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its full result record."""
    from repro.experiments import environment

    host = hostinfo.fingerprint()
    reference = load_reference(workload.world)
    env_seed = world_seed(seed)
    expected = reference["seeds"][str(env_seed)]
    exact = same_numerics(reference["host"], host)
    base = workload.base_config()
    cells = workload.cells()

    log = probes.RoundLog()
    tally = FailTally()
    spool = recorder = None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if trace:
        spool = Path(tempfile.mkdtemp(prefix="spool-", dir=OUT_DIR))
        recorder = SpanRecorder(spool_dir=spool)
    try:
        with probes.installed(log, recorder):
            setup_times, setup_cpu = [], []
            for _ in range(SETUP_REPS):
                environment.clear_environment_cache()
                cpu0, t0 = _cpu_s(), time.perf_counter()
                environment.build_environment(base, env_seed)
                setup_times.append(time.perf_counter() - t0)
                setup_cpu.append(_cpu_s() - cpu0)
            if recorder is not None:
                recorder.set_phase("rounds")
            log.measuring = True
            pass_walls, latencies = [], []
            cpu0 = _cpu_s()
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                for key, config in cells:
                    latencies += _run_cell(
                        f"seed {env_seed} {key}", config, env_seed,
                        expected[key], exact, tally, log,
                    )
                pass_walls.append(time.perf_counter() - pass_start)
                elapsed = time.perf_counter() - start
                # A failing program may never time enough rounds; its run
                # ends with the time box and reports correct=false.
                if elapsed >= seconds and (len(latencies) >= MIN_ROUNDS or tally.failed):
                    break
            measured_s = time.perf_counter() - start
            measured_cpu = _cpu_s() - cpu0
            log.measuring = False
        environment.clear_environment_cache()
        worker_totals, worker_dumps = {}, 0
        if recorder is not None:
            recorder.drain()
            worker_totals, worker_dumps = read_spool(spool)
    finally:
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)

    if not latencies:
        raise RuntimeError("no reviewed round completed; see the errors above")
    passes = len(pass_walls)
    rounds = len(log.rounds)
    setup_s = statistics.median(setup_times)
    end_to_end = {
        "wall_s": setup_s + statistics.median(pass_walls),
        "setup_s": setup_s,
        "rounds_per_s": rounds / measured_s,
        "round_ms_p50": 1e3 * statistics.median(latencies),
        "round_ms_p90": 1e3 * stats.percentile(
            latencies, 90, min_tail=10 if len(latencies) >= MIN_ROUNDS else 0
        ),
        "cpu_s": statistics.median(setup_cpu) + measured_cpu / passes,
        "peak_rss_mb": _peak_rss_mb(),
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "world_seed": env_seed,
        "seconds": seconds,
        "trace": trace,
        "host": host,
        "config": {
            "base": dataclasses.asdict(base),
            # Each cell as its differences from the base config.
            "cells": {
                key: {
                    field: value
                    for field, value in dataclasses.asdict(config).items()
                    if getattr(base, field) != getattr(config, field)
                }
                for key, config in cells
            },
        },
        "reference_exact": exact,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_rate": tally.fail_rate,
        "failures": tally.reasons,
        "passes": passes,
        "scenario_rounds": rounds,
        "round_samples": len(latencies),
        "measured_s": measured_s,
        "pass_walls_s": pass_walls,
        "round_latencies_ms": [round(1e3 * x, 3) for x in latencies],
        "setup_times_s": setup_times,
        "end_to_end": end_to_end,
    }
    if recorder is not None:
        parent = recorder.totals.get("rounds", {})
        combined: dict = {}
        merge_totals(combined, parent)
        merge_totals(combined, worker_totals.get("rounds", {}))
        record["per_layer"] = metrics.per_layer_metrics(
            combined, recorder.totals.get("setup", {}), passes, rounds,
            log.transport_bytes, log.retries,
        )
        parent_self = metrics.self_shares(parent, passes)
        record["layer_self_s"] = {
            "parent": parent_self,
            "workers": metrics.self_shares(worker_totals.get("rounds", {}), passes),
            "round_time_s": parent.get("simulation.run_round", {}).get("busy_ns", 0) * 1e-9 / passes,
            "measured_per_pass_s": measured_s / passes,
            "coverage": sum(parent_self.values()) / (measured_s / passes),
        }
        record["worker_dumps"] = worker_dumps
        record["spans"] = {"parent": parent, "workers": worker_totals.get("rounds", {})}
    return record


def _final_line(record: dict, trace: bool) -> dict:
    if trace:
        values = {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, unit, final in metrics.PER_LAYER
            if final
        }
    else:
        values = {
            name: {"value": record["end_to_end"][name], "unit": unit}
            for name, unit in metrics.END_TO_END
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import repro.experiments.scenarios
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from src/: {exc}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.experiments.scenarios.__file__).resolve().parents:
        print("perfbench: repro was imported from outside this checkout's src/",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_children()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    artefact = OUT_DIR / (
        f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    )
    artefact.write_text(json.dumps(record))
    print_record(record)
    print(json.dumps(_final_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
