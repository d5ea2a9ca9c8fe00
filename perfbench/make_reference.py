"""Write the stored reference outcomes the benchmark checks runs against.

Usage (from the repository root)::

    python3 perfbench/make_reference.py                  # every world, every stored seed
    python3 perfbench/make_reference.py --world wide --seeds 0 1

References are computed with the in-process engine (``workers=0``), so the
pool workloads are checked across engines.  Regenerate them only when a
change is meant to alter the committed trajectory, and say so.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script: import the harness as a package and the program
    # under test from this checkout's src/.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench import hostinfo, probes  # noqa: E402
from perfbench.outcomes import REFERENCE_DIR, outcome_of  # noqa: E402
from perfbench.workloads import HELD_OUT_SEED, TUNING_SEEDS, WORKLOADS  # noqa: E402


def reference_outcomes(workload, seed: int) -> dict:
    """``{cell key: outcome}`` of one seed, computed in-process."""
    from repro.experiments.scenarios import run_stable_scenario

    sequential = dataclasses.replace(workload, workers=0)
    log = probes.RoundLog(measuring=True)
    outcomes = {}
    with probes.installed(log, None):
        for key, config in sequential.cells():
            result = run_stable_scenario(config, seed)
            outcomes[key] = outcome_of(result.records, log.final_model)
    return outcomes


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.environment import clear_environment_cache

    worlds = sorted({w.world for w in WORKLOADS.values()})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", choices=worlds, action="append")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[*TUNING_SEEDS, HELD_OUT_SEED])
    args = parser.parse_args(argv)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for world in args.world or worlds:
        workload = next(w for w in WORKLOADS.values() if w.world == world)
        path = REFERENCE_DIR / f"{world}.json"
        reference = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
        reference["host"] = hostinfo.fingerprint()
        for seed in args.seeds:
            reference["seeds"][str(seed)] = reference_outcomes(workload, seed)
            clear_environment_cache()
            print(f"{world} seed {seed}: done", flush=True)
        # One line per seed keeps the file reviewable in a diff.
        seeds = sorted(reference["seeds"].items(), key=lambda kv: int(kv[0]))
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds)
        path.write_text(
            f'{{\n "host": {json.dumps(reference["host"])},\n "seeds": {{\n{rows}\n }}\n}}\n'
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
