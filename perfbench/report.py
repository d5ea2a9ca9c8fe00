"""Report from recorded benchmark artefacts, without re-running anything.

Usage (from the repository root)::

    python3 perfbench/report.py                       # perfbench/out/, else perfbench/recorded/
    python3 perfbench/report.py --from perfbench/recorded

For each workload it prints every end-to-end metric by name and unit
(median and quartiles over the recorded untraced runs, with the spread as
a share of the median), the fail rate, then the per-layer self-time table
of the traced runs: where the time of a workload pass went, per layer, in
the parent process (the round's critical path) and in the pool workers,
and the tracing overhead (traced over untraced ``wall_s`` minus set-up).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[0] = str(HERE.parent)  # run as a script: import the harness as a package

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_record(record: dict) -> None:
    """Human-readable summary of one run (printed before the result line)."""
    host = record["host"]
    print(
        f"workload {record['workload']}  seed {record['seed']} "
        f"(world seed {record['world_seed']})  trace {int(record['trace'])}  "
        f"passes {record['passes']}  round samples {record['round_samples']}"
    )
    print(
        f"host nproc={host['nproc']} blas={host['blas_vendor']} {host['blas_version']} "
        f"core={host.get('blas_core')} threads={host.get('blas_threads')} "
        f"python={host['python']} numpy={host['numpy']}"
    )
    for name, unit in END_TO_END:
        print(f"  {name:<14} {_fmt(record['end_to_end'][name]):>12} {unit}")
    print(
        f"  {'fail_rate':<14} {_fmt(record['fail_rate']):>12} "
        f"({record['failed']}/{record['attempted']} runs)"
    )
    for reason in record["failures"]:
        print(f"  FAILED {reason}")
    if record.get("per_layer"):
        _print_layers([record])


def _print_layers(traced: list[dict]) -> None:
    def median_of(fn):
        return statistics.median(fn(r["layer_self_s"]) for r in traced)

    first = traced[0]
    print(f"  per-layer self time per pass ({len(traced)} traced run(s); "
          f"measured {median_of(lambda s: s['measured_per_pass_s']):.3f} s/pass, "
          f"of which rounds {median_of(lambda s: s['round_time_s']):.3f} s)")
    print(f"    {'layer':<14} {'parent s':>10} {'share':>7} {'workers s':>10}")
    layers = {layer for r in traced for side in ("parent", "workers")
              for layer in r["layer_self_s"][side]}
    rows = [
        (
            layer,
            median_of(lambda s: s["parent"].get(layer, 0.0)),
            median_of(lambda s: s["parent"].get(layer, 0.0) / s["measured_per_pass_s"]),
            median_of(lambda s: s["workers"].get(layer, 0.0)),
        )
        for layer in layers
    ]
    for layer, parent, share, workers in sorted(rows, key=lambda row: -row[1]):
        print(f"    {layer:<14} {parent:>10.4f} {share:>7.1%} {workers:>10.4f}")
    coverage = statistics.median(r["layer_self_s"]["coverage"] for r in traced)
    print(f"    coverage of measured wall time by layer self times: {coverage:.1%}")
    if first["config"]["base"]["workers"] >= 2:
        if not first.get("worker_dumps"):
            print("    workers: no worker spans collected; parallel.*.self_s stands for them")
        else:
            print(f"    workers: spans from {first['worker_dumps']} worker process(es)")
    print("  per-layer metrics (median over traced runs, per pass):")
    for name, unit, final in PER_LAYER:
        value = statistics.median(r["per_layer"][name] for r in traced)
        note = "" if final else "  (report only)"
        print(f"    {name:<42} {_fmt(value):>12} {unit}{note}")


def _load(directory: Path) -> list[dict]:
    """Records from ``*.json`` files (one each) and ``*.jsonl`` files (one per line)."""
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    for path in sorted(directory.glob("*.jsonl")):
        records += [json.loads(line) for line in path.read_text().splitlines() if line]
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--from", dest="source", type=Path, default=None,
                        help="artefact directory (default: perfbench/out, else perfbench/recorded)")
    args = parser.parse_args(argv)
    source = args.source
    if source is None:
        source = HERE / "out" if _load(HERE / "out") else HERE / "recorded"
    records = _load(source)
    if not records:
        print(f"no artefacts in {source}", file=sys.stderr)
        return 1
    print(f"artefacts: {source}")
    host = records[-1]["host"]
    print(f"host: {json.dumps(host, sort_keys=True)}")
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        print(f"\n== {workload}: {runs[0]['why']}")
        if plain:
            seeds = sorted({r["seed"] for r in plain})
            print(f"  {len(plain)} untraced run(s), seeds {seeds}")
            print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
            for name, unit in END_TO_END:
                values = [r["end_to_end"][name] for r in plain]
                med = statistics.median(values)
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    spread = f"{(q3 - q1) / med:.1%}"
                else:
                    q1 = q3 = med
                    spread = "-"
                print(f"  {name:<14} {_fmt(med):>12} {_fmt(q1):>12} {_fmt(q3):>12} {spread:>8} {unit}")
            attempted = sum(r["attempted"] for r in plain)
            failed = sum(r["failed"] for r in plain)
            print(f"  {'fail_rate':<14} {_fmt(failed / attempted):>12} ({failed}/{attempted} runs)")
            samples = statistics.median(r["round_samples"] for r in plain)
            print(f"  round samples per run (median): {samples:g}")
        if traced:
            _print_layers(traced)
            if plain:
                overhead = statistics.median(
                    r["end_to_end"]["wall_s"] - r["end_to_end"]["setup_s"] for r in traced
                ) / statistics.median(
                    r["end_to_end"]["wall_s"] - r["end_to_end"]["setup_s"] for r in plain
                )
                print(f"  tracing overhead (traced / untraced pass wall): {overhead:.3f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
