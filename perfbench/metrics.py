"""The benchmark's metrics, and the per-layer ones derived from span totals.

Per-layer names are ``<module>.<entry>.<quantity>``: ``n`` counts calls, ``busy_s``
is inclusive time and ``self_s`` exclusive time.  Counts and times are per
workload pass (one regeneration of the workload's cells), summed over the
parent process and the pool workers, so runs that fit a different number
of passes into their time box stay comparable.  Environment figures are
the set-up phase's totals.
"""

from __future__ import annotations

#: (metric, unit) of a ``--trace 0`` run, as listed in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (metric, unit, reported in the benchmark's final JSON line).  Times that
#: are structurally zero on some workload (the layer never runs there) stay
#: in the report and the artefact but out of the final line, where a time
#: that reads the same on every run would be taken for a fake.
PER_LAYER = (
    ("environment.build_environment.n", "count", True),
    ("environment.build_environment.busy_s", "s", True),
    ("simulation.run_round.n", "count", True),
    ("simulation.run_round.self_s", "s", True),
    ("parallel.run_clients.n", "count", True),
    ("parallel.run_clients.busy_s", "s", True),
    ("parallel.run_clients.self_s", "s", True),
    ("parallel.validators.n", "count", True),
    ("parallel.validators.busy_s", "s", True),
    ("parallel.validators.wait_s", "s", False),
    ("parallel.retries", "count", True),
    ("parallel.transport_bytes_per_round", "B/round", True),
    ("client.produce_update.n", "count", True),
    ("client.produce_update.busy_s", "s", True),
    ("cohort.cohort_updates.n", "count", True),
    ("cohort.cohort_updates.models", "count", True),
    ("cohort.cohort_updates.busy_s", "s", False),
    ("cohort.stacked_share", "ratio", True),
    ("nn.Network.forward.n", "count", True),
    ("nn.Network.forward.busy_s", "s", True),
    ("nn.Network.backward.n", "count", True),
    ("nn.Network.backward.busy_s", "s", True),
    ("nn.StackedNetwork.forward.n", "count", True),
    ("nn.StackedNetwork.forward.busy_s", "s", True),
    ("nn.StackedNetwork.backward.n", "count", True),
    ("nn.StackedNetwork.backward.busy_s", "s", False),
    ("nn.Network.clone.n", "count", True),
    ("nn.Network.clone.busy_s", "s", True),
    ("errors.error_profiles.n", "count", True),
    ("errors.error_profiles.models", "count", True),
    ("errors.error_profiles.busy_s", "s", True),
    ("validation.vote.n", "count", True),
    ("validation.vote.busy_s", "s", True),
    ("validation.vote.self_s", "s", True),
    ("validation.profile_reuse_ratio", "ratio", True),
    ("lof.local_outlier_factor.n", "count", True),
    ("lof.local_outlier_factor.busy_s", "s", True),
    ("lof.calls_per_vote", "calls/vote", True),
    ("baffle.review.n", "count", True),
    ("baffle.review.self_s", "s", True),
    ("baffle.record_outcome.n", "count", True),
    ("baffle.record_outcome.busy_s", "s", True),
    ("baffle.rejections", "count", True),
    ("aggregation.aggregate.n", "count", True),
    ("aggregation.aggregate.busy_s", "s", True),
    ("model_store.publish.n", "count", True),
    ("model_store.publish.busy_s", "s", True),
    ("model_store.get.n", "count", True),
    ("model_store.get.busy_s", "s", True),
    ("model_store.bytes_published_per_round", "B/round", True),
)

_NS = 1e-9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    rounds_totals: dict,
    setup_totals: dict,
    passes: int,
    rounds: int,
    transport_bytes: int,
    retries: int,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from combined (parent + worker) totals."""
    values: dict[str, float] = {}
    for name, _unit, _final in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        source = setup_totals if span.startswith("environment.") else rounds_totals
        per = 1 if span.startswith("environment.") else passes
        row = source.get(span, {})
        if quantity in ("n", "models"):
            values[name] = row.get(quantity, 0) / per
        elif quantity in ("busy_s", "self_s"):
            values[name] = row.get(quantity.replace("_s", "_ns"), 0) * _NS / per
    collect = rounds_totals.get("parallel.validators.collect", {})
    values["parallel.validators.wait_s"] = collect.get("busy_ns", 0) * _NS / passes
    values["parallel.retries"] = retries / passes
    values["parallel.transport_bytes_per_round"] = _ratio(transport_bytes, rounds)
    stacked = rounds_totals.get("cohort.cohort_updates", {}).get("models", 0)
    single = rounds_totals.get("client.produce_update", {}).get("n", 0)
    values["cohort.stacked_share"] = _ratio(stacked, stacked + single)
    profiled = rounds_totals.get("errors.error_profiles", {}).get("models", 0)
    needed = rounds_totals.get("validation.vote", {}).get("positions", 0)
    values["validation.profile_reuse_ratio"] = 1.0 - _ratio(profiled, needed) if needed else 0.0
    votes = rounds_totals.get("validation.vote", {}).get("n", 0)
    values["lof.calls_per_vote"] = _ratio(
        rounds_totals.get("lof.local_outlier_factor", {}).get("n", 0), votes
    )
    values["baffle.rejections"] = rounds_totals.get("baffle.review", {}).get("rejections", 0) / passes
    published = rounds_totals.get("model_store.publish", {}).get("bytes", 0)
    values["model_store.bytes_published_per_round"] = _ratio(published, rounds)
    return values


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_shares(totals: dict, passes: int) -> dict[str, float]:
    """Self seconds per pass, summed per layer (module)."""
    shares: dict[str, float] = {}
    for name, row in totals.items():
        if "self_ns" in row:
            layer = layer_of(name)
            shares[layer] = shares.get(layer, 0.0) + row["self_ns"] * _NS / passes
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
