"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import pytest

from perfbench import outcomes, probes, run
from perfbench.spans import SpanRecorder, read_spool, union_ns
from perfbench.stats import percentile


class FakeClock:
    """Returns the scripted timestamps in order (thread-safe)."""

    def __init__(self, *ticks: int) -> None:
        self._ticks = iter(ticks)
        self._lock = threading.Lock()

    def __call__(self) -> int:
        with self._lock:
            return next(self._ticks)


def _totals(recorder: SpanRecorder) -> dict:
    recorder.drain()
    return recorder.totals["setup"]


# -- self-time arithmetic ------------------------------------------------
def test_nested_spans_subtract_only_direct_children():
    rec = SpanRecorder(clock=FakeClock(0, 10, 20, 30, 40, 100))
    a = rec.open("a")
    b = rec.open("b")
    c = rec.open("c")
    rec.close(c)
    rec.close(b)
    rec.close(a)
    t = _totals(rec)
    assert (t["a"]["busy_ns"], t["a"]["self_ns"]) == (100, 70)
    assert (t["b"]["busy_ns"], t["b"]["self_ns"]) == (30, 20)
    assert (t["c"]["busy_ns"], t["c"]["self_ns"]) == (10, 10)


def test_sibling_spans_both_count_against_the_parent():
    rec = SpanRecorder(clock=FakeClock(0, 10, 30, 50, 80, 100))
    a = rec.open("a")
    for _ in range(2):
        rec.close(rec.open("child"))
    rec.close(a)
    t = _totals(rec)
    assert t["a"]["self_ns"] == 100 - 20 - 30
    assert (t["child"]["n"], t["child"]["busy_ns"]) == (2, 50)


def test_same_name_reentry_counts_once():
    rec = SpanRecorder(clock=FakeClock(0, 10))
    outer = rec.open("x")
    assert rec.open("x") is None
    rec.close(outer)
    assert _totals(rec)["x"]["n"] == 1


def test_union_merges_overlaps_and_clips_to_parent():
    assert union_ns([(10, 30), (20, 50)], 0, 100) == 40
    assert union_ns([(-5, 10), (90, 120)], 0, 100) == 20
    assert union_ns([], 0, 100) == 0


def test_spans_from_two_threads_link_to_their_own_parents():
    # Scripted interleaving; each step runs on its thread when its turn comes:
    #   t=0 A opens outer, t=10 B opens outer, t=20 B opens inner,
    #   t=30 A opens inner, t=40 B closes inner, t=50 A closes inner,
    #   t=60 B closes outer, t=70 A closes outer.
    rec = SpanRecorder(clock=FakeClock(0, 10, 20, 30, 40, 50, 60, 70))
    script = [
        ("A", "open", "a.outer"), ("B", "open", "b.outer"), ("B", "open", "b.inner"),
        ("A", "open", "a.inner"), ("B", "close", None), ("A", "close", None),
        ("B", "close", None), ("A", "close", None),
    ]
    turn = threading.Condition()
    position = [0]
    errors = []

    def worker(me: str) -> None:
        tokens = []
        try:
            for step, (who, action, name) in enumerate(script):
                if who != me:
                    continue
                with turn:
                    assert turn.wait_for(lambda: position[0] == step, timeout=10)
                if action == "open":
                    tokens.append(rec.open(name))
                else:
                    rec.close(tokens.pop())
                with turn:
                    position[0] += 1
                    turn.notify_all()
        except BaseException as exc:  # surfaced by the main thread below
            errors.append(exc)
            raise

    threads = [threading.Thread(target=worker, args=(me,)) for me in "AB"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert not errors
    t = _totals(rec)
    assert (t["a.outer"]["busy_ns"], t["a.outer"]["self_ns"]) == (70, 50)
    assert (t["a.inner"]["busy_ns"], t["a.inner"]["self_ns"]) == (20, 20)
    assert (t["b.outer"]["busy_ns"], t["b.outer"]["self_ns"]) == (50, 30)
    assert (t["b.inner"]["busy_ns"], t["b.inner"]["self_ns"]) == (20, 20)


def test_drain_refuses_open_spans():
    rec = SpanRecorder(clock=FakeClock(0))
    rec.open("a")
    with pytest.raises(RuntimeError):
        rec.drain()


def _traced_work(_):
    return sum(range(1000))


def test_forked_workers_dump_their_spans(tmp_path):
    rec = SpanRecorder(spool_dir=tmp_path)
    rec.set_phase("rounds")
    global _traced_work
    original = _traced_work
    _traced_work = probes._spanned(rec, "work", original)
    try:
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            assert list(pool.map(_traced_work, range(6))) == [499500] * 6
    finally:
        _traced_work = original
    totals, dumps = read_spool(tmp_path)
    assert dumps >= 1
    assert totals["rounds"]["work"]["n"] == 6
    assert "work" not in rec.totals.get("rounds", {})


# -- percentile selection -----------------------------------------------
def test_p90_of_100_samples_has_ten_beyond_it():
    values = list(range(100, 0, -1))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(99), 90, min_tail=9) == 89


# -- fail_rate counting ---------------------------------------------------
def _records(accepted, votes):
    return [
        SimpleNamespace(accepted=a, decision=SimpleNamespace(reject_votes=v))
        for a, v in zip(accepted, votes)
    ]


def _final_model():
    import numpy as np

    return outcomes.model_fingerprint(np.linspace(-1.0, 1.0, 17))


def _cell(monkeypatch, expected, raises=False, shm=((), ())):
    """Run ``run._run_cell`` on a fake scenario; returns (tally, latencies)."""
    records = _records([True, False, True], [0, 6, 1])
    log = probes.RoundLog(measuring=True)

    def fake_scenario(config, seed):
        if raises:
            raise RuntimeError("boom")
        log.rounds += [(0, 0.5), (1, 0.25), (2, 0.125)]
        log.final_model = _final_model()
        return SimpleNamespace(records=records)

    listings = iter([set(shm[0]), set(shm[1])])
    monkeypatch.setattr("repro.experiments.scenarios.run_stable_scenario", fake_scenario)
    monkeypatch.setattr(outcomes, "shm_segments", lambda: next(listings))
    tally = outcomes.FailTally()
    config = SimpleNamespace(defense_start=1)
    latencies = run._run_cell("cell", config, 0, expected, True, tally, log)
    return tally, latencies


def _expected():
    return outcomes.outcome_of(_records([True, False, True], [0, 6, 1]), _final_model())


def test_matching_run_does_not_fail_and_times_reviewed_rounds(monkeypatch):
    tally, latencies = _cell(monkeypatch, _expected())
    assert (tally.attempted, tally.failed, tally.fail_rate) == (1, 0, 0.0)
    assert latencies == [0.25, 0.125]  # rounds before defense_start are not timed


@pytest.mark.parametrize(
    "field, value",
    [("accepted", "111"), ("reject_votes", [0, 5, 1]), ("model_sha256", "0" * 64)],
)
def test_injected_outcome_mismatch_counts_as_failed(monkeypatch, field, value):
    expected = {**_expected(), field: value}
    tally, _ = _cell(monkeypatch, expected)
    assert (tally.attempted, tally.failed, tally.fail_rate) == (1, 1, 1.0)


def test_raising_and_leaking_runs_count_as_failed(monkeypatch):
    assert _cell(monkeypatch, _expected(), raises=True)[0].failed == 1
    leaked, _ = _cell(monkeypatch, _expected(), shm=((), ("bfl-1-x-3",)))
    assert leaked.failed == 1 and "dev/shm" in leaked.reasons[0]


def test_fail_rate_over_several_runs():
    tally = outcomes.FailTally()
    for problems in ([], ["differs"], [], []):
        tally.record("run", problems)
    assert (tally.attempted, tally.failed, tally.fail_rate) == (4, 1, 0.25)


def test_summary_comparison_tolerates_last_bit_noise_only():
    expected = _expected()
    near = {**expected, "model_sha256": "x",
            "model_summary": [v * (1 + 1e-12) for v in expected["model_summary"]]}
    far = {**near, "model_summary": [v * 1.01 + 1 for v in expected["model_summary"]]}
    assert outcomes.differences(near, expected, exact_model=False) == []
    assert outcomes.differences(near, expected, exact_model=True) != []
    assert outcomes.differences(far, expected, exact_model=False) != []


# -- probes -------------------------------------------------------------
def test_probes_are_removed_after_the_run():
    from repro.fl.simulation import FederatedSimulation
    from repro.nn.network import Network

    before = (FederatedSimulation.run_round, Network.forward)
    with probes.installed(probes.RoundLog(), SpanRecorder()):
        assert FederatedSimulation.run_round is not before[0]
        assert Network.forward is not before[1]
    assert (FederatedSimulation.run_round, Network.forward) == before
