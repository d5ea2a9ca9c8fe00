"""Correctness: per-run outcomes, stored references and the fail tally.

A *run* is one (seed, cell) scenario.  Its outcome is the per-round
accept/reject decision with the reject-vote count, plus the SHA-256 of the
final committed model.  A run fails if it raises, if it leaves a
``/dev/shm`` segment of the model store behind, or if its outcome differs
from the stored reference.

References are made by ``make_reference.py`` with the in-process engine,
so every pool run is also a cross-engine check.  When the host's BLAS
core, core count or numpy version differ from the reference host's, floating-point
results may legitimately differ in the last bits; the final model is then
compared by three float64 summaries within a relative tolerance instead
of by hash (decisions and vote counts are still compared exactly).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SUMMARY_RTOL = 1e-6
_SHM_DIR = Path("/dev/shm")


def model_fingerprint(flat) -> dict:
    """SHA-256 of the weight bytes plus three float64 summaries."""
    weights = np.arange(1, flat.size + 1, dtype=np.float64) / flat.size
    return {
        "model_sha256": hashlib.sha256(flat.tobytes()).hexdigest(),
        "model_summary": [
            float(flat.sum()), float((flat * flat).sum()), float((flat * weights).sum()),
        ],
    }


def outcome_of(records, final_model: dict) -> dict:
    return {
        "accepted": "".join("1" if r.accepted else "0" for r in records),
        "reject_votes": [r.decision.reject_votes for r in records],
        **final_model,
    }


def differences(outcome: dict, expected: dict, exact_model: bool) -> list[str]:
    """Why ``outcome`` does not match ``expected`` (empty when it does)."""
    problems = []
    if outcome["accepted"] != expected["accepted"]:
        problems.append("accept/reject sequence differs")
    if outcome["reject_votes"] != expected["reject_votes"]:
        problems.append("reject-vote counts differ")
    if exact_model:
        if outcome["model_sha256"] != expected["model_sha256"]:
            problems.append("final model SHA-256 differs")
    elif not all(
        math.isclose(a, b, rel_tol=SUMMARY_RTOL, abs_tol=1e-9)
        for a, b in zip(outcome["model_summary"], expected["model_summary"])
    ):
        problems.append("final model summaries differ beyond tolerance")
    return problems


def load_reference(world: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{world}.json").read_text())


def same_numerics(reference_host: dict, host: dict) -> bool:
    """Whether bit-identical results can be expected on ``host``."""
    keys = ("blas_core", "nproc", "numpy")
    return all(reference_host.get(k) == host.get(k) for k in keys)


def shm_segments() -> set[str] | None:
    """Model-store segments present in ``/dev/shm`` (None if unobservable)."""
    from repro.fl.model_store import SHM_NAME_PREFIX

    if not _SHM_DIR.is_dir():
        return None
    return {n for n in os.listdir(_SHM_DIR) if n.startswith(f"{SHM_NAME_PREFIX}-")}


@dataclass
class FailTally:
    """Runs attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, run: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{run}: {'; '.join(problems)}")

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
