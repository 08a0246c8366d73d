"""Correctness gate over the reports the benchmark makes the CLI write.

A report passes when
  - aggregates.flagged is empty;
  - every aggregate whose oracle is exactly 0 or 1 equals it exactly;
  - the boolean rates recomputed from the per_trial records equal the
    reported ones (so a record doctored after aggregation is caught);
  - the trial count and trial indices match the request.
The per_trial digest returned by `digest` must also be identical across
repetitions with the same seed; the caller compares those.
"""

from __future__ import annotations

import hashlib
import json

# aggregate name -> per-trial boolean field it counts; records where the
# field is None (e.g. recovery after a detected forgery) are not counted
_RECOMPUTED = {
    "sum_correct_rate": "sum_correct",
    "recovery_success_rate": "recovery_success",
    "detection_rate": "detected",
}


def digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON of the per_trial block."""
    text = json.dumps(doc["per_trial"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(doc: dict, trials: int) -> list[str]:
    """Every reason the report fails the gate; empty when it passes."""
    problems = []
    aggregates = doc["aggregates"]
    per_trial = doc["per_trial"]
    if aggregates.get("flagged"):
        problems.append(f"flagged aggregates: {aggregates['flagged']}")
    if doc["params"]["trials"] != trials or len(per_trial) != trials:
        problems.append(f"asked for {trials} trials, report has params.trials="
                        f"{doc['params']['trials']} and {len(per_trial)} records")
    elif [r["trial"] for r in per_trial] != list(range(trials)):
        problems.append("per_trial records are not trials 0..trials-1 in order")
    for name, entry in aggregates.items():
        if not isinstance(entry, dict):
            continue
        oracle = entry.get("oracle")
        if oracle in (0.0, 1.0) and entry["n"] > 0 and entry["value"] != oracle:
            problems.append(f"{name} = {entry['value']!r}, exact oracle {oracle!r}")
        field = _RECOMPUTED.get(name)
        if field is None:
            continue
        values = [r[field] for r in per_trial if r.get(field) is not None]
        n = len(values)
        value = sum(1 for v in values if v) / n if n else None
        if n != entry["n"] or value != entry["value"]:
            problems.append(f"{name} reported {entry['value']!r} over {entry['n']}, "
                            f"per_trial gives {value!r} over {n}")
    return problems
