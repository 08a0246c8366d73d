"""Protocol engine and seeded Monte Carlo runner for the five scenarios.

run_protocol is the one protocol skeleton. A scenario picks its rounds
(prepare_rounds or fabricate_rounds), eta (0 for the original protocol)
and channel (clean, or intercept-resend on every particle).

Each scenario executes a stack of independent trials and writes one JSON
report holding the per-trial records, aggregate rates with Wilson 95%
intervals, and exact oracle predictions where the model pins a rate
down. Aggregates landing outside a 4 sigma binomial band of their oracle
get flagged in the report.

Every trial draws its randomness from a stream derived from
(master_seed, trial_index) alone, so a report is reproducible
bit-for-bit (apart from the wall-clock duration) and any single trial
can be replayed without rerunning its predecessors.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .adversary import IqftAttackPlan, eve_intercept_resend, fabricate_rounds, recover_secret_digit
from .protocol import (
    ProtocolConfig,
    SecretString,
    check_decoys,
    compute_sum,
    encode_rounds,
    insert_decoys,
    prepare_rounds,
    validate_secrets,
)
from .verification import CheckOutcome, execute_check, select_checks

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1

SCENARIOS = {
    "honest": "original protocol, honest parties; checks digit-wise mod-d sum correctness",
    "iqft-attack": "forging dealer distributes inverse-Fourier product states and steals every digit",
    "modified-honest": "hardened protocol, honest parties; checks completeness and sum correctness",
    "modified-attack": "hardened protocol against the adaptive forging dealer; measures detection",
    "eve-decoy": "outside intercept-resend eavesdropper against the decoy transmission check",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One harness invocation: which scenario, at what sizes, how many trials."""

    scenario: str
    protocol: ProtocolConfig
    eta: int = 0
    trials: int = 1
    master_seed: int = 0
    secrets: tuple[SecretString, ...] | None = None
    fake_r: int | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(f"unknown scenario {self.scenario!r}; known: {known}")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.secrets is not None:
            validate_secrets(self.protocol, self.secrets)
        if self.fake_r is not None and not 0 <= self.fake_r < self.protocol.d:
            raise ValueError(f"fake_r {self.fake_r} out of range for d={self.protocol.d}")


@dataclass
class ReportDocument:
    """In-memory form of one report file."""

    scenario: str
    params: dict
    per_trial: list
    aggregates: dict
    oracle_predictions: dict
    schema_version: int = SCHEMA_VERSION
    tool_version: str = TOOL_VERSION
    duration_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "params": self.params,
            "per_trial": self.per_trial,
            "aggregates": self.aggregates,
            "oracle_predictions": self.oracle_predictions,
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "duration_seconds": self.duration_seconds,
        }


def derive_trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent random stream for one trial.

    The derivation is the keyed hash built into numpy's SeedSequence: the
    master seed is the entropy input and the trial index is the spawn
    key. A (master_seed, trial_index) pair always yields the same stream,
    independent of how many trials ran before it, and streams for
    different indices are statistically independent.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in 64 bits")
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    return np.random.default_rng(seq)


def wilson_interval(successes: float, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if n <= 0:
        raise ValueError(f"need a positive sample count, got n={n}")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    lo, hi = max(0.0, center - half), min(1.0, center + half)
    # at the boundaries the exact interval endpoint is the boundary itself;
    # keep it there instead of a float one ulp inside
    if successes == 0:
        lo = 0.0
    if successes == n:
        hi = 1.0
    return lo, hi


# ---------------------------------------------------------------------------
# the protocol engine


@dataclass(frozen=True)
class RunResult:
    """Everything observable about one protocol run.

    decoy_mismatches counts the failed decoys of each receiver (2..n).
    aborted means the run stopped before encoding, on a decoy error rate
    above the threshold or on a failed basis check; detected means the
    latter. results holds every participant's result string, P1's
    back-computed when the dealer forged the rounds, and recovered the
    digits the forging dealer reads off them. Both are None after an
    abort, recovered also on genuine rounds.
    """

    decoy_mismatches: dict[int, int]
    aborted: bool = False
    detected: bool = False
    checks: tuple[CheckOutcome, ...] = ()
    results: dict[int, tuple[int, ...]] | None = None
    sum_digits: tuple[int, ...] | None = None
    recovered: dict[int, tuple[int, ...]] | None = None


def _decoy_rate(mismatches: int, decoy_count: int) -> float:
    return mismatches / decoy_count if decoy_count else 0.0


def run_protocol(cfg: ProtocolConfig, eta: int, secrets, rounds, rng: np.random.Generator,
                 eve: bool = False) -> RunResult:
    """One run of the summation protocol, original (eta=0) or hardened.

    rounds are the m+eta states the dealer hands out, genuine or forged.
    With eve=True an intercept-resend eavesdropper measures every particle
    on every channel, the payload before the decoys. Every receiver then
    checks its decoys and the run aborts if any error rate exceeds the
    threshold. Next eta positions are burnt on basis checks, aborting at
    the first failure, and the m surviving rounds carry the secrets.
    """
    validate_secrets(cfg, secrets)
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    total = cfg.m + eta
    if len(rounds) != total:
        raise ValueError(f"got {len(rounds)} rounds, need m+eta={total}")
    receivers = range(2, cfg.n + 1)

    decoy_regs, decoy_recs = insert_decoys(cfg, rng, payload_len=total)
    if eve:
        for i in receivers:
            particles = [(state.register, state.owners.index(i)) for state in rounds]
            resent = eve_intercept_resend(particles + [(reg, 0) for reg in decoy_regs[i]], rng)
            rounds = [replace(state, register=reg) for state, reg in zip(rounds, resent)]
            decoy_regs[i] = resent[total:]
    mismatches = {i: check_decoys(decoy_recs[i], decoy_regs[i], rng) for i in receivers}
    if any(_decoy_rate(c, cfg.decoy_count) > cfg.error_threshold for c in mismatches.values()):
        return RunResult(mismatches, aborted=True)

    checks: list[CheckOutcome] = []
    for assignment in select_checks(cfg, eta, rng):
        checks.append(execute_check(rounds[assignment.position], assignment, rng))
        if not checks[-1].passed:
            return RunResult(mismatches, aborted=True, detected=True, checks=tuple(checks))

    checked = {c.assignment.position for c in checks}
    surviving = [state for pos, state in enumerate(rounds) if pos not in checked]
    results = encode_rounds(surviving, secrets, rng)
    recovered = None
    if 1 not in results:
        # the forging dealer publishes R1 = k_1 - (n-1) r, which cancels
        # the fabrication offsets in the sum, and subtracts r from the rest
        r = [state.r for state in surviving]
        results[1] = [(k - (cfg.n - 1) * rj) % cfg.d for k, rj in zip(secrets[0].digits, r)]
        recovered = {i: tuple(recover_secret_digit(v, rj, cfg.d) for v, rj in zip(results[i], r))
                     for i in receivers}
    rows = {i: tuple(results[i]) for i in range(1, cfg.n + 1)}
    return RunResult(mismatches, checks=tuple(checks), results=rows,
                     sum_digits=tuple(compute_sum(rows.values(), cfg.d)), recovered=recovered)


# ---------------------------------------------------------------------------
# exact oracle predictions


def eve_per_decoy_error_rate(d: int) -> float:
    """Chance one intercept-resent decoy fails its check: (1/2)(1 - 1/d)."""
    return 0.5 * (1.0 - 1.0 / d)


def modified_per_check_pass_probability(d: int, n: int) -> float:
    """Chance the forging dealer survives one basis check: 1/2 + d^(1-n)/2.

    Computational checks always pass (the dealer announces -(n-1)r mod d
    first), Fourier-image checks pass only when all n-1 honest results,
    each uniform, hit the dealer's announced value.
    """
    return 0.5 + 0.5 * float(d) ** (1 - n)


def modified_detection_probability(d: int, n: int, eta: int) -> float:
    """Chance at least one of eta independent checks fails on the dealer."""
    return 1.0 - modified_per_check_pass_probability(d, n) ** eta


def _binom_cdf(k: int, n: int, q: float) -> float:
    # exact tail sum, fine at decoy-count sizes
    if k < 0:
        return 0.0
    k = min(k, n)
    return sum(math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(k + 1))


def eve_detection_probability(d: int, n: int, decoy_count: int, threshold: float) -> float:
    """Chance some receiver's decoy error rate exceeds the threshold under Eve."""
    q = eve_per_decoy_error_rate(d)
    allowed = math.floor(threshold * decoy_count + 1e-12)
    pass_one = _binom_cdf(allowed, decoy_count, q)
    return 1.0 - pass_one ** (n - 1)


# ---------------------------------------------------------------------------
# per-trial runners


def _trial_secrets(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[SecretString, ...]:
    if cfg.secrets is not None:
        return cfg.secrets
    p = cfg.protocol
    return tuple(SecretString.random(p.d, p.m, rng) for _ in range(p.n))


def _trial_plan(cfg: ScenarioConfig, rounds: int, rng: np.random.Generator) -> IqftAttackPlan:
    if cfg.fake_r is not None:
        return IqftAttackPlan((cfg.fake_r,) * rounds)
    return IqftAttackPlan.uniform(cfg.protocol.d, rounds, rng)


def _secrets_list(secrets) -> list[list[int]]:
    return [list(s.digits) for s in secrets]


def _rows(by_participant, n: int) -> list[list[int]] | None:
    if by_participant is None:
        return None
    return [list(by_participant[i]) for i in range(2, n + 1)]


def _sum_correct(p: ProtocolConfig, secrets, result: RunResult) -> bool | None:
    if result.sum_digits is None:
        return None
    return list(result.sum_digits) == compute_sum([s.digits for s in secrets], p.d)


def _recovery_success(p: ProtocolConfig, secrets, result: RunResult) -> bool | None:
    if result.recovered is None:
        return None
    return all(result.recovered[i] == tuple(secrets[i - 1].digits) for i in range(2, p.n + 1))


def _decoy_rates(p: ProtocolConfig, result: RunResult) -> list[float]:
    return [_decoy_rate(result.decoy_mismatches[i], p.decoy_count) for i in range(2, p.n + 1)]


def _check_dict(outcome) -> dict:
    a = outcome.assignment
    return {
        "position": a.position,
        "chooser": a.chooser,
        "basis": a.basis.value,
        "announced": list(outcome.announced),
        "passed": outcome.passed,
    }


def _honest_record(p, t, secrets, plan, result) -> dict:
    return {
        "trial": t,
        "secrets": _secrets_list(secrets),
        "sum": list(result.sum_digits),
        "sum_correct": _sum_correct(p, secrets, result),
    }


def _iqft_attack_record(p, t, secrets, plan, result) -> dict:
    return {
        "trial": t,
        "secrets": _secrets_list(secrets),
        "fake_r": list(plan.r_choices),
        "announced": _rows(result.results, p.n),
        "recovered": _rows(result.recovered, p.n),
        "recovery_success": _recovery_success(p, secrets, result),
        "decoy_error_rates": _decoy_rates(p, result),
        "announced_sum": list(result.sum_digits),
        "sum_correct": _sum_correct(p, secrets, result),
    }


def _modified_honest_record(p, t, secrets, plan, result) -> dict:
    return {
        "trial": t,
        "secrets": _secrets_list(secrets),
        "checks": [_check_dict(oc) for oc in result.checks],
        "checks_passed": all(oc.passed for oc in result.checks),
        "sum": list(result.sum_digits),
        "sum_correct": _sum_correct(p, secrets, result),
    }


def _modified_attack_record(p, t, secrets, plan, result) -> dict:
    return {
        "trial": t,
        "secrets": _secrets_list(secrets),
        "fake_r": list(plan.r_choices),
        "checks": [_check_dict(oc) for oc in result.checks],
        "checks_executed": len(result.checks),
        "detected": result.detected,
        "recovered": _rows(result.recovered, p.n),
        "recovery_success": _recovery_success(p, secrets, result),
    }


def _eve_decoy_record(p, t, secrets, plan, result) -> dict:
    return {
        "trial": t,
        "secrets": _secrets_list(secrets),
        "decoy_error_rates": _decoy_rates(p, result),
        "decoy_mismatches": sum(result.decoy_mismatches.values()),
        "decoys_checked": (p.n - 1) * p.decoy_count,
        "detected": result.aborted,
        "sum_correct": _sum_correct(p, secrets, result),
    }


# scenario -> (forged rounds, hardened with eta basis checks, Eve on the
# channel, record builder)
_SCENARIO_RUNS = {
    "honest": (False, False, False, _honest_record),
    "iqft-attack": (True, False, False, _iqft_attack_record),
    "modified-honest": (False, True, False, _modified_honest_record),
    "modified-attack": (True, True, False, _modified_attack_record),
    "eve-decoy": (False, False, True, _eve_decoy_record),
}


def _run_trial(cfg: ScenarioConfig, t: int, rng: np.random.Generator) -> tuple[dict, int]:
    """Draw secrets, then any forging plan; return record and decoy mismatches."""
    p = cfg.protocol
    forged, hardened, eve, build = _SCENARIO_RUNS[cfg.scenario]
    eta = cfg.eta if hardened else 0
    secrets = _trial_secrets(cfg, rng)
    plan = _trial_plan(cfg, p.m + eta, rng) if forged else None
    rounds = fabricate_rounds(p, plan) if forged else prepare_rounds(p, count=p.m + eta)
    result = run_protocol(p, eta, secrets, rounds, rng, eve=eve)
    return build(p, t, secrets, plan, result), sum(result.decoy_mismatches.values())


# ---------------------------------------------------------------------------
# aggregation and reporting


def _rate_entry(successes, n: int, oracle: float | None = None) -> dict:
    if n == 0:
        entry: dict = {"value": None, "n": 0, "wilson_95": None}
        if oracle is not None:
            entry["oracle"] = oracle
            entry["within_4_sigma"] = None
        return entry
    value = successes / n
    lo, hi = wilson_interval(successes, n)
    entry = {"value": value, "n": n, "wilson_95": [lo, hi]}
    if oracle is not None:
        sigma = math.sqrt(oracle * (1.0 - oracle) / n)
        entry["oracle"] = oracle
        entry["within_4_sigma"] = bool(abs(value - oracle) <= 4.0 * sigma + 1e-12)
    return entry


def _aggregate(cfg: ScenarioConfig, per_trial: list, decoy_mismatches: int) -> tuple[dict, dict]:
    p = cfg.protocol
    trials = cfg.trials
    decoys_checked = trials * (p.n - 1) * p.decoy_count
    aggregates: dict = {}
    predictions: dict = {}
    if cfg.scenario == "honest":
        wins = sum(1 for r in per_trial if r["sum_correct"])
        aggregates["sum_correct_rate"] = _rate_entry(wins, trials, oracle=1.0)
        predictions["sum_correct_rate"] = 1.0
    elif cfg.scenario == "iqft-attack":
        wins = sum(1 for r in per_trial if r["recovery_success"])
        aggregates["recovery_success_rate"] = _rate_entry(wins, trials, oracle=1.0)
        aggregates["mean_decoy_error_rate"] = _rate_entry(decoy_mismatches, decoys_checked, oracle=0.0)
        predictions["recovery_success_rate"] = 1.0
        predictions["mean_decoy_error_rate"] = 0.0
    elif cfg.scenario == "modified-honest":
        wins = sum(1 for r in per_trial if r["sum_correct"])
        aggregates["sum_correct_rate"] = _rate_entry(wins, trials, oracle=1.0)
        checks = sum(len(r["checks"]) for r in per_trial)
        passed = sum(1 for r in per_trial for c in r["checks"] if c["passed"])
        aggregates["check_pass_rate"] = _rate_entry(passed, checks, oracle=1.0)
        predictions["sum_correct_rate"] = 1.0
        predictions["check_pass_rate"] = 1.0
    elif cfg.scenario == "modified-attack":
        det = sum(1 for r in per_trial if r["detected"])
        oracle_det = modified_detection_probability(p.d, p.n, cfg.eta)
        aggregates["detection_rate"] = _rate_entry(det, trials, oracle=oracle_det)
        undetected = [r for r in per_trial if not r["detected"]]
        rec = sum(1 for r in undetected if r["recovery_success"])
        aggregates["recovery_success_rate"] = _rate_entry(rec, len(undetected), oracle=1.0)
        predictions["per_check_pass_probability"] = modified_per_check_pass_probability(p.d, p.n)
        predictions["detection_rate"] = oracle_det
        predictions["recovery_success_rate"] = 1.0
    else:  # eve-decoy
        det = sum(1 for r in per_trial if r["detected"])
        oracle_det = eve_detection_probability(p.d, p.n, p.decoy_count, p.error_threshold)
        aggregates["detection_rate"] = _rate_entry(det, trials, oracle=oracle_det)
        q = eve_per_decoy_error_rate(p.d)
        aggregates["mean_decoy_error_rate"] = _rate_entry(decoy_mismatches, decoys_checked, oracle=q)
        predictions["per_decoy_error_rate"] = q
        predictions["detection_rate"] = oracle_det
    flagged = [name for name, entry in aggregates.items()
               if isinstance(entry, dict) and entry.get("within_4_sigma") is False]
    aggregates["flagged"] = flagged
    return aggregates, predictions


def _params_dict(cfg: ScenarioConfig) -> dict:
    p = cfg.protocol
    return {
        "d": p.d,
        "n": p.n,
        "m": p.m,
        "decoy_count": p.decoy_count,
        "error_threshold": p.error_threshold,
        "eta": cfg.eta,
        "trials": cfg.trials,
        "master_seed": cfg.master_seed,
        "secrets": _secrets_list(cfg.secrets) if cfg.secrets is not None else None,
        "fake_r": cfg.fake_r,
    }


def run_scenario(cfg: ScenarioConfig) -> ReportDocument:
    """Run every trial of the scenario and assemble the report.

    Trials are independent by construction (each gets its own derived
    stream), so the per-trial records depend only on the configuration
    and the master seed, never on execution order or timing.
    """
    t0 = time.perf_counter()
    per_trial, mismatches = [], 0
    for t in range(cfg.trials):
        record, count = _run_trial(cfg, t, derive_trial_stream(cfg.master_seed, t))
        per_trial.append(record)
        mismatches += count
    aggregates, predictions = _aggregate(cfg, per_trial, mismatches)
    return ReportDocument(
        scenario=cfg.scenario,
        params=_params_dict(cfg),
        per_trial=per_trial,
        aggregates=aggregates,
        oracle_predictions=predictions,
        duration_seconds=time.perf_counter() - t0,
    )


def write_report(doc: ReportDocument, path) -> None:
    """Serialize one report as indented JSON.

    Refuses to write into a missing directory so a typo cannot silently
    drop the report; nothing is created on failure.
    """
    path = Path(path)
    if not path.parent.exists():
        raise FileNotFoundError(f"output directory {path.parent} does not exist")
    text = json.dumps(doc.to_dict(), indent=2)
    path.write_text(text + "\n")
