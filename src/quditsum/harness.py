"""Protocol engine and seeded Monte Carlo runner for the five scenarios.

run_protocol is the one protocol skeleton. A scenario picks its rounds
(prepare_rounds or fabricate_rounds), eta (0 for the original protocol)
and channel (clean, or intercept-resend on every particle).

A scenario's JSON report is made from run_protocol's records alone: each
gives one per_trial line and, through _COUNTS, its share of every rate.
Each rate carries a Wilson 95% interval and its exact oracle; a rate
outside the oracle's exact binomial band (either tail below the
one-sided mass of 4 sigma) is flagged in the report.

Every trial draws its randomness from a stream derived from
(master_seed, trial_index) alone, so a report is reproducible
bit-for-bit (apart from the wall-clock duration) and any single trial
can be replayed without rerunning its predecessors.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversary import eve_intercept_resend, fabricate_rounds, recover_secret_digit
from .protocol import (
    ProtocolConfig,
    check_decoys,
    compute_sum,
    encode_rounds,
    insert_decoys,
    prepare_rounds,
    read_out,
    require_int,
    validate_secrets,
)
from .verification import check_rotations, execute_check, select_checks

TOOL_VERSION = "0.2.0"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    """How a scenario's trials run and what its report holds.

    The dealer forges the rounds (forged), eta extra rounds are burnt on
    basis checks (hardened), an intercept-resend eavesdropper sits on
    every channel (eve). record lists the per_trial keys after trial and
    secrets, aggregates the rates and predictions the oracle_predictions
    keys, each in report order.
    """

    description: str
    record: tuple[str, ...]
    aggregates: tuple[str, ...]
    predictions: tuple[str, ...]
    forged: bool = False
    hardened: bool = False
    eve: bool = False


SCENARIOS = {
    "honest": Scenario(
        "original protocol, honest parties; checks digit-wise mod-d sum correctness",
        record=("sum", "sum_correct"),
        aggregates=("sum_correct_rate",),
        predictions=("sum_correct_rate",)),
    "iqft-attack": Scenario(
        "forging dealer distributes inverse-Fourier product states and steals every digit",
        record=("fake_r", "announced", "recovered", "recovery_success", "decoy_error_rates",
                "announced_sum", "sum_correct"),
        aggregates=("recovery_success_rate", "mean_decoy_error_rate"),
        predictions=("recovery_success_rate", "mean_decoy_error_rate"),
        forged=True),
    "modified-honest": Scenario(
        "hardened protocol, honest parties; checks completeness and sum correctness",
        record=("checks", "checks_passed", "sum", "sum_correct"),
        aggregates=("sum_correct_rate", "check_pass_rate"),
        predictions=("sum_correct_rate", "check_pass_rate"),
        hardened=True),
    "modified-attack": Scenario(
        "hardened protocol against the adaptive forging dealer; measures detection",
        record=("fake_r", "checks", "checks_executed", "detected", "recovered", "recovery_success"),
        aggregates=("detection_rate", "recovery_success_rate"),
        predictions=("per_check_pass_probability", "detection_rate", "recovery_success_rate"),
        forged=True, hardened=True),
    "eve-decoy": Scenario(
        "outside intercept-resend eavesdropper against the decoy transmission check",
        record=("decoy_error_rates", "decoy_mismatches", "decoys_checked", "detected", "sum_correct"),
        aggregates=("detection_rate", "mean_decoy_error_rate"),
        predictions=("per_decoy_error_rate", "detection_rate"),
        eve=True),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One harness invocation: which scenario, at what sizes, how many trials."""

    scenario: str
    protocol: ProtocolConfig
    eta: int = 0
    trials: int = 1
    master_seed: int = 0
    secrets: tuple[tuple[int, ...], ...] | None = None
    fake_r: int | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(f"unknown scenario {self.scenario!r}; known: {known}")
        for name in ("eta", "trials", "master_seed"):
            require_int(name, getattr(self, name))
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if self.secrets is not None:
            validate_secrets(self.protocol, self.secrets)
        if self.fake_r is not None:
            require_int("fake_r", self.fake_r)
            if not SCENARIOS[self.scenario].forged:
                raise ValueError(f"fake_r applies only to a forging dealer, not to {self.scenario}")
            if not 0 <= self.fake_r < self.protocol.d:
                raise ValueError(f"fake_r {self.fake_r} out of range for d={self.protocol.d}")


def derive_trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent random stream for one trial.

    The derivation is the keyed hash built into numpy's SeedSequence: the
    master seed is the entropy input and the trial index is the spawn
    key. A (master_seed, trial_index) pair always yields the same stream,
    independent of how many trials ran before it, and streams for
    different indices are statistically independent.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must lie in [0, 2**64), got {master_seed}")
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    return np.random.default_rng(seq)


def wilson_interval(successes: float, n: int) -> tuple[float, float]:
    """Wilson score interval, 95%, for a binomial proportion."""
    if n <= 0:
        raise ValueError(f"need a positive sample count, got n={n}")
    phat, z = successes / n, 1.959963984540054
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


def run_protocol(cfg: ProtocolConfig, eta: int, secrets, rounds, rng: np.random.Generator,
                 eve: bool = False) -> dict:
    """One run of the summation protocol, original (eta=0) or hardened; returns its record.

    rounds are the m+eta states the dealer hands out, genuine or forged,
    each held by P1..Pn, of d levels each. With eve=True an
    intercept-resend eavesdropper measures every particle on every
    channel, the payload before the decoys. Every receiver then checks its
    decoys and the run aborts if any error rate exceeds the threshold.
    Next eta positions are burnt on basis checks, aborting at the first
    failure, and the m surviving rounds carry the secrets. One read_out
    serves all checks and one all surviving rounds, so the checks after a
    failed one are read out too: harmless, as the run then returns and
    nothing reads its generator again.

    The record holds the secrets and every per_trial key of any scenario, as the
    report writes it. detected means the run aborted; the keys of the encoding
    step are None then, and a failed basis check is the last entry of checks.
    announced holds the rows of P2..Pn, recovered the digits a forging dealer
    reads off them when every surviving round is forged (None otherwise, as is
    the fake_r entry of a genuine round).
    """
    validate_secrets(cfg, secrets)
    require_int("eta", eta)
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    total = cfg.m + eta
    if len(rounds) != total:
        raise ValueError(f"got {len(rounds)} rounds, need m+eta={total}")
    receivers = range(2, cfg.n + 1)
    for j, state in enumerate(rounds):
        if state.d != cfg.d or state.owners != (1, *receivers):
            raise ValueError(f"round {j} does not fit d={cfg.d}, n={cfg.n}")

    decoys, expected = insert_decoys(cfg, rng)
    if eve:
        for i in receivers:
            rounds, decoys[i] = eve_intercept_resend(rounds, i, decoys[i], rng)
    mismatches = [check_decoys(expected[i], decoys[i], rng) for i in receivers]
    rates = [c / cfg.decoy_count if cfg.decoy_count else 0.0 for c in mismatches]
    detected = any(_decoys_abort(c, cfg.decoy_count, cfg.error_threshold) for c in mismatches)
    selected = [] if detected else select_checks(cfg, eta, rng)
    announced = read_out([rounds[c["position"]] for c in selected], check_rotations(cfg.d, selected), rng)
    checks = []
    for check, values in zip(selected, announced):
        checks.append(execute_check(check, values, cfg.d))
        detected = not checks[-1]["passed"]
        if detected:
            break
    record = {
        "secrets": [list(s) for s in secrets], "fake_r": [state.r for state in rounds],
        "decoy_error_rates": rates, "decoy_mismatches": sum(mismatches),
        "decoys_checked": len(mismatches) * cfg.decoy_count,
        "checks": checks, "checks_passed": all(c["passed"] for c in checks),
        "checks_executed": len(checks), "detected": detected,
        "announced": None, "recovered": None, "recovery_success": None,
        "sum": None, "announced_sum": None, "sum_correct": None,
    }
    if detected:
        return record

    checked = {c["position"] for c in checks}
    surviving = [state for pos, state in enumerate(rounds) if pos not in checked]
    results = encode_rounds(surviving, secrets, rng)
    r = [state.r for state in surviving]
    if None not in r:
        # the forging dealer subtracts r from every announced digit
        recovered = [[recover_secret_digit(v, rj, cfg.d) for v, rj in zip(results[i], r)]
                     for i in receivers]
        record.update(recovered=recovered, recovery_success=recovered == record["secrets"][1:])
    digits = compute_sum(results.values(), cfg.d)
    record.update(announced=[results[i] for i in receivers], sum=digits, announced_sum=digits,
                  sum_correct=digits == compute_sum(secrets, cfg.d))
    return record


# ---------------------------------------------------------------------------
# exact oracle predictions


def _decoys_abort(mismatches: int, decoy_count: int, threshold: float) -> bool:
    """A receiver aborts when its decoy error rate, mismatches/decoy_count, exceeds the threshold."""
    return mismatches > 0 and mismatches / decoy_count > threshold


def eve_per_decoy_error_rate(d: int) -> float:
    """Chance one intercept-resent decoy fails its check: (1/2)(1 - 1/d)."""
    return 0.5 * (1.0 - 1.0 / d)


def modified_per_check_pass_probability(d: int, n: int) -> float:
    """Chance the forging dealer survives one basis check: 1/2 + d^(1-n)/2.

    Computational checks always pass (the dealer reads -(n-1)r mod d off
    his own qudit), Fourier-image checks pass only when all n readouts,
    each uniform, agree.
    """
    return 0.5 + 0.5 * float(d) ** (1 - n)


def modified_detection_probability(d: int, n: int, eta: int) -> float:
    """Chance at least one of eta independent checks fails on the dealer."""
    return 1.0 - modified_per_check_pass_probability(d, n) ** eta


def _binom_cdf(k: int, n: int, q: float) -> float:
    """Exact P(X <= k) for X ~ Binomial(n, q), 0 < q < 1, summed from log space.

    Logs keep large n from overflowing; the cap at 1 absorbs rounding.
    """
    lq, lp, top = math.log(q), math.log1p(-q), math.lgamma(n + 1)
    return min(1.0, sum(math.exp(top - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * lq + (n - j) * lp)
                        for j in range(min(k, n) + 1)))


def eve_detection_probability(d: int, n: int, decoy_count: int, threshold: float) -> float:
    """Chance some receiver's decoy error rate exceeds the threshold under Eve."""
    q = eve_per_decoy_error_rate(d)
    allowed = sum(not _decoys_abort(c, decoy_count, threshold) for c in range(1, decoy_count + 1))
    return 1.0 - _binom_cdf(allowed, decoy_count, q) ** (n - 1)


# ---------------------------------------------------------------------------
# per-trial runners


def _trial_secrets(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    if cfg.secrets is not None:
        return cfg.secrets
    p = cfg.protocol
    # one (n, m) draw: the same digits and generator state as n draws of m digits
    return tuple(tuple(int(x) for x in row) for row in rng.integers(0, p.d, size=(p.n, p.m)))


def _trial_plan(cfg: ScenarioConfig, rounds: int, rng: np.random.Generator) -> tuple[int, ...]:
    """The forging dealer's fabrication value r for each round."""
    if cfg.fake_r is not None:
        return (cfg.fake_r,) * rounds
    return tuple(int(x) for x in rng.integers(0, cfg.protocol.d, size=rounds))


def _run_trial(cfg: ScenarioConfig, eta: int, rounds, rng: np.random.Generator) -> dict:
    """Draw secrets, then the forging plan if rounds is None; return run_protocol's record."""
    p = cfg.protocol
    secrets = _trial_secrets(cfg, rng)
    if rounds is None:
        rounds = fabricate_rounds(p, _trial_plan(cfg, p.m + eta, rng))
    return run_protocol(p, eta, secrets, rounds, rng, eve=SCENARIOS[cfg.scenario].eve)


# ---------------------------------------------------------------------------
# aggregation and reporting


# one-sided tail mass beyond 4 sigma of a normal, ~3.2e-5
_TAIL_4_SIGMA = math.erfc(4 / math.sqrt(2)) / 2


def _within_band(successes: int, n: int, oracle: float) -> bool:
    """Both exact binomial tails of the count are >= _TAIL_4_SIGMA; 0 and 1 must match."""
    if oracle in (0.0, 1.0):
        return successes == oracle * n
    return min(_binom_cdf(successes, n, oracle),
               _binom_cdf(n - successes, n, 1.0 - oracle)) >= _TAIL_4_SIGMA


def _rate_entry(successes: int, n: int, oracle: float) -> dict:
    if n == 0:
        return {"value": None, "n": 0, "wilson_95": None, "oracle": oracle, "within_4_sigma": None}
    return {"value": successes / n, "n": n, "wilson_95": list(wilson_interval(successes, n)),
            "oracle": oracle, "within_4_sigma": _within_band(successes, n, oracle)}


def _count(flag) -> tuple[int, int]:
    return (0, 0) if flag is None else (int(flag), 1)


# each rate's (successes, n) in one run_protocol record; a None flag counts for neither
_COUNTS = {
    "sum_correct_rate": lambda r: _count(r["sum_correct"]),
    "recovery_success_rate": lambda r: _count(r["recovery_success"]),
    "detection_rate": lambda r: _count(r["detected"]),
    "check_pass_rate": lambda r: (sum(c["passed"] for c in r["checks"]), len(r["checks"])),
    "mean_decoy_error_rate": lambda r: (r["decoy_mismatches"], r["decoys_checked"]),
}

# exact value of each rate and prediction as f(protocol, eta, eve on the channel)
_ORACLES = {
    "sum_correct_rate": lambda p, eta, eve: 1.0,
    "recovery_success_rate": lambda p, eta, eve: 1.0,
    "check_pass_rate": lambda p, eta, eve: 1.0,
    "mean_decoy_error_rate": lambda p, eta, eve: eve_per_decoy_error_rate(p.d) if eve else 0.0,
    "per_decoy_error_rate": lambda p, eta, eve: eve_per_decoy_error_rate(p.d),
    "per_check_pass_probability": lambda p, eta, eve: modified_per_check_pass_probability(p.d, p.n),
    "detection_rate": lambda p, eta, eve: (
        eve_detection_probability(p.d, p.n, p.decoy_count, p.error_threshold) if eve
        else modified_detection_probability(p.d, p.n, eta)),
}


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
        "secrets": [list(s) for s in cfg.secrets] if cfg.secrets is not None else None,
        "fake_r": cfg.fake_r,
    }


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Run every trial of the scenario and return the report, as write_report writes it.

    Trials are independent by construction (each gets its own derived
    stream), so the per-trial records depend only on the configuration
    and the master seed, never on execution order or timing. A genuine
    scenario prepares its m+eta rounds once, and every trial shares them;
    they go when the run returns or raises, as nothing else holds them.
    Each trial's record gives its per_trial line and adds its share of
    every rate to running counts through _COUNTS; each oracle runs once.
    """
    t0 = time.perf_counter()
    p, sc = cfg.protocol, SCENARIOS[cfg.scenario]
    eta = cfg.eta if sc.hardened else 0
    shared = None if sc.forged else prepare_rounds(p, count=p.m + eta)
    per_trial, counts = [], {name: [0, 0] for name in sc.aggregates}
    for t in range(cfg.trials):
        record = _run_trial(cfg, eta, shared, derive_trial_stream(cfg.master_seed, t))
        per_trial.append({"trial": t, **{key: record[key] for key in ("secrets", *sc.record)}})
        for name, total in counts.items():
            total[:] = map(sum, zip(total, _COUNTS[name](record)))
    oracles = {name: _ORACLES[name](p, eta, sc.eve) for name in {*sc.aggregates, *sc.predictions}}
    aggregates = {name: _rate_entry(*counts[name], oracles[name]) for name in sc.aggregates}
    aggregates["flagged"] = [name for name, entry in aggregates.items() if entry["within_4_sigma"] is False]
    return {
        "scenario": cfg.scenario,
        "params": _params_dict(cfg),
        "per_trial": per_trial,
        "aggregates": aggregates,
        "oracle_predictions": {name: oracles[name] for name in sc.predictions},
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "duration_seconds": time.perf_counter() - t0,
    }


def _report_text(data: dict) -> str:
    """Top level indented by 2, each per_trial record on one line (indent runs the Python encoder)."""
    rows = ",\n".join(f"    {json.dumps(rec)}" for rec in data["per_trial"])
    fields = [f"  {json.dumps(key)}: " + (f"[\n{rows}\n  ]" if key == "per_trial" and rows else
                                          json.dumps(value, indent=2).replace("\n", "\n  "))
              for key, value in data.items()]
    return "{\n" + ",\n".join(fields) + "\n}\n"


def write_report(doc: dict, path) -> None:
    """Serialize one report dict (as run_scenario returns it) as JSON, atomically.

    The text goes to a temporary file beside the target that then
    replaces it, so a failed write leaves any earlier report untouched.
    Refuses to write into a missing directory so a typo cannot silently
    drop the report; nothing is created on failure.
    """
    path = Path(path)
    if not path.parent.exists():
        raise FileNotFoundError(f"output directory {path.parent} does not exist")
    text = _report_text(doc)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
