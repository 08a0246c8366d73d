"""Protocol engine and seeded Monte Carlo runner for the five scenarios.

run_protocol is the one protocol engine: it runs a chunk of trials in
lockstep, one channel step, one decoy check and two read-outs for the
chunk, the checks' then the encoding's; a trial's result strings are the
columns of its own m encoded readouts. A scenario picks its rounds
(prepare_rounds or fabricate_rounds), eta (0 for the original protocol)
and channel: clean, or Eve's one eve_intercept_resend call per chunk.

A scenario's JSON report is made from run_protocol's records alone: each
gives one per_trial line and, through _COUNTS, its share of every rate.
Each rate carries a Wilson 95% interval and its exact oracle; a rate
outside the oracle's exact binomial band (either tail below the
one-sided mass of 4 sigma) is flagged in the report.

Trial i reads its randomness from words [i K, (i+1) K) of one
counter-based stream keyed by master_seed, each draw a named slice of
them (trial_layout), whatever chunk it runs in. So a report is
reproducible bit-for-bit (apart from the wall-clock duration) and any
single trial can be replayed without rerunning its predecessors.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import qudit
from .adversary import eve_intercept_resend, fabricate_rounds, recover_secret_digit
from .protocol import (
    ProtocolConfig,
    check_decoys,
    compute_sum,
    insert_decoys,
    prepare_rounds,
    read_out,
    require_int,
    validate_secrets,
    word_digits,
    word_uniforms,
)
from .verification import execute_check, select_checks

TOOL_VERSION = "0.4.0"
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


def derive_trial_stream(master_seed: int, trial_index: int, trials: int, width: int) -> np.ndarray:
    """The (trials, width) uint64 block of words of trials trial_index, trial_index + 1, ...

    Trial t owns words [t width, (t+1) width) of the Philox4x64 stream keyed by master_seed (Salmon,
    Moraes, Dror and Shaw, SC 2011), whose counter counts blocks of 4 words: one advance reaches it.
    """
    if not (0 <= master_seed < 2**64 and trial_index >= 0 and trials >= 0 and width % 4 == 0):
        raise ValueError(f"need master_seed in [0, 2**64), trial_index and trials >= 0 and width a multiple of 4: "
                         f"got {master_seed}, {trial_index}, {trials} and {width}")
    stream = np.random.Philox(key=master_seed)
    stream.advance(trial_index * width // 4)
    return stream.random_raw(trials * width).reshape(trials, width)


def trial_layout(cfg: ProtocolConfig, eta: int) -> tuple[dict[str, slice], int]:
    """Where each draw of a trial lies among its K words, and K, a multiple of 4.

    Every scenario reads its slices and leaves the others unread, so one (seed, trial) deals the same secrets
    and decoys to every scenario of one eta: the original protocol's at eta = 0, the hardened ones' at the run's.
    """
    n, total, decoys = cfg.n, cfg.m + eta, (cfg.n - 1) * cfg.decoy_count
    eve = (n - 1) * (total + cfg.decoy_count)
    sizes = {"secrets": n * cfg.m, "plan": total, "decoys": 2 * decoys, "decoy_u": decoys, "eve_bits": eve,
             "eve_u": eve, "checks": total + eta, "check_u": n * eta, "encode_u": n * cfg.m}
    ends = list(itertools.accumulate(sizes.values()))
    return {name: slice(end - size, end) for (name, size), end in zip(sizes.items(), ends)}, -(-ends[-1] // 4) * 4


def _trial_secrets(cfg: ScenarioConfig, words: np.ndarray) -> np.ndarray:
    """Each trial's (n, m) secret digits: the fixed secrets, or a digit per word of its secrets slice."""
    p = cfg.protocol
    if cfg.secrets is not None:
        return np.broadcast_to(np.array(cfg.secrets), (len(words), p.n, p.m))
    return word_digits(words, p.d).reshape(-1, p.n, p.m)


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


def run_protocol(cfg: ProtocolConfig, eta: int, secrets, rounds, words, eve: bool = False) -> list[dict]:
    """A chunk of trials of the summation protocol, original (eta=0) or hardened, in lockstep; one record each.

    Trial t hands out rounds[t], the m+eta states the dealer made, genuine or forged, each held by
    P1..Pn, encodes the (n, m) digits secrets[t] and reads every draw from its slice (trial_layout) of
    row t of the (T, K) uint64 block words. With eve=True the channel is an intercept-resend eavesdropper,
    one eve_intercept_resend step over the chunk. One check_decoys call checks every trial's decoys; a
    trial aborts if any error rate exceeds the threshold. One read_out serves the eta checks of every
    trial left and one execute_check call judges them all; a trial runs its checks in position order up
    to the first failure, which aborts it (the checks after it are read out and judged too, harmlessly,
    and left out of its record). One last read_out encodes the m unchecked rounds of every trial left,
    in position order; participant i's result string is column i of their QFT readouts
    plus its secret, mod d. An abort is a flag per trial: that trial reads no more of its words.

    A record holds the secrets and every per_trial key of any scenario, as the report writes it.
    detected means the run aborted; the keys of the encoding step are None then, and a failed basis
    check is the last entry of checks. announced holds the rows of P2..Pn, recovered the digits a
    forging dealer reads off them when every surviving round is forged (None otherwise, as is the
    fake_r entry of a genuine round).
    """
    require_int("eta", eta)
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    secrets, words, (layout, width) = np.asarray(secrets), np.asarray(words), trial_layout(cfg, eta)
    if not 0 < len(secrets) == len(rounds) == len(words):
        raise ValueError(f"need secrets, rounds and a stream for each of one or more trials: "
                         f"got {len(secrets)}, {len(rounds)} and {len(words)}")
    trials, total, held = len(words), cfg.m + eta, tuple(range(1, cfg.n + 1))
    if (words.shape != (trials, width) or words.dtype != np.uint64 or secrets.shape != (trials, cfg.n, cfg.m)
            or secrets.dtype.kind not in "iu" or ((secrets < 0) | (secrets >= cfg.d)).any()):
        raise ValueError(f"need a ({trials}, {width}) block of uint64 words and each trial's n={cfg.n} secret "
                         f"strings of m={cfg.m} int digits mod d={cfg.d}")
    secrets = secrets.astype(np.int64)  # uint64 digits plus the int64 readouts would make floats
    for trial_rounds in {id(trial_rounds): trial_rounds for trial_rounds in rounds}.values():
        if len(trial_rounds) != total:
            raise ValueError(f"got {len(trial_rounds)} rounds, need m+eta={total}")
        for j, state in enumerate(trial_rounds):
            if state.d != cfg.d or state.owners != held:
                raise ValueError(f"round {j} does not fit d={cfg.d}, n={cfg.n}")

    def per_receiver(name):  # the named slice of every trial's words as (n-1, T, ...): receiver, trial, ...
        return words[:, layout[name]].reshape(trials, cfg.n - 1, -1).swapaxes(0, 1)

    dealt = [insert_decoys(cfg, row) for row in words[:, layout["decoys"]]]
    # (n-1, T, D): receiver, trial, decoy
    expected = received = [np.array([list(pair[k].values()) for pair in dealt]).swapaxes(0, 1) for k in (0, 1)]
    if eve:
        rounds, received = eve_intercept_resend(rounds, expected, per_receiver("eve_bits") >> 63,
                                                word_uniforms(per_receiver("eve_u")), cfg.d)
    mismatches = check_decoys(cfg.d, expected, received, word_uniforms(per_receiver("decoy_u"))).T.tolist()
    detected = np.array([any(_decoys_abort(c, cfg.decoy_count, cfg.error_threshold) for c in row)
                         for row in mismatches])

    # every trial left reads out its eta checks and judges them at once; it runs them up to the first failure
    live = np.flatnonzero(~detected)
    positions, choosers, v2 = select_checks(cfg, eta, words[live, layout["checks"]])
    selected = [rounds[t][pos] for t, row in zip(live, positions.tolist()) for pos in row]
    readouts = read_out(selected, ~v2.ravel(), word_uniforms(words[live, layout["check_u"]]).reshape(-1, cfg.n))
    readouts = readouts.reshape(len(live), eta, cfg.n)
    passed = execute_check(v2, readouts, cfg.d)
    survived, executed = passed.all(axis=1), np.minimum(passed.cumprod(axis=1).sum(axis=1) + 1, eta)
    detected[live] = ~survived
    checks = [[] for _ in range(trials)]
    for t, k, *row in zip(live.tolist(), executed.tolist(), positions.tolist(), choosers.tolist(), v2.tolist(),
                          readouts.tolist(), passed.tolist()):
        checks[t] = [{"position": pos, "chooser": chooser, "basis": "V2" if bit else "V1", "announced": values,
                      "passed": ok} for pos, chooser, bit, values, ok in itertools.islice(zip(*row), k)]

    # a trial left has passed all eta checks and encodes its m unchecked rounds in position order; its strings are
    # the columns of their readouts
    live, checked = live[survived], np.zeros((len(live), total), dtype=bool)
    np.put_along_axis(checked, positions, True, axis=1)
    unchecked = np.argsort(checked[survived], axis=1, kind="stable")[:, :cfg.m].tolist()
    # participant i's digit j of a trial: its QFT readout of round j plus its secret digit j, mod d
    readouts = read_out([rounds[t][pos] for t, row in zip(live, unchecked) for pos in row], True,
                        word_uniforms(words[live, layout["encode_u"]]).reshape(-1, cfg.n))
    strings = (readouts.reshape(len(live), cfg.m, cfg.n).swapaxes(1, 2) + secrets[live]) % cfg.d
    encoded = dict(zip(live.tolist(), zip(unchecked, strings[:, 1:].tolist(), compute_sum(strings, cfg.d),
                                          compute_sum(secrets[live], cfg.d))))

    records, digits = [], secrets.tolist()
    for t, aborted in enumerate(detected.tolist()):
        record = {
            "secrets": digits[t], "fake_r": [state.r for state in rounds[t]],
            "decoy_error_rates": [c / cfg.decoy_count if cfg.decoy_count else 0.0 for c in mismatches[t]],
            "decoy_mismatches": sum(mismatches[t]), "decoys_checked": len(mismatches[t]) * cfg.decoy_count,
            "checks": checks[t], "checks_passed": all(c["passed"] for c in checks[t]),
            "checks_executed": len(checks[t]), "detected": aborted,
            "announced": None, "recovered": None, "recovery_success": None,
            "sum": None, "announced_sum": None, "sum_correct": None,
        }
        records.append(record)
        if aborted:
            continue
        kept, announced, digit_sum, true_sum = encoded[t]
        r = [record["fake_r"][pos] for pos in kept]
        if None not in r:
            # the forging dealer subtracts r from every announced digit
            recovered = [[recover_secret_digit(v, rj, cfg.d) for v, rj in zip(row, r)] for row in announced]
            record.update(recovered=recovered, recovery_success=recovered == digits[t][1:])
        record.update(announced=announced, sum=digit_sum, announced_sum=digit_sum,
                      sum_correct=digit_sum == true_sum)
    return records


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
    return {"d": p.d, "n": p.n, "m": p.m, "decoy_count": p.decoy_count, "error_threshold": p.error_threshold,
            "eta": cfg.eta, "trials": cfg.trials, "master_seed": cfg.master_seed,
            "secrets": [list(s) for s in cfg.secrets] if cfg.secrets is not None else None, "fake_r": cfg.fake_r}


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Run every trial of the scenario and return the report, as write_report writes it.

    Each trial reads only its own words of the stream, so the per-trial records depend only on the
    configuration and the master seed, never on execution order, chunking or timing. The trials run
    through run_protocol in chunks whose round amplitudes and words together number at most
    qudit.STACK_CAP: max(1, STACK_CAP // (d**n (m+eta) + K)) trials each, their words one
    derive_trial_stream block. A genuine scenario prepares its m+eta rounds once, and every trial
    shares them; they go when the run returns or raises, as nothing else holds them. A forging
    dealer's rounds are fabricated once per chunk, from its trials' plans joined. Each trial's record
    gives its per_trial line and its share of every rate (_COUNTS); each oracle runs once.
    """
    t0 = time.perf_counter()
    p, sc = cfg.protocol, SCENARIOS[cfg.scenario]
    eta = cfg.eta if sc.hardened else 0
    total, (layout, width) = p.m + eta, trial_layout(p, eta)
    shared = None if sc.forged else prepare_rounds(p, count=total)
    chunk = max(1, qudit.STACK_CAP // (p.d**p.n * total + width))
    per_trial, counts = [], {name: [0, 0] for name in sc.aggregates}
    for first in range(0, cfg.trials, chunk):
        words = derive_trial_stream(cfg.master_seed, first, min(chunk, cfg.trials - first), width)
        secrets = _trial_secrets(cfg, words[:, layout["secrets"]])
        if shared is None:  # the forging dealer's value r for each round, of each trial in turn
            plan = ([cfg.fake_r] * (len(words) * total) if cfg.fake_r is not None
                    else word_digits(words[:, layout["plan"]], p.d).reshape(-1).tolist())
            forged = fabricate_rounds(p, plan)
            rounds = [forged[k * total:(k + 1) * total] for k in range(len(words))]
        else:
            rounds = [shared] * len(words)
        for t, record in enumerate(run_protocol(p, eta, secrets, rounds, words, eve=sc.eve), start=first):
            per_trial.append({"trial": t, **{key: record[key] for key in ("secrets", *sc.record)}})
            for name, count in counts.items():
                count[:] = map(sum, zip(count, _COUNTS[name](record)))
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
