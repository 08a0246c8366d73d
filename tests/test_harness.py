"""Scenario runner, report schema, reproducibility, CLI contract."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import run_one
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsum import (
    ProtocolConfig,
    ScenarioConfig,
    derive_trial_stream,
    fabricate_rounds,
    fake_particle,
    insert_decoys,
    prepare_rounds,
    run_protocol,
    run_scenario,
    select_checks,
    wilson_interval,
    write_report,
)
from quditsum import cli, harness, protocol, qudit
from quditsum.cli import main
from quditsum.harness import (
    _COUNTS,
    _ORACLES,
    SCENARIOS,
    _binom_cdf,
    _rate_entry,
    eve_detection_probability,
    eve_per_decoy_error_rate,
    modified_detection_probability,
    modified_per_check_pass_probability,
)
from quditsum.protocol import RoundState


def _cfg(scenario, trials=20, seed=7, **kw):
    proto = ProtocolConfig(
        d=kw.pop("d", 5),
        n=kw.pop("n", 3),
        m=kw.pop("m", 2),
        decoy_count=kw.pop("decoy_count", 4),
        error_threshold=kw.pop("error_threshold", 0.0),
    )
    return ScenarioConfig(scenario=scenario, protocol=proto, trials=trials,
                          master_seed=seed, **kw)


# ---------------------------------------------------------------------------
# derived streams


def test_derive_trial_stream_is_deterministic():
    a = derive_trial_stream(42, 3).integers(0, 1000, size=8)
    b = derive_trial_stream(42, 3).integers(0, 1000, size=8)
    assert np.array_equal(a, b)


def test_derive_trial_stream_differs_across_indices_and_seeds():
    base = derive_trial_stream(42, 0).integers(0, 10**9, size=4)
    other_index = derive_trial_stream(42, 1).integers(0, 10**9, size=4)
    other_seed = derive_trial_stream(43, 0).integers(0, 10**9, size=4)
    assert not np.array_equal(base, other_index)
    assert not np.array_equal(base, other_seed)


def test_derive_trial_stream_validation():
    with pytest.raises(ValueError):
        derive_trial_stream(-1, 0)
    with pytest.raises(ValueError):
        derive_trial_stream(2**64, 0)
    with pytest.raises(ValueError):
        derive_trial_stream(0, -1)


# ---------------------------------------------------------------------------
# wilson interval


def test_wilson_contains_point_estimate():
    for successes, n in [(0, 10), (10, 10), (7, 13), (500, 1000)]:
        lo, hi = wilson_interval(successes, n)
        assert 0.0 <= lo <= successes / n <= hi <= 1.0
        assert lo < hi


def test_wilson_narrows_with_samples():
    lo1, hi1 = wilson_interval(50, 100)
    lo2, hi2 = wilson_interval(5000, 10000)
    assert (hi2 - lo2) < (hi1 - lo1)


# ---------------------------------------------------------------------------
# oracle formulas


def test_oracle_formula_values():
    assert eve_per_decoy_error_rate(2) == 0.25
    assert eve_per_decoy_error_rate(10) == 0.45
    assert modified_per_check_pass_probability(5, 3) == pytest.approx(0.52)
    assert modified_detection_probability(5, 3, 6) == pytest.approx(1 - 0.52**6)
    # threshold 0: one recipient passes only with zero errors
    assert eve_detection_probability(2, 2, 4, 0.0) == pytest.approx(1 - 0.75**4)
    assert eve_detection_probability(2, 3, 4, 0.0) == pytest.approx(1 - 0.75**8)


def test_eve_oracle_tolerates_exactly_what_a_receiver_tolerates():
    # a receiver aborts when mismatches/decoys exceeds the threshold: c
    # mismatches pass at threshold c/decoys and abort one ulp below it
    q = eve_per_decoy_error_rate(5)
    for decoys in range(1, 65):
        for c in range(1, decoys + 1):
            at = eve_detection_probability(5, 2, decoys, c / decoys)
            below = eve_detection_probability(5, 2, decoys, math.nextafter(c / decoys, 0))
            assert at == 1 - _binom_cdf(c, decoys, q), (decoys, c)
            assert below == 1 - _binom_cdf(c - 1, decoys, q), (decoys, c)


# ---------------------------------------------------------------------------
# scenario runs and the report document


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        _cfg("no-such-scenario")
    with pytest.raises(ValueError):
        _cfg("honest", trials=0)
    with pytest.raises(ValueError):
        _cfg("honest", eta=-1)
    with pytest.raises(ValueError):
        _cfg("iqft-attack", fake_r=5)  # d defaults to 5 here
    for scenario in ("honest", "modified-honest", "eve-decoy"):
        with pytest.raises(ValueError, match="forging dealer"):
            _cfg(scenario, fake_r=1)  # only a forging dealer has a fabrication value
    with pytest.raises(ValueError):
        _cfg("honest", secrets=((0,),))
    for digit in (4.0, np.int64(4), True):
        with pytest.raises(ValueError, match="is not an int"):
            _cfg("honest", d=10, m=1, secrets=((digit,), (5,), (6,)))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
            _cfg("honest", seed=seed)
    # a numpy, float or bool value would reach the JSON report, or fail to
    # serialize only after every trial has run
    proto = ProtocolConfig(d=5, n=3, m=2)
    for field, values in {"eta": (np.int64(2), 2.0), "trials": (True, np.int64(3)),
                          "master_seed": (np.uint64(3), True, 3.0),
                          "fake_r": (np.int64(2), 2.0, True)}.items():
        for value in values:
            with pytest.raises(ValueError, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
                ScenarioConfig("iqft-attack", proto, **{field: value})
    with pytest.raises(ValueError, match=r"^d must be an int, got np\.int64\(5\)$"):
        _cfg("iqft-attack", d=np.int64(5), fake_r=np.int64(2))
    with pytest.raises(ValueError, match="^error_threshold must be an int or float, got True$"):
        _cfg("honest", error_threshold=True)
    # nor may a fabrication value or eta handed to the engine itself
    fabricate_rounds(proto, (1,))
    for r in (np.int64(1), 1.0, True):
        with pytest.raises(ValueError, match=f"^fabrication value must be an int, got {re.escape(repr(r))}$"):
            fabricate_rounds(proto, (1, r))
    for r in (-1, 5):
        with pytest.raises(ValueError, match=f"^fabrication value {r} out of range for d=5$"):
            fabricate_rounds(proto, (1, r))
    secrets, rounds = ((1, 2), (3, 4), (0, 1)), prepare_rounds(proto, count=3)
    for eta in (1.0, True, np.int64(1)):
        with pytest.raises(ValueError, match=f"^eta must be an int, got {re.escape(repr(eta))}$"):
            run_one(proto, eta, secrets, rounds, np.random.default_rng(0))


def test_honest_scenario_report():
    doc = run_scenario(_cfg("honest", trials=30))
    assert doc["scenario"] == "honest"
    assert len(doc["per_trial"]) == 30
    agg = doc["aggregates"]["sum_correct_rate"]
    assert agg["value"] == 1.0 and agg["n"] == 30
    assert agg["within_4_sigma"] is True
    assert doc["aggregates"]["flagged"] == []
    assert doc["oracle_predictions"] == {"sum_correct_rate": 1.0}
    assert "detection_rate" not in doc["aggregates"]


def test_iqft_attack_scenario_report():
    doc = run_scenario(_cfg("iqft-attack", trials=25))
    assert doc["aggregates"]["recovery_success_rate"]["value"] == 1.0
    assert doc["aggregates"]["mean_decoy_error_rate"]["value"] == 0.0
    assert "detection_rate" not in doc["aggregates"]
    for record in doc["per_trial"]:
        assert record["recovery_success"]
        assert record["decoy_error_rates"] == [0.0, 0.0]


def test_modified_honest_scenario_report():
    doc = run_scenario(_cfg("modified-honest", trials=25, eta=4))
    assert doc["aggregates"]["sum_correct_rate"]["value"] == 1.0
    assert doc["aggregates"]["check_pass_rate"]["value"] == 1.0
    assert doc["aggregates"]["check_pass_rate"]["n"] == 25 * 4
    assert "detection_rate" not in doc["aggregates"]


def test_modified_attack_scenario_report():
    doc = run_scenario(_cfg("modified-attack", trials=120, eta=6))
    agg = doc["aggregates"]["detection_rate"]
    assert agg["n"] == 120
    assert agg["oracle"] == pytest.approx(1 - 0.52**6)
    assert doc["oracle_predictions"]["per_check_pass_probability"] == pytest.approx(0.52)
    detected = sum(1 for r in doc["per_trial"] if r["detected"])
    assert agg["value"] == detected / 120
    for record in doc["per_trial"]:
        if record["detected"]:
            assert record["recovered"] is None
        else:
            assert record["recovery_success"]


def test_eve_decoy_scenario_report():
    doc = run_scenario(_cfg("eve-decoy", trials=60, d=10, decoy_count=8))
    assert "detection_rate" in doc["aggregates"]
    assert doc["aggregates"]["mean_decoy_error_rate"]["oracle"] == 0.45
    assert doc["oracle_predictions"]["per_decoy_error_rate"] == 0.45
    assert doc["aggregates"]["mean_decoy_error_rate"]["n"] == 60 * 2 * 8


def test_eve_decoy_report_at_a_threshold_one_ulp_below_a_half(tmp_path, capsys):
    # 2 decoys at a threshold just under 1/2: one mismatch aborts, so a
    # receiver passes only with none (0.6**2) and Eve is caught at 1 - 0.36**2
    out = tmp_path / "r.json"
    assert main(["run", "--scenario", "eve-decoy", "--d", "5", "--n", "3", "--m", "1", "--decoys", "2",
                 "--threshold", "0.49999999999999994", "--trials", "400", "--seed", "7",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    text = json.dumps(doc["per_trial"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "87ec0eebc1f6da35356a1558f394363b1cb54b6b6f081afd79273aaa2f582d86")
    assert doc["aggregates"]["flagged"] == []
    assert doc["aggregates"]["detection_rate"]["oracle"] == pytest.approx(1 - 0.36**2, abs=1e-15)
    assert "outside 4 sigma" not in capsys.readouterr().out


def test_fixed_secrets_and_fake_r_are_honored():
    secrets = ((4, 1), (5, 0), (6, 2))
    doc = run_scenario(_cfg("iqft-attack", trials=5, d=10, secrets=secrets, fake_r=2))
    for record in doc["per_trial"]:
        assert record["secrets"] == [[4, 1], [5, 0], [6, 2]]
        assert record["fake_r"] == [2, 2]
        assert record["recovered"] == [[5, 0], [6, 2]]


def test_report_schema_keys():
    data = run_scenario(_cfg("honest", trials=3))
    assert list(data) == ["scenario", "params", "per_trial", "aggregates",
                          "oracle_predictions", "schema_version", "tool_version",
                          "duration_seconds"]
    assert data["schema_version"] == 1
    assert data["params"]["d"] == 5
    assert data["params"]["master_seed"] == 7


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_report_keys_follow_the_scenario_entry(scenario):
    entry = SCENARIOS[scenario]
    doc = run_scenario(_cfg(scenario, trials=6, eta=3))
    for record in doc["per_trial"]:
        assert list(record) == ["trial", "secrets", *entry.record]
    assert list(doc["aggregates"]) == [*entry.aggregates, "flagged"]
    assert list(doc["oracle_predictions"]) == list(entry.predictions)
    for name in entry.aggregates:
        assert doc["aggregates"][name]["oracle"] is not None


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_run_protocol_returns_the_record_every_scenario_reads(scenario):
    # the scenario's rounds, eta and channel; aborted runs and completed ones
    sc = SCENARIOS[scenario]
    keys = {key for entry in SCENARIOS.values() for key in entry.record}
    eta = 3 if sc.hardened else 0
    for threshold in (0.0, 0.3):
        p = ProtocolConfig(d=5, n=3, m=2, decoy_count=4, error_threshold=threshold)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            secrets = tuple(tuple(int(x) for x in row) for row in rng.integers(0, 5, size=(3, 2)))
            rounds = (fabricate_rounds(p, tuple(int(x) for x in rng.integers(0, 5, size=2 + eta)))
                      if sc.forged else prepare_rounds(p, count=2 + eta))
            record = run_one(p, eta, secrets, rounds, rng, eve=sc.eve)
            assert keys <= set(record)
            assert _json_native(record)
            assert json.loads(json.dumps(record)) == record
            assert record["secrets"] == [list(s) for s in secrets]
            for name in sc.aggregates:
                successes, n = _COUNTS[name](record)
                assert type(successes) is int and type(n) is int
                assert 0 <= successes <= n, name
    # every rate the report counts has a count and an oracle, every prediction an oracle
    assert set(sc.aggregates) <= set(_COUNTS) & set(_ORACLES)
    assert set(sc.predictions) <= set(_ORACLES)


def test_run_protocol_record_after_a_decoy_abort():
    p = ProtocolConfig(d=5, n=3, m=2, decoy_count=8)  # threshold 0
    records = [run_one(p, 2, ((1, 2), (3, 4), (0, 1)), prepare_rounds(p, count=4),
                            np.random.default_rng(seed), eve=True) for seed in range(10)]
    aborted = [r for r in records if r["decoy_mismatches"] > 0]
    assert aborted
    for record in aborted:
        assert record["detected"] is True
        assert record["checks"] == [] and record["checks_executed"] == 0
        for key in ("announced", "sum", "sum_correct", "recovered", "recovery_success"):
            assert record[key] is None


@pytest.mark.parametrize("d, n, forged", [(3, 3, False), (5, 4, False), (5, 2, True), (3, 3, True),
                                          (5, 3, "without-P1")])
def test_run_protocol_rejects_rounds_that_do_not_fit(d, n, forged):
    # rounds dealt for other sizes, or a forged round that leaves P1 out,
    # must fail before the first draw: run on, they write a wrong record or
    # break mid-run after the decoys
    other = ProtocolConfig(d=d, n=n, m=1)
    rounds = fabricate_rounds(other, (1,)) if forged else prepare_rounds(other)
    if forged == "without-P1":
        rounds = [RoundState(tuple((fake_particle(d, 1), (i,)) for i in range(2, n + 1)), r=1)]
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^round 0 does not fit d=5, n=3$"):
        run_one(ProtocolConfig(d=5, n=3, m=1, decoy_count=2), 0, ((1,), (2,), (3,)), rounds, rng)
    assert rng.bit_generator.state == state


def test_run_protocol_sums_a_mix_of_genuine_and_forged_rounds():
    # every round is held by P1..Pn, so genuine and forged rounds mix in one
    # list: the sum is right, the forged round still gives its digits away,
    # and nothing is reported recovered unless every surviving round is forged
    cfg = ProtocolConfig(d=5, n=3, m=2, decoy_count=4)
    rounds = prepare_rounds(cfg, count=1) + fabricate_rounds(cfg, (2,))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        secrets = tuple(tuple(int(x) for x in row) for row in rng.integers(0, 5, size=(3, 2)))
        record = run_one(cfg, 0, secrets, rounds, rng)
        assert record["fake_r"] == [None, 2]
        assert record["sum"] == [sum(column) % 5 for column in zip(*secrets)]
        assert record["sum_correct"] is True
        assert [row[1] for row in record["announced"]] == [(2 + k[1]) % 5 for k in secrets[1:]]
        assert record["recovered"] is None and record["recovery_success"] is None


# ---------------------------------------------------------------------------
# trials in lockstep


def _chunk_against_lone_trials(cfg, eta, kinds, seed, eve):
    """Run one chunk of trials, one per kind of rounds, and each trial alone on a fresh copy of its stream.

    Asserts each trial's record and final generator state are the same
    both ways; returns the chunk's records.
    """
    total, gen = cfg.m + eta, np.random.default_rng(seed)
    genuine = prepare_rounds(cfg, count=total)
    secrets, rounds = [], []
    for kind in kinds:
        forged = fabricate_rounds(cfg, [int(x) for x in gen.integers(cfg.d, size=total)])
        pick = {"genuine": [False] * total, "forged": [True] * total, "mixed": gen.integers(2, size=total)}[kind]
        rounds.append([f if p else g for f, g, p in zip(forged, genuine, pick)])
        secrets.append(tuple(tuple(int(x) for x in row) for row in gen.integers(cfg.d, size=(cfg.n, cfg.m))))
    rngs = [np.random.default_rng([seed, t]) for t in range(len(kinds))]
    records = run_protocol(cfg, eta, secrets, rounds, rngs, eve=eve)
    assert len(records) == len(kinds)
    for t, record in enumerate(records):
        alone = np.random.default_rng([seed, t])
        assert json.dumps(record) == json.dumps(run_one(cfg, eta, secrets[t], rounds[t], alone, eve=eve))
        assert rngs[t].bit_generator.state == alone.bit_generator.state
    return records


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3, 5]), n=st.sampled_from([2, 3, 4]), eta=st.integers(0, 4),
       decoys=st.integers(0, 4), threshold=st.sampled_from([0.0, 0.3]), eve=st.booleans(),
       kinds=st.lists(st.sampled_from(["genuine", "forged", "mixed"]), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_a_chunk_of_trials_gives_each_its_lone_record_and_stream(d, n, eta, decoys, threshold, eve, kinds, seed):
    cfg = ProtocolConfig(d=d, n=n, m=2, decoy_count=decoys, error_threshold=threshold)
    _chunk_against_lone_trials(cfg, eta, kinds, seed, eve)


def test_one_chunk_mixes_decoy_aborts_failed_checks_and_encoded_trials():
    # an abort is a flag per trial: the trials after it in the chunk go on
    cfg = ProtocolConfig(d=3, n=3, m=2, decoy_count=4, error_threshold=0.3)
    records = _chunk_against_lone_trials(cfg, 2, ["genuine", "forged", "mixed"] * 6, 5, eve=True)
    decoy_abort = [max(r["decoy_error_rates"]) > 0.3 for r in records]
    failed_check = [bool(r["checks"]) and not r["checks"][-1]["passed"] for r in records]
    encoded = [r["sum"] is not None for r in records]
    assert [sum(ends) for ends in zip(decoy_abort, failed_check, encoded)] == [1] * len(records)
    assert any(decoy_abort) and any(failed_check) and any(encoded)
    assert [r["detected"] for r in records] == [not e for e in encoded]


def test_a_trial_draws_in_the_documented_order():
    # its decoys and their uniforms, its checks and every check's uniforms,
    # then its encoding's uniforms only if it got that far
    cfg, eta = ProtocolConfig(d=3, n=3, m=2, decoy_count=0), 3
    secrets, endings = ((0, 1), (2, 0), (1, 1)), set()
    for seed in range(40):
        for rounds in (prepare_rounds(cfg, count=5), fabricate_rounds(cfg, [seed % 3] * 5)):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            record = run_one(cfg, eta, secrets, rounds, rng)
            insert_decoys(cfg, replay)
            replay.random((cfg.n - 1, cfg.decoy_count))
            select_checks(cfg, eta, replay)
            replay.random(cfg.n * eta)
            if record["sum"] is not None:
                replay.random(cfg.n * cfg.m)
            assert rng.bit_generator.state == replay.bit_generator.state
            endings.add(record["sum"] is None)
    assert endings == {True, False}


def test_run_protocol_needs_secrets_rounds_and_a_stream_per_trial():
    cfg = ProtocolConfig(d=3, n=2, m=1, decoy_count=2)
    message = "^need secrets, rounds and a stream for each of one or more trials: got {}, {} and {}$"
    with pytest.raises(ValueError, match=message.format(2, 1, 1)):
        run_protocol(cfg, 0, [((1,), (2,))] * 2, [prepare_rounds(cfg)], [np.random.default_rng(0)])
    with pytest.raises(ValueError, match=message.format(0, 0, 0)):
        run_protocol(cfg, 0, [], [], [])


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("d, n, m, eta, trials, chunks", [(5, 3, 4, 6, 20, 1), (10, 5, 1, 2, 4, 4)])
def test_a_run_makes_two_read_outs_and_one_decoy_check_per_chunk(scenario, d, n, m, eta, trials, chunks,
                                                                 monkeypatch):
    # at small-mix sizes all 20 trials fit one chunk; a round over
    # qudit.STACK_CAP makes each trial a chunk of its own
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "read_out", counted("read_out", harness.read_out))
    monkeypatch.setattr(harness, "check_decoys", counted("check_decoys", harness.check_decoys))
    run_scenario(ScenarioConfig(scenario, ProtocolConfig(d=d, n=n, m=m, decoy_count=16), eta=eta, trials=trials))
    assert chunks <= calls["read_out"] <= 2 * chunks and calls["check_decoys"] == chunks


@pytest.mark.parametrize("scenario", [name for name, sc in SCENARIOS.items() if not sc.eve])
@pytest.mark.parametrize("d, n, m, eta, trials, chunks", [(5, 3, 4, 6, 20, 1), (10, 5, 1, 2, 4, 4)])
def test_a_clean_run_builds_decoy_states_once_per_chunk(scenario, d, n, m, eta, trials, chunks, monkeypatch):
    # the engine carries each decoy as its (value, basis) pair; only the
    # check builds the states, with one basis_rows call for the chunk
    calls, real = [], protocol.basis_rows
    monkeypatch.setattr(protocol, "basis_rows", lambda *args: calls.append(args) or real(*args))
    run_scenario(ScenarioConfig(scenario, ProtocolConfig(d=d, n=n, m=m, decoy_count=16), eta=eta, trials=trials))
    assert len(calls) == chunks
    assert not {"basis_rows", "measure_rows"} & set(vars(harness))


def test_eve_measures_each_distinct_round_once_per_basis(monkeypatch):
    # a 20-trial small-mix eve-decoy run: receiver 2 meets the one shared
    # round in two bases; receiver 3 at most the 2d rounds that left, in two
    calls, receiver = Counter(), []
    real_eve, real_measure = harness.eve_intercept_resend, protocol.measure

    def eve(rounds, i, *args):
        receiver.append(i)
        return real_eve(rounds, i, *args)

    def counted(*args):
        calls[receiver[-1]] += 1
        return real_measure(*args)

    monkeypatch.setattr(harness, "eve_intercept_resend", eve)
    monkeypatch.setattr(protocol, "measure", counted)
    run_scenario(ScenarioConfig("eve-decoy", ProtocolConfig(d=5, n=3, m=4, decoy_count=16), eta=6, trials=20,
                                master_seed=1))
    assert receiver == [2, 3]
    assert 0 < calls[2] <= 2 and 0 < calls[3] <= 4 * 5


def test_a_run_over_the_stack_cap_peaks_as_one_trial():
    # 10^5 amplitudes per round is over the cap, so each trial is a chunk
    # of its own and a run of four holds no more than a run of one
    cfg = ProtocolConfig(d=10, n=5, m=1, decoy_count=2)
    assert cfg.d**cfg.n > qudit.STACK_CAP

    def peak(trials):
        tracemalloc.start()
        try:
            run_scenario(ScenarioConfig("modified-honest", cfg, eta=2, trials=trials))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations outside the run
    one = peak(1)
    assert peak(4) <= 1.1 * one


def test_reports_are_reproducible_bit_for_bit():
    for scenario in sorted(SCENARIOS):
        first = run_scenario(_cfg(scenario, trials=12, eta=3))
        second = run_scenario(_cfg(scenario, trials=12, eta=3))
        a = json.dumps(first["per_trial"])
        b = json.dumps(second["per_trial"])
        assert a == b, f"{scenario} per-trial records differ between identical runs"
        first.pop("duration_seconds"), second.pop("duration_seconds")
        assert json.dumps(first) == json.dumps(second)


# SHA-256 of each scenario's canonical per_trial JSON at a fixed
# configuration. Any change to the seeded draw order or to a record's
# contents moves these; such a change needs a version bump.
GOLDEN_DIGESTS = {
    "honest": "23cbd088b48090dc6640e539f29c6c8538a73b1cea9a822563632b2053a8d291",
    "iqft-attack": "74b60b8c71c7d46b1e916d285921f645a6355c5587b5c3742d3573a9182fe5f1",
    "modified-honest": "1b01c950393c3eb29f4707300d0ea1a1d55cd6d4c3d425dcd16447b2446754d0",
    "modified-attack": "8d0b058ca6cb6bfab7ee1fc6b4615cafc3d9772b80d4a65890af4d733aec36ce",
    "eve-decoy": "af31ccac9858f18391d514f7749f68452382ead66b32d67d39919c0f419429fa",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS))
def test_per_trial_golden_digest(scenario):
    cfg = ScenarioConfig(scenario, ProtocolConfig(d=5, n=3, m=2, decoy_count=4),
                         eta=4, trials=25, master_seed=2024)
    text = json.dumps(run_scenario(cfg)["per_trial"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[scenario]


# The same at d=10 on 4-qudit rounds: unitaries and measurements then hit
# every split of the register around the target qudit, inner and last.
GOLDEN_DIGESTS_WIDE = {
    "honest": "03f9ba93b2320ea2bdbe6dc944b9540f2105ed890b4db90cd2f5f285b55c6b2c",
    "iqft-attack": "68407d525fe6dc40d4f1a0c3b7550e2d00d6a7a0a700d7d2e35e57e3f790590e",
    "modified-honest": "9e11c52e28af544d4c62ca6b1a7b42c428ea955b4eeabaa615aed1d89c55d489",
    "modified-attack": "e9fe2d78697a1d12881b796bb3fcc3fd5354aca3470b1b230a81ac8013d47ca4",
    "eve-decoy": "e1d88a442e06cb3409d2d3c503c028d5e8a83312b584a3455ffe42891a95424f",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS_WIDE))
def test_per_trial_golden_digest_wide(scenario):
    cfg = ScenarioConfig(scenario, ProtocolConfig(d=10, n=4, m=2, decoy_count=4),
                         eta=3, trials=8, master_seed=2024)
    text = json.dumps(run_scenario(cfg)["per_trial"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS_WIDE[scenario]


# The same at the wide-register benchmark's sizes: 1e6-amplitude rounds,
# each read alone, whose first step reads the shared register's reduced state.
GOLDEN_DIGESTS_N6 = {
    "honest": "af50635cb644546c6640c8734db30cfeb99bdc17967f8d91506aa35fb390de8a",
    "modified-honest": "b3f5ac2f51dfdd888b5e72f8bf138caa59ca61c3fc2af1c5784ac6f1bcb3fb9d",
    "eve-decoy": "786549d4bec1f47083aa2e16e3e222c8533d08a2b1a58108a6740f0ff380f40c",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS_N6))
def test_per_trial_golden_digest_n6(scenario):
    cfg = ScenarioConfig(scenario, ProtocolConfig(d=10, n=6, m=1, decoy_count=16),
                         eta=2, trials=4, master_seed=1)
    text = json.dumps(run_scenario(cfg)["per_trial"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS_N6[scenario]


@pytest.mark.parametrize("cap", [1, 2**22])
@pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS))
def test_per_trial_golden_digests_hold_for_every_stack_cap(cap, scenario, monkeypatch):
    # a cap of 1 reads every factor alone, 2^22 stacks every factor of a size
    monkeypatch.setattr(qudit, "STACK_CAP", cap)
    for cfg, digests in [
        (ScenarioConfig(scenario, ProtocolConfig(d=5, n=3, m=2, decoy_count=4), eta=4, trials=25,
                        master_seed=2024), GOLDEN_DIGESTS),
        (ScenarioConfig(scenario, ProtocolConfig(d=10, n=4, m=2, decoy_count=4), eta=3, trials=8,
                        master_seed=2024), GOLDEN_DIGESTS_WIDE),
    ]:
        text = json.dumps(run_scenario(cfg)["per_trial"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digests[scenario]


# SHA-256 of the whole report text as written, minus its duration_seconds
# line: params, per_trial, aggregates, oracle_predictions, versions, key
# order and layout. At small-mix sizes with a tolerated decoy error rate of
# 0.3, and at d=3 with no decoys, where the decoy error rate has no sample.
REPORT_CONFIGS = {
    "small-mix-0.3": (ProtocolConfig(d=5, n=3, m=4, decoy_count=16, error_threshold=0.3), 6, 20),
    "no-decoys": (ProtocolConfig(d=3, n=3, m=1, decoy_count=0), 2, 30),
}
GOLDEN_REPORT_DIGESTS = {
    ("small-mix-0.3", "honest"): "b332be9ec1950545f4d9e7a521d641eeb81a807a7a5910db7a6bcce21c236bb1",
    ("small-mix-0.3", "iqft-attack"): "2bb951504d9626a4ea66f387c6934fc5e74a9399129583b78dbc2f787eea4e94",
    ("small-mix-0.3", "modified-honest"): "32ff61d17dce2f189e8bd2844fe9b26bda3f451749254dd9a3e1fc7e30bc4c52",
    ("small-mix-0.3", "modified-attack"): "3984571c6d96b8ca46da208b27591c67b4842fdd88cf4cb3b29b5d4c104b99ab",
    ("small-mix-0.3", "eve-decoy"): "d7ab5f90bf379167119620f3bef6eb9e1768ecc127169d1c6d2c048c7ec95f5d",
    ("no-decoys", "honest"): "956abf9eabdd0673392622e03354c223f0d1cc137bc80d0c0dee9ccbf459550c",
    ("no-decoys", "iqft-attack"): "60affa6cb8bc76a61f3b6d438fc6b43052e1d3de2515fefda3769936f19f5e41",
    ("no-decoys", "modified-honest"): "16bfec557a2cb8d505b7e46347fc386acd9f6a7109b179d543e1af3a8300b444",
    ("no-decoys", "modified-attack"): "19b92755074528d78b09d2d09dea024b39135a6562d8bd6f95d0f33970e27c6c",
    ("no-decoys", "eve-decoy"): "e72489e96ee6204559c3ccc4c826ed092398710f9729f8354fe15540a690fb72",
}


@pytest.mark.parametrize("config, scenario", sorted(GOLDEN_REPORT_DIGESTS))
def test_whole_report_golden_digest(config, scenario, tmp_path):
    protocol, eta, trials = REPORT_CONFIGS[config]
    out = tmp_path / "r.json"
    write_report(run_scenario(ScenarioConfig(scenario, protocol, eta=eta, trials=trials,
                                             master_seed=777)), out)
    text = "".join(line for line in out.read_text().splitlines(keepends=True)
                   if not line.startswith('  "duration_seconds": '))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORT_DIGESTS[config, scenario]


# The seeded CLI runs README "Determinism" names, per size group: the sizes
# every run of the group shares, then the flags each scenario runs with.
DETERMINISM_RUNS = {
    "small-mix": ("--d 5 --n 3 --m 4 --eta 6 --decoys 16 --trials 20",
                  [f"--seed {s} --threshold {t}" for s in (1, 2, 209, 777) for t in (0, 0.3)]),
    "d7-n4": ("--d 7 --n 4 --m 3 --eta 5 --decoys 8 --trials 40", ["--seed 3", "--seed 4"]),
    "d2-n2": ("--d 2 --n 2 --m 3 --eta 5 --decoys 8 --trials 60", ["--seed 3", "--seed 4"]),
    "d10-n5": ("--d 10 --n 5 --m 2 --eta 3 --decoys 8 --trials 6", ["--seed 5", "--seed 6"]),
    "no-decoys": ("--d 3 --n 3 --m 1 --eta 2 --decoys 0 --trials 50",
                  [f"--seed {s} --threshold {t}" for s in (3, 4) for t in (0, 0.3)]),
    # --fake-r runs only where the dealer forges
    "fixed-secrets": ("--d 10 --n 3 --eta 4 --decoys 4 --trials 10",
                      ["--m 1 --seed 8 --secrets 4 5 6", "--m 2 --seed 9 --secrets 1,2 3,4 5,6",
                       "--m 1 --seed 8 --secrets 4 5 6 --fake-r 2"]),
    # honest, modified-honest and eve-decoy only, as the benchmark runs them
    "wide-register": ("--d 10 --n 6 --m 1 --eta 2 --decoys 16 --trials 4", ["--seed 1"]),
}
WIDE_REGISTER_SCENARIOS = ("honest", "modified-honest", "eve-decoy")

# SHA-256 over each run's report text, minus its duration_seconds line,
# followed by its stdout with the elapsed time and the report path masked
DETERMINISM_DIGESTS = {
    ("small-mix", "honest"): "a0ff7c7e23964ef8da8996b6f74a223d8032c3be6cdf7aa9a38c8b61ab89a53a",
    ("small-mix", "iqft-attack"): "62dd68385ad50b4048564cafd23e6ba38bfe2ef17089881bd5959dd6d2760dbb",
    ("small-mix", "modified-honest"): "8267a9a6d3966fd43405edbd878273a61bdeb40ebe0b2ece9356b6c9a7a502d4",
    ("small-mix", "modified-attack"): "e486816d91add7f2e21a60f2869fed0c5f64699c2e7b7226abacc105f421bd30",
    ("small-mix", "eve-decoy"): "5c006c632bba168120c61c6ac81d4a173b8e1cad1307e8ab28ab33f9ca4756aa",
    ("d7-n4", "honest"): "4c9312f7169d8a00672d75f6e6b05f608aa5c5121f609d86f1755c4b1a65f45d",
    ("d7-n4", "iqft-attack"): "f9790dfb86c0c17e8db11c0be6e1e847fef6c4bdba4aacdc54e22e1e89a0dbfb",
    ("d7-n4", "modified-honest"): "925389ed50d642acb6a1577cc528507a66d41aa6c77244c4a3669cea2384d30c",
    ("d7-n4", "modified-attack"): "c80b22a57b50ac8167e033ae9cdda101577a5ca22aeed654a0205d830a372d19",
    ("d7-n4", "eve-decoy"): "ea1178929c52dead41cff18fff39998b4f84e8c190cc99f1ed51e841cc20dbb3",
    ("d2-n2", "honest"): "977e415a5aa1601e980d13cd368c5a1d97001440629da3d0ce5eece18ce8efaf",
    ("d2-n2", "iqft-attack"): "d4f449ceb6efcc854a4c4ce3529b9b1cdc816d7d6ed65e74f8e3c30a82ddb76e",
    ("d2-n2", "modified-honest"): "32fc5187ddcd82aa2fee03f02284c44e75954888fa94568fc6fed29dd2479291",
    ("d2-n2", "modified-attack"): "39d3a1b7d5442cf834c1bae81426a992ff23c27c5da3e676ad7f9e44324d2af0",
    ("d2-n2", "eve-decoy"): "ae717f7c6ef125d272492fc4c546fecb25220b683c1c698a56d0b974ba1bed1b",
    ("d10-n5", "honest"): "60f6758bfa9ab25d14952c2ae50e043b487ef67ead81756ea76e4561499f7d40",
    ("d10-n5", "iqft-attack"): "f4672045f1bb4ad85019c2ce3824f4fd5b0e90896ec84bad854fb8a507341a17",
    ("d10-n5", "modified-honest"): "1cab8dee66349b7202603b28da54cbe899b5257c6968d327d092cad5447b1529",
    ("d10-n5", "modified-attack"): "74bec0ac826535a42249fdb4ba441375b7b826ec1125f4bdd4e4e2dcfb053511",
    ("d10-n5", "eve-decoy"): "8d53df578e7fac59cc3e83cd057d7c570545a7c88445ace75102ef204a65baec",
    ("no-decoys", "honest"): "aa7af074ff82f719d3d0ec7bbedfaf460d8d0aa50c538a81445cc7bfd1feb7f1",
    ("no-decoys", "iqft-attack"): "74f5283ee2a4d4ccda726490e4f3c5cf10134e5bd69fd7e2158ecaf87bbdcf1c",
    ("no-decoys", "modified-honest"): "3ee1c9c4aa44e5db9e9b28948597613879f4c3bbc1ad8c17352698112270b9dc",
    ("no-decoys", "modified-attack"): "61d55b3317e46e91712c8bceb1d61aa8f95168afbf43e386a7c6b465866f43bd",
    ("no-decoys", "eve-decoy"): "981eb2260e7759f7036f9fae2bf4ec304b4b2b63cdfe52fe255e3afb147d517f",
    ("fixed-secrets", "honest"): "da04c24779d34ddad2d016c1df4f0246eb4aff87091f829a4c6b775ab2a61d64",
    ("fixed-secrets", "iqft-attack"): "6c2628ad5a31fd61399c529d4bbc7fdfa6d70ef4d0c2d68e5748154471388763",
    ("fixed-secrets", "modified-honest"): "93244d70023c1019afa7e4966086e1c7c53a1c0f269fe311de85abc59e950a1a",
    ("fixed-secrets", "modified-attack"): "a9d236b0b054da9d9f438d5d2dcb428f2549c7d04ba66352ae5587b2eccde489",
    ("fixed-secrets", "eve-decoy"): "9403f7b119a1a5e013903c9405521708401a516605f763c422954f1330d0bf09",
    ("wide-register", "honest"): "a2681fe342f70de0cbf2c007dc0f76ef80c89e6c6cea849ef96c1441695766e5",
    ("wide-register", "modified-honest"): "391dd1c68e1411bd09ccc1c86984d24dd112c5ec3827eed42ec96a005c11fdc3",
    ("wide-register", "eve-decoy"): "761154779d01af1527d55a31a1c84ce6633f6effa16bc728a3c291a6f5d1fda2",
}


def _determinism_argvs(group, scenario):
    sizes, variants = DETERMINISM_RUNS[group]
    return [["run", "--scenario", scenario, *sizes.split(), *flags.split()]
            for flags in variants if "--fake-r" not in flags or SCENARIOS[scenario].forged]


@pytest.mark.parametrize("group, scenario", sorted(DETERMINISM_DIGESTS))
def test_determinism_runs_digest(group, scenario, tmp_path, capsys):
    out = tmp_path / "r.json"
    digest = hashlib.sha256()
    for argv in _determinism_argvs(group, scenario):
        assert main([*argv, "--out", str(out)]) == 0
        text = "".join(line for line in out.read_text().splitlines(keepends=True)
                       if not line.startswith('  "duration_seconds": '))
        stdout = re.sub(r" in \d+\.\d+s$", " in <elapsed>s", capsys.readouterr().out, flags=re.M)
        digest.update((text + stdout.replace(str(out), "<out>")).encode())
    assert digest.hexdigest() == DETERMINISM_DIGESTS[group, scenario]


def test_determinism_runs_are_the_readme_runs():
    groups = [(g, s) for g in DETERMINISM_RUNS
              for s in (WIDE_REGISTER_SCENARIOS if g == "wide-register" else SCENARIOS)]
    assert sorted(groups) == sorted(DETERMINISM_DIGESTS)
    assert sum(len(_determinism_argvs(g, s)) for g, s in groups) == 105


def test_different_seed_changes_records():
    a = run_scenario(_cfg("honest", trials=10, seed=1))
    b = run_scenario(_cfg("honest", trials=10, seed=2))
    assert json.dumps(a["per_trial"]) != json.dumps(b["per_trial"])


def test_write_report_round_trip(tmp_path):
    doc = run_scenario(_cfg("honest", trials=4))
    out = tmp_path / "report.json"
    write_report(doc, out)
    data = json.loads(out.read_text())
    assert data["scenario"] == "honest"
    assert len(data["per_trial"]) == 4


def _json_native(value) -> bool:
    """Only the types json.loads returns: no tuples, no numpy scalars."""
    if type(value) is dict:
        return all(type(k) is str and _json_native(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_json_native, value))
    return value is None or type(value) in (str, int, float, bool)


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_written_report_is_the_returned_dict(scenario, tmp_path):
    doc = run_scenario(_cfg(scenario, trials=6, eta=3, error_threshold=0.3))
    out = tmp_path / "r.json"
    write_report(doc, out)
    loaded = json.loads(out.read_text())
    assert loaded == doc
    assert list(loaded) == list(doc)
    assert _json_native(doc)


def test_write_report_missing_directory(tmp_path):
    doc = run_scenario(_cfg("honest", trials=2))
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(FileNotFoundError):
        write_report(doc, target)
    assert not target.exists()


# ---------------------------------------------------------------------------
# CLI contract


def test_cli_list_scenarios(capsys):
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for tag in SCENARIOS:
        assert tag in out


def test_cli_run_writes_report(tmp_path, capsys):
    out = tmp_path / "honest.json"
    code = main(["run", "--scenario", "honest", "--d", "10", "--n", "3", "--m", "1",
                 "--decoys", "2", "--trials", "5", "--seed", "11",
                 "--secrets", "4", "5", "6", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["params"]["secrets"] == [[4], [5], [6]]
    assert all(r["sum"] == [5] for r in data["per_trial"])
    assert "report written" in capsys.readouterr().out


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--scenario", "honest", "--d", "1", "--out", str(out)]) == 2
    assert main(["run", "--scenario", "honest", "--secrets", "1,2",
                 "--out", str(out)]) == 2  # wrong participant count
    assert main(["run", "--scenario", "iqft-attack", "--d", "5", "--fake-r", "7",
                 "--out", str(out)]) == 2
    for scenario in ("honest", "modified-honest", "eve-decoy"):
        assert main(["run", "--scenario", scenario, "--fake-r", "1", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    for seed in ("-1", str(2**64)):  # --seed is the master seed alone
        assert main(["run", "--scenario", "honest", "--seed", seed, "--out", str(out)]) == 2
        assert f"master_seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_output_directory_exits_3(tmp_path, capsys):
    target = tmp_path / "nowhere" / "r.json"
    code = main(["run", "--scenario", "honest", "--trials", "2", "--decoys", "2",
                 "--out", str(target)])
    assert code == 3
    assert not target.exists()
    assert "error:" in capsys.readouterr().err


def test_cli_checks_output_directory_before_running(tmp_path, monkeypatch, capsys):
    def must_not_run(cfg):
        raise AssertionError("run_scenario called despite an unusable --out")

    monkeypatch.setattr("quditsum.cli.run_scenario", must_not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing-dir").mkdir()
    # a missing directory, an existing one, the empty path (the current directory)
    # and a new directory named with a trailing slash
    for target in (str(tmp_path / "nowhere" / "r.json"), "existing-dir", "", "new-dir/"):
        assert main(["run", "--scenario", "honest", "--out", target]) == 3
        assert "error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["existing-dir"]


def test_cli_builds_its_parser_once_per_process(tmp_path, capsys):
    # not at import: a fresh interpreter that imports the CLI has built none
    probe = "import quditsum.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          check=True).stdout.split() == ["0"]
    # then one parser serves runs with different arguments, and a listing between them
    cli.build_parser.cache_clear()
    runs = [("honest", ["--d", "3", "--n", "2", "--m", "1", "--trials", "3", "--seed", "4"],
             ScenarioConfig("honest", ProtocolConfig(d=3, n=2, m=1), eta=6, trials=3, master_seed=4)),
            ("eve-decoy", ["--d", "5", "--n", "3", "--m", "2", "--decoys", "4", "--trials", "2", "--seed", "9"],
             ScenarioConfig("eve-decoy", ProtocolConfig(d=5, n=3, m=2, decoy_count=4), eta=6, trials=2, master_seed=9))]
    for k, (scenario, args, cfg) in enumerate(runs):
        out = tmp_path / f"{scenario}.json"
        assert main(["run", "--scenario", scenario, *args, "--out", str(out)]) == 0
        if k == 0:
            assert main(["--list-scenarios"]) == 0 and "eve-decoy" in capsys.readouterr().out
        assert {**json.loads(out.read_text()), "duration_seconds": 0} == {**run_scenario(cfg), "duration_seconds": 0}
    assert cli.build_parser.cache_info().misses == 1


def test_cli_without_command_exits_2(capsys):
    assert main([]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exact binomial flag band and atomic report writes


def test_band_accepts_seed_209_small_mix_detection():
    # 18 of 20 forgeries detected against an oracle of 0.9802: the lower
    # tail is 0.059, well inside the 4 sigma tail mass
    cfg = ScenarioConfig("modified-attack", ProtocolConfig(d=5, n=3, m=4, decoy_count=16),
                         eta=6, trials=20, master_seed=209)
    aggregates = run_scenario(cfg)["aggregates"]
    assert aggregates["detection_rate"]["value"] == 0.9
    assert aggregates["detection_rate"]["within_4_sigma"] is True
    assert aggregates["flagged"] == []


def test_band_flags_low_tail_and_missed_certainty():
    # 16 of 20 has a lower tail of 5.8e-4: unusual but inside the band
    assert _rate_entry(16, 20, modified_detection_probability(5, 3, 6))["within_4_sigma"] is True
    assert _rate_entry(14, 20, 0.9802)["within_4_sigma"] is False
    assert _rate_entry(19, 20, 1.0)["within_4_sigma"] is False
    assert _rate_entry(0, 20, 0.0)["within_4_sigma"] is True


def test_band_is_exact_at_large_counts():
    # the terms come from log space: no overflow at n = 2 * 10^4
    assert _rate_entry(10_000, 20_000, 0.5)["within_4_sigma"] is True
    assert _rate_entry(9_500, 20_000, 0.5)["within_4_sigma"] is False


def test_write_report_failure_keeps_previous_report(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    write_report(run_scenario(_cfg("honest", trials=2)), out)
    before = out.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_report(run_scenario(_cfg("honest", trials=3)), out)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_report_puts_each_per_trial_record_on_one_line(tmp_path):
    doc = run_scenario(_cfg("modified-honest", trials=6, eta=3))
    out = tmp_path / "r.json"
    write_report(doc, out)
    text = out.read_text()
    assert json.loads(text) == doc
    lines = text.splitlines()
    for record in doc["per_trial"]:
        assert f"    {json.dumps(record)}," in lines or f"    {json.dumps(record)}" in lines
    assert lines[0] == "{" and lines[1].startswith('  "scenario": ') and lines[-1] == "}"
