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
from conftest import run_one, words_block
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsum import (
    ProtocolConfig,
    ScenarioConfig,
    derive_trial_stream,
    fabricate_rounds,
    fake_particle,
    prepare_rounds,
    run_protocol,
    run_scenario,
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
    trial_layout,
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
    a = derive_trial_stream(42, 3, 2, 268)
    b = derive_trial_stream(42, 3, 2, 268)
    assert a.shape == (2, 268) and a.dtype == np.uint64
    assert np.array_equal(a, b)
    # the words are those of numpy's Philox keyed by the seed, trial t's from word t * width on
    assert np.array_equal(a.reshape(-1), np.random.Philox(key=42).random_raw(5 * 268)[3 * 268:])


def test_derive_trial_stream_differs_across_indices_and_seeds():
    base = derive_trial_stream(42, 0, 1, 4)
    other_index = derive_trial_stream(42, 1, 1, 4)
    other_seed = derive_trial_stream(43, 0, 1, 4)
    assert not np.array_equal(base, other_index)
    assert not np.array_equal(base, other_seed)


def test_derive_trial_stream_validation():
    with pytest.raises(ValueError):
        derive_trial_stream(-1, 0, 1, 4)
    with pytest.raises(ValueError):
        derive_trial_stream(2**64, 0, 1, 4)
    with pytest.raises(ValueError):
        derive_trial_stream(0, -1, 1, 4)
    with pytest.raises(ValueError, match="multiple of 4"):
        derive_trial_stream(0, 0, 1, 6)


@pytest.mark.parametrize("n, m, eta, decoys", [(2, 1, 0, 0), (3, 4, 6, 16), (3, 2, 3, 4), (4, 3, 5, 8), (6, 1, 2, 16),
                                                 (7, 5, 1, 3)])
def test_trial_layout_slices_cover_the_words_once(n, m, eta, decoys):
    # the slices are disjoint and, in order, cover the words but for under 4 words of padding
    layout, width = trial_layout(ProtocolConfig(d=5, n=n, m=m, decoy_count=decoys), eta)
    parts, total = list(layout.values()), m + eta
    assert [p.start for p in parts] == [0] + [p.stop for p in parts[:-1]]
    assert width % 4 == 0 and 0 <= width - parts[-1].stop < 4
    assert {name: p.stop - p.start for name, p in layout.items()} == {
        "secrets": n * m, "plan": total, "decoys": 2 * (n - 1) * decoys, "decoy_u": (n - 1) * decoys,
        "eve_bits": (n - 1) * (total + decoys), "eve_u": (n - 1) * (total + decoys), "checks": total + eta,
        "check_u": n * eta, "encode_u": n * m}


def test_one_trial_replays_as_one_advance_and_its_words():
    # trial 13 of a 20-trial small-mix run reads the same words alone, in its chunk, or after others
    width = trial_layout(ProtocolConfig(d=5, n=3, m=4, decoy_count=16), 6)[1]
    assert width == 268
    alone = derive_trial_stream(1, 13, 1, width)[0]
    assert np.array_equal(alone, derive_trial_stream(1, 0, 20, width)[13])
    assert np.array_equal(alone, derive_trial_stream(1, 10, 5, width)[3])


def test_one_seed_deals_alike_the_scenarios_of_one_protocol_variant():
    # honest, iqft-attack and eve-decoy lay out at eta = 0 whatever eta the run names, and the report
    # echoes it; the hardened two lay out at the run's eta. Each variant's trials replay from its layout
    p = ProtocolConfig(d=5, n=3, m=4, decoy_count=16)
    reports = {name: run_scenario(ScenarioConfig(name, p, eta=6, trials=3, master_seed=1)) for name in SCENARIOS}
    secrets = {name: [t["secrets"] for t in report["per_trial"]] for name, report in reports.items()}
    assert secrets["honest"] == secrets["iqft-attack"] == secrets["eve-decoy"]
    assert secrets["modified-honest"] == secrets["modified-attack"]
    assert secrets["honest"][1][0] == [4, 2, 0, 3] and secrets["modified-honest"][1][0] == [1, 2, 2, 0]
    assert all(report["params"]["eta"] == 6 for report in reports.values())
    for name, eta in (("honest", 0), ("modified-honest", 6)):
        layout, width = trial_layout(p, eta)
        for t, dealt in enumerate(secrets[name]):
            words = derive_trial_stream(1, t, 1, width)[0, layout["secrets"]]
            assert protocol.word_digits(words, p.d).reshape(p.n, p.m).tolist() == dealt


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
    words = words_block(proto, 1, np.random.default_rng(0))
    for eta in (1.0, True, np.int64(1)):
        with pytest.raises(ValueError, match=f"^eta must be an int, got {re.escape(repr(eta))}$"):
            run_protocol(proto, eta, [secrets], [rounds], words)


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
        "222626ab7c6c6e6d824dd6d616c8f2966ae9da0d91f592a0de47c905f636ad7f")
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
    cfg = ProtocolConfig(d=5, n=3, m=1, decoy_count=2)
    words = words_block(cfg, 0, np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"^round 0 does not fit d=5, n=3$"):
        run_protocol(cfg, 0, [((1,), (2,), (3,))], [rounds], words)


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
    """Run one chunk of trials, one per kind of rounds, each trial alone on its row of words, and the chunk
    again with every other trial's words redrawn.

    Asserts each trial's record is the same all three ways; returns the chunk's records.
    """
    total, gen = cfg.m + eta, np.random.default_rng(seed)
    genuine = prepare_rounds(cfg, count=total)
    secrets, rounds = [], []
    for kind in kinds:
        forged = fabricate_rounds(cfg, [int(x) for x in gen.integers(cfg.d, size=total)])
        pick = {"genuine": [False] * total, "forged": [True] * total, "mixed": gen.integers(2, size=total)}[kind]
        rounds.append([f if p else g for f, g, p in zip(forged, genuine, pick)])
        secrets.append(tuple(tuple(int(x) for x in row) for row in gen.integers(cfg.d, size=(cfg.n, cfg.m))))
    words = words_block(cfg, eta, gen, trials=len(kinds))
    records = run_protocol(cfg, eta, secrets, rounds, words, eve=eve)
    assert len(records) == len(kinds)
    for t, record in enumerate(records):
        alone = run_protocol(cfg, eta, secrets[t:t + 1], rounds[t:t + 1], words[t:t + 1], eve=eve)
        others = words_block(cfg, eta, gen, trials=len(kinds))
        others[t] = words[t]
        beside = run_protocol(cfg, eta, secrets, rounds, others, eve=eve)[t]
        assert json.dumps(record) == json.dumps(alone[0]) == json.dumps(beside)
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
    records = _chunk_against_lone_trials(cfg, 2, ["genuine", "forged", "mixed"] * 6, 0, eve=True)
    decoy_abort = [max(r["decoy_error_rates"]) > 0.3 for r in records]
    failed_check = [bool(r["checks"]) and not r["checks"][-1]["passed"] for r in records]
    encoded = [r["sum"] is not None for r in records]
    assert [sum(ends) for ends in zip(decoy_abort, failed_check, encoded)] == [1] * len(records)
    assert any(decoy_abort) and any(failed_check) and any(encoded)
    assert [r["detected"] for r in records] == [not e for e in encoded]


def test_a_trial_draws_in_the_documented_order():
    # the engine reads its decoys and their uniforms, its checks and every
    # check's uniforms, then its encoding's uniforms only if it got that far:
    # redrawing any other slice of its words leaves its record as it was
    cfg, eta = ProtocolConfig(d=3, n=3, m=2, decoy_count=4, error_threshold=1.0), 3
    layout, width = trial_layout(cfg, eta)
    assert width == 96 and [(name, part.start, part.stop) for name, part in layout.items()] == [
        ("secrets", 0, 6), ("plan", 6, 11), ("decoys", 11, 27), ("decoy_u", 27, 35), ("eve_bits", 35, 53),
        ("eve_u", 53, 71), ("checks", 71, 79), ("check_u", 79, 88), ("encode_u", 88, 94)]
    secrets, endings = ((0, 1), (2, 0), (1, 1)), set()
    for seed in range(40):
        gen = np.random.default_rng(seed)
        for rounds in (prepare_rounds(cfg, count=5), fabricate_rounds(cfg, [seed % 3] * 5)):
            words = words_block(cfg, eta, gen)
            record = run_protocol(cfg, eta, [secrets], [rounds], words)[0]
            unread = ["secrets", "plan", "eve_bits", "eve_u"] + (["encode_u"] if record["sum"] is None else [])
            for name in unread:
                redrawn = words.copy()
                redrawn[:, layout[name]] = words_block(cfg, eta, gen)[:, layout[name]]
                assert run_protocol(cfg, eta, [secrets], [rounds], redrawn)[0] == record, name
            endings.add(record["sum"] is None)
    assert endings == {True, False}


def test_run_protocol_needs_secrets_rounds_and_a_stream_per_trial():
    cfg = ProtocolConfig(d=3, n=2, m=1, decoy_count=2)
    message = "^need secrets, rounds and a stream for each of one or more trials: got {}, {} and {}$"
    with pytest.raises(ValueError, match=message.format(2, 1, 1)):
        run_protocol(cfg, 0, [((1,), (2,))] * 2, [prepare_rounds(cfg)], words_block(cfg, 0, np.random.default_rng(0)))
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
    # check builds the states, with one basis_rows call for the chunk, and
    # only of the decoys that did not arrive as sent: none on a clean channel
    calls, real = [], qudit.basis_rows
    monkeypatch.setattr(qudit, "basis_rows", lambda *args: calls.append(args) or real(*args))
    run_scenario(ScenarioConfig(scenario, ProtocolConfig(d=d, n=n, m=m, decoy_count=16), eta=eta, trials=trials))
    assert calls == [] and chunks >= 1
    assert not {"basis_rows", "measure_pairs"} & set(vars(harness))


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


def test_a_run_frees_what_it_built():
    # 200 honest trials at d=128, n=2, each a 256 kB register: once the run returns, only the two
    # d x d Fourier matrices of the per-d cache may stay
    cfg = ScenarioConfig("honest", ProtocolConfig(d=128, n=2, m=4, decoy_count=16), trials=200, master_seed=1)
    tracemalloc.start()
    try:
        run_scenario(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20


def test_an_encoding_builds_no_rotation_per_owner():
    # an encoding is read as the QFT readout plus the digit, so 3 honest trials at d=512, n=2 build no
    # d x d unitary per owner of each round (4 MB each, 56.7 MB at peak when they were built)
    cfg = ScenarioConfig("honest", ProtocolConfig(d=512, n=2, m=4, decoy_count=4), eta=2, trials=3, master_seed=1)
    tracemalloc.start()
    try:
        run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


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
    "honest": "ee82fb07e4a898467f4c647a9e08b5049f965e2d7b98b82cafcecfe492c78c78",
    "iqft-attack": "44fb1b2e7dffe63fc9012eb30960eac059e79fad8ceebbab31dc936d1414c081",
    "modified-honest": "5e26a7dc732d3fd443d3dd94af96f920c0f9a1c3a04acdee192378dec8621799",
    "modified-attack": "28431cb4a818f67997d71c73536ef5a107b85c8827dbf4ada3e62f7d7123d8f7",
    "eve-decoy": "1ec2d31fdb73972749090c17e0a86a04ceddd7dfb82de25328dfa812c5f38c59",
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
    "honest": "4205bfcbeb7e10f5777ada1e9e338ccd316e698080303ca594df337462362919",
    "iqft-attack": "b21128480c6120c2ab7c9b4738c801f490eaae0edb6f8e946c694d449970b1f5",
    "modified-honest": "4573f1df23aeaa9d8a688de0913ab01920df73c5d4ac8b9cc8e859f2e2a922fc",
    "modified-attack": "3daf0b0fd862c783d477f89d5a9ebb8e9aac5def3b793622dcfe172d14a17047",
    "eve-decoy": "3ef98ec29fcd0d4071fefbb680a562ffc004697ad6e9cfbfc210617eacf1d321",
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
    "honest": "4c143ec49ca6a716f8dbef4ecfb67daffe8d819b1ef0a3182f7114ddf4a18e45",
    "modified-honest": "d778ff594c85606ecc2fffa87032b747c21d4b9a612fdcfff507af8e8a1ea851",
    "eve-decoy": "8ca57f7b412be32cd4b9db593f0fdcc58b7800ab868e2250efd5c90f09e951fe",
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
    ("small-mix-0.3", "honest"): "15a55aab9415ed14ef595d66ca00e838a4886c04ac562e4721d1f0ed108490e8",
    ("small-mix-0.3", "iqft-attack"): "33a0d99adf6bd32d6940db222cd94ff21a18fcfb3640c8734f64852ce5949f94",
    ("small-mix-0.3", "modified-honest"): "f669f915b9a925e5536f4d98322d91839c3d087ad5efa9e610ced209150bc250",
    ("small-mix-0.3", "modified-attack"): "6a0abb864937a221b48e6ac4571080425ad2532636af4fcde08963562dbb3428",
    ("small-mix-0.3", "eve-decoy"): "36af0ac1971aae80a3d70192ff5f9c291e9c9111969343c385674a8fc75aa72c",
    ("no-decoys", "honest"): "2ce6c710503b61d0a29867b8e647be2c430c3f0bd879c47f703481524e1049fd",
    ("no-decoys", "iqft-attack"): "683c0a0f9e85cdb7f629f24f6124448f12b3f806b6c5f0bcf82910b0d770d3fd",
    ("no-decoys", "modified-honest"): "c6a16b31d4e5abe0e96c4fb4e69055d77cb5b104366986865039739cf5be2bec",
    ("no-decoys", "modified-attack"): "acd72347fcdfa884e35371ec6708faee6293d6e618e8aa9f69bc2014f8397c80",
    ("no-decoys", "eve-decoy"): "1331e408b94a53948049674d5b58dfab3a33b106d79d7fe31302ccd06077a6e0",
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
    ("small-mix", "honest"): "aa28a14911adc48b413e03ef901d926ac3185e2281a4b079e82047aa2b991dfe",
    ("small-mix", "iqft-attack"): "70e43c2bf26de5198b10299021e4ee44ccf469a9cf6fb189566bfd5d91444bd4",
    ("small-mix", "modified-honest"): "d4a035b2a44a98fcef7eae5437a6499fb0baa8d4a7abc664c82fbc72575abf44",
    ("small-mix", "modified-attack"): "b403ef64b20778cfad074769f4ebea939fb1c5de4fa9f7139233588783392c2f",
    ("small-mix", "eve-decoy"): "d54b7f6440de3ee371cf67bdfe7a9b4b5cf1302c2013e315348b576e1b7bd77a",
    ("d7-n4", "honest"): "a66253d01acbdd9ace9f848d144f2f3ed1d60945e4633132920f7eaa83c08557",
    ("d7-n4", "iqft-attack"): "e0cc4958cfdba60cbde825572e07da03ce9c5546315a0cba0bd22971fa2f448c",
    ("d7-n4", "modified-honest"): "5ce60fe0f6a1de05be6addf8104e32a3735ef40718fa7d3b8ec868c84017e432",
    ("d7-n4", "modified-attack"): "4acb5c0c6478db8d9139f790a9d947ad29ccabca06494a8c6de63a583ffc9dc3",
    ("d7-n4", "eve-decoy"): "26bcb232df39f0c808e555bae08b46ea0df2871b123e27a92acb0d392749874b",
    ("d2-n2", "honest"): "153bc1bccca4632badce955bad6ab23ee7e69e358da94a7d36a4cfd50c70011f",
    ("d2-n2", "iqft-attack"): "357d1cd2c730d35e924d76f0d66a00c5581673ab6e8d12f5c61a3648b2a91a6c",
    ("d2-n2", "modified-honest"): "4845b1fbb8e13b6828bc74ab3938536784354ddd4fa912fd543b51567b5ab828",
    ("d2-n2", "modified-attack"): "58d0d97d00a4d224eca4069676d86844f0793e95eac55a22e561f2ba46359379",
    ("d2-n2", "eve-decoy"): "643209c43752e4c5dbab99304471a02b114c83f43d78f46329ae0e6eb5f0aea5",
    ("d10-n5", "honest"): "f8b4a92bdb8730ae57f32c9faded4b603664b5efb2b8400726149dd52322edb9",
    ("d10-n5", "iqft-attack"): "aed06f14ae5a09d1c4cb6244251f1837111c1b485924484e40cc9eb32db6696e",
    ("d10-n5", "modified-honest"): "497747602264c35d301d58aacc66c1576ea1b0a80f490d58d13078370a9c4394",
    ("d10-n5", "modified-attack"): "c44f717dc188982fe8c8667d489f6bb75f4b7e6e6e3ce4595ba712a36f3aa3bb",
    ("d10-n5", "eve-decoy"): "03e4035987815b8e5ed70c910fcac195dcfbe5667139e0ed812f3acb90ce27e3",
    ("no-decoys", "honest"): "cd7fa1cb544461e7aba3986857d1f378c61f74a5e2191ebe1330a16fca820611",
    ("no-decoys", "iqft-attack"): "a05a1cfb4e8e06718dc5bb95abbc590962a8c377bdb8998a1f1d30736c31378c",
    ("no-decoys", "modified-honest"): "efe144c5a90fd52175a8ebfbe63536767afd7714a94da06222c0a360b56c673d",
    ("no-decoys", "modified-attack"): "013ce7dfc581dc385474dd6abae86bf34527c11ac378cc07039413215876abb0",
    ("no-decoys", "eve-decoy"): "4b3e2ea9e11678b093ba3fb0dffab1e30c01ebbd81f385942152f0f4d9f8846d",
    ("fixed-secrets", "honest"): "c05696d11980c7230382475812e316651ad2b7b98fd48c4b750e711845474c5a",
    ("fixed-secrets", "iqft-attack"): "ed27a42b8d79b0f3721f99a81ec040d73102baee4be168bf4624ad06d212ad0c",
    ("fixed-secrets", "modified-honest"): "47022a96dc1d8d299b27435870799af814c1dad001a73a16a5bf571cc9741ba5",
    ("fixed-secrets", "modified-attack"): "6b4b4901917eb3f87e2d80213c24cf9916cd0d1b994e2f5de7c5f25e60dec2b4",
    ("fixed-secrets", "eve-decoy"): "d1ec01e73c4fb5b4c482b8a0ca539667532451ab12d5c691a49b38f48b7a3264",
    ("wide-register", "honest"): "6caa5c112d7288e03cbbeae479e00bb7bf13b470416753c5cb92f2d479842871",
    ("wide-register", "modified-honest"): "4728d8d1576d31e0060f07ae775975c22bf173ba2051a52e2a9470799824437d",
    ("wide-register", "eve-decoy"): "704e4129db8246b3ea6f9c72cee8ecc5987887620b585e43482232593a37d0f6",
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
    oracle = modified_detection_probability(5, 3, 6)
    assert _rate_entry(18, 20, oracle)["within_4_sigma"] is True
    cfg = ScenarioConfig("modified-attack", ProtocolConfig(d=5, n=3, m=4, decoy_count=16),
                         eta=6, trials=20, master_seed=209)
    aggregates = run_scenario(cfg)["aggregates"]
    assert aggregates["detection_rate"]["oracle"] == oracle
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
