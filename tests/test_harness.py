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
        "9942053eabf3c4e46ffc14a6db62d12e2a1b0bbbbe09af589576be30f7cccec6")
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
    # 200 honest trials at d=128, n=2 encode up to 128 distinct digits, a 256 kB matrix each: once the
    # run returns, only the two d x d Fourier matrices of the per-d cache may stay
    cfg = ScenarioConfig("honest", ProtocolConfig(d=128, n=2, m=4, decoy_count=16), trials=200, master_seed=1)
    tracemalloc.start()
    try:
        run_scenario(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20


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
    "eve-decoy": "c79b35691a80a0dcc4afe2417c5c9284f248ed84ef677023d8ac6a8397726f61",
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
    ("small-mix-0.3", "honest"): "f6fb839db8b1cb39ce0b3e0cb82295efc8cd83a3270d91f5f76d1497fa877ecf",
    ("small-mix-0.3", "iqft-attack"): "4adaff7d2df0bb39db2601b340477aef5d9b5ff218acdb2f69a0532083802d4e",
    ("small-mix-0.3", "modified-honest"): "1ce9c5d4dd47edbe488086f3138a552a4bf64226b04de4ab6f7bef961581b0d4",
    ("small-mix-0.3", "modified-attack"): "faef8c75042ae4f7abe09550aea5668c084aae57089eea13a4d533c556248cd3",
    ("small-mix-0.3", "eve-decoy"): "dbdf486af4c1683fc193df3983597af2a481b230af2f4c62215ee92a9555ffdd",
    ("no-decoys", "honest"): "f4865441d8cb6dc776239041266b8ef3ed91c8bda09a8fa4cc22e4507b7b0985",
    ("no-decoys", "iqft-attack"): "5daae4a03e2345d5560a1a27165186f8749bd7339d3dc7fb919cfda557a99396",
    ("no-decoys", "modified-honest"): "7d1125789a1ac9f2a32e61b1476d8afebd4c402f0ee93becbcaf91e754dbc081",
    ("no-decoys", "modified-attack"): "2f8c58bea728ed24e087c7e45ea528f87e66a5e5c914d9622a897d6253209534",
    ("no-decoys", "eve-decoy"): "0900db95e3669ecaa3fe19bcc4f459e505edeeb2dd5de3addd697fd3d44d2ce0",
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
    ("small-mix", "honest"): "4b075474aea1a602ea2ccbdeec9495467c5c939cedb49364c5f62a15650a1740",
    ("small-mix", "iqft-attack"): "a3c5d642f5b3d56dc12e88b45fa3687390e180d5d28cf2dcbc6ed25d6b049bfa",
    ("small-mix", "modified-honest"): "b02c670f63e897e87cb6798a7e4b07f4648099c07c20d6f71ae600dcdb17dcdf",
    ("small-mix", "modified-attack"): "f8acd7c76e22c59e0e1152296224b7495109313554ba6252a3cbe11751cef4ac",
    ("small-mix", "eve-decoy"): "4814c1a2e36a613cd21736f25d572be9942f4c3a6e53b3c9c2f27638025efa17",
    ("d7-n4", "honest"): "92c5f4a1f07b35ddbd5628a8e1c61d87f236c443f63e950c484351bc15e9c142",
    ("d7-n4", "iqft-attack"): "b642b4bfb8257fb41b28d5e68179902c3d63963a7fd1805a9456ea1e17c18064",
    ("d7-n4", "modified-honest"): "22fcbec12772bc423a3ea0a6ebf152b6b31843eaa5ea22fc8f352e9eecfe9f2f",
    ("d7-n4", "modified-attack"): "78b3acd0d9953f30d85a5f46b641d662b4cbc9e59119c6013132c2554d35fef3",
    ("d7-n4", "eve-decoy"): "7a55f7be61c2592a806344173e64aded7cc263d5bd3feb4ca48cff270e078d29",
    ("d2-n2", "honest"): "ef3d5630940a1e8caebb85f5d4290ca858021dce49402cbc21b1a8ef56c44a77",
    ("d2-n2", "iqft-attack"): "8fcbfd5f8fff120c4253511a50b98eb70191382bc12d5e4f8474c5eb4db4981d",
    ("d2-n2", "modified-honest"): "295f9ce6710f6f7c37dc2a885c3ae0204834d15525362105fbb380ee7d83d504",
    ("d2-n2", "modified-attack"): "b83e5bb0784a9900712681089beb1dd99b9653dabce43286c3172be739ef8cdb",
    ("d2-n2", "eve-decoy"): "c3a14b9db3cb75de167306436df52170606c879ed50bff5cbec7c5f3bd0c6232",
    ("d10-n5", "honest"): "3a7b22b85398b58734e4a052c954ba3a7eb0e84cbf5e8e5857df069274bd3fa8",
    ("d10-n5", "iqft-attack"): "335deee068c961e325d395d650f4b02e6aff85157c920062695aad0b581a526b",
    ("d10-n5", "modified-honest"): "7269fac5a0849ae61fb39aeeab288a7497fbed33401292b8a73a18528ccaa27f",
    ("d10-n5", "modified-attack"): "edb5e7211c98519f183d383b910f632a7ebc60145719b6a066f769151be0c33f",
    ("d10-n5", "eve-decoy"): "4f9a7859ddf03537e027fe9205d61a94917746c24a6e6d833e79b5fc2b594162",
    ("no-decoys", "honest"): "aea3fc567b26a84f77079d3ae89801f351e2a59da8b668b468a2c15f0937bb07",
    ("no-decoys", "iqft-attack"): "f206f766cc3f5bb47db86b939f8296f479c15a2b9cd090cdcd6d3b342aa5a8d9",
    ("no-decoys", "modified-honest"): "34d036859b150525392399872a2c8879d82c2e33a0347b92567954552170a132",
    ("no-decoys", "modified-attack"): "27c29a4bf21e315e4b46cc71e43dbb60a5b88c0032dff9f1d6c16c9f01dbdee6",
    ("no-decoys", "eve-decoy"): "6ad1cef3f9243052179f873392eef2bc3a3930d72dd188e5b4b3976b89a00371",
    ("fixed-secrets", "honest"): "2730bb9d9bcd7dfa66e8327ec4ecb537cfbb8c554d588d51f465ec06819c0e42",
    ("fixed-secrets", "iqft-attack"): "8b9337bd7ec4b32a9cc31eabeb3a87d0ab940206365899c128e25314602ff696",
    ("fixed-secrets", "modified-honest"): "b917d980261367367eb20f0a167a4824b0ee53cfc7fbb651cc4ed6f1bddaa810",
    ("fixed-secrets", "modified-attack"): "9f9c7d28e41cc040960963f9bfebce0a81f95d2b01239bc55ea2e38da8c7545a",
    ("fixed-secrets", "eve-decoy"): "60cd6c24f9bf5b193167eb014cbc85f58565503e761af917eb7d2e5020fb19d6",
    ("wide-register", "honest"): "cd70eb49db4e0dcbd4783a2e50f706d1ba674b124e1ff9633ea01cf7be183fce",
    ("wide-register", "modified-honest"): "05858a571e469ccb0c53b6c64e7495da3ec0790ec87b18c19e8b8c6d11d1b92c",
    ("wide-register", "eve-decoy"): "b72a9dfe9f105fec35fc0392a3b26c241de57f5f7e8837d686f55fd260979981",
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
