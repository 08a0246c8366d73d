"""Scenario runner, report schema, reproducibility, CLI contract."""

import hashlib
import json

import numpy as np
import pytest

from quditsum import (
    ProtocolConfig,
    ScenarioConfig,
    SecretString,
    derive_trial_stream,
    run_scenario,
    wilson_interval,
    write_report,
)
from quditsum.cli import main
from quditsum.harness import (
    SCENARIOS,
    eve_detection_probability,
    eve_per_decoy_error_rate,
    modified_detection_probability,
    modified_per_check_pass_probability,
)


def _cfg(scenario, trials=20, seed=7, **kw):
    proto = ProtocolConfig(
        d=kw.pop("d", 5),
        n=kw.pop("n", 3),
        m=kw.pop("m", 2),
        decoy_count=kw.pop("decoy_count", 4),
        error_threshold=kw.pop("error_threshold", 0.0),
        seed=seed,
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
    with pytest.raises(ValueError):
        _cfg("honest", secrets=(SecretString((0,)),))


def test_honest_scenario_report():
    doc = run_scenario(_cfg("honest", trials=30))
    assert doc.scenario == "honest"
    assert len(doc.per_trial) == 30
    agg = doc.aggregates["sum_correct_rate"]
    assert agg["value"] == 1.0 and agg["n"] == 30
    assert agg["within_4_sigma"] is True
    assert doc.aggregates["flagged"] == []
    assert doc.oracle_predictions == {"sum_correct_rate": 1.0}
    assert "detection_rate" not in doc.aggregates


def test_iqft_attack_scenario_report():
    doc = run_scenario(_cfg("iqft-attack", trials=25))
    assert doc.aggregates["recovery_success_rate"]["value"] == 1.0
    assert doc.aggregates["mean_decoy_error_rate"]["value"] == 0.0
    assert "detection_rate" not in doc.aggregates
    for record in doc.per_trial:
        assert record["recovery_success"]
        assert record["decoy_error_rates"] == [0.0, 0.0]


def test_modified_honest_scenario_report():
    doc = run_scenario(_cfg("modified-honest", trials=25, eta=4))
    assert doc.aggregates["sum_correct_rate"]["value"] == 1.0
    assert doc.aggregates["check_pass_rate"]["value"] == 1.0
    assert doc.aggregates["check_pass_rate"]["n"] == 25 * 4
    assert "detection_rate" not in doc.aggregates


def test_modified_attack_scenario_report():
    doc = run_scenario(_cfg("modified-attack", trials=120, eta=6))
    agg = doc.aggregates["detection_rate"]
    assert agg["n"] == 120
    assert agg["oracle"] == pytest.approx(1 - 0.52**6)
    assert doc.oracle_predictions["per_check_pass_probability"] == pytest.approx(0.52)
    detected = sum(1 for r in doc.per_trial if r["detected"])
    assert agg["value"] == detected / 120
    for record in doc.per_trial:
        if record["detected"]:
            assert record["recovered"] is None
        else:
            assert record["recovery_success"]


def test_eve_decoy_scenario_report():
    doc = run_scenario(_cfg("eve-decoy", trials=60, d=10, decoy_count=8))
    assert "detection_rate" in doc.aggregates
    assert doc.aggregates["mean_decoy_error_rate"]["oracle"] == 0.45
    assert doc.oracle_predictions["per_decoy_error_rate"] == 0.45
    assert doc.aggregates["mean_decoy_error_rate"]["n"] == 60 * 2 * 8


def test_fixed_secrets_and_fake_r_are_honored():
    secrets = (SecretString((4, 1)), SecretString((5, 0)), SecretString((6, 2)))
    doc = run_scenario(_cfg("iqft-attack", trials=5, d=10, secrets=secrets, fake_r=2))
    for record in doc.per_trial:
        assert record["secrets"] == [[4, 1], [5, 0], [6, 2]]
        assert record["fake_r"] == [2, 2]
        assert record["recovered"] == [[5, 0], [6, 2]]


def test_report_schema_keys():
    doc = run_scenario(_cfg("honest", trials=3))
    data = doc.to_dict()
    assert list(data) == ["scenario", "params", "per_trial", "aggregates",
                          "oracle_predictions", "schema_version", "tool_version",
                          "duration_seconds"]
    assert data["schema_version"] == 1
    assert data["params"]["d"] == 5
    assert data["params"]["master_seed"] == 7


def test_reports_are_reproducible_bit_for_bit():
    for scenario in sorted(SCENARIOS):
        first = run_scenario(_cfg(scenario, trials=12, eta=3))
        second = run_scenario(_cfg(scenario, trials=12, eta=3))
        a = json.dumps(first.per_trial)
        b = json.dumps(second.per_trial)
        assert a == b, f"{scenario} per-trial records differ between identical runs"
        da, db = first.to_dict(), second.to_dict()
        da.pop("duration_seconds"), db.pop("duration_seconds")
        assert json.dumps(da) == json.dumps(db)


# SHA-256 of each scenario's canonical per_trial JSON at a fixed
# configuration. Any change to the seeded draw order or to a record's
# contents moves these; such a change needs a version bump.
GOLDEN_DIGESTS = {
    "honest": "23cbd088b48090dc6640e539f29c6c8538a73b1cea9a822563632b2053a8d291",
    "iqft-attack": "74b60b8c71c7d46b1e916d285921f645a6355c5587b5c3742d3573a9182fe5f1",
    "modified-honest": "15e81155841ebd78c8ba4a2f0a0ff4ac29599a10c0b78d548ff6e5ea3fda80ac",
    "modified-attack": "c0d1954ab408b4934205a43973993f88086e575e2f4b54abb4898b0ef20610fb",
    "eve-decoy": "b89dbe20bf33a1155bb928b5ec3891bcf8ca7287907c57daae90db4d1a915b60",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS))
def test_per_trial_golden_digest(scenario):
    cfg = ScenarioConfig(scenario, ProtocolConfig(d=5, n=3, m=2, decoy_count=4),
                         eta=4, trials=25, master_seed=2024)
    text = json.dumps(run_scenario(cfg).per_trial, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[scenario]


def test_different_seed_changes_records():
    a = run_scenario(_cfg("honest", trials=10, seed=1))
    b = run_scenario(_cfg("honest", trials=10, seed=2))
    assert json.dumps(a.per_trial) != json.dumps(b.per_trial)


def test_write_report_round_trip(tmp_path):
    doc = run_scenario(_cfg("honest", trials=4))
    out = tmp_path / "report.json"
    write_report(doc, out)
    data = json.loads(out.read_text())
    assert data["scenario"] == "honest"
    assert len(data["per_trial"]) == 4


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
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_cli_missing_output_directory_exits_3(tmp_path, capsys):
    target = tmp_path / "nowhere" / "r.json"
    code = main(["run", "--scenario", "honest", "--trials", "2", "--decoys", "2",
                 "--out", str(target)])
    assert code == 3
    assert not target.exists()
    assert "error:" in capsys.readouterr().err


def test_cli_checks_output_directory_before_running(tmp_path, monkeypatch, capsys):
    def must_not_run(cfg):
        raise AssertionError("run_scenario called despite a missing output directory")

    monkeypatch.setattr("quditsum.cli.run_scenario", must_not_run)
    target = tmp_path / "nowhere" / "r.json"
    assert main(["run", "--scenario", "honest", "--out", str(target)]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_without_command_exits_2(capsys):
    assert main([]) == 2
    assert "error" in capsys.readouterr().err
