"""Acceptance gate: one test per advertised guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines as
they happen; without -s pytest still shows the line of any failing
criterion.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import (
    apply_qft, apply_shift, assert_within_4sigma, basis_state, decoy_words, eve_one_trial, outcome_distribution,
    random_register, random_secret, run_one,
)

from quditsum import (
    BasisKind,
    ProtocolConfig,
    ScenarioConfig,
    apply_iqft,
    check_decoys,
    compute_sum,
    fabricate_rounds,
    fake_particle,
    insert_decoys,
    omega_state,
    prepare_rounds,
    run_scenario,
)
from quditsum.cli import main

V1, V2 = BasisKind.V1, BasisKind.V2


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_c01_worked_example_exact():
    with criterion("criterion 1: worked example, honest sum and attack recovery, < 1s"):
        t0 = time.perf_counter()
        cfg = ProtocolConfig(d=10, n=3, m=1)
        secrets = ((4,), (5,), (6,))

        honest = run_one(cfg, 0, secrets, prepare_rounds(cfg), np.random.default_rng(0))
        assert honest["sum"] == [5]

        forged = fabricate_rounds(cfg, (2,))
        attack = run_one(cfg, 0, secrets, forged, np.random.default_rng(1))
        assert attack["announced"] == [[7], [8]]  # P2, P3
        assert attack["recovered"] == [[5], [6]]
        assert attack["recovered"] == [list(secrets[i - 1]) for i in (2, 3)]
        assert time.perf_counter() - t0 < 1.0


def test_c02_encoded_entangled_support_identity():
    with criterion("criterion 2: encoded shared state supports exactly the right digit sums, < 30s"):
        t0 = time.perf_counter()
        for d in (2, 3, 5, 7):
            for n in (2, 3):
                digit_sums = np.indices((d,) * n).sum(axis=0).reshape(-1)
                expected_mag = d ** (-(n - 1) / 2)
                for digits in itertools.product(range(d), repeat=n):
                    reg = omega_state(d, n)
                    for q, digit in enumerate(digits):
                        reg = apply_qft(reg, q)
                        reg = apply_shift(reg, q, digit)
                    mask = (digit_sums % d) == (sum(digits) % d)
                    amps = reg.amplitudes
                    assert np.abs(amps[~mask]).max(initial=0.0) < 1e-9
                    assert np.allclose(np.abs(amps[mask]), expected_mag, atol=1e-9)
        assert time.perf_counter() - t0 < 30.0


def test_c03_forged_state_chain_identity():
    with criterion("criterion 3: shift(QFT(IQFT|r>)) = |r+k mod d> for every d <= 16, tol 1e-9"):
        for d in range(2, 17):
            for r in range(d):
                fake = fake_particle(d, r)
                for k in range(d):
                    reg = apply_shift(apply_qft(fake, 0), 0, k)
                    target = basis_state(d, [(r + k) % d])
                    assert np.abs(reg.amplitudes - target.amplitudes).max() < 1e-9


def test_c04_honest_sum_always_correct():
    with criterion("criterion 4: honest sum correct in every one of >= 200 randomized trials"):
        trials = 0
        for d in (2, 3, 5, 10):
            for n in (2, 3, 4):
                for m in (1, 4, 8):
                    cfg = ProtocolConfig(d=d, n=n, m=m, decoy_count=4)
                    for rep in range(6):
                        rng = np.random.default_rng((d, n, m, rep))
                        secrets = tuple(random_secret(d, m, rng) for _ in range(n))
                        result = run_one(cfg, 0, secrets, prepare_rounds(cfg), rng)
                        expected = compute_sum(secrets, d)
                        assert result["sum"] == expected
                        trials += 1
        assert trials >= 200


def test_c05_attack_complete_and_stealthy():
    with criterion("criterion 5: attack recovers all secrets with zero decoy errors, >= 100 trials per config"):
        for d, n, m in [(10, 3, 1), (5, 3, 2), (7, 4, 3)]:
            cfg = ProtocolConfig(d=d, n=n, m=m)  # default 16 decoys per channel
            successes = 0
            for rep in range(100):
                rng = np.random.default_rng((5, d, n, m, rep))
                secrets = tuple(random_secret(d, m, rng) for _ in range(n))
                forged = fabricate_rounds(cfg, tuple(int(x) for x in rng.integers(0, d, size=m)))
                result = run_one(cfg, 0, secrets, forged, rng)
                successes += result["recovered"] == [list(secrets[i - 1]) for i in range(2, n + 1)]
                assert result["decoy_error_rates"] == [0.0] * (n - 1)
            assert successes == 100


def test_c06_modified_honest_completeness():
    with criterion("criterion 6: hardened honest runs pass every check, exact and over >= 10^4 samples"):
        # exact amplitude analysis of the checking measurement
        for d, n in [(2, 2), (3, 3), (5, 3), (7, 2)]:
            reg = omega_state(d, n)
            for q in range(n):
                reg = apply_qft(reg, q)
            digit_sums = np.indices((d,) * n).sum(axis=0).reshape(-1)
            support = np.abs(reg.amplitudes) > 1e-12
            # computational check: every possible outcome tuple sums to 0
            assert np.all(digit_sums[support] % d == 0)
            # Fourier-image check: rotating each factor back recovers the
            # diagonal state, so joint results always agree
            back = reg
            for q in range(n):
                back = apply_iqft(back, q)
            stride = (d**n - 1) // (d - 1)
            diagonal = np.zeros(d**n, dtype=bool)
            diagonal[np.arange(d) * stride] = True
            assert np.abs(back.amplitudes[~diagonal]).max(initial=0.0) < 1e-9

        # sampled checks through the full hardened run
        cfg = ProtocolConfig(d=5, n=3, m=1, decoy_count=0)
        checks_seen = 0
        for t in range(1000):
            rng = np.random.default_rng((6, t))
            secrets = tuple(random_secret(5, 1, rng) for _ in range(3))
            result = run_one(cfg, 10, secrets, prepare_rounds(cfg, count=11), rng)
            assert not result["detected"]
            assert all(oc["passed"] for oc in result["checks"])
            checks_seen += len(result["checks"])
            expected = compute_sum(secrets, 5)
            assert result["sum"] == expected
        assert checks_seen >= 10_000


def test_c07_modified_soundness_against_adaptive_dealer():
    with criterion("criterion 7: per-check pass exactly 1 (V1) and d^(1-n) (V2); detection within 4 sigma, < 60s"):
        t0 = time.perf_counter()
        d, n, eta = 5, 3, 6

        # exact per-check analysis from the outcome distribution of each
        # one-qudit factor of the forged round
        for r in range(d):
            fab_cfg = ProtocolConfig(d=d, n=n, m=1)
            fab = fabricate_rounds(fab_cfg, (r,))[0]
            assert len(fab.factors) == n
            v2_laws = []
            for (register, (i,)) in fab.factors:
                after = apply_qft(register, 0)
                v1_probs = outcome_distribution(after, 0, V1)
                # deterministic results: -(n-1)r for P1, r for the rest, so the sum cancels to 0
                assert abs(v1_probs[r if i > 1 else (-(n - 1) * r) % d] - 1.0) < 1e-12
                v2_laws.append(outcome_distribution(after, 0, V2))
                assert np.allclose(v2_laws[-1], 1 / d, atol=1e-12)
            # all n uniform readouts agree
            v2_pass_prob = sum(math.prod(law[a] for law in v2_laws) for a in range(d))
            assert abs(v2_pass_prob - d ** (1 - n)) < 1e-12

        # empirical detection rate over 10^4 trials
        per_check = 0.5 + 0.5 * d ** (1 - n)
        predicted = 1.0 - per_check**eta
        assert predicted == pytest.approx(0.980229390336)
        cfg = ScenarioConfig("modified-attack",
                             ProtocolConfig(d=d, n=n, m=1, decoy_count=0),
                             eta=eta, trials=10_000, master_seed=777)
        doc = run_scenario(cfg)
        agg = doc["aggregates"]["detection_rate"]
        assert agg["oracle"] == pytest.approx(predicted)
        assert_within_4sigma(agg["value"], predicted, 10_000)
        assert agg["within_4_sigma"] is True
        assert doc["aggregates"]["flagged"] == []
        assert time.perf_counter() - t0 < 60.0


def test_c08_eve_disturbance_rate():
    with criterion("criterion 8: intercept-resend decoy error rate within 4 sigma of (1/2)(1-1/d), >= 10^4 decoys"):
        for d in (2, 10):
            cfg = ProtocolConfig(d=d, n=2, m=1, decoy_count=100)
            mismatches = 0
            checked = 0
            for rep in range(100):
                rng = np.random.default_rng((8, d, rep))
                values, v2 = insert_decoys(cfg, decoy_words(cfg, rng))
                pair = values[2], v2[2]
                _, resent = eve_one_trial([], 2, pair, rng, d)
                mismatches += check_decoys(d, pair, resent, rng.random(cfg.decoy_count))
                checked += cfg.decoy_count
            assert checked >= 10_000
            expected = 0.5 * (1.0 - 1.0 / d)
            assert expected == {2: 0.25, 10: 0.45}[d]
            assert_within_4sigma(mismatches / checked, expected, checked)


def test_c09_numerical_hygiene():
    with criterion("criterion 9: norm preserved within 1e-9 over 10^3 random chains; transform round trips"):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            reg = random_register(d, k, rng)
            for _ in range(int(rng.integers(4, 10))):
                op = rng.integers(3)
                target = int(rng.integers(k))
                if op == 0:
                    reg = apply_qft(reg, target)
                elif op == 1:
                    reg = apply_iqft(reg, target)
                else:
                    reg = apply_shift(reg, target, int(rng.integers(d)))
            assert abs(np.sum(np.abs(reg.amplitudes) ** 2) - 1.0) < 1e-9
        for _ in range(100):
            d = int(rng.integers(2, 17))
            reg = random_register(d, 1, rng)
            back = apply_iqft(apply_qft(reg, 0), 0)
            assert np.abs(back.amplitudes - reg.amplitudes).max() < 1e-9


def test_c10_reproducibility_and_cli_contract(tmp_path, capsys):
    with criterion("criterion 10: identical seeds give byte-identical per-trial records; CLI exit codes 0/2/3"):
        cfg = lambda: ScenarioConfig("eve-decoy",
                                     ProtocolConfig(d=10, n=3, m=2, decoy_count=8),
                                     trials=50, master_seed=31337)
        first = run_scenario(cfg())
        second = run_scenario(cfg())
        assert json.dumps(first["per_trial"]) == json.dumps(second["per_trial"])

        out = tmp_path / "report.json"
        argv = ["run", "--scenario", "honest", "--d", "10", "--n", "3", "--m", "1",
                "--decoys", "2", "--trials", "10", "--seed", "4242", "--out", str(out)]
        assert main(argv) == 0
        first_bytes = out.read_bytes()
        assert main(argv) == 0
        second_bytes = out.read_bytes()
        a, b = json.loads(first_bytes), json.loads(second_bytes)
        assert json.dumps(a["per_trial"]) == json.dumps(b["per_trial"])

        assert main(["run", "--scenario", "honest", "--d", "1", "--out", str(out)]) == 2
        missing = tmp_path / "missing" / "r.json"
        assert main(["run", "--scenario", "honest", "--trials", "2", "--decoys", "2",
                     "--out", str(missing)]) == 3
        assert main(["--list-scenarios"]) == 0
        capsys.readouterr()
