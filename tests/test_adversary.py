"""Forging-dealer attack and intercept-resend eavesdropper."""

import numpy as np
import pytest
from conftest import assert_within_4sigma

from quditsum import (
    BasisKind,
    IqftAttackPlan,
    ProtocolConfig,
    SecretString,
    apply_iqft,
    apply_qft,
    approx_equal,
    basis_state,
    check_decoys,
    compute_sum,
    eve_intercept_resend,
    fabricate_rounds,
    fake_particle,
    insert_decoys,
    outcome_distribution,
    recover_secret_digit,
    run_protocol,
)

V1, V2 = BasisKind.V1, BasisKind.V2


def _secrets(rows):
    return tuple(SecretString(tuple(r)) for r in rows)


def _attack(cfg, secrets, plan, rng):
    """The forging dealer against the original protocol."""
    return run_protocol(cfg, 0, secrets, fabricate_rounds(cfg, plan), rng)


def _stolen_all(result, secrets):
    return all(result.recovered[i] == tuple(secrets[i - 1].digits)
               for i in range(2, len(secrets) + 1))


# ---------------------------------------------------------------------------
# forged states and digit recovery


def test_fake_particle_is_inverse_fourier_of_basis_state():
    assert approx_equal(fake_particle(10, 2), apply_iqft(basis_state(10, [2]), 0))
    # d=2: IQFT|0> = (|0> + |1>)/sqrt(2)
    assert np.allclose(fake_particle(2, 0).amplitudes, [2**-0.5, 2**-0.5])


def test_fake_particle_encodes_deterministically():
    # QFT . IQFT cancels, the shift lands on a basis state: the honest
    # readout of a forged particle is (r + digit) mod d with certainty
    for d in (2, 5, 10):
        for r in range(d):
            for digit in range(0, d, max(1, d // 3)):
                reg = apply_qft(fake_particle(d, r), 0)
                from quditsum import apply_shift
                reg = apply_shift(reg, 0, digit)
                probs = outcome_distribution(reg, 0, V1)
                assert abs(probs[(r + digit) % d] - 1.0) < 1e-9


def test_recover_secret_digit_examples():
    assert recover_secret_digit(7, 2, 10) == 5
    assert recover_secret_digit(8, 2, 10) == 6
    assert recover_secret_digit(1, 2, 3) == 2  # wraps mod d
    assert recover_secret_digit(0, 0, 2) == 0


def test_recover_secret_digit_validation():
    with pytest.raises(ValueError):
        recover_secret_digit(10, 2, 10)
    with pytest.raises(ValueError):
        recover_secret_digit(0, -1, 10)


# ---------------------------------------------------------------------------
# the full attack on the original protocol


def test_attack_worked_example():
    cfg = ProtocolConfig(d=10, n=3, m=1)
    secrets = _secrets([[4], [5], [6]])
    result = _attack(cfg, secrets, IqftAttackPlan((2,)), np.random.default_rng(0))
    assert {i: result.results[i] for i in (2, 3)} == {2: (7,), 3: (8,)}
    assert result.recovered == {2: (5,), 3: (6,)}
    assert _stolen_all(result, secrets)
    assert result.decoy_mismatches == {2: 0, 3: 0}
    assert result.sum_digits == (5,)
    assert list(result.sum_digits) == compute_sum([s.digits for s in secrets], 10)


def test_attack_steals_every_secret_and_stays_stealthy():
    rng = np.random.default_rng(99)
    for d, n, m in [(2, 2, 3), (5, 3, 2), (7, 4, 6), (10, 3, 1)]:
        cfg = ProtocolConfig(d=d, n=n, m=m, decoy_count=8)
        for _ in range(25):
            secrets = tuple(SecretString.random(d, m, rng) for _ in range(n))
            result = _attack(cfg, secrets, IqftAttackPlan.uniform(d, m, rng), rng)
            assert _stolen_all(result, secrets)
            for i in range(2, n + 1):
                assert result.recovered[i] == tuple(secrets[i - 1].digits)
            assert all(count == 0 for count in result.decoy_mismatches.values())


def test_attack_publishes_correct_sum_when_stealthy():
    cfg = ProtocolConfig(d=7, n=3, m=4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        secrets = tuple(SecretString.random(7, 4, rng) for _ in range(3))
        result = _attack(cfg, secrets, IqftAttackPlan.uniform(7, 4, rng), rng)
        assert list(result.sum_digits) == compute_sum([s.digits for s in secrets], 7)


def test_attack_plan_must_cover_every_round():
    cfg = ProtocolConfig(d=5, n=3, m=3)
    with pytest.raises(ValueError):
        _attack(cfg, _secrets([[1] * 3] * 3), IqftAttackPlan((1,)), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# intercept-resend eavesdropper


def exact_per_decoy_error_rate(d: int, prep_basis: BasisKind) -> float:
    """Enumeration oracle: average over Eve's basis and outcome of the
    probability that the receiver's check misses the recorded value.

    Built purely from outcome_distribution on explicitly constructed
    states, independent of the sampling code under test.
    """
    total = 0.0
    for value in range(d):
        prepared = basis_state(d, [value])
        if prep_basis is V2:
            prepared = apply_qft(prepared, 0)
        mismatch = 0.0
        for eve_basis in (V1, V2):
            eve_probs = outcome_distribution(prepared, 0, eve_basis)
            for eve_value in range(d):
                resent = basis_state(d, [eve_value])
                if eve_basis is V2:
                    resent = apply_qft(resent, 0)
                checker = outcome_distribution(resent, 0, prep_basis)
                mismatch += 0.5 * eve_probs[eve_value] * (1.0 - checker[value])
        total += mismatch / d
    return total


@pytest.mark.parametrize("d,expected", [(2, 0.25), (10, 0.45)])
def test_exact_eve_error_rate_oracle(d, expected):
    # frozen values of (1/2)(1 - 1/d), confirmed by enumeration for both
    # preparation bases
    assert abs(exact_per_decoy_error_rate(d, V1) - expected) < 1e-12
    assert abs(exact_per_decoy_error_rate(d, V2) - expected) < 1e-12


def test_eve_intercept_resend_returns_basis_states():
    rng = np.random.default_rng(8)
    regs = [basis_state(5, [int(rng.integers(5))]) for _ in range(30)]
    resent = eve_intercept_resend([(r, 0) for r in regs], rng)
    assert len(resent) == 30
    for reg in resent:
        # each resent particle is |v> or QFT|v> for some v
        v1_probs = outcome_distribution(reg, 0, V1)
        v2_probs = outcome_distribution(reg, 0, V2)
        assert max(v1_probs.max(), v2_probs.max()) > 1.0 - 1e-9


@pytest.mark.parametrize("d", [2, 10])
def test_eve_disturbance_matches_oracle(d):
    cfg = ProtocolConfig(d=d, n=2, m=1, decoy_count=50)
    rng = np.random.default_rng(77 + d)
    mismatches = 0
    checked = 0
    for _ in range(60):
        regs, recs = insert_decoys(cfg, rng)
        resent = eve_intercept_resend([(r, 0) for r in regs[2]], rng)
        mismatches += check_decoys(recs[2], resent, rng)
        checked += cfg.decoy_count
    assert_within_4sigma(mismatches / checked, 0.5 * (1 - 1 / d), checked)
