"""Hardened protocol: check selection, check execution, detection power."""

from collections import Counter

import numpy as np
import pytest
from conftest import assert_within_4sigma

from quditsum import (
    BasisKind,
    IqftAttackPlan,
    ProtocolConfig,
    SecretString,
    compute_sum,
    execute_check,
    fabricate_rounds,
    prepare_rounds,
    run_protocol,
    select_checks,
    v1_pass,
    v2_pass,
)
from quditsum.verification import CheckAssignment

V1, V2 = BasisKind.V1, BasisKind.V2


def _secrets(rows):
    return tuple(SecretString(tuple(r)) for r in rows)


def _hardened(cfg, eta, secrets, rng, forged=False):
    """One hardened run, the dealer honest or forging every round."""
    total = cfg.m + eta
    if forged:
        rounds = fabricate_rounds(cfg, IqftAttackPlan.uniform(cfg.d, total, rng))
    else:
        rounds = prepare_rounds(cfg, count=total)
    return run_protocol(cfg, eta, secrets, rounds, rng)


# ---------------------------------------------------------------------------
# pass predicates


def test_v1_pass_examples():
    assert v1_pass([1, 1, 3], 5)
    assert v1_pass([0, 0, 0], 5)
    assert not v1_pass([1, 1, 2], 5)
    assert v1_pass([4, 4, 2], 10)


def test_v2_pass_examples():
    assert v2_pass([3, 3, 3])
    assert not v2_pass([3, 3, 2])
    assert v2_pass([7])  # vacuously


# ---------------------------------------------------------------------------
# check selection


def test_select_checks_empty():
    cfg = ProtocolConfig(d=5, n=3, m=2)
    assert select_checks(cfg, 0, np.random.default_rng(0)) == []


def test_select_checks_even_split():
    cfg = ProtocolConfig(d=5, n=3, m=2)
    checks = select_checks(cfg, 6, np.random.default_rng(1))
    shares = Counter(a.chooser for a in checks)
    assert shares == {2: 3, 3: 3}


def test_select_checks_remainder_to_lowest_choosers():
    cfg = ProtocolConfig(d=5, n=4, m=2)
    checks = select_checks(cfg, 7, np.random.default_rng(2))
    shares = Counter(a.chooser for a in checks)
    assert shares == {2: 3, 3: 2, 4: 2}


def test_select_checks_positions_distinct_and_in_range():
    cfg = ProtocolConfig(d=3, n=3, m=4)
    for seed in range(10):
        checks = select_checks(cfg, 5, np.random.default_rng(seed))
        positions = [a.position for a in checks]
        assert positions == sorted(positions)
        assert len(set(positions)) == 5
        assert all(0 <= p < 4 + 5 for p in positions)
        assert all(a.basis in (V1, V2) for a in checks)


def test_select_checks_uses_both_bases():
    cfg = ProtocolConfig(d=3, n=2, m=1)
    checks = select_checks(cfg, 40, np.random.default_rng(3))
    assert {a.basis for a in checks} == {V1, V2}


# ---------------------------------------------------------------------------
# executing checks on genuine states


@pytest.mark.parametrize("d,n", [(2, 2), (5, 3), (7, 4)])
def test_honest_check_v1_sums_to_zero(d, n):
    cfg = ProtocolConfig(d=d, n=n, m=1)
    rng = np.random.default_rng(10 * d + n)
    for _ in range(15):
        state = prepare_rounds(cfg, count=1)[0]
        outcome = execute_check(state, CheckAssignment(2, 0, V1), rng)
        assert outcome.passed
        assert sum(outcome.announced) % d == 0
        assert len(outcome.announced) == n


@pytest.mark.parametrize("d,n", [(2, 2), (5, 3), (7, 4)])
def test_honest_check_v2_all_agree(d, n):
    cfg = ProtocolConfig(d=d, n=n, m=1)
    rng = np.random.default_rng(20 * d + n)
    for _ in range(15):
        state = prepare_rounds(cfg, count=1)[0]
        outcome = execute_check(state, CheckAssignment(2, 0, V2), rng)
        assert outcome.passed
        assert len(set(outcome.announced)) == 1


def test_consumed_check_state_rejected():
    cfg = ProtocolConfig(d=5, n=3, m=1)
    rng = np.random.default_rng(0)
    state = prepare_rounds(cfg, count=1)[0]
    from quditsum import encode_and_measure
    _, used = encode_and_measure(state, 1, 0, rng)
    with pytest.raises(ValueError):
        execute_check(used, CheckAssignment(2, 0, V1), rng)


# ---------------------------------------------------------------------------
# executing checks against the forging dealer


def test_adaptive_dealer_always_passes_v1():
    # the dealer knows r and announces -(n-1) r mod d before anyone else;
    # the honest results are deterministic, so this never fails
    rng = np.random.default_rng(4)
    for d, n in [(2, 2), (5, 3), (10, 4)]:
        cfg = ProtocolConfig(d=d, n=n, m=1)
        for r in range(d):
            fab = fabricate_rounds(cfg, IqftAttackPlan((r,)))[0]
            outcome = execute_check(fab, CheckAssignment(2, 0, V1), rng)
            assert outcome.passed
            assert outcome.announced[0] == (-(n - 1) * r) % d
            assert all(v == r for v in outcome.announced[1:])


def test_adaptive_dealer_v2_pass_rate_is_d_to_one_minus_n():
    # honest Fourier-image results on a forged |r> are uniform i.i.d.;
    # the dealer announces first, so nothing beats d^(1-n)
    d, n, trials = 5, 3, 4000
    cfg = ProtocolConfig(d=d, n=n, m=1)
    rng = np.random.default_rng(55)
    passes = 0
    for _ in range(trials):
        fab = fabricate_rounds(cfg, IqftAttackPlan((int(rng.integers(d)),)))[0]
        outcome = execute_check(fab, CheckAssignment(2, 0, V2), rng)
        passes += outcome.passed
    assert_within_4sigma(passes / trials, d ** (1 - n), trials)


def test_honest_result_on_forged_state_is_uniform_in_v2():
    # exact oracle behind the pass-rate above
    from quditsum import apply_qft, fake_particle, outcome_distribution
    for d in (2, 5, 10):
        for r in range(d):
            reg = apply_qft(fake_particle(d, r), 0)
            probs = outcome_distribution(reg, 0, V2)
            assert np.allclose(probs, np.full(d, 1 / d), atol=1e-12)


# ---------------------------------------------------------------------------
# full hardened runs


def test_modified_honest_never_detects_and_sums_correctly():
    rng = np.random.default_rng(31)
    for d, n, m, eta in [(2, 2, 1, 2), (5, 3, 2, 4), (10, 3, 1, 6)]:
        cfg = ProtocolConfig(d=d, n=n, m=m, decoy_count=4)
        for _ in range(10):
            secrets = tuple(SecretString.random(d, m, rng) for _ in range(n))
            result = _hardened(cfg, eta, secrets, rng)
            assert not result.detected and not result.aborted
            assert len(result.checks) == eta
            assert all(oc.passed for oc in result.checks)
            expected = compute_sum([s.digits for s in secrets], d)
            assert list(result.sum_digits) == expected


def test_modified_attack_with_no_checks_reduces_to_original():
    cfg = ProtocolConfig(d=10, n=3, m=2, decoy_count=4)
    rng = np.random.default_rng(32)
    for _ in range(10):
        secrets = tuple(SecretString.random(10, 2, rng) for _ in range(3))
        result = _hardened(cfg, 0, secrets, rng, forged=True)
        assert not result.detected
        assert all(result.recovered[i] == tuple(secrets[i - 1].digits) for i in (2, 3))


def test_modified_attack_detection_rate():
    d, n, eta, trials = 5, 3, 6, 2000
    cfg = ProtocolConfig(d=d, n=n, m=1, decoy_count=2)
    per_check = 0.5 + 0.5 * d ** (1 - n)
    expected = 1.0 - per_check**eta
    detected = 0
    for t in range(trials):
        rng = np.random.default_rng((9, t))
        secrets = tuple(SecretString.random(d, 1, rng) for _ in range(n))
        result = _hardened(cfg, eta, secrets, rng, forged=True)
        detected += result.detected
    assert_within_4sigma(detected / trials, expected, trials)


def test_modified_attack_abort_stops_at_first_failure():
    cfg = ProtocolConfig(d=5, n=3, m=1, decoy_count=2)
    rng = np.random.default_rng(33)
    saw_abort = False
    for _ in range(50):
        secrets = tuple(SecretString.random(5, 1, rng) for _ in range(3))
        result = _hardened(cfg, 6, secrets, rng, forged=True)
        if result.detected:
            saw_abort = True
            assert result.aborted
            assert not result.checks[-1].passed
            assert all(oc.passed for oc in result.checks[:-1])
            assert result.recovered is None and result.sum_digits is None
    assert saw_abort


def test_modified_attack_undetected_recovers_secrets():
    cfg = ProtocolConfig(d=2, n=2, m=2, decoy_count=2)  # shallow check, frequent escapes
    rng = np.random.default_rng(34)
    undetected = 0
    for _ in range(200):
        secrets = tuple(SecretString.random(2, 2, rng) for _ in range(2))
        result = _hardened(cfg, 2, secrets, rng, forged=True)
        if not result.detected:
            undetected += 1
            assert result.recovered[2] == tuple(secrets[1].digits)
    assert undetected > 0


def test_modified_plan_length_must_cover_checks():
    # run_protocol rejects len(rounds) != m+eta
    cfg = ProtocolConfig(d=5, n=3, m=1)
    with pytest.raises(ValueError):
        run_protocol(cfg, 4, _secrets([[1], [2], [3]]), fabricate_rounds(cfg, IqftAttackPlan((1,))),
                     np.random.default_rng(0))
