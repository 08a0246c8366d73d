"""Original protocol: rounds, decoys, encoding, announcements."""

import numpy as np
import pytest

from quditsum import (
    BasisKind,
    ProtocolConfig,
    SecretString,
    apply_qft,
    approx_equal,
    basis_state,
    check_decoys,
    compute_sum,
    encode_and_measure,
    insert_decoys,
    omega_state,
    outcome_distribution,
    prepare_rounds,
    run_protocol,
    validate_secrets,
)
from quditsum.protocol import RoundState


def _secrets(digit_rows):
    return tuple(SecretString(tuple(row)) for row in digit_rows)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(d=1, n=3, m=1)
    with pytest.raises(ValueError):
        ProtocolConfig(d=5, n=1, m=1)
    with pytest.raises(ValueError):
        ProtocolConfig(d=5, n=3, m=0)
    with pytest.raises(ValueError):
        ProtocolConfig(d=5, n=3, m=1, decoy_count=-1)
    with pytest.raises(ValueError):
        ProtocolConfig(d=5, n=3, m=1, error_threshold=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(d=2, n=23, m=1)  # register would exceed the cap


def test_validate_secrets():
    cfg = ProtocolConfig(d=5, n=3, m=2)
    validate_secrets(cfg, _secrets([[0, 1], [2, 3], [4, 0]]))
    with pytest.raises(ValueError):
        validate_secrets(cfg, _secrets([[0, 1], [2, 3]]))
    with pytest.raises(ValueError):
        validate_secrets(cfg, _secrets([[0], [2], [4]]))
    with pytest.raises(ValueError):
        validate_secrets(cfg, _secrets([[0, 1], [2, 3], [4, 5]]))


# ---------------------------------------------------------------------------
# preparation


def test_prepare_rounds_shares_the_entangled_state():
    cfg = ProtocolConfig(d=10, n=3, m=4)
    rounds = prepare_rounds(cfg)
    assert len(rounds) == 4
    for j, state in enumerate(rounds):
        assert state.index == j
        assert state.owners == (1, 2, 3)
        assert state.measured == frozenset()
        assert approx_equal(state.register, omega_state(10, 3))


def test_prepare_rounds_count_override():
    cfg = ProtocolConfig(d=3, n=2, m=2)
    assert len(prepare_rounds(cfg, count=7)) == 7


def test_insert_decoys_shapes_and_records():
    cfg = ProtocolConfig(d=7, n=4, m=5, decoy_count=12)
    rng = np.random.default_rng(42)
    regs, recs = insert_decoys(cfg, rng)
    assert set(regs) == {2, 3, 4}
    for i in (2, 3, 4):
        assert len(regs[i]) == 12
        positions = [r.position for r in recs[i]]
        assert positions == sorted(positions)
        assert len(set(positions)) == 12
        assert all(0 <= p < 5 + 12 for p in positions)
        for rec, reg in zip(recs[i], regs[i]):
            assert 0 <= rec.value < 7
            expected = basis_state(7, [rec.value])
            if rec.basis is BasisKind.V2:
                expected = apply_qft(expected, 0)
            assert approx_equal(reg, expected)


def test_insert_decoys_uses_both_bases():
    cfg = ProtocolConfig(d=2, n=2, m=1, decoy_count=40)
    _, recs = insert_decoys(cfg, np.random.default_rng(1))
    bases = {r.basis for r in recs[2]}
    assert bases == {BasisKind.V1, BasisKind.V2}


def test_zero_decoys_allowed():
    cfg = ProtocolConfig(d=5, n=3, m=1, decoy_count=0)
    regs, recs = insert_decoys(cfg, np.random.default_rng(0))
    assert regs[2] == [] and recs[3] == []
    assert check_decoys(recs[2], regs[2], np.random.default_rng(0)) == 0


def test_check_decoys_clean_channel_is_exactly_zero():
    cfg = ProtocolConfig(d=10, n=3, m=4, decoy_count=20)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        regs, recs = insert_decoys(cfg, rng)
        for i in (2, 3):
            assert check_decoys(recs[i], regs[i], rng) == 0


def test_check_decoys_rejects_length_mismatch():
    cfg = ProtocolConfig(d=5, n=2, m=1, decoy_count=3)
    rng = np.random.default_rng(0)
    regs, recs = insert_decoys(cfg, rng)
    with pytest.raises(ValueError):
        check_decoys(recs[2], regs[2][:-1], rng)


# ---------------------------------------------------------------------------
# encoding


def test_encode_and_measure_on_forged_state_is_deterministic():
    # the attack's fake state IQFT|2> with digit 5 reads out 7, always
    from quditsum import fake_particle
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = RoundState(0, fake_particle(10, 2), owners=(2,))
        value, after = encode_and_measure(state, 2, 5, rng)
        assert value == 7
        assert after.measured == frozenset({2})


def test_encode_rejects_double_measurement():
    cfg = ProtocolConfig(d=5, n=3, m=1)
    rng = np.random.default_rng(0)
    state = prepare_rounds(cfg)[0]
    _, state = encode_and_measure(state, 2, 3, rng)
    with pytest.raises(ValueError):
        encode_and_measure(state, 2, 3, rng)


def test_encode_rejects_foreign_participant_and_bad_digit():
    cfg = ProtocolConfig(d=5, n=2, m=1)
    state = prepare_rounds(cfg)[0]
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        encode_and_measure(state, 3, 0, rng)
    with pytest.raises(ValueError):
        encode_and_measure(state, 1, 5, rng)


def test_encoded_results_sum_to_secret_total():
    # every trial, not statistically: the support of the encoded state
    # only contains digit tuples with the right mod-d sum
    rng = np.random.default_rng(5)
    for d, n in [(2, 2), (3, 3), (5, 3), (10, 4)]:
        cfg = ProtocolConfig(d=d, n=n, m=1)
        for _ in range(10):
            digits = [int(x) for x in rng.integers(0, d, size=n)]
            state = prepare_rounds(cfg)[0]
            values = []
            for i in range(1, n + 1):
                v, state = encode_and_measure(state, i, digits[i - 1], rng)
                values.append(v)
            assert sum(values) % d == sum(digits) % d


def test_single_encoded_qudit_is_uniform():
    # one participant's announced digit alone carries no information
    cfg = ProtocolConfig(d=5, n=3, m=1)
    reg = omega_state(5, 3)
    reg = apply_qft(reg, 1)
    from quditsum import apply_shift
    reg = apply_shift(reg, 1, 3)
    probs = outcome_distribution(reg, 1, BasisKind.V1)
    assert np.allclose(probs, np.full(5, 0.2), atol=1e-12)


# ---------------------------------------------------------------------------
# summation


def test_compute_sum_examples():
    assert compute_sum([[4], [5], [6]], 10) == [5]
    assert compute_sum([[1, 2], [2, 2]], 3) == [0, 1]
    assert compute_sum([[0, 0, 0]], 7) == [0, 0, 0]


def test_compute_sum_validation():
    with pytest.raises(ValueError):
        compute_sum([], 5)
    with pytest.raises(ValueError):
        compute_sum([[1, 2], [3]], 5)
    with pytest.raises(ValueError):
        compute_sum([[5]], 5)


# ---------------------------------------------------------------------------
# full honest runs


def test_worked_example_digits():
    cfg = ProtocolConfig(d=10, n=3, m=1)
    secrets = _secrets([[4], [5], [6]])
    for seed in range(50):
        result = run_protocol(cfg, 0, secrets, prepare_rounds(cfg), np.random.default_rng(seed))
        assert result.sum_digits == (5,)


def test_honest_sum_correct_across_grid():
    # every trial must come out right; correctness is structural
    trial = 0
    for d in (2, 3, 5, 10):
        for n in (2, 3, 4):
            for m in (1, 4):
                cfg = ProtocolConfig(d=d, n=n, m=m, decoy_count=4)
                rng = np.random.default_rng(1000 + trial)
                secrets = tuple(SecretString.random(d, m, rng) for _ in range(n))
                result = run_protocol(cfg, 0, secrets, prepare_rounds(cfg), rng)
                expected = compute_sum([s.digits for s in secrets], d)
                assert list(result.sum_digits) == expected
                trial += 1


def test_announcements_state_results_then_sum():
    cfg = ProtocolConfig(d=5, n=4, m=2)
    secrets = _secrets([[1, 2], [3, 4], [0, 0], [2, 1]])
    result = run_protocol(cfg, 0, secrets, prepare_rounds(cfg), np.random.default_rng(3))
    assert list(result.results) == [1, 2, 3, 4]
    assert all(len(row) == 2 for row in result.results.values())
    rows = [result.results[i] for i in (1, 2, 3, 4)]
    assert list(result.sum_digits) == compute_sum(rows, 5)


def test_run_rejects_wrong_secrets():
    cfg = ProtocolConfig(d=5, n=3, m=2)
    with pytest.raises(ValueError):
        run_protocol(cfg, 0, _secrets([[1, 2], [3, 4]]), prepare_rounds(cfg),
                     np.random.default_rng(0))
