"""Forging-dealer attack and intercept-resend eavesdropper."""

import itertools

import numpy as np
import pytest
from conftest import (
    apply_encode, apply_qft, apply_shift, approx_equal, assert_within_4sigma, basis_state,
    decoy_words, eve_one_trial, outcome_distribution, random_secret, run_one,
)

from quditsum import (
    BasisKind,
    ProtocolConfig,
    QuditRegister,
    apply_iqft,
    check_decoys,
    compute_sum,
    eve_intercept_resend,
    fabricate_rounds,
    fake_particle,
    insert_decoys,
    omega_state,
    prepare_rounds,
    recover_secret_digit,
)
from quditsum.harness import _within_band
from quditsum.qudit import _iqft_matrix, _qft_matrix, basis_rows

V1, V2 = BasisKind.V1, BasisKind.V2


def _secrets(rows):
    return tuple(tuple(r) for r in rows)


def _attack(cfg, secrets, r_choices, rng):
    """The forging dealer against the original protocol; returns the run's record."""
    return run_one(cfg, 0, secrets, fabricate_rounds(cfg, r_choices), rng)


def _uniform_r(d, rounds, rng):
    """The forging dealer's fabrication values, drawn as the harness draws them."""
    return tuple(int(x) for x in rng.integers(0, d, size=rounds))


def _stolen_all(result, secrets):
    return result["recovered"] == [list(secrets[i - 1]) for i in range(2, len(secrets) + 1)]


# ---------------------------------------------------------------------------
# forged states and digit recovery


def test_fake_particle_is_inverse_fourier_of_basis_state():
    assert approx_equal(fake_particle(10, 2), apply_iqft(basis_state(10, [2]), 0))
    # d=2: IQFT|0> = (|0> + |1>)/sqrt(2)
    assert np.allclose(fake_particle(2, 0).amplitudes, [2**-0.5, 2**-0.5])
    # row r of the symmetric IQFT matrix is IQFT|r> bit for bit
    for d in range(2, 33):
        for r in range(d):
            particle = fake_particle(d, r)
            assert (particle.d, particle.k) == (d, 1)
            assert np.array_equal(particle.amplitudes, apply_iqft(basis_state(d, [r]), 0).amplitudes)
            assert not particle.amplitudes.flags.writeable


def test_fake_particle_encodes_deterministically():
    # QFT . IQFT cancels, the shift lands on a basis state: the honest
    # readout of a forged particle is (r + digit) mod d with certainty
    for d in (2, 5, 10):
        for r in range(d):
            for digit in range(0, d, max(1, d // 3)):
                reg = apply_qft(fake_particle(d, r), 0)
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
    result = _attack(cfg, secrets, (2,), np.random.default_rng(0))
    assert result["announced"] == [[7], [8]]  # P2, P3
    assert result["recovered"] == [[5], [6]]
    assert _stolen_all(result, secrets)
    assert result["decoy_error_rates"] == [0.0, 0.0] and result["decoy_mismatches"] == 0
    assert result["sum"] == [5]
    assert result["sum"] == compute_sum(secrets, 10)


def test_attack_steals_every_secret_and_stays_stealthy():
    rng = np.random.default_rng(99)
    for d, n, m in [(2, 2, 3), (5, 3, 2), (7, 4, 6), (10, 3, 1)]:
        cfg = ProtocolConfig(d=d, n=n, m=m, decoy_count=8)
        for _ in range(25):
            secrets = tuple(random_secret(d, m, rng) for _ in range(n))
            result = _attack(cfg, secrets, _uniform_r(d, m, rng), rng)
            assert _stolen_all(result, secrets)
            for i in range(2, n + 1):
                assert result["recovered"][i - 2] == list(secrets[i - 1])
            assert result["decoy_error_rates"] == [0.0] * (n - 1)


def test_attack_publishes_correct_sum_when_stealthy():
    cfg = ProtocolConfig(d=7, n=3, m=4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        secrets = tuple(random_secret(7, 4, rng) for _ in range(3))
        result = _attack(cfg, secrets, _uniform_r(7, 4, rng), rng)
        assert result["sum"] == compute_sum(secrets, 7)


def test_attack_plan_must_cover_every_round():
    cfg = ProtocolConfig(d=5, n=3, m=3)
    with pytest.raises(ValueError):
        _attack(cfg, _secrets([[1] * 3] * 3), (1,), np.random.default_rng(0))


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
    cfg = ProtocolConfig(d=5, n=3, m=5)
    rounds = prepare_rounds(cfg) + fabricate_rounds(cfg, _uniform_r(5, 5, rng))
    values = rng.integers(5, size=(2, 20))
    resent, (read, bases) = eve_one_trial(rounds, (values, np.zeros((2, 20), dtype=bool)), rng, 5)
    assert len(resent) == 10 and read.shape == bases.shape == (2, 20)
    particles = []
    for state, after in zip(rounds, resent):
        # each receiver's qudit left its register; each resent particle is a factor of its own, in receiver order
        assert after.owners == state.owners and after.r == state.r
        assert [owners for _, owners in after.factors][-2:] == [(2,), (3,)]
        assert sum(reg.k for reg, _ in after.factors) == 3
        particles += [after.factors[-2][0], after.factors[-1][0]]
    table = np.concatenate([np.eye(5, dtype=np.complex128), _qft_matrix(5)])
    for row in [reg.amplitudes for reg in particles] + list(basis_rows(5, read.ravel(), bases.ravel())):
        # each resent particle is exactly |v> or QFT|v> for some v
        assert any(np.array_equal(row, state) for state in table)


@pytest.mark.parametrize("rounds,decoys,shapes", [
    # one trial of five rounds and (2, 1, 4) draws: the fifth round would pass un-intercepted
    (5, 0, [(2, 1, 4), (2, 1, 4)]),
    (5, 0, [(2, 1, 5), (2, 1, 6)]),
    (5, 3, [(2, 1, 8), (2, 2, 4)]),
    (4, 4, [(2, 2, 4), (2, 2, 4)]),
    (5, 0, [(2, 0, 5), (2, 0, 5)]),
    (0, 3, [(2, 1, 1), (2, 1, 1)]),
    # draws for one receiver, decoys for two
    (5, 0, [(1, 1, 5), (1, 1, 5)]),
])
def test_eve_intercept_resend_rejects_draws_that_do_not_fit(rounds, decoys, shapes):
    cfg = ProtocolConfig(d=5, n=3, m=rounds or 1)
    pair = np.zeros((2, 1, decoys), dtype=np.int64), np.zeros((2, 1, decoys), dtype=bool)
    bits, u = (np.zeros(shape) for shape in shapes)
    with pytest.raises(ValueError, match=r"shape \(n-1, T, R \+ D\)"):
        eve_intercept_resend([prepare_rounds(cfg)[:rounds]], pair, bits.astype(np.int64), u, 5)


def test_eve_intercept_resend_rejects_chunks_that_do_not_fit():
    state = prepare_rounds(ProtocolConfig(d=5, n=3, m=1))[0]
    bits, u = np.zeros((2, 2, 2), dtype=np.int64), np.zeros((2, 2, 2))
    # decoys flat or one trial short; trials of unequal length
    for rounds, shape in [([[state]] * 2, (4,)), ([[state]] * 2, (2, 1, 1)), ([[state] * 2, [state]], (2, 2, 0))]:
        pair = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=bool)
        with pytest.raises(ValueError, match=r"shape \(n-1, T, R \+ D\)"):
            eve_intercept_resend(rounds, pair, bits, u, 5)


def test_eve_intercept_resend_reads_decoy_pairs():
    rounds = prepare_rounds(ProtocolConfig(d=5, n=3, m=2))
    values, bits, u = np.array([[[0, 1, 2]], [[3, 4, 0]]]), np.zeros((2, 1, 5), dtype=np.int64), np.full((2, 1, 5), 0.5)
    resent, (read, bases) = eve_intercept_resend([rounds], (values, np.zeros((2, 1, 3), dtype=bool)), bits, u, 5)
    # a V1 read of |v> is v, whatever the uniform
    assert [len(trial) for trial in resent] == [2] and read.tolist() == values.tolist() and not bases.any()
    # so is a V2 read of QFT|v>, with no rounds at all
    pair = values, np.ones((2, 1, 3), dtype=bool)
    resent, (read, bases) = eve_intercept_resend([[]], pair, bits[..., :3] + 1, u[..., :3], 5)
    assert resent == [[]] and read.tolist() == values.tolist() and bases.all()


@pytest.mark.parametrize("d", [2, 10])
def test_eve_disturbance_matches_oracle(d):
    cfg = ProtocolConfig(d=d, n=2, m=1, decoy_count=50)
    rng = np.random.default_rng(77 + d)
    mismatches = 0
    checked = 0
    for _ in range(60):
        values, v2 = insert_decoys(cfg, decoy_words(cfg, rng))
        pair = values[2][None], v2[2][None]
        _, resent = eve_one_trial([], pair, rng, d)
        mismatches += check_decoys(d, pair, resent, rng.random((1, cfg.decoy_count))).sum()
        checked += cfg.decoy_count
    assert_within_4sigma(mismatches / checked, 0.5 * (1 - 1 / d), checked)


@pytest.mark.parametrize("d,n,m", [(2, 2, 1), (3, 3, 1), (5, 3, 2)])
def test_eve_sum_correct_rate_matches_closed_form(d, n, m):
    # a round's sum is exact when Eve measures all n-1 payload particles in
    # V2, which leaves every qudit in a Fourier basis state; after any V1
    # measurement P1's readout is uniform. Per digit: q + (1 - q)/d, q = 2^(1-n)
    cfg = ProtocolConfig(d=d, n=n, m=m, decoy_count=0, error_threshold=1.0)
    q = 2.0 ** (1 - n)
    oracle = (q + (1 - q) / d) ** m
    rng = np.random.default_rng(1000 * d + 10 * n + m)
    trials, correct = 800, 0
    for _ in range(trials):
        secrets = tuple(random_secret(d, m, rng) for _ in range(n))
        record = run_one(cfg, 0, secrets, prepare_rounds(cfg), rng, eve=True)
        assert record["detected"] is False
        correct += record["sum_correct"]
    assert _within_band(correct, trials, oracle), (correct / trials, oracle)


def _project(reg, basis, value):
    """The other qudits once qudit 1 reads value in the basis: the normalized kept slice."""
    rotated = apply_iqft(reg, 1) if basis is V2 else reg
    kept = rotated.amplitudes.reshape(reg.d, reg.d, -1)[:, value, :]
    return QuditRegister(reg.d, reg.k - 1, kept / np.linalg.norm(kept))


def _eve_branches(d, n):
    """(probability, factors) for each of Eve's bases and outcomes on omega_state(d, n).

    Eve reads receivers 2..n in turn, each at qudit 1 of what is left of
    the register, in a uniform basis, and resends the basis state she
    read. The factors are P1's qudit and the n-1 resent particles.
    """
    branches = [(1.0, omega_state(d, n), [])]
    for _ in range(n - 1):
        branches = [(p * probs[v] / 2, _project(reg, basis, v),
                     resent + [apply_qft(basis_state(d, [v]), 0) if basis is V2 else basis_state(d, [v])])
                    for p, reg, resent in branches for basis in (V1, V2)
                    for probs in [outcome_distribution(reg, 1, basis)] for v in range(d) if probs[v] > 1e-9]
    return [(p, [reg] + resent) for p, reg, resent in branches]


def _readout_sum_law(factors, digits):
    """Law of the sum mod d of the readouts, each factor encoding its digit: the laws convolved cyclically."""
    d = factors[0].d
    law = np.eye(d)[0]
    for reg, digit in zip(factors, digits):
        readout = outcome_distribution(apply_encode(reg, 0, digit), 0, V1)
        law = sum(readout[k] * np.roll(law, k) for k in range(d))
    return law


@pytest.mark.parametrize("d,n,sampled", [(2, 2, 0), (2, 3, 0), (3, 2, 0), (3, 3, 0), (5, 3, 5), (4, 4, 5)])
def test_eve_sum_correct_rate_closed_form_from_amplitudes(d, n, sampled):
    # the amplitude leg of (q + (1 - q)/d) per digit, q = 2^(1-n), at m = 1
    q = 2.0 ** (1 - n)
    branches = _eve_branches(d, n)
    assert abs(sum(p for p, _ in branches) - 1.0) < 1e-12
    rng = np.random.default_rng(10 * d + n)
    tuples = ([tuple(int(x) for x in rng.integers(d, size=n)) for _ in range(sampled)] if sampled
              else itertools.product(range(d), repeat=n))
    for digits in tuples:
        correct = sum(p * _readout_sum_law(factors, digits)[sum(digits) % d] for p, factors in branches)
        assert abs(correct - (q + (1 - q) / d)) < 1e-12, (digits, correct)


@pytest.mark.parametrize("d", [2, 5, 10])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fabricate_rounds_share_one_register_per_fabrication_value(d, n):
    # each forged factor is a one-qudit, read-only fake_particle: a view of
    # row r of the cached IQFT matrix (row -(n-1)r for P1's), so rounds of
    # equal r share one buffer per row, and indeed are one round
    cfg = ProtocolConfig(d=d, n=n, m=1)
    r_choices = tuple(int(x) for x in np.random.default_rng(d * n).integers(0, d, size=3 * d))
    rounds = fabricate_rounds(cfg, r_choices)
    assert [state.r for state in rounds] == list(r_choices)
    buffers = set()
    for state, r in zip(rounds, r_choices):
        assert state.owners == tuple(range(1, n + 1))
        assert [owners for _, owners in state.factors] == [(i,) for i in range(1, n + 1)]
        for (register, (i,)) in state.factors:
            row = r if i > 1 else (-(n - 1) * r) % d
            assert (register.d, register.k) == (d, 1)
            assert np.array_equal(register.amplitudes, fake_particle(d, row).amplitudes)
            assert register.amplitudes.base is _iqft_matrix(d)
            assert not register.amplitudes.flags.writeable
            buffers.add((row, register.amplitudes.ctypes.data))
    assert len(buffers) == len({row for row, _ in buffers})
    assert {row for row, _ in buffers} == {*r_choices, *((-(n - 1) * r) % d for r in r_choices)}
    # one round per distinct r, at every position of that r, bit for bit the round built alone
    assert len({id(state) for state in rounds}) == len(set(r_choices))
    for state, r in zip(rounds, r_choices):
        assert state is rounds[r_choices.index(r)]
        alone = fabricate_rounds(cfg, (r,))[0]
        assert [owners for _, owners in state.factors] == [owners for _, owners in alone.factors]
        assert all(np.array_equal(a.amplitudes, b.amplitudes) for (a, _), (b, _) in zip(state.factors, alone.factors))
