"""Core register operations: construction, transforms, measurement."""

import math

import numpy as np
import pytest
from conftest import (
    apply_qft, apply_shift, approx_equal, assert_within_4sigma, basis_state, measure_one,
    outcome_distribution, random_register,
)

from quditsum import (
    BasisKind,
    QuditRegister,
    apply_iqft,
    measure,
    omega_state,
    qudit,
)

V1, V2 = BasisKind.V1, BasisKind.V2


# ---------------------------------------------------------------------------
# construction


def test_basis_state_qubit_zero():
    reg = basis_state(2, [0])
    assert np.allclose(reg.amplitudes, [1.0, 0.0])


def test_basis_state_digit_indexing():
    # |2,1> over qutrits sits at flat index 2*3 + 1 = 7
    reg = basis_state(3, [2, 1])
    expected = np.zeros(9)
    expected[7] = 1.0
    assert np.allclose(reg.amplitudes, expected)
    assert np.unravel_index(7, (3, 3)) == (2, 1)


def test_basis_state_rejects_bad_digit():
    with pytest.raises(ValueError):
        basis_state(3, [3])
    with pytest.raises(ValueError):
        basis_state(3, [-1])
    with pytest.raises(ValueError):
        basis_state(3, [])


def test_register_rejects_unnormalized():
    for amplitudes in ([1.0, 1.0], [math.nan, 0.0], [math.inf, 0.0], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="not normalized"):
            QuditRegister(2, 1, np.array(amplitudes))


def test_register_copies_the_callers_array():
    # a caller's array is never aliased, whatever its dtype
    for amplitudes in (np.array([0.6, 0.8]), np.array([0.6, 0.8j])):
        reg = QuditRegister(2, 1, amplitudes)
        assert not np.shares_memory(reg.amplitudes, amplitudes)
        amplitudes[0] = 1.0
        assert reg.amplitudes[0] == 0.6


def test_register_rejects_wrong_length():
    with pytest.raises(ValueError):
        QuditRegister(2, 2, np.array([1.0, 0.0]))


def test_dimension_cap_enforced():
    # 2**23 amplitudes is one doubling past the cap
    with pytest.raises(ValueError):
        basis_state(2, [0] * 23)


def test_operations_do_not_mutate_input():
    reg = basis_state(5, [3])
    before = reg.amplitudes.copy()
    apply_qft(reg, 0)
    apply_shift(reg, 0, 2)
    assert np.array_equal(reg.amplitudes, before)


# ---------------------------------------------------------------------------
# the shared entangled state


def test_omega_state_qubit_pair():
    reg = omega_state(2, 2)
    assert np.allclose(reg.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def test_omega_state_qutrit_triple():
    reg = omega_state(3, 3)
    expected = np.zeros(27)
    expected[[0, 13, 26]] = 1 / math.sqrt(3)  # |000>, |111>, |222>
    assert np.allclose(reg.amplitudes, expected)


@pytest.mark.parametrize("d,n", [(2, 2), (5, 2), (7, 3), (10, 4)])
def test_omega_state_support_is_diagonal(d, n):
    reg = omega_state(d, n)
    nonzero = np.flatnonzero(np.abs(reg.amplitudes) > 1e-12)
    assert len(nonzero) == d
    for idx in nonzero:
        digits = np.unravel_index(idx, (d,) * n)
        assert len(set(digits)) == 1
        assert abs(abs(reg.amplitudes[idx]) - 1 / math.sqrt(d)) < 1e-12


# ---------------------------------------------------------------------------
# transforms


def test_qft_qubit_zero_gives_uniform():
    reg = apply_qft(basis_state(2, [0]), 0)
    assert np.allclose(reg.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_qft_d4_phases():
    # QFT|1> for d=4: amplitudes (1, i, -1, -i)/2 , frozen from the
    # phase formula exp(2*pi*i*l*r/d)/sqrt(d) at r=1
    reg = apply_qft(basis_state(4, [1]), 0)
    assert np.allclose(reg.amplitudes, [0.5, 0.5j, -0.5, -0.5j], atol=1e-12)


def test_iqft_d4_phases_conjugate():
    reg = apply_iqft(basis_state(4, [1]), 0)
    assert np.allclose(reg.amplitudes, [0.5, -0.5j, -0.5, 0.5j], atol=1e-12)


def test_iqft_magnitudes_flat():
    reg = apply_iqft(basis_state(10, [2]), 0)
    assert np.allclose(np.abs(reg.amplitudes), 1 / math.sqrt(10), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_qft_iqft_roundtrip_random_states(d):
    rng = np.random.default_rng(100 + d)
    for k in (1, 2, 3):
        for _ in range(12):
            reg = random_register(d, k, rng)
            target = int(rng.integers(k))
            back = apply_iqft(apply_qft(reg, target), target)
            assert np.allclose(back.amplitudes, reg.amplitudes, atol=1e-9)
            assert approx_equal(back, reg)
            forth = apply_qft(apply_iqft(reg, target), target)
            assert np.allclose(forth.amplitudes, reg.amplitudes, atol=1e-9)


def test_shift_moves_basis_states():
    assert approx_equal(apply_shift(basis_state(10, [2]), 0, 5), basis_state(10, [7]))
    assert approx_equal(apply_shift(basis_state(3, [2]), 0, 2), basis_state(3, [1]))
    assert approx_equal(apply_shift(basis_state(5, [4]), 0, 0), basis_state(5, [4]))


def test_shift_acts_on_one_qudit_only():
    reg = basis_state(3, [1, 2])
    shifted = apply_shift(reg, 1, 2)
    assert approx_equal(shifted, basis_state(3, [1, 1]))


@pytest.mark.parametrize("d", [2, 3, 10, 16])
def test_encode_chain_on_fourier_conjugate_is_shifted_basis_state(d):
    # shift_k . QFT . IQFT |r> = |(r+k) mod d>, the identity the forged
    # states exploit; full d sweep lives in the acceptance suite
    for r in range(d):
        for k in range(d):
            reg = apply_iqft(basis_state(d, [r]), 0)
            reg = apply_qft(reg, 0)
            reg = apply_shift(reg, 0, k)
            assert approx_equal(reg, basis_state(d, [(r + k) % d]), tol=1e-9)


def test_unitarity_preserved_by_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        reg = random_register(d, k, rng)
        for _ in range(8):
            op = rng.integers(3)
            target = int(rng.integers(k))
            if op == 0:
                reg = apply_qft(reg, target)
            elif op == 1:
                reg = apply_iqft(reg, target)
            else:
                reg = apply_shift(reg, target, int(rng.integers(d)))
        assert abs(np.sum(np.abs(reg.amplitudes) ** 2) - 1.0) < 1e-9


def test_bad_target_rejected():
    reg = basis_state(3, [0, 0])
    with pytest.raises(ValueError):
        apply_qft(reg, 2)
    with pytest.raises(ValueError):
        apply_shift(reg, -1, 1)
    with pytest.raises(ValueError):
        apply_shift(reg, 0, 3)


# ---------------------------------------------------------------------------
# encoded entangled state: support of the announced digits


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (5, 3)])
def test_encoded_entangled_support_sums_to_digit_total(d, n):
    rng = np.random.default_rng(d * 31 + n)
    for _ in range(5):
        digits = [int(x) for x in rng.integers(0, d, size=n)]
        reg = omega_state(d, n)
        for q, digit in enumerate(digits):
            reg = apply_qft(reg, q)
            reg = apply_shift(reg, q, digit)
        total = sum(digits) % d
        expected_mag = d ** (-(n - 1) / 2)
        for idx in range(d**n):
            amp = reg.amplitudes[idx]
            if sum(np.unravel_index(idx, (d,) * n)) % d == total:
                assert abs(abs(amp) - expected_mag) < 1e-9
            else:
                assert abs(amp) < 1e-9


# ---------------------------------------------------------------------------
# measurement


def test_measure_computational_eigenstate():
    # the measured qudit leaves; the last one leaves a unit amplitude
    rng = np.random.default_rng(0)
    value, rest = measure_one(basis_state(7, [4]), 0, V1, rng)
    assert value == 4
    assert rest.k == 0 and abs(abs(rest.amplitudes[0]) - 1.0) < 1e-12
    value, rest = measure_one(basis_state(7, [4, 2, 6]), 1, V1, rng)
    assert value == 2
    assert approx_equal(rest, basis_state(7, [4, 6]))


def test_measure_collapses_entangled_pair():
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(40):
        value, rest = measure_one(omega_state(2, 2), 0, V1, rng)
        seen.add(value)
        assert approx_equal(rest, basis_state(2, [value]))
    assert seen == {0, 1}


def test_measure_keeps_only_the_rests_it_returns():
    # 32 uniforms that all read 0 leave one rest, which holds one (a, b)
    # slice and not the 32 a kept array of the stack would
    reg = omega_state(10, 5)
    values, rests = measure(reg, 2, V1, np.linspace(0.0, 0.09, 32))
    assert values.tolist() == [0] * 32 and list(rests) == [0]
    assert rests[0].amplitudes.base.size == 10**4
    assert approx_equal(rests[0], basis_state(10, [0] * 4))
    # one rest per distinct value, none holding more than d * a * b amplitudes
    values, rests = measure(random_register(3, 4, np.random.default_rng(3)), 1, V2, np.linspace(0.0, 0.99, 32))
    assert sorted(rests) == sorted(set(values.tolist()))
    assert all(rest.amplitudes.base.size <= 3 * 3 * 9 for rest in rests.values())


@pytest.mark.parametrize("cap", [1, 7, 2**16])
def test_first_qudit_state_is_the_reduced_state_over_any_block_size(cap, monkeypatch):
    # psi psi^dagger of the (d, rest) view, summed one column at a time, two
    # at a time, or whole at d=3; kept on the register once built
    monkeypatch.setattr(qudit, "STACK_CAP", cap)
    reg = random_register(3, 4, np.random.default_rng(cap))
    psi = reg.amplitudes.reshape(3, -1)
    assert np.allclose(reg.first_qudit_state, psi @ psi.conj().T, rtol=0, atol=1e-12)
    assert reg.first_qudit_state is reg.first_qudit_state
    ghz = omega_state(5, 3).first_qudit_state
    assert np.allclose(ghz, np.eye(5) / 5, rtol=0, atol=1e-15)


def test_outcome_distribution_examples():
    assert np.allclose(outcome_distribution(basis_state(3, [1]), 0, V1), [0, 1, 0])
    assert np.allclose(outcome_distribution(omega_state(2, 2), 0, V1), [0.5, 0.5])
    assert np.allclose(outcome_distribution(omega_state(2, 2), 1, V1), [0.5, 0.5])
    # a computational state is flat in the Fourier-image basis
    assert np.allclose(outcome_distribution(basis_state(5, [3]), 0, V2), np.full(5, 0.2))


def test_outcome_distribution_sums_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        reg = random_register(d, k, rng)
        for basis in (V1, V2):
            probs = outcome_distribution(reg, int(rng.integers(k)), basis)
            assert abs(probs.sum() - 1.0) < 1e-9


def test_fourier_basis_measurement_projects():
    # measuring QFT|r> in the Fourier-image basis returns r surely and
    # leaves the other qudit of a product untouched
    rng = np.random.default_rng(2)
    for r in range(4):
        for s in range(4):
            reg = apply_qft(basis_state(4, [r, s]), 0)
            value, rest = measure_one(reg, 0, V2, rng)
            assert value == r
            assert approx_equal(rest, basis_state(4, [s]))


def test_fourier_basis_measurement_repeats():
    # the rest is the projection onto QFT|v>, and QFT|v> resent in its
    # place reads v again with certainty
    rng = np.random.default_rng(3)
    for _ in range(10):
        reg = random_register(5, 2, rng)
        first, rest = measure_one(reg, 1, V2, rng)
        resent = apply_qft(basis_state(5, [first]), 0)
        projected = reg.amplitudes.reshape(5, 5) @ resent.amplitudes.conj()
        assert approx_equal(rest, QuditRegister(5, 1, projected / np.linalg.norm(projected)), tol=1e-12)
        assert abs(outcome_distribution(resent, 0, V2)[first] - 1.0) < 1e-9
        assert measure_one(resent, 0, V2, rng)[0] == first


def test_measure_agrees_with_outcome_distribution():
    # sampled frequencies against the exact distribution, both bases
    rng = np.random.default_rng(12)
    reg = random_register(4, 2, rng)
    samples = 12000
    for basis in (V1, V2):
        probs = outcome_distribution(reg, 0, basis)
        counts = np.zeros(4)
        for _ in range(samples):
            counts[measure_one(reg, 0, basis, rng)[0]] += 1
        for v in range(4):
            assert_within_4sigma(counts[v] / samples, probs[v], samples)


def test_measure_posterior_is_normalized():
    rng = np.random.default_rng(13)
    for _ in range(20):
        reg = random_register(3, 3, rng)
        _, posterior = measure_one(reg, int(rng.integers(3)), V2 if rng.integers(2) else V1, rng)
        assert abs(np.sum(np.abs(posterior.amplitudes) ** 2) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# state comparison


def test_approx_equal_global_phase_insensitive():
    reg = basis_state(5, [2])
    rotated = QuditRegister(5, 1, reg.amplitudes * np.exp(1j * 0.7))
    assert approx_equal(reg, rotated)


def test_approx_equal_detects_orthogonal():
    assert not approx_equal(basis_state(5, [2]), basis_state(5, [3]))


def test_approx_equal_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        approx_equal(basis_state(2, [0]), basis_state(2, [0, 0]))
