"""The fast paths against the reference computations they replace.

Decoys and the particles Eve intercepts are measured as one array, with
one uniform per particle drawn in the order the per-particle loop would
draw it. These tests reproduce those loops and require identical
outcomes, records and final generator state, and posteriors equal up to
global phase. The dense kernels (one matmul per unitary, the marginal
and the slice-only collapse of a measurement, the fused encoding
unitary, checks without the cancelling rotation pair) are pinned to the
axis-permuting references the same way.
"""

import numpy as np
import pytest
from conftest import random_register
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsum import (
    BasisKind,
    IqftAttackPlan,
    ProtocolConfig,
    QuditRegister,
    SecretString,
    apply_iqft,
    apply_qft,
    apply_shift,
    approx_equal,
    basis_state,
    check_decoys,
    eve_intercept_resend,
    insert_decoys,
    measure,
    omega_state,
    outcome_distribution,
    prepare_rounds,
    run_protocol,
)
from quditsum.adversary import fabricate_rounds
from quditsum.protocol import DecoyRecord
from quditsum.qudit import (
    _apply_single,
    _encode_matrix,
    _iqft_matrix,
    _measure_computational,
    apply_encode,
    measure_rows,
)
from quditsum.verification import CheckAssignment, execute_check, v1_pass, v2_pass

V1, V2 = BasisKind.V1, BasisKind.V2


def _basis(bit) -> BasisKind:
    return V2 if bit else V1


def _reference_insert_decoys(cfg, rng, payload_len):
    """One decoy at a time: value draw, basis draw, register."""
    seq_len = payload_len + cfg.decoy_count
    registers, records = {}, {}
    for i in range(2, cfg.n + 1):
        positions = sorted(int(x) for x in rng.choice(seq_len, size=cfg.decoy_count, replace=False))
        registers[i], records[i] = [], []
        for pos in positions:
            value = int(rng.integers(cfg.d))
            basis = _basis(int(rng.integers(2)))
            reg = basis_state(cfg.d, [value])
            registers[i].append(apply_qft(reg, 0) if basis is V2 else reg)
            records[i].append(DecoyRecord(pos, basis, value))
    return registers, records


def _reference_check_decoys(records, received, rng):
    return sum(measure(reg, 0, rec.basis, rng).value != rec.value
               for rec, reg in zip(records, received))


def _reference_eve(particles, rng):
    return [measure(reg, q, _basis(int(rng.integers(2))), rng).posterior for reg, q in particles]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10, 16]), count=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_measure_rows_matches_measure_loop(d, count, seed):
    gen = np.random.default_rng(seed)
    regs = [random_register(d, 1, gen) for _ in range(count)]
    v2 = gen.integers(2, size=count) == 1
    ref, fast = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    expected = [measure(reg, 0, _basis(b), ref) for reg, b in zip(regs, v2)]
    rows = np.array([reg.amplitudes for reg in regs], dtype=np.complex128).reshape(count, d)
    values, posterior = measure_rows(rows, v2, fast.random(count))
    assert values.tolist() == [out.value for out in expected]
    for row, out in zip(posterior, expected):
        assert approx_equal(QuditRegister(d, 1, row), out.posterior)
    assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("d", [2, 5, 16])
def test_measure_draws_what_generator_choice_draws(d):
    gen = np.random.default_rng(d)
    ref, fast = np.random.default_rng(100 + d), np.random.default_rng(100 + d)
    for _ in range(300):
        reg = random_register(d, 2, gen)
        target, basis = int(gen.integers(2)), _basis(int(gen.integers(2)))
        probs = outcome_distribution(reg, target, basis)
        assert measure(reg, target, basis, fast).value == int(ref.choice(d, p=probs / probs.sum()))
    assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("d,n,count", [(5, 3, 16), (2, 2, 40), (10, 4, 7), (3, 3, 0)])
@pytest.mark.parametrize("eve", [False, True])
def test_decoys_match_scalar_loops(d, n, count, eve):
    cfg = ProtocolConfig(d=d, n=n, m=2, decoy_count=count)
    ref, fast = np.random.default_rng(31 * d + n), np.random.default_rng(31 * d + n)
    ref_regs, ref_recs = _reference_insert_decoys(cfg, ref, payload_len=5)
    regs, recs = insert_decoys(cfg, fast, payload_len=5)
    assert recs == ref_recs
    for i in recs:
        for a, b in zip(regs[i], ref_regs[i]):
            assert np.array_equal(a.amplitudes, b.amplitudes)
    assert fast.bit_generator.state == ref.bit_generator.state
    if eve:
        for i in recs:
            ref_regs[i] = _reference_eve([(r, 0) for r in ref_regs[i]], ref)
            regs[i] = eve_intercept_resend([(r, 0) for r in regs[i]], fast)
            assert all(approx_equal(a, b) for a, b in zip(regs[i], ref_regs[i]))
    counts = [check_decoys(recs[i], regs[i], fast) for i in sorted(recs)]
    assert counts == [_reference_check_decoys(ref_recs[i], ref_regs[i], ref) for i in sorted(recs)]
    assert fast.bit_generator.state == ref.bit_generator.state
    if eve and count >= 40:
        assert sum(counts) > 0


def test_eve_on_payload_and_lone_decoys_matches_reference():
    gen = np.random.default_rng(5)
    payload = omega_state(5, 3)
    particles = []
    for j in range(12):
        if j % 4 == 0:
            particles.append((payload, j % 3))
        else:
            particles.append((random_register(5, 1, gen), 0))
    ref, fast = np.random.default_rng(9), np.random.default_rng(9)
    expected = _reference_eve(particles, ref)
    resent = eve_intercept_resend(particles, fast)
    assert [(r.d, r.k) for r in resent] == [(r.d, r.k) for r in expected]
    assert all(approx_equal(a, b) for a, b in zip(resent, expected))
    assert fast.bit_generator.state == ref.bit_generator.state


def test_measurement_checks_the_norm_of_trusted_registers():
    reg = QuditRegister._trusted(3, 1, np.array([1.5**0.5, 0, 0], dtype=np.complex128))
    rng = np.random.default_rng(0)
    for basis in (V1, V2):
        with pytest.raises(ValueError, match="not normalized"):
            measure(reg, 0, basis, rng)
    with pytest.raises(ValueError, match="not normalized"):
        measure_rows(reg.amplitudes[None, :], np.array([False]), np.array([0.5]))
    nan = QuditRegister._trusted(2, 1, np.array([np.nan, 0], dtype=np.complex128))
    with pytest.raises(ValueError, match="not normalized"):
        measure(nan, 0, V1, rng)


# ---------------------------------------------------------------------------
# dense kernels against the axis-permuting references


def _reference_apply(reg, mat, target):
    psi = reg.amplitudes.reshape((reg.d,) * reg.k)
    return np.moveaxis(np.tensordot(mat, psi, axes=(1, target)), 0, target).reshape(-1)


def _reference_distribution(reg, target, basis):
    amps = _reference_apply(reg, _iqft_matrix(reg.d), target) if basis is V2 else reg.amplitudes
    probs = np.abs(amps.reshape((reg.d,) * reg.k)) ** 2
    return probs.sum(axis=tuple(ax for ax in range(reg.k) if ax != target))


def _random_unitary(d, gen):
    q, r = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10]), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_apply_single_matches_tensordot_reference(d, k, seed):
    gen = np.random.default_rng(seed)
    reg, mat = random_register(d, k, gen), _random_unitary(d, gen)
    for target in range(k):
        out = _apply_single(reg, mat, target)
        assert out.amplitudes.flags.c_contiguous
        assert np.max(np.abs(out.amplitudes - _reference_apply(reg, mat, target))) <= 1e-13


@pytest.mark.parametrize("d,k", [(2, 1), (2, 4), (3, 3), (5, 3), (10, 4)])
def test_outcome_distribution_matches_abs_square_reference(d, k):
    gen = np.random.default_rng(10 * d + k)
    for _ in range(5):
        reg = random_register(d, k, gen)
        for target in range(k):
            for basis in (V1, V2):
                probs = outcome_distribution(reg, target, basis)
                assert probs.shape == (d,)
                assert np.max(np.abs(probs - _reference_distribution(reg, target, basis))) <= 1e-13


@pytest.mark.parametrize("d,k", [(2, 3), (3, 2), (5, 3), (10, 3)])
def test_measure_computational_matches_zero_fill_reference(d, k):
    gen = np.random.default_rng(d + k)
    for seed in range(40):
        reg, target = random_register(d, k, gen), seed % k
        ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
        probs = _reference_distribution(reg, target, V1)
        expected = int(ref.choice(d, p=probs / probs.sum()))
        psi = reg.amplitudes.reshape((d,) * k)
        collapsed = np.zeros_like(psi)
        sel = (slice(None),) * target + (expected,)
        collapsed[sel] = psi[sel]
        collapsed = collapsed.reshape(-1) / np.linalg.norm(collapsed)
        value, posterior = _measure_computational(reg, target, fast)
        assert value == expected
        assert approx_equal(posterior, QuditRegister(d, k, collapsed))
        assert fast.bit_generator.state == ref.bit_generator.state


def _reference_check(state, assignment, rng):
    """Rotate each owner's qudit, then measure it in the announced basis."""
    d, basis = state.register.d, assignment.basis
    values = []
    if 1 not in state.owners:
        values.append((-len(state.owners) * state.r) % d if basis is V1 else 0)
    reg = state.register
    for participant in sorted(state.owners):
        q = state.owners.index(participant)
        out = measure(apply_qft(reg, q), q, basis, rng)
        values.append(out.value)
        reg = out.posterior
    return tuple(values), v1_pass(values, d) if basis is V1 else v2_pass(values)


@pytest.mark.parametrize("forged", [False, True])
@pytest.mark.parametrize("basis", [V1, V2])
def test_execute_check_matches_rotate_then_measure_reference(forged, basis):
    cfg = ProtocolConfig(d=5, n=3, m=1)
    genuine = prepare_rounds(cfg)[0]
    for seed in range(200):
        state = fabricate_rounds(cfg, IqftAttackPlan((seed % 5,)))[0] if forged else genuine
        assignment = CheckAssignment(2, 0, basis)
        ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
        outcome = execute_check(state, assignment, fast)
        assert (outcome.announced, outcome.passed) == _reference_check(state, assignment, ref)
        assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_apply_encode_is_shift_after_qft(d):
    gen = np.random.default_rng(d)
    reg = random_register(d, 2, gen)
    for s in range(d):
        assert not _encode_matrix(d, s).flags.writeable
        for target in range(2):
            expected = apply_shift(apply_qft(reg, target), target, s).amplitudes
            got = apply_encode(reg, target, s).amplitudes
            assert np.max(np.abs(got - expected)) <= 1e-13


@pytest.mark.parametrize("eve", [False, True])
def test_rounds_share_one_read_only_register_that_runs_leave_alone(eve):
    cfg = ProtocolConfig(d=5, n=3, m=2, decoy_count=0)
    secrets = tuple(SecretString((1, 4)) for _ in range(cfg.n))
    for seed in range(10):
        rounds = prepare_rounds(cfg, count=cfg.m + 2)
        shared = rounds[0].register
        before = shared.amplitudes.copy()
        assert all(state.register is shared for state in rounds)
        run_protocol(cfg, 2, secrets, rounds, np.random.default_rng(seed), eve=eve)
        assert np.array_equal(shared.amplitudes, before)
        assert not shared.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            shared.amplitudes[0] = 0.0
        assert approx_equal(apply_iqft(apply_qft(shared, 1), 1), shared)
