"""The fast paths against the reference computations they replace.

Each receiver's decoys are (value, basis) pairs from preparation through
Eve to the check, measured with one uniform per decoy drawn in the
order the per-particle loop would draw it. These tests reproduce those
loops and require identical outcomes, expected values and final
generator state, and posteriors equal up to global phase. The dense kernels (one matmul per unitary, the marginal
and the slice-only collapse of a measurement, the encoding read as the
QFT readout plus the digit, checks without the cancelling rotation pair) are pinned to the
axis-permuting references the same way. So are the rounds kept as
products of factors, whose measurements drop the measured qudit, against
the dense loop that keeps every qudit in one register; the registers a
run builds once and shares; and the one draw of every participant's
secret digits. read_out, which measures many rounds in lockstep against
uniforms drawn up front, is pinned to the per-owner measurement chain it
replaced, and measure, now the one-register case of that kernel, to the
marginal-then-norm body it had before. Its first step on a register a
whole stack shares, which reads the law off the register's reduced state
instead of rotating it, is pinned to rotate-then-marginal. Eve, who intercepts a chunk of
trials per receiver with one measurement per distinct round and basis,
is pinned to the per-round intercept chain she ran before.
"""

import re
import tracemalloc
import weakref
from functools import cached_property, reduce

import numpy as np
import pytest
from conftest import (
    apply_encode, apply_qft, apply_shift, approx_equal, basis_state, decoy_words, encode_matrix, encode_read_out,
    eve_one_trial, intercept_one, measure_every_pair, measure_one,
    outcome_distribution, owner_uniforms, random_register, random_secret, run_check, run_one,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsum import (
    BasisKind,
    ProtocolConfig,
    QuditRegister,
    ScenarioConfig,
    apply_iqft,
    check_decoys,
    eve_intercept_resend,
    insert_decoys,
    measure,
    omega_state,
    prepare_rounds,
    run_scenario,
)
from quditsum import harness, protocol
from quditsum.adversary import fabricate_rounds, fake_particle
from quditsum.harness import SCENARIOS, _trial_secrets
from quditsum import qudit
from quditsum.protocol import RoundState, read_out
from quditsum.qudit import (
    _apply_single,
    _iqft_matrix,
    _qft_matrix,
    _sample,
    basis_rows,
    measure_pairs,
    measure_stack,
)
from quditsum.verification import v1_pass, v2_pass

V1, V2 = BasisKind.V1, BasisKind.V2


def _basis(bit) -> BasisKind:
    return V2 if bit else V1


def _kept_measure(reg, target, basis, rng):
    """Reference measurement that keeps its qudit, drawing what Generator.choice draws.

    The posterior is the normalized kept slice times |v> (V1) or QFT|v>
    (V2) on the target: a projection, so the qudit reads v again.
    """
    probs = outcome_distribution(reg, target, basis)
    value = int(rng.choice(reg.d, p=probs / probs.sum()))
    rotated = apply_iqft(reg, target) if basis is V2 else reg
    kept = rotated.amplitudes.reshape(reg.d**target, reg.d, -1)[:, value, :]
    factor = _qft_matrix(reg.d)[:, value] if basis is V2 else np.eye(reg.d)[value]
    posterior = kept[:, None, :] * factor[None, :, None] / np.linalg.norm(kept)
    return value, QuditRegister(reg.d, reg.k, posterior.reshape(-1))


def _reference_measure(reg, target, basis, rng):
    """measure before the stacked kernel: the exact law, one draw, the kept slice over its norm."""
    if basis is V2:
        reg = apply_iqft(reg, target)
    value = int(_sample(outcome_distribution(reg, target, V1), rng.random()))
    kept = reg.amplitudes.reshape(reg.d**target, reg.d, -1)[:, value, :]
    return value, QuditRegister._trusted(reg.d, reg.k - 1, (kept / np.linalg.norm(kept)).reshape(-1))


def _same_state(a, b) -> bool:
    """Equal amplitudes to 1e-13 once the global phase between them is removed."""
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return np.max(np.abs(a.amplitudes * overlap / abs(overlap) - b.amplitudes)) <= 1e-13


def _dense(state):
    """A round's product of factors as one register, its qudits in participant order."""
    amplitudes, owners = np.ones(1, dtype=np.complex128), ()
    for register, held in state.factors:
        amplitudes, owners = np.kron(amplitudes, register.amplitudes), owners + held
    psi = amplitudes.reshape((state.d,) * len(owners)).transpose(np.argsort(owners))
    return QuditRegister(state.d, len(owners), psi.reshape(-1))


def _reference_insert_decoys(cfg, words):
    """One word per decoy: every receiver's values (w*d) >> 64, then every receiver's bases, the top bits; then
    the registers."""
    receivers, count, words = range(2, cfg.n + 1), cfg.decoy_count, [int(w) for w in words]
    values = {i: [words[(i - 2) * count + k] * cfg.d >> 64 for k in range(count)] for i in receivers}
    bases = {i: [_basis(words[(cfg.n + i - 3) * count + k] >> 63) for k in range(count)] for i in receivers}
    registers, records = {}, {}
    for i in receivers:
        records[i] = list(zip(values[i], bases[i]))
        registers[i] = [apply_qft(basis_state(cfg.d, [value]), 0) if basis is V2 else basis_state(cfg.d, [value])
                        for value, basis in records[i]]
    return registers, records


def _reference_decoy_rows(d, values, v2):
    """The zero-fill decoy build: |v> rows, then QFT|v> (column v of the QFT matrix) where v2."""
    rows = np.zeros((len(values), d), dtype=np.complex128)
    rows[np.arange(len(values)), values] = 1.0
    rows[v2] = _qft_matrix(d).T[values[v2]]
    return rows


def _reference_check_decoys(records, received, rng):
    return sum(measure_one(reg, 0, basis, rng)[0] != value
               for (value, basis), reg in zip(records, received))


def _reference_eve(particles, rng):
    """Every particle's basis bit first, then one measurement per particle in order."""
    bases = [_basis(int(rng.integers(2))) for _ in particles]
    return [_kept_measure(reg, q, basis, rng)[1] for (reg, q), basis in zip(particles, bases)]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10, 16]), count=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_measure_pairs_matches_measure_loop(d, count, seed):
    gen = np.random.default_rng(seed)
    values, v2, bases = gen.integers(d, size=count), gen.integers(2, size=count) == 1, gen.integers(2, size=count) == 1
    regs = [QuditRegister(d, 1, row) for row in basis_rows(d, values, v2)]
    ref, fast = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    expected = [_kept_measure(reg, 0, _basis(b), ref) for reg, b in zip(regs, bases)]
    outcomes = measure_pairs(d, values, v2, bases, fast.random(count))
    assert outcomes.tolist() == [value for value, _ in expected]
    # each pair collapsed to the basis state it read, up to phase
    for row, (_, reg) in zip(basis_rows(d, outcomes, bases), expected):
        assert approx_equal(QuditRegister(d, 1, row), reg)
    assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 5, 10, 16])
def test_basis_rows_match_zero_fill_reference(d):
    gen = np.random.default_rng(d)
    for count in (0, 1, 7, 40):
        values, v2 = gen.integers(d, size=count), gen.integers(2, size=count) == 1
        rows = basis_rows(d, values, v2)
        assert rows.dtype == np.complex128 and np.array_equal(rows, _reference_decoy_rows(d, values, v2))
    for value in range(d):
        for bit in (False, True):
            row = basis_rows(d, value, bit)
            assert row.shape == (d,) and np.array_equal(row, _reference_decoy_rows(d, np.array([value]), np.array([bit]))[0])


@pytest.mark.parametrize("d", [2, 5, 16])
def test_measure_draws_what_generator_choice_draws(d):
    gen = np.random.default_rng(d)
    ref, fast = np.random.default_rng(100 + d), np.random.default_rng(100 + d)
    for _ in range(300):
        reg = random_register(d, 2, gen)
        target, basis = int(gen.integers(2)), _basis(int(gen.integers(2)))
        probs = outcome_distribution(reg, target, basis)
        assert measure_one(reg, target, basis, fast)[0] == int(ref.choice(d, p=probs / probs.sum()))
    assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("eve,d,n,count,seed", [
    *(pytest.param(eve, d, n, count, 31 * d + n, id=f"{eve}-{d}-{n}-{count}")
      for eve in (False, True) for d, n, count in [(5, 3, 16), (2, 2, 40), (10, 4, 7), (3, 3, 0)]),
    # the resent decoys carry no phase, unlike the reference posteriors
    *((True, d, 3, 16, seed) for d in (2, 3, 5, 10) for seed in range(200)),
])
def test_decoys_match_scalar_loops(eve, d, n, count, seed):
    cfg = ProtocolConfig(d=d, n=n, m=2, decoy_count=count)
    ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
    words = decoy_words(cfg, np.random.default_rng((seed, count)))
    ref_regs, ref_recs = _reference_insert_decoys(cfg, words)
    values, v2 = insert_decoys(cfg, words)
    assert sorted(values) == sorted(v2) == sorted(ref_recs)
    received = {}
    for i in values:
        assert values[i].shape == v2[i].shape == (count,)
        assert list(zip(values[i].tolist(), map(_basis, v2[i]))) == ref_recs[i]
        # the pair is the state the reference built
        assert np.array_equal(basis_rows(d, values[i], v2[i]),
                              np.array([r.amplitudes for r in ref_regs[i]]).reshape(count, d))
        received[i] = values[i], v2[i]
    assert fast.bit_generator.state == ref.bit_generator.state
    if eve:
        for i in values:
            ref_regs[i] = _reference_eve([(r, 0) for r in ref_regs[i]], ref)
            resent, received[i] = eve_one_trial([], i, received[i], fast, d)
            assert resent == [] and received[i][0].shape == received[i][1].shape == (count,)
            assert all(approx_equal(QuditRegister(d, 1, a), b) for a, b in zip(basis_rows(d, *received[i]), ref_regs[i]))
    # every receiver's sequence in one stacked call, as a run checks them
    receivers = sorted(values)
    counts = check_decoys(d, (np.array([values[i] for i in receivers]), np.array([v2[i] for i in receivers])),
                          [np.array(a) for a in zip(*(received[i] for i in receivers))],
                          fast.random((n - 1, count))).tolist()
    assert counts == [_reference_check_decoys(ref_recs[i], ref_regs[i], ref) for i in receivers]
    assert fast.bit_generator.state == ref.bit_generator.state
    if eve and count >= 40:
        assert sum(counts) > 0


def test_eve_on_payload_and_lone_decoys_matches_reference():
    gen = np.random.default_rng(5)
    cfg = ProtocolConfig(d=5, n=3, m=4)
    rounds = prepare_rounds(cfg, count=2) + fabricate_rounds(cfg, (3, 0))
    for receiver in (2, 3):
        for count in (0, 8):
            # the decoys are random (value, basis) pairs, the reference their dense states
            values, v2 = gen.integers(5, size=count), gen.integers(2, size=count) == 1
            decoys = [apply_qft(basis_state(5, [v]), 0) if b else basis_state(5, [v]) for v, b in zip(values, v2)]
            ref, fast = np.random.default_rng(9 + count), np.random.default_rng(9 + count)
            particles = [(_dense(state), state.owners.index(receiver)) for state in rounds]
            expected = _reference_eve(particles + [(reg, 0) for reg in decoys], ref)
            resent, (read, bases) = eve_one_trial(rounds, receiver, (values, v2), fast, 5)
            for state, after, posterior in zip(rounds, resent, expected):
                assert after.owners == state.owners
                assert (after.factors[-1][0].k, after.factors[-1][1]) == (1, (receiver,))
                assert _same_state(_dense(after), posterior)
            assert read.shape == bases.shape == (count,)
            assert all(approx_equal(QuditRegister(5, 1, a), b) for a, b in zip(basis_rows(5, read, bases), expected[4:]))
            assert fast.bit_generator.state == ref.bit_generator.state


def _per_round_eve(rounds, receiver, decoys, rng):
    """Eve as she ran before the chunk kernel: every basis bit, then one intercept per round, then the decoys."""
    bits = rng.integers(2, size=len(rounds) + len(decoys[0]))
    resent = [intercept_one(state, receiver, _basis(bit), rng)[1] for state, bit in zip(rounds, bits)]
    v2 = bits[len(rounds):] == 1
    return resent, (measure_every_pair(rounds[0].d, *decoys, v2, rng.random(len(v2))), v2)


@settings(max_examples=120, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10]), n=st.sampled_from([2, 3, 4]), kind=st.sampled_from(["genuine", "forged", "mixed"]),
       trials=st.integers(1, 4), count=st.integers(1, 4), decoys=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_chunk_eve_matches_per_round_intercept_chain(d, n, kind, trials, count, decoys, seed):
    # a chunk's trials draw as run_protocol does, then Eve intercepts the
    # whole chunk per receiver; each trial's per-round chain must read the
    # same values, resend the same decoy pairs and leave its stream alike
    gen = np.random.default_rng(seed)
    cfg = ProtocolConfig(d=d, n=n, m=count, decoy_count=decoys)
    genuine = prepare_rounds(cfg)
    rounds = []
    for _ in range(trials):
        forged = fabricate_rounds(cfg, gen.integers(d, size=count).tolist())
        pick = {"genuine": [False] * count, "forged": [True] * count, "mixed": gen.integers(2, size=count)}[kind]
        rounds.append([f if p else g for f, g, p in zip(forged, genuine, pick)])
    pairs = [{i: (gen.integers(d, size=decoys), gen.integers(2, size=decoys) == 1)
              for i in range(2, n + 1)} for _ in range(trials)]
    refs = [np.random.default_rng([seed, t]) for t in range(trials)]
    fasts = [np.random.default_rng([seed, t]) for t in range(trials)]
    expected_rounds, expected_pairs = [list(trial) for trial in rounds], [dict(trial) for trial in pairs]
    for t, ref in enumerate(refs):
        for i in range(2, n + 1):
            expected_rounds[t], expected_pairs[t][i] = _per_round_eve(expected_rounds[t], i, expected_pairs[t][i], ref)
    draws = {i: [] for i in range(2, n + 1)}
    for fast in fasts:
        for i in draws:
            draws[i].append((fast.integers(2, size=count + decoys), fast.random(count + decoys)))
    flat = [state for trial in rounds for state in trial]
    for i, drawn in draws.items():
        bits, u = (np.array(column) for column in zip(*drawn))
        flat, resent = eve_intercept_resend(flat, i, [np.concatenate(a) for a in zip(*(trial[i] for trial in pairs))],
                                            bits, u, d)
        for got, want in zip(resent, zip(*(trial[i] for trial in expected_pairs)), strict=True):
            assert np.array_equal(got, np.concatenate(want))
    expected = [state for trial in expected_rounds for state in trial]
    for got, want in zip(flat, expected, strict=True):
        assert [owners for _, owners in got.factors] == [owners for _, owners in want.factors]
        assert all(np.array_equal(a.amplitudes, b.amplitudes) for (a, _), (b, _) in zip(got.factors, want.factors))
    assert [ref.bit_generator.state for ref in refs] == [fast.bit_generator.state for fast in fasts]
    reader = owner_uniforms(flat, np.random.default_rng(seed + 1))
    assert np.array_equal(read_out(flat, None, reader), read_out(expected, None, reader))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10]), k=st.integers(1, 4), draws=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_measure_against_many_uniforms_is_each_alone(d, k, draws, seed):
    gen = np.random.default_rng(seed)
    reg, u = random_register(d, k, gen), gen.random(draws)
    for target in range(k):
        for basis in (V1, V2):
            values, rests = measure(reg, target, basis, u)
            assert sorted(rests) == sorted(set(values.tolist()))
            for g, value in enumerate(values.tolist()):
                alone, rest = measure(reg, target, basis, u[g:g + 1])
                assert alone.tolist() == [value] and list(rest) == [value]
                assert (rests[value].d, rests[value].k) == (d, k - 1)
                assert np.array_equal(rests[value].amplitudes, rest[value].amplitudes)


def test_measure_against_one_uniform_builds_one_rest():
    # a d=10, n=5 register read once keeps one 10^4-amplitude rest, not
    # one per level: what a wide register's intercept holds. The marginal's
    # einsum adds fixed buffers of 2^17 bytes; a V2 read rotates a copy first
    reg = omega_state(10, 5)
    rest_bytes = reg.amplitudes.nbytes // 10

    def peak(basis, target, u):
        tracemalloc.start()
        try:
            values, rests = measure(reg, target, basis, np.array(u))
            return values, rests, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for basis, rotated in ((V1, 0), (V2, reg.amplitudes.nbytes)):
        peak(basis, 0, [0.5])  # first-call allocations outside the measurement
        for target in range(5):
            values, rests, one = peak(basis, target, [0.5])
            assert list(rests) == values.tolist() and rests[values[0]].amplitudes.nbytes == rest_bytes
            assert rest_bytes <= one - rotated < 1.5 * rest_bytes + 2**17
            # two values drawn keep a rest each
            values, rests, two = peak(basis, target, [0.05, 0.95])
            assert values.tolist() == [0, 9] and two - one >= 0.9 * rest_bytes


def test_measurement_checks_the_norm_of_trusted_registers():
    reg = QuditRegister._trusted(3, 1, np.array([1.5**0.5, 0, 0], dtype=np.complex128))
    rng = np.random.default_rng(0)
    for basis in (V1, V2):
        with pytest.raises(ValueError, match="not normalized"):
            measure_one(reg, 0, basis, rng)
    with pytest.raises(ValueError, match="not normalized"):
        measure_stack(reg.amplitudes[None, None, :, None], np.array([0.5]))
    nan = QuditRegister._trusted(2, 1, np.array([np.nan, 0], dtype=np.complex128))
    with pytest.raises(ValueError, match="not normalized"):
        measure_one(nan, 0, V1, rng)


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
        collapsed = collapsed / np.linalg.norm(collapsed)
        value, rest = measure_one(reg, target, V1, fast)
        assert value == expected
        assert (rest.d, rest.k) == (d, k - 1)
        assert np.max(np.abs(rest.amplitudes - collapsed[sel].reshape(-1))) <= 1e-13
        assert fast.bit_generator.state == ref.bit_generator.state


def _reference_check(state, check, rng):
    """Rotate each owner's qudit of the dense round, then measure it in the announced basis."""
    d, basis = state.d, BasisKind(check["basis"])
    values = []
    reg = _dense(state)
    for q in range(reg.k):
        value, reg = _kept_measure(apply_qft(reg, q), q, basis, rng)
        values.append(value)
    return values, v1_pass(values, d) if basis is V1 else v2_pass(values)


@pytest.mark.parametrize("forged", [False, True])
@pytest.mark.parametrize("basis", [V1, V2])
def test_execute_check_matches_rotate_then_measure_reference(forged, basis):
    cfg = ProtocolConfig(d=5, n=3, m=1)
    genuine = prepare_rounds(cfg)[0]
    for seed in range(200):
        state = fabricate_rounds(cfg, (seed % 5,))[0] if forged else genuine
        check = {"position": 0, "chooser": 2, "basis": basis.value}
        ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
        outcome = run_check(state, check, fast)
        assert (outcome["announced"], outcome["passed"]) == _reference_check(state, check, ref)
        assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 5, 7, 10, 16])
def test_encoding_is_the_qft_readout_plus_the_digit(d):
    # the shift by s before a computational measurement relabels its outcomes:
    # the law after E_s = S_s QFT is the QFT law rolled by s, and outcome x of
    # E_s leaves the rest that outcome x - s of the QFT leaves. Dense, on
    # random registers, and from the reduced state of a shared GHZ register
    gen, qft = np.random.default_rng(d), _qft_matrix(d)
    for k in (1, 2, 3):
        reg = random_register(d, k, gen)
        for target in range(k):
            rotated = apply_qft(reg, target).amplitudes.reshape(d**target, d, -1)
            law = outcome_distribution(apply_qft(reg, target), target, V1)
            for s in range(d):
                encoded = apply_encode(reg, target, s)
                assert np.max(np.abs(outcome_distribution(encoded, target, V1) - np.roll(law, s))) <= 1e-14
                rests = encoded.amplitudes.reshape(d**target, d, -1)
                for x in range(d):
                    assert np.max(np.abs(rests[:, x] - rotated[:, (x - s) % d])) <= 1e-14
    for k in (2, 3):
        register = omega_state(d, k)
        rho, psi = register.first_qudit_state, register.amplitudes.reshape(d, -1)
        law = np.diag(qft @ rho @ qft.conj().T).real
        for s in range(d):
            mat = encode_matrix(d, s)
            assert np.max(np.abs(np.diag(mat @ rho @ mat.conj().T).real - np.roll(law, s))) <= 1e-14
            for x in range(d):
                assert np.max(np.abs(mat[x] @ psi - qft[(x - s) % d] @ psi)) <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_apply_encode_is_shift_after_qft(d):
    gen = np.random.default_rng(d)
    reg = random_register(d, 2, gen)
    # one matrix per shift of an array, each the QFT's rows rolled by its shift, bit for bit
    assert np.array_equal(encode_matrix(d, np.arange(d)), [np.roll(_qft_matrix(d), s, axis=0) for s in range(d)])
    for s in range(d):
        for target in range(2):
            expected = apply_shift(apply_qft(reg, target), target, s).amplitudes
            got = apply_encode(reg, target, s).amplitudes
            assert np.max(np.abs(got - expected)) <= 1e-13


@pytest.mark.parametrize("eve", [False, True])
def test_rounds_share_one_read_only_register_that_runs_leave_alone(eve):
    cfg = ProtocolConfig(d=5, n=3, m=2, decoy_count=0)
    secrets = tuple((1, 4) for _ in range(cfg.n))
    for seed in range(10):
        rounds = prepare_rounds(cfg, count=cfg.m + 2)
        shared = rounds[0].factors[0][0]
        before = shared.amplitudes.copy()
        assert all(state.factors == ((shared, (1, 2, 3)),) for state in rounds)
        run_one(cfg, 2, secrets, rounds, np.random.default_rng(seed), eve=eve)
        assert np.array_equal(shared.amplitudes, before)
        assert not shared.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            shared.amplitudes[0] = 0.0
        assert approx_equal(apply_iqft(apply_qft(shared, 1), 1), shared)


# ---------------------------------------------------------------------------
# measured qudits leave the register


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10]), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_measure_matches_kept_qudit_reference(d, k, seed):
    # the rest is the kept-qudit posterior projected onto |v> (V1) or QFT|v> (V2)
    reg = random_register(d, k, np.random.default_rng(seed))
    for target in range(k):
        for basis in (V1, V2):
            ref, fast = np.random.default_rng(seed + target), np.random.default_rng(seed + target)
            expected, posterior = _kept_measure(reg, target, basis, ref)
            value, rest = measure_one(reg, target, basis, fast)
            assert value == expected
            assert fast.bit_generator.state == ref.bit_generator.state
            assert (rest.d, rest.k) == (d, k - 1)
            factor = _qft_matrix(d)[:, value] if basis is V2 else np.eye(d)[value]
            kept = posterior.amplitudes.reshape(d**target, d, -1).transpose(0, 2, 1) @ factor.conj()
            assert np.max(np.abs(rest.amplitudes - kept.reshape(-1))) <= 1e-13
            if k == 1:
                assert rest.amplitudes.shape == (1,)
                assert abs(abs(rest.amplitudes[0]) - 1.0) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10]), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_measure_matches_marginal_then_norm_reference(d, k, seed):
    reg = random_register(d, k, np.random.default_rng(seed))
    for target in range(k):
        for basis in (V1, V2):
            ref, fast = np.random.default_rng(seed + target), np.random.default_rng(seed + target)
            expected, posterior = _reference_measure(reg, target, basis, ref)
            value, rest = measure_one(reg, target, basis, fast)
            assert value == expected
            assert fast.bit_generator.state == ref.bit_generator.state
            assert (rest.d, rest.k) == (posterior.d, posterior.k)
            assert np.max(np.abs(rest.amplitudes - posterior.amplitudes)) <= 1e-12


def test_zero_qudit_register_admits_no_operation():
    _, empty = measure_one(basis_state(5, [3]), 0, V1, np.random.default_rng(0))
    assert empty.k == 0
    rng = np.random.default_rng(1)
    for op in (lambda: apply_qft(empty, 0), lambda: measure_one(empty, 0, V1, rng),
               lambda: measure_one(empty, 0, V2, rng)):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ValueError, match="at least 1 qudit"):
        QuditRegister(5, 0, np.ones(1))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10]), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_measure_v2_matches_rotate_measure_rotate_back(d, k, seed):
    reg = random_register(d, k, np.random.default_rng(seed))
    for target in range(k):
        ref, fast = np.random.default_rng(seed + target), np.random.default_rng(seed + target)
        value, collapsed = _kept_measure(apply_iqft(reg, target), target, V1, ref)
        got, rest = measure_one(reg, target, V2, fast)
        assert got == value
        assert fast.bit_generator.state == ref.bit_generator.state
        # rotated back, the target holds QFT|v>; what it multiplies is the rest
        back = apply_qft(collapsed, target).amplitudes.reshape(d**target, d, -1)
        expected = np.einsum("adb,d->ab", back, _qft_matrix(d)[:, value].conj())
        assert np.max(np.abs(rest.amplitudes - expected.reshape(-1))) <= 1e-13


def _encode_and_read_out(rounds, secrets, rng):
    """Every owner's readout of every round, each digit encoded, as run_protocol's encoding read-out."""
    digits = [[secrets[i - 1][j] for i in state.owners] for j, state in enumerate(rounds)]
    return encode_read_out(rounds, digits, owner_uniforms(rounds, rng)).tolist()


def _reference_encode_rounds(rounds, secrets, rng):
    """QFT, measure, add the digit, on the dense register, zero-filled posterior kept; one list per round."""
    results = []
    for j, state in enumerate(rounds):
        reg = _dense(state)
        results.append([])
        for q, i in enumerate(state.owners):
            value, reg = _kept_measure(apply_qft(reg, q), q, V1, rng)
            results[j].append((value + secrets[i - 1][j]) % state.d)
    return results


def _reference_full_check(state, check, rng):
    """The check on the dense register: QFT on V1 checks, zero-filled posteriors."""
    d, basis = state.d, BasisKind(check["basis"])
    values = []
    reg = _dense(state)
    for q in range(reg.k):
        if basis is V1:
            reg = apply_qft(reg, q)
        value, reg = _kept_measure(reg, q, V1, rng)
        values.append(value)
    return values, v1_pass(values, d) if basis is V1 else v2_pass(values)


@pytest.mark.parametrize("forged", [False, True])
def test_shrinking_chains_match_full_register_reference(forged):
    cfg = ProtocolConfig(d=5, n=4, m=2)
    gen = np.random.default_rng(17)
    for seed in range(200):
        r_choices = tuple(int(x) for x in gen.integers(0, 5, size=2))
        rounds = fabricate_rounds(cfg, r_choices) if forged else prepare_rounds(cfg)
        secrets = [random_secret(5, 2, gen) for _ in range(cfg.n)]
        ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _encode_and_read_out(rounds, secrets, fast) == _reference_encode_rounds(rounds, secrets, ref)
        assert fast.bit_generator.state == ref.bit_generator.state
        check = {"position": 0, "chooser": 2, "basis": _basis(seed % 2).value}
        outcome = run_check(rounds[0], check, fast)
        assert (outcome["announced"], outcome["passed"]) == _reference_full_check(rounds[0], check, ref)
        assert fast.bit_generator.state == ref.bit_generator.state


def _reference_eve_then_encode(rounds, secrets, rng):
    """Eve on every receiver's qudit, then every owner's QFT readout plus its digit, on dense kept-qudit registers.

    Returns the registers as Eve leaves them and each owner's readouts, one list per round.
    """
    regs = [_dense(state) for state in rounds]
    for i in range(2, len(secrets) + 1):
        regs = _reference_eve([(reg, state.owners.index(i)) for reg, state in zip(regs, rounds)], rng)
    after_eve, results = list(regs), []
    for j, state in enumerate(rounds):
        results.append([])
        for q, i in enumerate(state.owners):
            value, regs[j] = _kept_measure(apply_qft(regs[j], q), q, V1, rng)
            results[j].append((value + secrets[i - 1][j]) % state.d)
    return after_eve, results


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("forged", [False, True])
def test_factor_rounds_under_eve_match_dense_reference(d, n, forged):
    # Eve's measured qudit leaves its register and her resent particle is
    # a factor of its own; the dense loop keeps both in one register
    cfg = ProtocolConfig(d=d, n=n, m=1, decoy_count=0)
    gen = np.random.default_rng(100 * d + n)
    for seed in range(200):
        rounds = fabricate_rounds(cfg, (int(gen.integers(d)),)) if forged else prepare_rounds(cfg)
        secrets = [random_secret(d, 1, gen) for _ in range(n)]
        ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
        after_eve, expected = _reference_eve_then_encode(rounds, secrets, ref)
        for i in range(2, n + 1):
            rounds, _ = eve_one_trial(rounds, i, (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)), fast, d)
        for state, reg in zip(rounds, after_eve):
            assert _same_state(_dense(state), reg)
        assert _encode_and_read_out(rounds, secrets, fast) == expected
        assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("forged", [False, True])
def test_intercept_replaces_each_qudit(forged):
    # the intercepted qudit leaves its register and the state read joins
    # the round as the participant's own one-qudit factor
    cfg = ProtocolConfig(d=3, n=4, m=1)
    state = fabricate_rounds(cfg, (2,))[0] if forged else prepare_rounds(cfg)[0]
    rng = np.random.default_rng(3)
    holders = state.owners
    owners, order = list(holders), []
    while owners:
        participant = owners.pop(len(owners) // 2)
        order.append(participant)
        v2 = len(owners) % 2 == 1
        value, state = intercept_one(state, participant, V2 if v2 else V1, rng)
        assert state.owners == holders
        assert sum(reg.k for reg, _ in state.factors) == len(holders)
        particle, held_by = state.factors[-1]
        assert held_by == (participant,) and particle.k == 1
        assert np.array_equal(particle.amplitudes, basis_rows(3, value, v2))
    assert [owners for _, owners in state.factors] == [(p,) for p in order]


# ---------------------------------------------------------------------------
# rounds read out in lockstep


def _per_owner_read_out(state, qft, rng):
    """The chain read_out replaced: owner by owner, the QFT on its qudit if qft, measure it, drop it from its factor."""
    factors, values = list(state.factors), []
    for p in state.owners:
        f = next(f for f, (_, held) in enumerate(factors) if p in held)
        register, held = factors[f]
        q = held.index(p)
        if qft:
            register = apply_qft(register, q)
        value, rest = measure_one(register, q, V1, rng)
        factors[f:f + 1] = [(rest, held[:q] + held[q + 1:])] if len(held) > 1 else []
        values.append(value)
    return values


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10]), n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=6))
def test_read_out_matches_per_owner_chain(d, n, seed, kinds):
    # genuine and forged rounds, some with a random subset of their qudits
    # intercepted in random order, some rotated by the QFT, all in one call
    gen = np.random.default_rng(seed)
    cfg = ProtocolConfig(d=d, n=n, m=1, decoy_count=0)
    rounds, rotations = [], []
    for forged, eve, qft in kinds:
        state = fabricate_rounds(cfg, (int(gen.integers(d)),))[0] if forged else prepare_rounds(cfg)[0]
        if eve:
            for i in gen.permutation(state.owners)[:int(gen.integers(1, len(state.owners) + 1))]:
                state = intercept_one(state, int(i), _basis(int(gen.integers(2))), gen)[1]
        rounds.append(state)
        rotations.append(qft)
    ref, fast = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    expected = [_per_owner_read_out(state, qft, ref) for state, qft in zip(rounds, rotations)]
    values = read_out(rounds, rotations, fast.random((len(rounds), n)))
    assert values.dtype == np.int64 and values.shape == (len(rounds), n) and values.tolist() == expected
    assert fast.bit_generator.state == ref.bit_generator.state


def test_read_out_rejects_rounds_it_cannot_stack():
    five, three = prepare_rounds(ProtocolConfig(d=5, n=3, m=1))[0], prepare_rounds(ProtocolConfig(d=3, n=3, m=1))[0]
    assert read_out([], True, np.empty((0, 3))).shape == (0, 3)
    # u must be (R, n): not flat, not one row per owner of another round count
    for shape in [(3,), (2, 3), (1, 3, 1)]:
        with pytest.raises(ValueError, match=rf"^need a \(rounds, n\) array of uniforms for 1 rounds, got shape "
                                             rf"{re.escape(str(shape))}$"):
            read_out([five], False, np.zeros(shape))
    with pytest.raises(ValueError, match="^round 1 is not held by P1..P3 at the first round's d=5$"):
        read_out([five, three], False, np.zeros((2, 3)))
    # a round held by P2 and P3 alone, or by more participants than u has columns
    missing = RoundState(((fake_particle(5, 1), (2,)), (fake_particle(5, 3), (3,))))
    for rounds, n in [([five, missing], 3), ([missing], 2), ([five], 2)]:
        with pytest.raises(ValueError, match=f"^round {len(rounds) - 1} is not held by P1..P{n} at"):
            read_out(rounds, False, np.zeros((len(rounds), n)))
    # one rotation flag for all rounds or one per round
    with pytest.raises(ValueError):
        read_out([five, five], [True] * 3, np.zeros((2, 3)))


@pytest.mark.parametrize("cap", [1, 6, 54])
def test_read_out_is_the_same_for_every_stack_cap(cap, monkeypatch):
    # at d=3 a cap of 1 reads every factor alone, 6 stacks lone qudits in
    # twos and 54 the 3-qudit registers in twos; the default stacks them all
    cfg = ProtocolConfig(d=3, n=3, m=1, decoy_count=0)
    gen = np.random.default_rng(cap)
    rounds = prepare_rounds(cfg, count=3) + fabricate_rounds(cfg, (0, 2))
    rounds += [intercept_one(rounds[0], 2, V2, gen)[1], intercept_one(rounds[3], 3, V1, gen)[1]]
    rotations = [False, True, True, False, True, False, False]
    ref = np.random.default_rng(7)
    expected = [_per_owner_read_out(state, qft, ref) for state, qft in zip(rounds, rotations)]
    assert read_out(rounds, rotations, owner_uniforms(rounds, np.random.default_rng(7))).tolist() == expected
    monkeypatch.setattr(qudit, "STACK_CAP", cap)
    assert read_out(rounds, rotations, owner_uniforms(rounds, np.random.default_rng(7))).tolist() == expected


def test_read_out_of_rounds_over_the_stack_cap_peaks_as_one_round():
    # 10^5 amplitudes is over the cap: each round is read alone, as a view
    # of the shared register, so reading four costs no more memory than one
    rounds = prepare_rounds(ProtocolConfig(d=10, n=5, m=4, decoy_count=0))
    assert rounds[0].factors[0][0].amplitudes.size > qudit.STACK_CAP

    def peak(count):
        tracemalloc.start()
        try:
            read_out(rounds[:count], True, np.random.default_rng(0).random((count, 5)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations outside the read-out
    one = peak(1)
    assert peak(4) <= 1.1 * one


def test_read_out_of_one_register_shared_by_a_stack_reads_it_as_a_view():
    # 120 rounds sharing one d=5, n=3 register read as a broadcast view of
    # it; 120 copies of it are first stacked into one array, a stack more
    shared = prepare_rounds(ProtocolConfig(d=5, n=3, m=1), count=120)
    register = shared[0].factors[0][0]
    copies = [RoundState(((QuditRegister(5, 3, register.amplitudes.copy()), (1, 2, 3)),)) for _ in shared]

    def peak(rounds):
        tracemalloc.start()
        try:
            values = read_out(rounds, True, np.random.default_rng(0).random((120, 3)))
            return values, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(shared)  # first-call allocations outside the read-out
    (values, view), (copied, stacked) = peak(shared), peak(copies)
    assert np.array_equal(values, copied)
    assert stacked - view >= 120 * 125 * 16 / 2


@settings(max_examples=150, deadline=None)
@given(d=st.integers(2, 6), k=st.integers(1, 4), ghz=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_first_step_from_the_reduced_state_matches_rotate_then_marginal(d, k, ghz, seed):
    # one shared register, rotated by the QFT or not, read at u = 0.0 and at
    # the midpoint of every outcome's CDF step: the law diag(U rho U^dagger),
    # the value and the rest as the dense rotate-then-marginal path gives them
    gen = np.random.default_rng(seed)
    register = omega_state(d, k) if ghz and k > 1 else random_register(d, k, gen)
    rho = register.first_qudit_state
    for qft, mat in ((False, np.eye(d)), (True, _qft_matrix(d))):
        rotated = _apply_single(register, mat, 0).amplitudes.reshape(d, -1)
        law = np.sum(np.abs(rotated) ** 2, axis=1)
        assert np.allclose(np.diag(mat @ rho @ mat.conj().T).real, law, rtol=0, atol=1e-12)
        u, expected = zip(*[(uv, v) for v, uv in [(0, 0.0), *zip(range(d), np.cumsum(law) - law / 2)]])
        psi = np.broadcast_to(register.amplitudes, (len(u), d**k)).reshape(len(u), 1, d, -1)
        values, kept = measure_stack(psi, np.array(u), qft, rho)
        assert values.tolist() == list(expected)
        assert kept.shape == (len(u), 1, d ** (k - 1))
        assert np.allclose(kept[:, 0], rotated[values] / np.sqrt(law[values])[:, None], rtol=0, atol=1e-12)


def _counting_first_qudit_state(monkeypatch) -> list:
    """Record a weak reference to each register whose reduced state is built, while monkeypatch lasts."""
    built, real = [], QuditRegister.__dict__["first_qudit_state"].func

    def counting(register):
        built.append(weakref.ref(register))
        return real(register)

    prop = cached_property(counting)
    prop.__set_name__(QuditRegister, "first_qudit_state")
    monkeypatch.setattr(QuditRegister, "first_qudit_state", prop)
    return built


@pytest.mark.parametrize("scenario", ["honest", "modified-honest", "eve-decoy"])
def test_wide_run_builds_the_reduced_state_once_and_releases_the_register(scenario, monkeypatch):
    # four trials, a chunk each, read the one prepared 10^6-amplitude register
    # (modified-honest three times a trial): its reduced state is built at the
    # first read and lives on the register, which dies when the run returns.
    # Eve measures every round before anyone reads it: then nothing is shared.
    built, prepared, real = _counting_first_qudit_state(monkeypatch), [], harness.prepare_rounds

    def recording(cfg, count=None):
        rounds = real(cfg, count)
        prepared.append(weakref.ref(rounds[0].factors[0][0]))
        return rounds

    monkeypatch.setattr(harness, "prepare_rounds", recording)
    report = run_scenario(ScenarioConfig(scenario, ProtocolConfig(d=10, n=6, m=1, decoy_count=16), eta=2,
                                         trials=4, master_seed=1))
    assert len(report["per_trial"]) == 4
    assert len(prepared) == 1 and prepared[0]() is None
    assert len(built) == (0 if scenario == "eve-decoy" else 1)


# ---------------------------------------------------------------------------
# registers shared across trials


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_scenario_run_builds_one_register_its_trials_share(scenario, monkeypatch):
    # a genuine run builds the GHZ register once, read-only, and hands the
    # same rounds to every trial; a forging dealer builds none
    built, seen = [], []
    real_omega, real_run = protocol.omega_state, harness.run_protocol

    def counting_omega(d, n):
        built.append(real_omega(d, n))
        return built[-1]

    def recording_run(cfg, eta, secrets, rounds, rngs, eve=False):
        seen.extend(rounds)
        return real_run(cfg, eta, secrets, rounds, rngs, eve=eve)

    monkeypatch.setattr(protocol, "omega_state", counting_omega)
    monkeypatch.setattr(harness, "run_protocol", recording_run)
    cfg, sc = ProtocolConfig(d=3, n=4, m=2, decoy_count=2), SCENARIOS[scenario]
    run_scenario(ScenarioConfig(scenario, cfg, eta=2, trials=3, fake_r=1 if sc.forged else None))
    assert len(seen) == 3
    assert all(len(rounds) == cfg.m + (2 if sc.hardened else 0) for rounds in seen)
    if sc.forged:
        assert built == []
        assert all(reg.k == 1 for rounds in seen for state in rounds for reg, _ in state.factors)
        return
    [register] = built
    assert not register.amplitudes.flags.writeable
    assert np.array_equal(register.amplitudes, omega_state(3, 4).amplitudes)
    assert all(state.factors == ((register, (1, 2, 3, 4)),) for rounds in seen for state in rounds)


@pytest.mark.parametrize("d", [2, 5, 10])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_forged_registers_are_shared_across_calls(d, n):
    # every fake particle of r, in any call, is a read-only view of row r
    # of the one cached IQFT matrix (row -(n-1)r for P1's), and the n
    # factors multiply out to the dense forged register bit for bit
    cfg = ProtocolConfig(d=d, n=n, m=3)
    first = fabricate_rounds(cfg, (0, d - 1, 0))
    second = fabricate_rounds(cfg, (d - 1, 1 % d, 0))
    for state in first + second:
        particles = [fake_particle(d, row).amplitudes for row in [(-(n - 1) * state.r) % d] + [state.r] * (n - 1)]
        assert [owners for _, owners in state.factors] == [(i,) for i in range(1, n + 1)]
        for (register, _), particle in zip(state.factors, particles, strict=True):
            assert register.k == 1 and register.amplitudes.base is _iqft_matrix(d)
            assert np.array_equal(register.amplitudes, particle)
            assert np.shares_memory(register.amplitudes, particle)
            assert not register.amplitudes.flags.writeable
        assert np.array_equal(_dense(state).amplitudes, reduce(np.kron, particles))


def test_scenario_run_releases_the_registers_its_trials_shared():
    cfg = ProtocolConfig(d=3, n=3, m=2, decoy_count=2)
    genuine = prepare_rounds(cfg)[0].factors[0][0]
    run_scenario(ScenarioConfig(scenario="honest", protocol=cfg, trials=2))
    assert prepare_rounds(cfg)[0].factors[0][0] is not genuine
    # forged rounds hold views of the d x d IQFT matrix, nothing a run builds or releases
    before = fabricate_rounds(cfg, (1, 1))
    run_scenario(ScenarioConfig(scenario="iqft-attack", protocol=cfg, trials=2, fake_r=1))
    after = fabricate_rounds(cfg, (1, 1))
    for state in before + after:
        assert all(reg.amplitudes.base is _iqft_matrix(3) for reg, _ in state.factors)


@pytest.mark.parametrize("scenario", ["honest", "iqft-attack"])
def test_interrupted_scenario_run_releases_the_registers_its_trials_shared(scenario, monkeypatch):
    # a run stopped between chunks of trials must not hold its registers,
    # up to 2^22 amplitudes, until the next run
    seen, real = [], harness.run_protocol

    def interrupt_second_chunk(cfg, eta, secrets, rounds, rngs, eve=False):
        seen.append(rounds[0][0].factors[0][0])
        if len(seen) == 2:
            raise KeyboardInterrupt
        return real(cfg, eta, secrets, rounds, rngs, eve=eve)

    monkeypatch.setattr(harness, "run_protocol", interrupt_second_chunk)
    monkeypatch.setattr(qudit, "STACK_CAP", 1)  # one trial per chunk
    cfg = ProtocolConfig(d=3, n=3, m=2, decoy_count=2)
    forged = scenario == "iqft-attack"
    with pytest.raises(KeyboardInterrupt):
        run_scenario(ScenarioConfig(scenario, cfg, trials=3, fake_r=1 if forged else None))
    assert len(seen) == 2
    if forged:
        # a fake particle is a view of the d x d IQFT matrix: no register to hold
        assert all(reg.amplitudes.base is _iqft_matrix(3) for reg in seen)
    else:
        assert seen[0] is seen[1]  # the trials shared one register
        assert prepare_rounds(cfg)[0].factors[0][0] is not seen[0]


@pytest.mark.parametrize("d, ns", [(2, (2, 3, 4, 7)), (5, (2, 3, 4, 7)), (10, (2, 3, 4)), (2048, (2,))])
def test_secrets_draw_matches_per_participant_draws(d, ns):
    # a chunk's (T, n m) secrets words give each trial's n strings of m digits (w*d) >> 64, in row order
    for n in ns:
        for m in range(1, 8):
            cfg = ScenarioConfig("honest", ProtocolConfig(d=d, n=n, m=m))
            for seed in range(5):
                words = np.random.default_rng(seed).integers(0, 2**64, size=(3, n * m), dtype=np.uint64)
                expected = [[[w * d >> 64 for w in row[i * m:(i + 1) * m]] for i in range(n)] for row in words.tolist()]
                assert _trial_secrets(cfg, words).tolist() == expected
            fixed = ScenarioConfig("honest", ProtocolConfig(d=d, n=n, m=m), secrets=((d - 1,) * m,) * n)
            assert _trial_secrets(fixed, words).tolist() == [[[d - 1] * m] * n] * 3
