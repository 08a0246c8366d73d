"""Original protocol: rounds, decoys, encoding, announcements."""

import itertools
import re

import numpy as np
import pytest
from conftest import (
    apply_encode, apply_qft, apply_shift, approx_equal, decoy_words, encode_read_out, intercept_one,
    measure_every_pair, outcome_distribution, owner_uniforms, random_secret, run_one,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsum import (
    BasisKind,
    ProtocolConfig,
    check_decoys,
    compute_sum,
    eve_intercept_resend,
    fabricate_rounds,
    fake_particle,
    insert_decoys,
    omega_state,
    prepare_rounds,
    validate_secrets,
)
from quditsum import protocol
from quditsum.protocol import RoundState, read_out
from quditsum.qudit import _iqft_matrix, _qft_matrix, measure_pairs


def _secrets(digit_rows):
    return tuple(tuple(row) for row in digit_rows)


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
    # a numpy, float or bool value would reach the JSON report
    for field in ("d", "n", "m", "decoy_count"):
        for value in (np.int64(5), 5.0, True):
            with pytest.raises(ValueError, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
                ProtocolConfig(**{"d": 5, "n": 3, "m": 1, field: value})
    for value in (1.5, True, "1", None):
        with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(value))}$"):
            ProtocolConfig(d=5, n=3, m=1, seed=value)
    for value in (True, np.float32(0.25), "0.25"):
        with pytest.raises(ValueError, match=f"^error_threshold must be an int or float, got {re.escape(repr(value))}$"):
            ProtocolConfig(d=5, n=3, m=1, error_threshold=value)
    for value in (0, 1, 0.25):
        assert ProtocolConfig(d=5, n=3, m=1, error_threshold=value).error_threshold == value


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
    for state in rounds:
        assert state is rounds[0]
        assert state.owners == (1, 2, 3)
        ((register, owners),) = state.factors
        assert owners == (1, 2, 3)
        assert approx_equal(register, omega_state(10, 3))


def test_prepare_rounds_checks_one_round(monkeypatch):
    # every position holds the same frozen round, checked once
    calls, check = [], RoundState.__post_init__
    monkeypatch.setattr(RoundState, "__post_init__", lambda self: calls.append(check(self)))
    rounds = prepare_rounds(ProtocolConfig(d=5, n=3, m=4), 10)
    assert len(rounds) == 10 and len(calls) == 1


def test_prepare_rounds_count_override():
    cfg = ProtocolConfig(d=3, n=2, m=2)
    assert len(prepare_rounds(cfg, count=7)) == 7


def test_insert_decoys_shapes_and_records():
    cfg = ProtocolConfig(d=7, n=4, m=5, decoy_count=12)
    rng = np.random.default_rng(42)
    values, v2 = insert_decoys(cfg, decoy_words(cfg, rng))
    assert set(values) == set(v2) == {2, 3, 4}
    for i in (2, 3, 4):
        # a decoy is its (value, basis) pair: no state is built before a measurement
        assert values[i].shape == v2[i].shape == (12,)
        assert values[i].dtype.kind == "i" and v2[i].dtype == bool
        assert ((0 <= values[i]) & (values[i] < 7)).all()


def test_insert_decoys_uses_both_bases():
    cfg = ProtocolConfig(d=2, n=2, m=1, decoy_count=40)
    _, v2 = insert_decoys(cfg, decoy_words(cfg, np.random.default_rng(1)))
    assert v2[2].any() and not v2[2].all()


def test_zero_decoys_allowed():
    cfg = ProtocolConfig(d=5, n=3, m=1, decoy_count=0)
    values, v2 = insert_decoys(cfg, decoy_words(cfg, np.random.default_rng(0)))
    assert values[2].shape == v2[2].shape == (0,) and len(values[3]) == 0
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    pair = values[2], v2[2]
    assert check_decoys(5, pair, pair, rng.random(0)) == 0
    assert rng.bit_generator.state == before


def test_check_decoys_clean_channel_is_exactly_zero():
    cfg = ProtocolConfig(d=10, n=3, m=4, decoy_count=20)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        values, v2 = insert_decoys(cfg, decoy_words(cfg, rng))
        for i in (2, 3):
            pair = values[i], v2[i]
            assert check_decoys(cfg.d, pair, pair, rng.random(cfg.decoy_count)) == 0


def test_check_decoys_rejects_length_mismatch():
    cfg = ProtocolConfig(d=5, n=2, m=1, decoy_count=3)
    rng = np.random.default_rng(0)
    values, v2 = insert_decoys(cfg, decoy_words(cfg, rng))
    pair = values[2], v2[2]
    with pytest.raises(ValueError, match="share one shape"):
        check_decoys(5, pair, (values[2][:-1], v2[2][:-1]), rng.random(3))
    with pytest.raises(ValueError, match="share one shape"):
        check_decoys(5, pair, pair, rng.random(2))
    for bad in (values[2][0], values[2][:, None]):
        with pytest.raises(ValueError, match="share one shape"):
            check_decoys(5, pair, (bad, v2[2]), rng.random(3))
    with pytest.raises(ValueError, match="share one shape"):
        check_decoys(5, (values[2], v2[2][:-1]), pair, rng.random(3))


@pytest.mark.parametrize("bad", [7, -1])
@pytest.mark.parametrize("side", ["expected", "received"])
@pytest.mark.parametrize("fourier", [False, True])
def test_check_decoys_rejects_values_outside_the_alphabet(bad, side, fourier, monkeypatch):
    # a value outside [0, d) is no decoy: basis_rows would wrap -1 to QFT|d-1>
    # or give a zero row, and the check would count it as a plain mismatch
    good, v2 = np.array([0, 4, 2]), np.full(3, fourier)
    pairs = {"expected": (good, v2), "received": (good, v2), side: (np.array([0, 4, bad]), v2)}
    measured = []
    monkeypatch.setattr(protocol, "measure_pairs", lambda *args: measured.append(args))
    with pytest.raises(ValueError, match=f"^{side} decoy value {bad} out of range for d=5$"):
        check_decoys(5, pairs["expected"], pairs["received"], np.full(3, 0.5))
    assert measured == []


# the d of every run the tests make, and a d so large only the secrets draw uses it
D_USED = (2, 3, 4, 5, 7, 10, 16, 2048)


def _full_check(d, expected, received, u):
    """The check measuring every decoy, unchanged ones too: mismatches per sequence."""
    (values, v2), (got, got_v2) = expected, received
    return np.count_nonzero(measure_every_pair(d, got, got_v2, v2, u) != values, axis=-1)


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([d for d in D_USED if d <= 16]), sequences=st.integers(1, 3), count=st.integers(0, 12),
       eve=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_check_decoys_counts_what_measuring_every_decoy_counts(d, sequences, count, eve, seed):
    # the decoys that arrived as sent are not measured; uniforms of exactly 0.0, 2^-53 and the largest
    # below 1 are mixed in, and after Eve some decoys keep their pair and some do not
    rng = np.random.default_rng(seed)
    values, v2 = rng.integers(d, size=(sequences, count)), rng.integers(2, size=(sequences, count)) == 1
    received = values, v2
    if eve:
        bits, eve_u = rng.integers(2, size=(1, values.size)), rng.random((1, values.size))
        _, (read, bases) = eve_intercept_resend([], 2, (values.reshape(-1), v2.reshape(-1)), bits, eve_u, d)
        received = read.reshape(values.shape), bases.reshape(values.shape)
    u = rng.choice([0.0, 2.0**-53, 1 - 2.0**-53, *rng.random(3)], size=values.shape)
    assert check_decoys(d, (values, v2), received, u).tolist() == _full_check(d, (values, v2), received, u).tolist()


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([d for d in D_USED if d <= 16]), shape=st.lists(st.integers(0, 5), max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_measure_pairs_is_a_full_measurement_of_every_pair(d, shape, seed):
    # random pairs read in random bases, each uniform 0.0, 2^-53, the largest below 1 or random: the
    # pairs read in their own basis and skipped read what measuring them reads
    rng = np.random.default_rng(seed)
    values, v2, bases = rng.integers(d, size=shape), rng.integers(2, size=shape) == 1, rng.integers(2, size=shape) == 1
    u = rng.choice([0.0, 2.0**-53, 1 - 2.0**-53, rng.random()], size=shape)
    outcomes = measure_pairs(d, values, v2, bases, u)
    assert outcomes.shape == values.shape
    assert outcomes.tolist() == measure_every_pair(d, values, v2, bases, u).tolist()


@pytest.mark.parametrize("d", [*range(2, 65), 100, 128, 199, 256, 1024, 2048])
def test_a_decoy_that_arrived_as_sent_reads_its_value_at_every_positive_uniform(d):
    # the inverse CDF is monotone in u, and every uniform is a multiple of 2^-53 below 1: reading v at
    # both ends of (0, 1) reads v everywhere between. At u = 0.0 a V2 decoy's float law may stop short.
    # Measured in blocks of at most 128 values, every |v> and QFT|v> in both bases
    try:
        for first in range(0, d, 128):
            values = np.tile(np.arange(first, min(first + 128, d)), 2)
            v2 = np.repeat([False, True], len(values) // 2)
            for u in (2.0**-53, 1 - 2.0**-53):
                assert measure_every_pair(d, values, v2, v2, np.full(len(values), u)).tolist() == values.tolist()
    finally:
        if d > 64:  # a d x d Fourier matrix is 64 MB at d = 2048: the cache holds it for no other test
            _qft_matrix.cache_clear()
            _iqft_matrix.cache_clear()


# ---------------------------------------------------------------------------
# the word transforms


EDGE_WORDS = [0, 1, 2**11 - 1, 2**11, 2**32 - 1, 2**32, 2**32 + 1, 2**53, 2**63 - 1, 2**63, 2**64 - 2**11, 2**64 - 1]


@pytest.mark.parametrize("d", [*D_USED, 255, 256, 2**31 + 11, 2**32 - 1])
def test_word_digits_is_the_exact_multiply_shift(d):
    words = EDGE_WORDS + np.random.default_rng(d % 1000).integers(0, 2**64, size=2000, dtype=np.uint64).tolist()
    got = protocol.word_digits(np.array(words, dtype=np.uint64), d)
    assert got.dtype == np.int64 and got.tolist() == [w * d >> 64 for w in words]


@pytest.mark.parametrize("d", D_USED)
def test_every_digit_has_floor_or_ceil_of_2_64_over_d_preimages(d):
    # the words reading k are [ceil(k 2^64 / d), ceil((k+1) 2^64 / d)); each run's ends read k and k-1
    starts = [-(-k * 2**64 // d) for k in range(d + 1)]
    assert {b - a for a, b in zip(starts, starts[1:])} <= {2**64 // d, -(-2**64 // d)}
    firsts = np.array(starts[:d], dtype=np.uint64)
    lasts = np.array([b - 1 for b in starts[1:]], dtype=np.uint64)
    assert protocol.word_digits(firsts, d).tolist() == protocol.word_digits(lasts, d).tolist() == list(range(d))


@pytest.mark.parametrize("key", [0, 1, 2**64 - 1])
def test_word_uniforms_are_what_generator_random_makes_of_the_words(key):
    words = np.random.Philox(key=key).random_raw(4096)
    expected = np.random.Generator(np.random.Philox(key=key)).random(4096)
    assert np.array_equal(protocol.word_uniforms(words), expected)
    assert protocol.word_uniforms(np.array([0, 2**11 - 1, 2**11, 2**64 - 1], dtype=np.uint64)).tolist() == [
        0.0, 0.0, 2.0**-53, 1 - 2.0**-53]


# ---------------------------------------------------------------------------
# encoding


def test_encode_and_measure_on_forged_state_is_deterministic():
    # P2's fake IQFT|2> with its digit 5 reads out 7, and P1's IQFT|-2> with its digit 0 reads 8, always
    rng = np.random.default_rng(0)
    state = fabricate_rounds(ProtocolConfig(d=10, n=2, m=1), (2,))[0]
    for _ in range(20):
        assert encode_read_out([state], [[0, 5]], owner_uniforms([state], rng)).tolist() == [[8, 7]]


def test_round_factors_name_one_owner_per_qudit():
    with pytest.raises(ValueError, match="^owners names 2 participants for 3 qudits$"):
        RoundState(((omega_state(5, 3), (1, 2)),))
    with pytest.raises(ValueError, match="^owners names 2 participants for 1 qudits$"):
        RoundState(((fake_particle(5, 1), (2,)), (fake_particle(5, 1), (3, 4))))
    state = RoundState(((fake_particle(5, 1), (2,)), (fake_particle(5, 3), (3,))))
    assert state.owners == (2, 3) and state.d == 5
    with pytest.raises(ValueError, match="^participant 1 holds no qudit in the round$"):
        intercept_one(state, 1, BasisKind.V1, np.random.default_rng(0))


def test_round_needs_factors_of_one_d_and_each_owner_once():
    # each fails on construction, so a run never sees the round and the
    # generator it was handed is untouched
    cfg = ProtocolConfig(d=5, n=3, m=1, decoy_count=2)
    secrets = ((1,), (2,), (3,))
    cases = [
        (lambda: RoundState(()), "^a round needs one or more factors, all of one d$"),
        (lambda: RoundState(((fake_particle(5, 1), (2,)), (fake_particle(3, 1), (3,)))),
         "^a round needs one or more factors, all of one d$"),
        (lambda: RoundState(((omega_state(5, 2), (2, 3)), (fake_particle(5, 0), (3,)))),
         "^a round names a participant twice$"),
    ]
    for build, message in cases:
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            run_one(cfg, 0, secrets, [build()], rng)
        assert rng.bit_generator.state == before


def test_encode_rejects_foreign_participant_and_bad_digit():
    cfg = ProtocolConfig(d=5, n=2, m=1)
    state = prepare_rounds(cfg)[0]
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^participant 3 holds no qudit in the round$"):
        intercept_one(state, 3, BasisKind.V1, rng)
    # a digit out of range is rejected before anything is encoded
    with pytest.raises(ValueError, match="secret strings of m=1 int digits mod d=5$"):
        run_one(cfg, 0, ((5,), (0,)), [state], rng)


def test_encoded_results_sum_to_secret_total():
    # every trial, not statistically: the support of the encoded state
    # only contains digit tuples with the right mod-d sum
    rng = np.random.default_rng(5)
    for d, n in [(2, 2), (3, 3), (5, 3), (10, 4)]:
        cfg = ProtocolConfig(d=d, n=n, m=1)
        for _ in range(10):
            digits = [int(x) for x in rng.integers(0, d, size=n)]
            rounds = prepare_rounds(cfg)
            values = encode_read_out(rounds, [digits], owner_uniforms(rounds, rng))[0].tolist()
            assert len(values) == n and sum(values) % d == sum(digits) % d


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("forged", [False, True])
def test_round_operations_leave_their_round_as_it_was(d, n, forged):
    # a round is a value: reading it out or intercepting a qudit of it
    # builds what it returns and leaves the round itself to be used again
    cfg = ProtocolConfig(d=d, n=n, m=1)
    state = fabricate_rounds(cfg, (d - 1,))[0] if forged else prepare_rounds(cfg)[0]
    factors = state.factors
    for seed in range(10):
        for qft in (False, True):
            first, again = np.random.default_rng(seed), np.random.default_rng(seed)
            values = read_out([state], qft, owner_uniforms([state], first))
            assert values.shape == (1, len(state.owners))
            assert np.array_equal(read_out([state], qft, owner_uniforms([state], again)), values)
            assert first.bit_generator.state == again.bit_generator.state
        for basis in (BasisKind.V1, BasisKind.V2):
            for i in state.owners:
                _, after = intercept_one(state, i, basis, np.random.default_rng(seed))
                assert (after.r, after.d, after.owners) == (state.r, d, state.owners)
        assert state.factors == factors


def test_single_encoded_qudit_is_uniform():
    # one participant's announced digit alone carries no information
    cfg = ProtocolConfig(d=5, n=3, m=1)
    reg = omega_state(5, 3)
    reg = apply_qft(reg, 1)
    reg = apply_shift(reg, 1, 3)
    probs = outcome_distribution(reg, 1, BasisKind.V1)
    assert np.allclose(probs, np.full(5, 0.2), atol=1e-12)


def _readout_law(reg, digits):
    """Joint law of the computational readouts after qudit q encodes digits[q]."""
    for q, digit in enumerate(digits):
        reg = apply_encode(reg, q, digit)
    return np.abs(reg.amplitudes) ** 2


def test_encoded_readouts_depend_only_on_the_digit_sum():
    # the privacy claim, exactly: the joint law of all n readouts is uniform
    # on the tuples k with sum(k) = sum(s) mod d, so secrets with equal
    # digit-wise sum give equal laws
    cases = [(d, n, list(itertools.product(range(d), repeat=n))) for d in (2, 3) for n in (2, 3)]
    gen = np.random.default_rng(54)
    cases.append((5, 4, [tuple(int(x) for x in gen.integers(0, 5, size=4)) for _ in range(40)]))
    for d, n, tuples in cases:
        sums = np.indices((d,) * n).sum(axis=0).reshape(-1) % d
        laws = {}
        for digits in tuples:
            law = _readout_law(omega_state(d, n), digits)
            expected = np.where(sums == sum(digits) % d, float(d) ** (1 - n), 0.0)
            assert np.max(np.abs(law - expected)) <= 1e-12
            laws.setdefault(sum(digits) % d, []).append(law)
        assert len(laws) == d
        for same_sum in laws.values():
            assert all(np.max(np.abs(law - same_sum[0])) <= 1e-12 for law in same_sum)


def test_forged_readouts_are_point_masses():
    # on a fake particle IQFT|r> the readout is (r + s) mod d with certainty
    for d in (2, 3, 5):
        for r in range(d):
            for digit in range(d):
                law = _readout_law(fake_particle(d, r), [digit])
                assert np.max(np.abs(law - np.eye(d)[(r + digit) % d])) <= 1e-12


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
        result = run_one(cfg, 0, secrets, prepare_rounds(cfg), np.random.default_rng(seed))
        assert result["sum"] == [5]


def test_honest_sum_correct_across_grid():
    # every trial must come out right; correctness is structural
    trial = 0
    for d in (2, 3, 5, 10):
        for n in (2, 3, 4):
            for m in (1, 4):
                cfg = ProtocolConfig(d=d, n=n, m=m, decoy_count=4)
                rng = np.random.default_rng(1000 + trial)
                secrets = tuple(random_secret(d, m, rng) for _ in range(n))
                result = run_one(cfg, 0, secrets, prepare_rounds(cfg), rng)
                expected = compute_sum(secrets, d)
                assert result["sum"] == expected
                trial += 1


def test_announcements_state_results_then_sum():
    cfg = ProtocolConfig(d=5, n=4, m=2)
    secrets = _secrets([[1, 2], [3, 4], [0, 0], [2, 1]])
    result = run_one(cfg, 0, secrets, prepare_rounds(cfg), np.random.default_rng(3))
    assert len(result["announced"]) == 3  # P2..P4; P1 only publishes the sum
    assert all(len(row) == 2 for row in result["announced"])
    assert result["sum"] == compute_sum(secrets, 5)


def test_run_rejects_wrong_secrets():
    cfg = ProtocolConfig(d=5, n=3, m=2)
    with pytest.raises(ValueError):
        run_one(cfg, 0, _secrets([[1, 2], [3, 4]]), prepare_rounds(cfg),
                     np.random.default_rng(0))
