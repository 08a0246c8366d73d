"""Hardened protocol: check selection, check execution, detection power."""

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from conftest import (
    apply_qft, assert_within_4sigma, encode_read_out, outcome_distribution, random_secret, reference_checks,
    reference_select_checks, run_check, run_one, v1_pass, v2_pass, words_block,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsum import (
    BasisKind,
    ProtocolConfig,
    QuditRegister,
    compute_sum,
    execute_check,
    fabricate_rounds,
    fake_particle,
    prepare_rounds,
    run_protocol,
    select_checks,
)
from quditsum.harness import _within_band, modified_per_check_pass_probability, trial_layout
from quditsum.qudit import _qft_matrix
from quditsum import protocol
from quditsum.protocol import read_out, word_uniforms


def _secrets(rows):
    return tuple(tuple(r) for r in rows)


def _hardened(cfg, eta, secrets, rng, forged=False):
    """One hardened run, the dealer honest or forging every round; returns its record."""
    total = cfg.m + eta
    if forged:
        rounds = fabricate_rounds(cfg, tuple(int(x) for x in rng.integers(0, cfg.d, size=total)))
    else:
        rounds = prepare_rounds(cfg, count=total)
    return run_one(cfg, eta, secrets, rounds, rng)


# ---------------------------------------------------------------------------
# pass predicates


def test_v1_pass_examples():
    assert execute_check(False, [1, 1, 3], 5)
    assert execute_check(False, [0, 0, 0], 5)
    assert not execute_check(False, [1, 1, 2], 5)
    assert execute_check(False, [4, 4, 2], 10)


def test_v2_pass_examples():
    assert execute_check(True, [3, 3, 3], 5)
    assert not execute_check(True, [3, 3, 2], 5)
    assert execute_check(True, [7], 10)  # vacuously


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_execute_check_is_the_scalar_predicates_on_every_readout(d, n):
    # every readout tuple in both bases, one at a time and as one (T, eta, n) batch of random flags
    readouts = np.array(list(itertools.product(range(d), repeat=n)))
    for v2 in (False, True):
        expected = [v2_pass(row) if v2 else v1_pass(row, d) for row in readouts.tolist()]
        assert [bool(execute_check(v2, row, d)) for row in readouts] == expected
        got = execute_check(np.full(len(readouts), v2), readouts, d)
        assert got.dtype == bool and got.tolist() == expected
    rng = np.random.default_rng(10 * d + n)
    batch, v2 = rng.integers(0, d, size=(6, 4, n)), rng.integers(0, 2, size=(6, 4)).astype(bool)
    got = execute_check(v2, batch, d)
    assert got.shape == (6, 4)
    assert got.tolist() == [[v2_pass(values) if bit else v1_pass(values, d) for bit, values in zip(*row)]
                            for row in zip(v2.tolist(), batch.tolist())]


# ---------------------------------------------------------------------------
# check selection


def _check_words(cfg, eta, rng, trials=1):
    """Rows of m+eta position keys and eta basis words, as select_checks reads them."""
    return rng.integers(0, 2**64, size=(trials, cfg.m + 2 * eta), dtype=np.uint64)


def _records(selected):
    """Each row's {"position", "chooser", "basis"} checks, from select_checks' (T, eta) arrays."""
    return [[{"position": pos, "chooser": chooser, "basis": "V2" if bit else "V1"} for pos, chooser, bit in zip(*row)]
            for row in zip(*(a.tolist() for a in selected))]


def test_select_checks_empty():
    cfg = ProtocolConfig(d=5, n=3, m=2)
    selected = select_checks(cfg, 0, _check_words(cfg, 0, np.random.default_rng(0), trials=3))
    assert [a.shape for a in selected] == [(3, 0)] * 3


def test_select_checks_returns_before_drawing_at_eta_zero():
    # at eta = 0 a row is m keys and no basis word, and whatever the keys hold no check is made
    for total in range(1, 51):
        cfg = ProtocolConfig(d=5, n=3, m=total)
        for words in (np.zeros((2, total), dtype=np.uint64), np.full((2, total), 2**64 - 1, dtype=np.uint64)):
            assert _records(select_checks(cfg, 0, words)) == [[], []]
    with pytest.raises(ValueError, match="m\\+2\\*eta=5 words"):
        select_checks(ProtocolConfig(d=5, n=3, m=3), 1, np.zeros((1, 4), dtype=np.uint64))


def test_select_checks_even_split():
    cfg = ProtocolConfig(d=5, n=3, m=2)
    _, [choosers], _ = select_checks(cfg, 6, _check_words(cfg, 6, np.random.default_rng(1)))
    assert Counter(choosers.tolist()) == {2: 3, 3: 3}


def test_select_checks_remainder_to_lowest_choosers():
    cfg = ProtocolConfig(d=5, n=4, m=2)
    _, [choosers], _ = select_checks(cfg, 7, _check_words(cfg, 7, np.random.default_rng(2)))
    assert Counter(choosers.tolist()) == {2: 3, 3: 2, 4: 2}


def test_select_checks_positions_distinct_and_in_range():
    cfg = ProtocolConfig(d=3, n=3, m=4)
    positions, choosers, v2 = select_checks(cfg, 5, _check_words(cfg, 5, np.random.default_rng(0), trials=10))
    assert positions.shape == choosers.shape == v2.shape == (10, 5) and v2.dtype == bool
    for row in positions.tolist():
        assert row == sorted(row)
        assert len(set(row)) == 5
        assert all(0 <= p < 4 + 5 for p in row)


def test_select_checks_uses_both_bases():
    cfg = ProtocolConfig(d=3, n=2, m=1)
    _, _, [v2] = select_checks(cfg, 40, _check_words(cfg, 40, np.random.default_rng(3)))
    assert set(v2.tolist()) == {False, True}


def test_select_checks_draws_as_the_cursor_loop():
    for n in range(2, 9):
        for eta in range(21):
            for seed in range(5):
                cfg = ProtocolConfig(d=2, n=n, m=1 + seed)
                words = _check_words(cfg, eta, np.random.default_rng(seed), trials=3)
                words[2, :cfg.m + eta] %= 3  # keys that tie
                got = _records(select_checks(cfg, eta, words))
                assert got == [reference_select_checks(cfg, eta, row) for row in words.tolist()]


def test_select_checks_draws_every_assignment_alike():
    # m+eta = 4, eta = 2, n = 3: the 12 ordered (P2's, P3's) position pairs, each with 4 basis pairs, are
    # equally likely, as a draw without replacement makes them; 48 cells, 4800 rows, exact binomial bands
    cfg, rows = ProtocolConfig(d=2, n=3, m=2), 4800
    cells = Counter()
    for checks in _records(select_checks(cfg, 2, _check_words(cfg, 2, np.random.default_rng(12), trials=rows))):
        cells[tuple(sorted((c["chooser"], c["position"], c["basis"]) for c in checks))] += 1
    assert len(cells) == 48
    assert all(_within_band(count, rows, 1 / 48) for count in cells.values())


def test_one_draw_of_basis_bits_is_the_scalar_draws():
    # select_checks draws its eta chooser bases in one call, where it drew
    # one rng.integers(2) per check: the same bits and the same stream after
    for seed in range(200):
        for eta in range(13):
            ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
            assert fast.integers(2, size=eta).tolist() == [int(ref.integers(2)) for _ in range(eta)]
            assert fast.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# executing checks on genuine states


@pytest.mark.parametrize("d,n", [(2, 2), (5, 3), (7, 4)])
def test_honest_check_v1_sums_to_zero(d, n):
    cfg = ProtocolConfig(d=d, n=n, m=1)
    rng = np.random.default_rng(10 * d + n)
    for _ in range(15):
        state = prepare_rounds(cfg, count=1)[0]
        outcome = run_check(state, {"position": 0, "chooser": 2, "basis": "V1"}, rng)
        assert outcome["passed"]
        assert sum(outcome["announced"]) % d == 0
        assert len(outcome["announced"]) == n


@pytest.mark.parametrize("d,n", [(2, 2), (5, 3), (7, 4)])
def test_honest_check_v2_all_agree(d, n):
    cfg = ProtocolConfig(d=d, n=n, m=1)
    rng = np.random.default_rng(20 * d + n)
    for _ in range(15):
        state = prepare_rounds(cfg, count=1)[0]
        outcome = run_check(state, {"position": 0, "chooser": 2, "basis": "V2"}, rng)
        assert outcome["passed"]
        assert len(set(outcome["announced"])) == 1


def test_check_read_out_rotates_only_its_v1_rounds(monkeypatch):
    # V1 and V2 checks on one shared register in one read_out: every V1
    # round is read only in measure_stack calls that apply the QFT, every V2
    # round only in calls that apply nothing, so no V2 check is multiplied
    # by the identity. Each round's uniforms name it in the calls
    calls, real = [], protocol.measure_stack

    def recording(psi, u, qft=False, rho=None):
        calls.append((qft, u.copy()))
        return real(psi, u, qft, rho)

    monkeypatch.setattr(protocol, "measure_stack", recording)
    cfg = ProtocolConfig(d=5, n=3, m=1)
    bases = ["V1", "V2", "V2", "V1", "V2", "V1", "V1"]
    rounds = prepare_rounds(cfg, count=len(bases))
    u = (np.arange(len(bases))[:, None] + np.random.default_rng(3).random((len(bases), cfg.n))) / len(bases)
    values = read_out(rounds, [basis == "V1" for basis in bases], u)
    read = {}
    for qft, drawn in calls:
        for j in (drawn * len(bases)).astype(int):
            read.setdefault(int(j), set()).add(qft)
    assert read == {j: {basis == "V1"} for j, basis in enumerate(bases)}
    assert all(v1_pass(row, 5) if basis == "V1" else v2_pass(row) for row, basis in zip(values.tolist(), bases))


@pytest.mark.parametrize("forged", [False, True])
@pytest.mark.parametrize("basis", ["V1", "V2"])
def test_check_record_is_the_check_plus_its_transcript(forged, basis):
    # one check of a run_protocol record, its basis word set to the basis
    cfg, eta = ProtocolConfig(d=5, n=3, m=1), 1
    rounds = fabricate_rounds(cfg, (2, 2)) if forged else prepare_rounds(cfg, count=2)
    words = words_block(cfg, eta, np.random.default_rng(1))
    words[0, trial_layout(cfg, eta)[0]["checks"].stop - 1] = 2**63 if basis == "V2" else 0
    [record] = run_protocol(cfg, eta, [_secrets([[1], [2], [3]])], [rounds], words)
    [check] = record["checks"]
    assert list(check) == ["position", "chooser", "basis", "announced", "passed"]
    assert check["basis"] == basis and check["chooser"] == 2 and check["position"] in (0, 1)
    assert len(check["announced"]) == cfg.n
    # only JSON-native values: no tuple, no numpy scalar
    assert json.loads(json.dumps(record)) == record
    assert type(check["passed"]) is bool
    assert all(type(v) is int for v in check["announced"])


# ---------------------------------------------------------------------------
# executing checks against the forging dealer


def test_adaptive_dealer_always_passes_v1():
    # the dealer reads -(n-1) r mod d off his own qudit and announces it
    # first; the honest results are deterministic, so this never fails
    rng = np.random.default_rng(4)
    for d, n in [(2, 2), (5, 3), (10, 4)]:
        cfg = ProtocolConfig(d=d, n=n, m=1)
        for r in range(d):
            fab = fabricate_rounds(cfg, (r,))[0]
            outcome = run_check(fab, {"position": 0, "chooser": 2, "basis": "V1"}, rng)
            assert outcome["passed"]
            assert outcome["announced"][0] == (-(n - 1) * r) % d
            assert all(v == r for v in outcome["announced"][1:])


def test_adaptive_dealer_v2_pass_rate_is_d_to_one_minus_n():
    # every Fourier-image readout of a forged round, the dealer's too, is
    # uniform i.i.d.; he announces first, so nothing beats d^(1-n)
    d, n, trials = 5, 3, 4000
    cfg = ProtocolConfig(d=d, n=n, m=1)
    rng = np.random.default_rng(55)
    passes = 0
    for _ in range(trials):
        fab = fabricate_rounds(cfg, (int(rng.integers(d)),))[0]
        outcome = run_check(fab, {"position": 0, "chooser": 2, "basis": "V2"}, rng)
        passes += outcome["passed"]
    assert_within_4sigma(passes / trials, d ** (1 - n), trials)


def test_honest_result_on_forged_state_is_uniform_in_v2():
    # exact oracle behind the pass-rate above
    for d in (2, 5, 10):
        for r in range(d):
            reg = apply_qft(fake_particle(d, r), 0)
            probs = outcome_distribution(reg, 0, BasisKind.V2)
            assert np.allclose(probs, np.full(d, 1 / d), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_dealer_announcement_is_the_best_on_either_check(d, n):
    # exact pass law of each of the d announcements P1 can make on a forged
    # round, from the amplitudes each owner reads under the check's rotation:
    # nothing beats announcing the readout of his own factor, and its mean
    # over the two bases is the per-check oracle. His factor is independent
    # of the others, so any announcement is a mixture of fixed ones
    cfg = ProtocolConfig(d=d, n=n, m=1)
    for r in range(d):
        state = fabricate_rounds(cfg, (r,))[0]
        assert [owners for _, owners in state.factors] == [(i,) for i in range(1, n + 1)]
        passing = {}
        for basis in ("V1", "V2"):
            rotation = _qft_matrix(d) if basis == "V1" else None
            dealer, *laws = [outcome_distribution(reg if rotation is None else
                                                  QuditRegister(d, 1, rotation @ reg.amplitudes), 0, BasisKind.V1)
                             for reg, _ in state.factors]
            best, own = np.zeros(d), 0.0
            for values in itertools.product(range(d), repeat=n - 1):
                p = math.prod(law[v] for law, v in zip(laws, values))
                best += [p * (v1_pass([a, *values], d) if basis == "V1" else v2_pass([a, *values]))
                         for a in range(d)]
                own += sum(p * dealer[a] * execute_check(basis == "V2", [a, *values], d) for a in range(d))
            assert own == pytest.approx(best.max(), abs=1e-15)
            passing[basis] = own
        assert passing["V1"] == pytest.approx(1.0, abs=1e-14)
        assert passing["V2"] == pytest.approx(float(d) ** (1 - n), abs=1e-14)
        assert (passing["V1"] + passing["V2"]) / 2 == pytest.approx(
            modified_per_check_pass_probability(d, n), abs=1e-15)


# ---------------------------------------------------------------------------
# full hardened runs


def test_modified_honest_never_detects_and_sums_correctly():
    rng = np.random.default_rng(31)
    for d, n, m, eta in [(2, 2, 1, 2), (5, 3, 2, 4), (10, 3, 1, 6)]:
        cfg = ProtocolConfig(d=d, n=n, m=m, decoy_count=4)
        for _ in range(10):
            secrets = tuple(random_secret(d, m, rng) for _ in range(n))
            result = _hardened(cfg, eta, secrets, rng)
            assert not result["detected"]
            assert len(result["checks"]) == eta
            assert all(oc["passed"] for oc in result["checks"])
            expected = compute_sum(secrets, d)
            assert result["sum"] == expected


def test_modified_attack_with_no_checks_reduces_to_original():
    cfg = ProtocolConfig(d=10, n=3, m=2, decoy_count=4)
    rng = np.random.default_rng(32)
    for _ in range(10):
        secrets = tuple(random_secret(10, 2, rng) for _ in range(3))
        result = _hardened(cfg, 0, secrets, rng, forged=True)
        assert not result["detected"]
        assert all(result["recovered"][i - 2] == list(secrets[i - 1]) for i in (2, 3))


def test_modified_attack_detection_rate():
    d, n, eta, trials = 5, 3, 6, 2000
    cfg = ProtocolConfig(d=d, n=n, m=1, decoy_count=2)
    per_check = 0.5 + 0.5 * d ** (1 - n)
    expected = 1.0 - per_check**eta
    detected = 0
    for t in range(trials):
        rng = np.random.default_rng((9, t))
        secrets = tuple(random_secret(d, 1, rng) for _ in range(n))
        result = _hardened(cfg, eta, secrets, rng, forged=True)
        detected += result["detected"]
    assert_within_4sigma(detected / trials, expected, trials)


def test_modified_attack_abort_stops_at_first_failure():
    cfg = ProtocolConfig(d=5, n=3, m=1, decoy_count=2)
    rng = np.random.default_rng(33)
    saw_abort = False
    for _ in range(50):
        secrets = tuple(random_secret(5, 1, rng) for _ in range(3))
        result = _hardened(cfg, 6, secrets, rng, forged=True)
        if result["detected"]:
            saw_abort = True
            assert result["decoy_mismatches"] == 0  # caught by a check, not a decoy
            assert not result["checks"][-1]["passed"]
            assert all(oc["passed"] for oc in result["checks"][:-1])
            assert result["recovered"] is None and result["sum"] is None
    assert saw_abort


def test_modified_attack_undetected_recovers_secrets():
    cfg = ProtocolConfig(d=2, n=2, m=2, decoy_count=2)  # shallow check, frequent escapes
    rng = np.random.default_rng(34)
    undetected = 0
    for _ in range(200):
        secrets = tuple(random_secret(2, 2, rng) for _ in range(2))
        result = _hardened(cfg, 2, secrets, rng, forged=True)
        if not result["detected"]:
            undetected += 1
            assert result["recovered"][0] == list(secrets[1])  # P2's digits
    assert undetected > 0


def _checks_against_the_per_check_loop(cfg, eta, kinds, seed):
    """One chunk, a trial per kind of rounds, against the per-check loop: each trial's checks, verdict and encoding
    of the rounds the loop leaves unchecked. Returns the chunk's records."""
    total, gen = cfg.m + eta, np.random.default_rng(seed)
    genuine = prepare_rounds(cfg, count=total)
    rounds, secrets = [], gen.integers(cfg.d, size=(len(kinds), cfg.n, cfg.m))
    for kind in kinds:
        forged = fabricate_rounds(cfg, gen.integers(cfg.d, size=total).tolist())
        pick = {"genuine": [False] * total, "forged": [True] * total, "mixed": gen.integers(2, size=total)}[kind]
        rounds.append([f if p else g for f, g, p in zip(forged, genuine, pick)])
    words = words_block(cfg, eta, gen, trials=len(kinds))
    records = run_protocol(cfg, eta, secrets, rounds, words)
    encode_u = trial_layout(cfg, eta)[0]["encode_u"]
    for record, trial_rounds, digits, row in zip(records, rounds, secrets, words):
        checks, unchecked = reference_checks(cfg, eta, trial_rounds, row)
        passed = all(c["passed"] for c in checks)
        expected = {"checks": checks, "checks_passed": passed, "checks_executed": len(checks),
                    "detected": not passed, "announced": None}
        if passed:
            u = word_uniforms(row[encode_u]).reshape(cfg.m, cfg.n)
            expected["announced"] = encode_read_out([trial_rounds[j] for j in unchecked], digits.T, u).T[1:].tolist()
        assert {key: record[key] for key in expected} == expected
    return records


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3, 5]), n=st.integers(2, 4), m=st.integers(1, 2), eta=st.integers(0, 4),
       kinds=st.lists(st.sampled_from(["genuine", "forged", "mixed"]), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_run_protocol_checks_are_the_per_check_loop(d, n, m, eta, kinds, seed):
    _checks_against_the_per_check_loop(ProtocolConfig(d=d, n=n, m=m, decoy_count=2), eta, kinds, seed)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_check_failures_at_every_check_are_the_per_check_loop(n):
    # a forged round at d=2 fails a V2 check often: in one chunk the first failure lands at the first, each
    # middle and the last of 4 checks, and other trials pass all 4
    records = _checks_against_the_per_check_loop(ProtocolConfig(d=2, n=n, m=1, decoy_count=2), 4,
                                                 ["forged"] * 48 + ["mixed"] * 16 + ["genuine"] * 4, n)
    assert {r["checks_executed"] if r["detected"] else "passed" for r in records} == {1, 2, 3, 4, "passed"}


def test_modified_plan_length_must_cover_checks():
    # run_protocol rejects len(rounds) != m+eta
    cfg = ProtocolConfig(d=5, n=3, m=1)
    with pytest.raises(ValueError):
        run_one(cfg, 4, _secrets([[1], [2], [3]]), fabricate_rounds(cfg, (1,)),
                     np.random.default_rng(0))
