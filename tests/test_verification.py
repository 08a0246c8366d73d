"""Hardened protocol: check selection, check execution, detection power."""

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from conftest import apply_qft, assert_within_4sigma, outcome_distribution, random_secret, run_check, run_one

from quditsum import (
    BasisKind,
    ProtocolConfig,
    QuditRegister,
    compute_sum,
    execute_check,
    fabricate_rounds,
    fake_particle,
    prepare_rounds,
    select_checks,
    v1_pass,
    v2_pass,
)
from quditsum.harness import _within_band, modified_per_check_pass_probability
from quditsum.qudit import _qft_matrix
from quditsum import protocol
from quditsum.protocol import read_out
from quditsum.verification import check_rotations


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


def _check_words(cfg, eta, rng, trials=1):
    """Rows of m+eta position keys and eta basis words, as select_checks reads them."""
    return rng.integers(0, 2**64, size=(trials, cfg.m + 2 * eta), dtype=np.uint64)


def test_select_checks_empty():
    cfg = ProtocolConfig(d=5, n=3, m=2)
    assert select_checks(cfg, 0, _check_words(cfg, 0, np.random.default_rng(0), trials=3)) == [[], [], []]


def test_select_checks_returns_before_drawing_at_eta_zero():
    # at eta = 0 a row is m keys and no basis word, and whatever the keys hold no check is made
    for total in range(1, 51):
        cfg = ProtocolConfig(d=5, n=3, m=total)
        for words in (np.zeros((2, total), dtype=np.uint64), np.full((2, total), 2**64 - 1, dtype=np.uint64)):
            assert select_checks(cfg, 0, words) == [[], []]
    with pytest.raises(ValueError, match="m\\+2\\*eta=5 words"):
        select_checks(ProtocolConfig(d=5, n=3, m=3), 1, np.zeros((1, 4), dtype=np.uint64))


def test_select_checks_even_split():
    cfg = ProtocolConfig(d=5, n=3, m=2)
    [checks] = select_checks(cfg, 6, _check_words(cfg, 6, np.random.default_rng(1)))
    shares = Counter(a["chooser"] for a in checks)
    assert shares == {2: 3, 3: 3}


def test_select_checks_remainder_to_lowest_choosers():
    cfg = ProtocolConfig(d=5, n=4, m=2)
    [checks] = select_checks(cfg, 7, _check_words(cfg, 7, np.random.default_rng(2)))
    shares = Counter(a["chooser"] for a in checks)
    assert shares == {2: 3, 3: 2, 4: 2}


def test_select_checks_positions_distinct_and_in_range():
    cfg = ProtocolConfig(d=3, n=3, m=4)
    for checks in select_checks(cfg, 5, _check_words(cfg, 5, np.random.default_rng(0), trials=10)):
        positions = [a["position"] for a in checks]
        assert positions == sorted(positions)
        assert len(set(positions)) == 5
        assert all(0 <= p < 4 + 5 for p in positions)
        assert all(a["basis"] in ("V1", "V2") for a in checks)


def test_select_checks_uses_both_bases():
    cfg = ProtocolConfig(d=3, n=2, m=1)
    [checks] = select_checks(cfg, 40, _check_words(cfg, 40, np.random.default_rng(3)))
    assert {a["basis"] for a in checks} == {"V1", "V2"}


def _reference_select_checks(cfg, eta, row):
    """The cursor/share loop over the positions of the eta smallest keys, in key order; a tie goes to the lower position."""
    total = cfg.m + eta
    positions = sorted(range(total), key=lambda j: (row[j], j))[:eta]
    base, rem = divmod(eta, cfg.n - 1)
    checks, cursor = [], 0
    for idx, chooser in enumerate(range(2, cfg.n + 1)):
        share = base + (1 if idx < rem else 0)
        for k in range(cursor, cursor + share):
            basis = "V2" if row[total + k] >> 63 else "V1"
            checks.append({"position": positions[k], "chooser": chooser, "basis": basis})
        cursor += share
    checks.sort(key=lambda c: c["position"])
    return checks


def test_select_checks_draws_as_the_cursor_loop():
    for n in range(2, 9):
        for eta in range(21):
            for seed in range(5):
                cfg = ProtocolConfig(d=2, n=n, m=1 + seed)
                words = _check_words(cfg, eta, np.random.default_rng(seed), trials=3)
                words[2, :cfg.m + eta] %= 3  # keys that tie
                got = select_checks(cfg, eta, words)
                assert got == [_reference_select_checks(cfg, eta, row) for row in words.tolist()]
                for checks in got:
                    assert all(list(c) == ["position", "chooser", "basis"] for c in checks)
                    assert json.loads(json.dumps(checks)) == checks


def test_select_checks_draws_every_assignment_alike():
    # m+eta = 4, eta = 2, n = 3: the 12 ordered (P2's, P3's) position pairs, each with 4 basis pairs, are
    # equally likely, as a draw without replacement makes them; 48 cells, 4800 rows, exact binomial bands
    cfg, rows = ProtocolConfig(d=2, n=3, m=2), 4800
    cells = Counter()
    for checks in select_checks(cfg, 2, _check_words(cfg, 2, np.random.default_rng(12), trials=rows)):
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


def test_check_rotations_are_one_bool_per_check():
    # the QFT (True) on each V1 check, nothing on a V2 one; an unknown basis is rejected
    checks = [{"position": k, "chooser": 2, "basis": basis} for k, basis in enumerate(("V1", "V2", "V1"))]
    assert check_rotations(checks) == [True, False, True]
    assert check_rotations(checks[1:2]) == [False] and check_rotations([]) == []
    with pytest.raises(ValueError, match="^unknown basis 'V3'; known: V1, V2$"):
        check_rotations([*checks, {"position": 3, "chooser": 2, "basis": "V3"}])


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
    values = read_out(rounds, check_rotations([{"basis": basis} for basis in bases]), u)
    read = {}
    for qft, drawn in calls:
        for j in (drawn * len(bases)).astype(int):
            read.setdefault(int(j), set()).add(qft)
    assert read == {j: {basis == "V1"} for j, basis in enumerate(bases)}
    assert all(v1_pass(row, 5) if basis == "V1" else v2_pass(row) for row, basis in zip(values.tolist(), bases))


def test_execute_check_rejects_unknown_basis():
    check = {"position": 0, "chooser": 2, "basis": "V3"}
    with pytest.raises(ValueError, match="V3"):
        check_rotations([check])
    with pytest.raises(ValueError, match="V3"):
        execute_check(check, [0, 0, 0], 3)


@pytest.mark.parametrize("forged", [False, True])
@pytest.mark.parametrize("basis", ["V1", "V2"])
def test_check_record_is_the_check_plus_its_transcript(forged, basis):
    cfg = ProtocolConfig(d=5, n=3, m=1)
    state = fabricate_rounds(cfg, (2,))[0] if forged else prepare_rounds(cfg)[0]
    check = {"position": 0, "chooser": 3, "basis": basis}
    record = run_check(state, check, np.random.default_rng(1))
    assert list(record) == ["position", "chooser", "basis", "announced", "passed"]
    assert {k: record[k] for k in check} == check
    assert len(record["announced"]) == cfg.n
    # only JSON-native values: no tuple, no numpy scalar
    assert json.loads(json.dumps(record)) == record
    assert type(record["passed"]) is bool
    assert all(type(v) is int for v in record["announced"])


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
    # round, from the amplitudes each owner reads under check_rotations:
    # nothing beats announcing the readout of his own factor, and its mean
    # over the two bases is the per-check oracle. His factor is independent
    # of the others, so any announcement is a mixture of fixed ones
    cfg = ProtocolConfig(d=d, n=n, m=1)
    for r in range(d):
        state = fabricate_rounds(cfg, (r,))[0]
        assert [owners for _, owners in state.factors] == [(i,) for i in range(1, n + 1)]
        passing = {}
        for basis in ("V1", "V2"):
            check = {"position": 0, "chooser": 2, "basis": basis}
            rotation = _qft_matrix(d) if check_rotations([check])[0] else None
            dealer, *laws = [outcome_distribution(reg if rotation is None else
                                                  QuditRegister(d, 1, rotation @ reg.amplitudes), 0, BasisKind.V1)
                             for reg, _ in state.factors]
            best, own = np.zeros(d), 0.0
            for values in itertools.product(range(d), repeat=n - 1):
                p = math.prod(law[v] for law, v in zip(laws, values))
                best += [p * (v1_pass([a, *values], d) if basis == "V1" else v2_pass([a, *values]))
                         for a in range(d)]
                own += sum(p * dealer[a] * execute_check(check, [a, *values], d)["passed"] for a in range(d))
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


def test_modified_plan_length_must_cover_checks():
    # run_protocol rejects len(rounds) != m+eta
    cfg = ProtocolConfig(d=5, n=3, m=1)
    with pytest.raises(ValueError):
        run_one(cfg, 4, _secrets([[1], [2], [3]]), fabricate_rounds(cfg, (1,)),
                     np.random.default_rng(0))
