"""Shared helpers for the test suite, and the reference operations no run calls."""

import math

import numpy as np

from quditsum import BasisKind, QuditRegister, apply_iqft, eve_intercept_resend, execute_check, measure, run_protocol
from quditsum.adversary import _intercept
from quditsum.harness import trial_layout
from quditsum.protocol import read_out, word_uniforms
from quditsum.qudit import (
    _apply_single, _check_cap, _iqft_matrix, _qft_matrix, _split, basis_rows, measure_stack,
)


def random_register(d: int, k: int, rng: np.random.Generator) -> QuditRegister:
    """Haar-ish random state: complex normal amplitudes, normalized."""
    amp = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    amp /= np.linalg.norm(amp)
    return QuditRegister(d, k, amp)


def basis_state(d: int, digits) -> QuditRegister:
    """Computational basis state |digits[0], digits[1], ...>."""
    digits = tuple(int(x) for x in digits)
    if not digits:
        raise ValueError("digit sequence must be non-empty")
    for x in digits:
        if not 0 <= x < d:
            raise ValueError(f"digit {x} out of range for d={d}")
    _check_cap(d, len(digits))
    index = 0
    for x in digits:
        index = index * d + x
    amp = np.zeros(d ** len(digits), dtype=np.complex128)
    amp[index] = 1.0
    return QuditRegister(d, len(digits), amp)


def apply_qft(reg: QuditRegister, target: int) -> QuditRegister:
    """Fourier transform on one qudit: |r> -> sum_l exp(2*pi*i*l*r/d)|l>/sqrt(d)."""
    return _apply_single(reg, _qft_matrix(reg.d), target)


def encode_matrix(d: int, s) -> np.ndarray:
    """The encoding unitary, the Fourier transform followed by the cyclic shift by s; one per entry of an array s."""
    s = np.asarray(s)
    if ((s < 0) | (s >= d)).any():
        raise ValueError(f"shift amount {s[(s < 0) | (s >= d)][0]} out of range for d={d}")
    # row l of S·QFT is row l - s of the QFT
    return _qft_matrix(d)[(np.arange(d) - s[..., None]) % d]


def apply_encode(reg: QuditRegister, target: int, s: int) -> QuditRegister:
    """Fourier transform on one qudit, then the cyclic shift by s, as one unitary."""
    return _apply_single(reg, encode_matrix(reg.d, s), target)


def outcome_distribution(reg: QuditRegister, target: int, basis: BasisKind) -> np.ndarray:
    """Exact probability of each outcome when measuring one qudit.

    Returns a length-d vector. For V2 the distribution is computed on the
    inverse-rotated state, which is the same thing as projecting onto the
    Fourier basis directly.
    """
    a, b = _split(reg, target)
    if basis is BasisKind.V2:
        reg = apply_iqft(reg, target)
    # |x|^2 off the float64 (re, im) view
    f = reg.amplitudes.view(np.float64).reshape(a, reg.d, 2 * b)
    return np.einsum("adb,adb->d", f, f)


def apply_shift(reg: QuditRegister, target: int, s: int) -> QuditRegister:
    """Cyclic shift on one qudit, |r> -> |(r + s) mod d>: the reference for the fused encoding unitary."""
    if not 0 <= target < reg.k:
        raise ValueError(f"target qudit {target} out of range for k={reg.k}")
    if not 0 <= s < reg.d:
        raise ValueError(f"shift amount {s} out of range for d={reg.d}")
    psi = reg.amplitudes.reshape(reg.d**target, reg.d, -1)
    return QuditRegister(reg.d, reg.k, np.roll(psi, s, axis=1))


def measure_every_pair(d: int, values, v2, bases, u) -> np.ndarray:
    """measure_pairs without its skip: every |values[i]> or QFT|values[i]> built, rotated by the IQFT where bases[i]
    and measured; one shape in, the outcomes out."""
    values, v2, bases, u = (np.asarray(a) for a in (values, v2, bases, u))
    rows = basis_rows(d, values.reshape(-1), v2.reshape(-1))
    rows = np.where(bases.reshape(-1, 1), rows @ _iqft_matrix(d).T, rows)
    return measure_stack(rows[:, None, :, None], u.reshape(-1))[0].reshape(values.shape)


def approx_equal(a: QuditRegister, b: QuditRegister, tol: float = 1e-9) -> bool:
    """State equality up to global phase: |<a|b>| >= 1 - tol."""
    if a.d != b.d or a.k != b.k:
        raise ValueError(f"cannot compare registers of shape ({a.d},{a.k}) and ({b.d},{b.k})")
    return abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol


def assert_within_4sigma(observed_rate: float, p: float, n: int) -> None:
    """Binomial consistency check: |observed - p| <= 4 sqrt(p(1-p)/n).

    For p of exactly 0 or 1 the band is empty, so the observed rate must
    match exactly; that is intentional, those claims are not statistical.
    """
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(observed_rate - p) <= 4.0 * sigma + 1e-12, (
        f"rate {observed_rate} is more than 4 sigma from {p} (n={n}, sigma={sigma:.2e})"
    )


def random_secret(d: int, m: int, rng: np.random.Generator) -> tuple[int, ...]:
    """One participant's secret: m uniform digits mod d in one draw."""
    return tuple(int(x) for x in rng.integers(0, d, size=m))


def owner_uniforms(rounds, rng: np.random.Generator) -> np.ndarray:
    """The (R, n) uniforms of the owners P1..Pn of every round, drawn in round then participant order."""
    return rng.random((len(rounds), len(rounds[0].owners)))


def v1_pass(values, d: int) -> bool:
    """Computational-basis check, one readout: the announced values must sum to 0 mod d."""
    return sum(values) % d == 0


def v2_pass(values) -> bool:
    """Fourier-image check, one readout: all announced values must agree."""
    values = list(values)
    return all(v == values[0] for v in values)


def run_check(state, check: dict, rng: np.random.Generator) -> dict:
    """One check as run_protocol runs it: the round read out with the check's rotation, then the verdict.

    check holds the position, chooser and basis ("V1" or "V2") of a record's checks entry, which this returns.
    """
    v2 = check["basis"] == "V2"
    readout = read_out([state], not v2, owner_uniforms([state], rng))[0]
    return {**check, "announced": readout.tolist(), "passed": bool(execute_check(v2, readout, state.d))}


def reference_select_checks(cfg, eta, row):
    """The cursor/share loop over the positions of the eta smallest keys, in key order; a tie goes to the lower position.

    row is a trial's m+eta position keys then eta basis words, as ints; returns its {"position", "chooser", "basis"}
    checks in position order.
    """
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


def reference_checks(cfg, eta: int, rounds, words) -> tuple[list[dict], list[int]]:
    """One trial's basis checks one at a time, as a per-check loop runs them, on a trial no decoy aborted.

    Selects the checks from the trial's words, reads each checked round out on its own with its owners'
    uniforms and judges it with v1_pass or v2_pass, in position order up to the first failure. Returns the
    check records run and the unchecked positions, which a trial that passes them all encodes.
    """
    layout, _ = trial_layout(cfg, eta)
    words = [int(w) for w in words]
    u = word_uniforms(np.array(words[layout["check_u"]], dtype=np.uint64)).reshape(eta, cfg.n)
    done = []
    for k, check in enumerate(reference_select_checks(cfg, eta, words[layout["checks"]])):
        values = read_out([rounds[check["position"]]], check["basis"] == "V1", u[k:k + 1])[0].tolist()
        done.append({**check, "announced": values,
                     "passed": v1_pass(values, cfg.d) if check["basis"] == "V1" else v2_pass(values)})
        if not done[-1]["passed"]:
            break
    return done, sorted(set(range(cfg.m + eta)) - {c["position"] for c in done})


def encode_read_out(rounds, digits, u: np.ndarray) -> np.ndarray:
    """run_protocol's encoding: each owner's QFT readout plus its digit, digits[j] the (n,) digits of rounds[j]."""
    return (read_out(rounds, True, u) + np.asarray(digits)) % rounds[0].d


def words_block(cfg, eta: int, rng: np.random.Generator, trials: int = 1) -> np.ndarray:
    """A (trials, K) block of uint64 words drawn from rng, K the width of the configuration's trial_layout."""
    return rng.integers(0, 2**64, size=(trials, trial_layout(cfg, eta)[1]), dtype=np.uint64)


def decoy_words(cfg, rng: np.random.Generator) -> np.ndarray:
    """The 2 (n-1) decoy_count words insert_decoys reads for one trial, drawn from rng."""
    return rng.integers(0, 2**64, size=2 * (cfg.n - 1) * cfg.decoy_count, dtype=np.uint64)


def run_one(cfg, eta: int, secrets, rounds, rng: np.random.Generator, eve: bool = False) -> dict:
    """One trial through the lockstep engine, its words drawn from rng: a chunk of one."""
    return run_protocol(cfg, eta, [secrets], [rounds], words_block(cfg, eta, rng), eve)[0]


def measure_one(reg: QuditRegister, target: int, basis: BasisKind, rng: np.random.Generator):
    """One measurement against one uniform drawn from rng: (int value, rest register)."""
    values, rests = measure(reg, target, basis, rng.random(1))
    return int(values[0]), rests[int(values[0])]


def intercept_one(state, participant: int, basis: BasisKind, rng: np.random.Generator):
    """One intercept against one uniform drawn from rng: (int value, the round as the participant gets it)."""
    values, after = _intercept(state, participant, basis is BasisKind.V2, rng.random(1))
    return int(values[0]), after[int(values[0])]


def eve_one_trial(rounds, decoys, rng: np.random.Generator, d: int):
    """Eve on one trial's particles, drawing as run_protocol does: a chunk of one trial.

    decoys is the (values, v2) pair of the trial's (n-1, D) decoys, a row per receiver 2..n. For each
    receiver in turn, her basis bits for the rounds then the decoys in one call, then her uniforms the
    same way in a second. Returns the resent rounds and the (n-1, D) resent (values, v2).
    """
    values, v2 = (np.asarray(a) for a in decoys)
    count = len(rounds) + values.shape[-1]
    draws = [(rng.integers(2, size=count), rng.random(count)) for _ in values]
    bits, u = (np.array(a)[:, None] for a in zip(*draws))  # (n-1, 1, R + D)
    resent, received = eve_intercept_resend([rounds], (values[:, None], v2[:, None]), bits, u, d)
    return resent[0], tuple(a[:, 0] for a in received)
