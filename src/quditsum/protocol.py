"""The original n-party summation protocol over d-level systems.

Participants P1..Pn each hold a secret string of m digits mod d. P1
prepares m shared entangled states (one per digit position) plus decoy
particles, keeps one qudit of each state and sends the rest out, one
qudit per participant, with the decoys interleaved. After a decoy check
against channel tampering, every participant encodes its digit on its
own qudit (Fourier rotation, then a cyclic shift by the digit) and
measures computationally. P2..Pn announce their results to P1, who adds
everything up digit-wise mod d and publishes the sum. The entanglement
guarantees the announced digits sum to the digit-wise sum of all the
secrets while each single announcement stays uniformly distributed.

Participants are numbered 1-based; P1..Pn hold the qudits of a genuine
round's shared register in order. read_out reads many rounds in lockstep,
each owner's qudit rotated by the QFT first where asked, and check_decoys
many decoy sequences at once, each against the uniforms its caller drew. A
decoy is its (value, basis) pair until then. The shift by a digit, right
before a computational measurement, relabels the outcome: an encoding is
read as the QFT readout plus the digit mod d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qudit
from .qudit import (
    BasisKind,
    QuditRegister,
    _check_cap,
    basis_rows,
    measure,
    measure_pairs,
    measure_stack,
    omega_state,
)


@dataclass(frozen=True)
class ProtocolConfig:
    """Sizes and tolerances of one protocol instance.

    d: digit modulus (levels per qudit), n: participants, m: digits per
    secret. decoy_count decoys guard each transmitted sequence and the
    run aborts when a receiver sees a decoy error rate above
    error_threshold. Nothing reads seed: every random stream is handed to
    the run explicitly.
    """

    d: int
    n: int
    m: int
    decoy_count: int = 16
    error_threshold: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("d", "n", "m", "decoy_count", "seed"):
            require_int(name, getattr(self, name))
        if type(self.error_threshold) not in (int, float):
            raise ValueError(f"error_threshold must be an int or float, got {self.error_threshold!r}")
        if self.d < 2:
            raise ValueError(f"digit modulus d must be >= 2, got {self.d}")
        if self.n < 2:
            raise ValueError(f"need at least 2 participants, got n={self.n}")
        if self.m < 1:
            raise ValueError(f"need at least 1 digit per secret, got m={self.m}")
        if self.decoy_count < 0:
            raise ValueError(f"decoy_count must be >= 0, got {self.decoy_count}")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValueError(f"error_threshold must lie in [0, 1], got {self.error_threshold}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        _check_cap(self.d, self.n)


@dataclass(frozen=True)
class RoundState:
    """One round as a product of (register, owners) factors, read out whole.

    owners[q] holds qudit q of its register, each participant at most one
    qudit, and every factor has the same d. A genuine round is the shared
    register held by 1..n; a forged round is one fake particle for each of
    1..n, built from the fabrication value r (None if genuine).
    A round is a value: it never changes, so one may fill many positions.
    """

    factors: tuple[tuple[QuditRegister, tuple[int, ...]], ...]
    r: int | None = None

    def __post_init__(self) -> None:
        if len({register.d for register, _ in self.factors}) != 1:
            raise ValueError("a round needs one or more factors, all of one d")
        for register, owners in self.factors:
            if len(owners) != register.k:
                raise ValueError(f"owners names {len(owners)} participants for {register.k} qudits")
        if len(set(self.owners)) != len(self.owners):
            raise ValueError("a round names a participant twice")

    @property
    def d(self) -> int:
        """Levels per qudit, the same in every factor."""
        return self.factors[0][0].d

    @cached_property
    def owners(self) -> tuple[int, ...]:
        """The participants holding a qudit of the round, in order."""
        return tuple(sorted(p for _, owners in self.factors for p in owners))

    def intercept(self, participant: int, basis: BasisKind,
                  u: np.ndarray) -> tuple[np.ndarray, dict[int, "RoundState"]]:
        """Measure one owner's qudit per uniform in u: the values, {v: round with |v> or QFT|v> in its place}."""
        for f, (register, owners) in enumerate(self.factors):
            if participant in owners:
                break
        else:
            raise ValueError(f"participant {participant} holds no qudit in the round")
        q = owners.index(participant)
        values, rests = measure(register, q, basis, u)
        kept, head, tail = owners[:q] + owners[q + 1:], self.factors[:f], self.factors[f + 1:]
        rows = basis_rows(self.d, list(rests), basis is BasisKind.V2)
        return values, {v: RoundState((*head, *(((rest, kept),) if kept else ()), *tail,
                                        (QuditRegister._trusted(self.d, 1, row), (participant,))), self.r)
                        for (v, rest), row in zip(rests.items(), rows)}


def read_out(rounds, qft, u: np.ndarray) -> np.ndarray:
    """Every owner's V1 readout of every round: the (R, n) values, row j those of rounds[j].

    Every round is held by P1..Pn and u holds the (R, n) uniforms, row j those of rounds[j]'s owners
    in participant order. qft is one bool or one per round: every owner of round j applies the QFT to
    its qudit first where qft[j]. Factors of equal qudit count and rotation are stacked, up to
    qudit.STACK_CAP amplitudes, and read one qudit a step.
    """
    n = np.shape(u)[-1] if np.ndim(u) == 2 else -1
    if np.shape(u) != (len(rounds), n):
        raise ValueError(f"need a (rounds, n) array of uniforms for {len(rounds)} rounds, got shape {np.shape(u)}")
    d, held, groups = rounds[0].d if rounds else 2, tuple(range(1, n + 1)), {}
    qft = np.broadcast_to(qft, len(rounds))
    for j, state in enumerate(rounds):
        if state.d != d or state.owners != held:
            raise ValueError(f"round {j} is not held by P1..P{n} at the first round's d={d}")
        for register, owners in state.factors:
            groups.setdefault((register.k, bool(qft[j])), []).append((register, j, owners))
    values = np.empty((len(rounds), n), dtype=np.int64)
    for (k, rotated), members in groups.items():
        size = max(1, qudit.STACK_CAP // d**k)
        # member g of a group is owner columns[g, q] of round rows[g] at its qudit q
        rows, columns = np.array([j for _, j, _ in members]), np.array([owners for _, _, owners in members]) - 1
        for first in range(0, len(members), size):
            stack, register, at = members[first:first + size], members[first][0], rows[first:first + size]
            shared = all(other is register for other, _, _ in stack)
            # a register shared by the whole stack, a lone one too, is read as a view, without a copy
            psi = (np.broadcast_to(register.amplitudes, (len(stack), d**k)) if shared
                   else np.stack([other.amplitudes for other, _, _ in stack]))
            # a read-only one, as prepare_rounds makes, gives its first step's law from its cached reduced state
            rho = register.first_qudit_state if shared and not register.amplitudes.flags.writeable else None
            for col in columns[first:first + size].T:
                values[at, col], psi = measure_stack(psi.reshape(len(at), 1, d, -1), u[at, col], rotated, rho)
                rho = None
    return values


def require_int(name: str, value) -> None:
    """Reject a value whose type is not int: a numpy, float or bool value would reach the JSON report."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def validate_secrets(cfg: ProtocolConfig, secrets) -> None:
    """Reject secrets that do not fit: secrets[i-1] must be participant i's m int digits mod d."""
    if len(secrets) != cfg.n:
        raise ValueError(f"need one secret per participant: got {len(secrets)}, n={cfg.n}")
    for idx, secret in enumerate(secrets, start=1):
        if len(secret) != cfg.m:
            raise ValueError(f"secret of P{idx} has {len(secret)} digits, expected m={cfg.m}")
        for x in secret:
            if type(x) is not int:  # a numpy or float digit would reach the JSON report
                raise ValueError(f"secret digit {x!r} of P{idx} is not an int")
            if not 0 <= x < cfg.d:
                raise ValueError(f"secret digit {x} of P{idx} out of range for d={cfg.d}")


def prepare_rounds(cfg: ProtocolConfig, count: int | None = None) -> list[RoundState]:
    """Shared states, one per digit position (count overrides cfg.m): one round, at every position.

    Each call builds one GHZ register and marks it read-only. No operation
    mutates its input, so run_scenario calls this once and every trial shares the rounds.
    """
    register = omega_state(cfg.d, cfg.n)
    register.amplitudes.setflags(write=False)
    state = RoundState(((register, tuple(range(1, cfg.n + 1))),))
    return [state] * (cfg.m if count is None else count)


def word_digits(words: np.ndarray, d: int) -> np.ndarray:
    """Digit (w*d) >> 64 of each 64-bit word w, Lemire's multiply-shift: exact via w's halves for d < 2^32."""
    return ((words >> 32) * d + ((words & 0xFFFFFFFF) * d >> 32) >> 32).astype(np.int64)


def word_uniforms(words: np.ndarray) -> np.ndarray:
    """(w >> 11) * 2^-53 of each 64-bit word w: the uniform Generator.random makes of it."""
    return (words >> 11) * 2.0**-53


def insert_decoys(cfg: ProtocolConfig, words: np.ndarray):
    """The decoys guarding each transmitted sequence, from 2 (n-1) decoy_count words of one trial.

    Every decoy carries a uniform value in a uniform basis, |r> or QFT|r>: the first (n-1, decoy_count)
    words give the values mod d, the next as many the bases (a top bit set is V2), a row per recipient.
    Returns ({recipient: values}, {recipient: v2}) for recipients 2..n. No state is built here.
    """
    values, bases = np.reshape(words, (2, cfg.n - 1, cfg.decoy_count))
    return tuple(dict(zip(range(2, cfg.n + 1), a)) for a in (word_digits(values, cfg.d), bases >> 63 == 1))


def check_decoys(d: int, expected, received, u) -> np.ndarray:
    """Measure each received decoy in its preparation basis; count each sequence's mismatches.

    expected is the (values, v2) pair insert_decoys dealt, received that of the basis states that
    arrived (expected itself on a clean channel) and u the uniform the caller drew for each decoy: all
    of one shape (..., N), every value in [0, d). Every decoy is read by one measure_pairs call.
    Returns the (...) mismatch counts.
    """
    values, v2, got, got_v2, u = arrays = [np.asarray(a) for a in (*expected, *received, u)]
    if any(a.shape != values.shape for a in arrays):
        raise ValueError(f"expected, received and uniforms must share one shape: got {[a.shape for a in arrays]}")
    for name, a in (("expected", values), ("received", got)):
        if ((a < 0) | (a >= d)).any():
            raise ValueError(f"{name} decoy value {a[(a < 0) | (a >= d)][0]} out of range for d={d}")
    return np.count_nonzero(measure_pairs(d, got, got_v2, v2, u) != values, axis=-1)


def compute_sum(results, d: int) -> list:
    """Digit-wise sum mod d of the result strings, the rows of (n, m) results, or of each (n, m) block."""
    rows = np.asarray(results)
    if rows.ndim < 2 or rows.shape[-2] == 0 or rows.dtype.kind not in "iu":
        raise ValueError(f"need one or more result strings of int digits, got shape {rows.shape}, {rows.dtype}")
    if ((rows < 0) | (rows >= d)).any():
        raise ValueError(f"result digit {rows[(rows < 0) | (rows >= d)][0]} out of range for d={d}")
    return (rows.sum(axis=-2) % d).tolist()
