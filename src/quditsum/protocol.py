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
round's shared register in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qudit import (
    BasisKind,
    QuditRegister,
    _check_cap,
    apply_encode,
    basis_rows,
    measure,
    measure_rows,
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

    owners[q] holds qudit q of its register. A genuine round is the shared
    register held by 1..n; a forged round is one fake particle per
    recipient 2..n, built from the fabrication value r (None if genuine).
    """

    index: int
    factors: tuple[tuple[QuditRegister, tuple[int, ...]], ...]
    r: int | None = None

    def __post_init__(self) -> None:
        for register, owners in self.factors:
            if len(owners) != register.k:
                raise ValueError(f"owners names {len(owners)} participants for {register.k} qudits")

    @property
    def d(self) -> int:
        """Levels per qudit, the same in every factor."""
        return self.factors[0][0].d

    @property
    def owners(self) -> tuple[int, ...]:
        """The participants holding a qudit of the round, in order."""
        return tuple(sorted(p for _, owners in self.factors for p in owners))

    def read_out(self, rng: np.random.Generator, rotate) -> list[int]:
        """Each owner's V1 readout in participant order, after rotate(register, q, participant) if given."""
        factors = list(self.factors)
        return [self._measure(factors, p, BasisKind.V1, rng, rotate) for p in self.owners]

    def intercept(self, participant: int, basis: BasisKind,
                  rng: np.random.Generator) -> tuple[int, "RoundState"]:
        """Measure one owner's qudit; return the value v and the round with |v> or QFT|v> in its place."""
        factors = list(self.factors)
        value = self._measure(factors, participant, basis, rng, None)
        particle = QuditRegister._trusted(self.d, 1, basis_rows(self.d, value, basis is BasisKind.V2))
        return value, RoundState(self.index, (*factors, (particle, (participant,))), self.r)

    def _measure(self, factors: list, participant: int, basis: BasisKind, rng, rotate) -> int:
        """Measure the participant's qudit of factors, dropping it from that list; return the value."""
        for f, (register, owners) in enumerate(factors):
            if participant in owners:
                break
        else:
            raise ValueError(f"participant {participant} holds no qudit in round {self.index}")
        q = owners.index(participant)
        if rotate is not None:
            register = rotate(register, q, participant)
        value, rest = measure(register, q, basis, rng)
        kept = owners[:q] + owners[q + 1:]
        factors[f:f + 1] = [(rest, kept)] if kept else []
        return value


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


@lru_cache(maxsize=1)
def _shared_register(d: int, n: int) -> QuditRegister:
    register = omega_state(d, n)
    register.amplitudes.setflags(write=False)
    return register


def prepare_rounds(cfg: ProtocolConfig, count: int | None = None) -> list[RoundState]:
    """Shared states, one per digit position (count overrides cfg.m), all one cached read-only register."""
    rounds = cfg.m if count is None else count
    factors = ((_shared_register(cfg.d, cfg.n), tuple(range(1, cfg.n + 1))),)
    return [RoundState(j, factors) for j in range(rounds)]


def insert_decoys(cfg: ProtocolConfig, rng: np.random.Generator, payload_len: int | None = None):
    """Draw the decoys guarding each transmitted sequence.

    Every decoy carries a uniform value prepared in a uniform basis,
    either |r> or QFT|r>. Returns ({recipient: rows}, {recipient:
    (values, v2)}) for recipients 2..n: rows is the (decoy_count, d)
    array of decoy states, values what each should read and v2 marks
    those prepared in the Fourier basis.
    """
    payload = cfg.m if payload_len is None else payload_len
    d, count = cfg.d, cfg.decoy_count
    decoys, expected = {}, {}
    for i in range(2, cfg.n + 1):
        # the slots among the payload are never read; drawing them keeps every trial's stream
        rng.choice(payload + count, size=count, replace=False)
        # value and basis bit of each decoy in turn, one draw per entry
        draws = rng.integers(0, np.tile([d, 2], count))
        values, v2 = draws[0::2], draws[1::2] == 1
        decoys[i], expected[i] = basis_rows(d, values, v2), (values, v2)
    return decoys, expected


def check_decoys(expected, rows: np.ndarray, rng: np.random.Generator) -> int:
    """Measure each received decoy row in its preparation basis.

    expected is the (values, v2) pair insert_decoys recorded. Returns the
    number of mismatches: 0 exactly when the channel was untouched, since
    both |r> and QFT|r> are eigenstates of their own measurement. All
    decoys are measured as one array, against one uniform each in order.
    """
    values, v2 = expected
    if np.ndim(rows) != 2:
        raise ValueError(f"decoys must be an (N, d) array of rows, got shape {np.shape(rows)}")
    if len(rows) != len(values):
        raise ValueError(f"got {len(rows)} decoy rows for {len(values)} expected values")
    return int(np.count_nonzero(measure_rows(rows, v2, rng.random(len(values))) != values))


def encode_and_measure(state: RoundState, digits, rng: np.random.Generator) -> list[int]:
    """Encode digits[i-1] on each owner i's qudit and read the round out, in participant order.

    The encoding (Fourier rotation, then the cyclic shift by the digit)
    is one unitary; the readout is a computational measurement.
    """
    return state.read_out(rng, lambda register, q, i: apply_encode(register, q, digits[i - 1]))


def encode_rounds(rounds, secrets, rng: np.random.Generator) -> dict[int, list[int]]:
    """Encoding step for every owner of every round, in round order.

    secrets[i-1] belongs to participant i; digit j goes on the j-th round
    of the list (not on RoundState.index, which may name an original
    position in a longer prepared sequence). Only participants holding a
    qudit get a result string.
    """
    results: dict[int, list[int]] = {}
    for j, state in enumerate(rounds):
        for i, value in zip(state.owners, encode_and_measure(state, [s[j] for s in secrets], rng)):
            results.setdefault(i, []).append(value)
    return results


def compute_sum(results, d: int) -> list[int]:
    """Digit-wise sum of the announced result strings, reduced mod d."""
    rows = [list(r) for r in results]
    if not rows:
        raise ValueError("need at least one result string")
    m = len(rows[0])
    for row in rows:
        if len(row) != m:
            raise ValueError("result strings differ in length")
        for x in row:
            if not 0 <= x < d:
                raise ValueError(f"result digit {x} out of range for d={d}")
    return [sum(col) % d for col in zip(*rows)]
