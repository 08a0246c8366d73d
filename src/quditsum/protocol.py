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

Participants are numbered 1-based; qudit i-1 of a shared round register
belongs to participant i.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .qudit import (
    BasisKind,
    QuditRegister,
    _check_cap,
    apply_qft,
    apply_shift,
    basis_state,
    measure,
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
class SecretString:
    """One participant's private digit string."""

    digits: tuple[int, ...]

    @classmethod
    def random(cls, d: int, m: int, rng: np.random.Generator) -> "SecretString":
        return cls(tuple(int(x) for x in rng.integers(0, d, size=m)))


@dataclass(frozen=True)
class DecoyRecord:
    """Preparation record of one decoy: where it sits and what it should read."""

    position: int
    basis: BasisKind
    value: int


@dataclass(frozen=True)
class RoundState:
    """One shared state plus bookkeeping of who already measured.

    owners[q] names the participant holding qudit q; the default wiring
    is participant i on qudit i-1. A forged round holds the product of
    the recipients' fake particles, owners=(2..n), and r is the
    fabrication value it was built from (None on genuine rounds).
    """

    index: int
    register: QuditRegister
    owners: tuple[int, ...] = ()
    measured: frozenset[int] = frozenset()
    r: int | None = None

    def __post_init__(self) -> None:
        if not self.owners:
            object.__setattr__(self, "owners", tuple(range(1, self.register.k + 1)))
        if len(self.owners) != self.register.k:
            raise ValueError(
                f"owners names {len(self.owners)} participants for {self.register.k} qudits"
            )


def validate_secrets(cfg: ProtocolConfig, secrets) -> None:
    """Reject secret collections that do not fit the configuration."""
    if len(secrets) != cfg.n:
        raise ValueError(f"need one secret per participant: got {len(secrets)}, n={cfg.n}")
    for idx, secret in enumerate(secrets, start=1):
        if len(secret.digits) != cfg.m:
            raise ValueError(
                f"secret of P{idx} has {len(secret.digits)} digits, expected m={cfg.m}"
            )
        for x in secret.digits:
            if not 0 <= x < cfg.d:
                raise ValueError(f"secret digit {x} of P{idx} out of range for d={cfg.d}")


def prepare_rounds(cfg: ProtocolConfig, count: int | None = None) -> list[RoundState]:
    """Fresh shared states, one per digit position (count overrides cfg.m)."""
    rounds = cfg.m if count is None else count
    return [RoundState(j, omega_state(cfg.d, cfg.n)) for j in range(rounds)]


def insert_decoys(cfg: ProtocolConfig, rng: np.random.Generator, payload_len: int | None = None):
    """Draw the decoys guarding each transmitted sequence.

    Every decoy carries a uniform value prepared in a uniform basis,
    either |r> or QFT|r>. Positions index the interleaved sequence of
    payload plus decoys and are drawn without replacement, so the decoys
    sit at uniformly random slots among the payload particles.

    Returns ({recipient: [register, ...]}, {recipient: [DecoyRecord, ...]})
    for recipients 2..n, both lists ordered by position.
    """
    payload = cfg.m if payload_len is None else payload_len
    seq_len = payload + cfg.decoy_count
    registers: dict[int, list[QuditRegister]] = {}
    records: dict[int, list[DecoyRecord]] = {}
    for i in range(2, cfg.n + 1):
        positions = sorted(int(x) for x in rng.choice(seq_len, size=cfg.decoy_count, replace=False))
        regs, recs = [], []
        for pos in positions:
            value = int(rng.integers(cfg.d))
            basis = BasisKind.V1 if int(rng.integers(2)) == 0 else BasisKind.V2
            reg = basis_state(cfg.d, [value])
            if basis is BasisKind.V2:
                reg = apply_qft(reg, 0)
            regs.append(reg)
            recs.append(DecoyRecord(pos, basis, value))
        registers[i] = regs
        records[i] = recs
    return registers, records


def check_decoys(records, received, rng: np.random.Generator) -> int:
    """Measure each received decoy in its preparation basis.

    Returns the number of mismatches against the recorded values. 0
    exactly when the channel was untouched, since both |r> and QFT|r>
    are eigenstates of their own measurement.
    """
    if len(records) != len(received):
        raise ValueError(
            f"got {len(received)} decoy registers for {len(records)} records"
        )
    mismatches = 0
    for rec, reg in zip(records, received):
        out = measure(reg, 0, rec.basis, rng)
        if out.value != rec.value:
            mismatches += 1
    return mismatches


def encode_and_measure(state: RoundState, participant: int, digit: int, rng: np.random.Generator):
    """Encode one digit on the participant's qudit and read it out.

    The encoding is the Fourier rotation followed by the cyclic shift by
    the digit; the readout is a computational measurement. Returns
    (measured value, collapsed round). A participant can touch a round
    only once.
    """
    d = state.register.d
    if not 0 <= digit < d:
        raise ValueError(f"digit {digit} out of range for d={d}")
    if participant not in state.owners:
        raise ValueError(f"participant {participant} holds no qudit in round {state.index}")
    if participant in state.measured:
        raise ValueError(f"participant {participant} already measured round {state.index}")
    q = state.owners.index(participant)
    reg = apply_qft(state.register, q)
    reg = apply_shift(reg, q, digit)
    out = measure(reg, q, BasisKind.V1, rng)
    new_state = replace(state, register=out.posterior, measured=state.measured | {participant})
    return out.value, new_state


def encode_rounds(rounds, secrets, rng: np.random.Generator) -> dict[int, list[int]]:
    """Encoding step for every owner of every round, in round order.

    secrets[i-1] belongs to participant i; digit j goes on the j-th round
    of the list (not on RoundState.index, which may name an original
    position in a longer prepared sequence). Only participants holding a
    qudit get a result string.
    """
    results: dict[int, list[int]] = {}
    for j, state in enumerate(rounds):
        for i in sorted(state.owners):
            value, state = encode_and_measure(state, i, secrets[i - 1].digits[j], rng)
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
