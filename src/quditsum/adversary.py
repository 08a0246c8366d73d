"""Threat models against the original protocol.

Two adversaries matter here. The first is a malicious dealer P1 who
replaces every shared entangled state with inverse-Fourier product
states: the honest encoding (Fourier rotation, shift by the digit,
computational readout) then collapses each fake particle to the basis
state |(r + digit) mod d> with certainty, so every announced result
hands P1 the digit once he subtracts his own fabrication value r. The
decoys stay genuine, so the transmission check of the original protocol
sees a clean channel and the theft leaves no trace there.

The second is an outside eavesdropper running intercept-resend in a
uniformly random basis. She learns announced-basis values at the price
of disturbing half the decoys she guesses wrong, which is exactly what
the decoy check is built to catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .protocol import ProtocolConfig, RoundState
from .qudit import BasisKind, QuditRegister, apply_iqft, basis_state, measure


@dataclass(frozen=True)
class IqftAttackPlan:
    """The dealer's fabrication choices.

    r_choices[j] is the value r used to fabricate every recipient's fake
    particle in round j.
    """

    r_choices: tuple[int, ...]

    @classmethod
    def uniform(cls, d: int, rounds: int, rng: np.random.Generator) -> "IqftAttackPlan":
        return cls(tuple(int(x) for x in rng.integers(0, d, size=rounds)))


def fake_particle(d: int, r: int) -> QuditRegister:
    """The forged single-qudit state: the inverse Fourier transform of |r>."""
    if not 0 <= r < d:
        raise ValueError(f"fabrication value {r} out of range for d={d}")
    return apply_iqft(basis_state(d, [r]), 0)


def recover_secret_digit(announced: int, r: int, d: int) -> int:
    """Undo the fabrication offset: the stolen digit is (announced - r) mod d."""
    if not 0 <= announced < d:
        raise ValueError(f"announced value {announced} out of range for d={d}")
    if not 0 <= r < d:
        raise ValueError(f"fabrication value {r} out of range for d={d}")
    return (announced - r) % d


def fabricate_rounds(cfg: ProtocolConfig, plan: IqftAttackPlan) -> list[RoundState]:
    """Build the dealer's forged round for every entry of the plan.

    Round j is the product of one fake particle per recipient (2..n), all
    built from r_choices[j]; P1 keeps no qudit of it.
    """
    rounds = []
    for j, r in enumerate(plan.r_choices):
        particles = [fake_particle(cfg.d, r).amplitudes for _ in range(2, cfg.n + 1)]
        register = QuditRegister(cfg.d, cfg.n - 1, reduce(np.kron, particles))
        rounds.append(RoundState(j, register, owners=tuple(range(2, cfg.n + 1)), r=r))
    return rounds


def eve_intercept_resend(particles, rng: np.random.Generator) -> list[QuditRegister]:
    """Measure every in-transit particle in a uniformly random basis.

    particles is a sequence of (register, qudit) pairs; payload particles
    that are still entangled with the rest of a round are addressed by
    their qudit inside the shared register. The post-measurement register
    is returned in input order, which is exactly what a resent particle
    looks like to the receiver: the measured factor is the basis state
    Eve observed.
    """
    out = []
    for reg, q in particles:
        basis = BasisKind.V1 if int(rng.integers(2)) == 0 else BasisKind.V2
        out.append(measure(reg, q, basis, rng).posterior)
    return out
