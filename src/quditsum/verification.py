"""The hardened protocol: random basis checks before any encoding.

The fix prepares eta extra shared states. The receiving participants
split those positions among themselves, and each chooser announces a
position plus a uniformly chosen basis (computational or Fourier image).
Every participant then rotates its particle of that state by the Fourier
transform and measures in the chosen basis, with P1 announcing his
result first. Genuine shared states pass both checks with certainty:
computational results sum to 0 mod d, Fourier-image results all agree.
The forged product states cannot satisfy the second condition better
than blind luck, so each Fourier-image check catches the dealer with
probability 1 - d^(1-n) no matter what he announces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import ProtocolConfig, RoundState
from .qudit import BasisKind, apply_qft, measure


@dataclass(frozen=True)
class CheckAssignment:
    """One announced check: who picked it, which position, which basis."""

    chooser: int
    position: int
    basis: BasisKind


@dataclass(frozen=True)
class CheckOutcome:
    """Announced values of one executed check, P1's announcement first."""

    assignment: CheckAssignment
    announced: tuple[int, ...]
    passed: bool


def v1_pass(values, d: int) -> bool:
    """Computational-basis check: announced values must sum to 0 mod d."""
    return sum(values) % d == 0


def v2_pass(values) -> bool:
    """Fourier-image check: all announced values must agree."""
    values = list(values)
    return all(v == values[0] for v in values)


def select_checks(cfg: ProtocolConfig, eta: int, rng: np.random.Generator) -> list[CheckAssignment]:
    """Randomly assign eta check positions to the receiving participants.

    Positions are distinct, drawn uniformly from the m+eta prepared
    states. Shares are balanced across the n-1 choosers, remainders going
    to the lowest-indexed ones. Each chooser picks an independent uniform
    basis per check. Returned in execution (position) order.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta == 0:
        return []
    total = cfg.m + eta
    positions = [int(x) for x in rng.choice(total, size=eta, replace=False)]
    base, rem = divmod(eta, cfg.n - 1)
    assignments = []
    cursor = 0
    for idx, chooser in enumerate(range(2, cfg.n + 1)):
        share = base + (1 if idx < rem else 0)
        for pos in positions[cursor:cursor + share]:
            basis = BasisKind.V1 if int(rng.integers(2)) == 0 else BasisKind.V2
            assignments.append(CheckAssignment(chooser, pos, basis))
        cursor += share
    assignments.sort(key=lambda a: a.position)
    return assignments


def execute_check(state: RoundState, assignment: CheckAssignment,
                  rng: np.random.Generator) -> CheckOutcome:
    """Consume one check position and produce its announced transcript.

    Every owner rotates its own qudit by the Fourier transform and
    measures in the announced basis, in participant order, so P1 goes
    first on a genuine round. On a forged round P1 holds nothing and
    announces first whatever serves him best. His announcement never
    depends on the honest results (he speaks before they do):
    -(n-1)*r mod d on a computational check, which always passes, and a
    fixed value on a Fourier-image check, where nothing beats blind luck.
    """
    if state.measured:
        raise ValueError(f"check position {assignment.position} already consumed")
    basis = assignment.basis
    d = state.register.d
    values = []
    if 1 not in state.owners:
        # any fixed value does equally well on a Fourier-image check
        values.append((-len(state.owners) * state.r) % d if basis is BasisKind.V1 else 0)
    reg = state.register
    for participant in sorted(state.owners):
        q = state.owners.index(participant)
        reg = apply_qft(reg, q)
        out = measure(reg, q, basis, rng)
        values.append(out.value)
        reg = out.posterior
    passed = v1_pass(values, d) if basis is BasisKind.V1 else v2_pass(values)
    return CheckOutcome(assignment, tuple(values), passed)
