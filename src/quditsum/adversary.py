"""Threat models against the original protocol.

Two adversaries matter here. The first is a malicious dealer P1 who
replaces every shared entangled state with inverse-Fourier product
states, keeping one fake particle for himself: the honest encoding
(Fourier rotation, shift by the digit, computational readout) then
collapses each fake particle to the basis state |(r + digit) mod d> with
certainty, so every announced result hands P1 the digit once he
subtracts his own fabrication value r. The decoys stay genuine, so the
transmission check of the original protocol sees a clean channel and the
theft leaves no trace there.

The second is an outside eavesdropper running intercept-resend in a
uniformly random basis. She learns announced-basis values at the price
of disturbing half the decoys she guesses wrong, which is exactly what
the decoy check is built to catch. Fake and resent particles are
one-qudit factors of their rounds. Her draws never depend on what she
reads, so she intercepts a whole chunk of trials per receiver at once.
"""

from __future__ import annotations

import numpy as np

from .protocol import ProtocolConfig, RoundState, require_int
from .qudit import BasisKind, QuditRegister, _iqft_matrix, measure_pairs


def fake_particle(d: int, r: int) -> QuditRegister:
    """The forged single-qudit state IQFT|r>: a read-only view of row r of the symmetric IQFT matrix."""
    if not 0 <= r < d:
        raise ValueError(f"fabrication value {r} out of range for d={d}")
    return QuditRegister._trusted(d, 1, _iqft_matrix(d)[r])


def recover_secret_digit(announced: int, r: int, d: int) -> int:
    """Undo the fabrication offset: the stolen digit is (announced - r) mod d."""
    if not 0 <= announced < d:
        raise ValueError(f"announced value {announced} out of range for d={d}")
    if not 0 <= r < d:
        raise ValueError(f"fabrication value {r} out of range for d={d}")
    return (announced - r) % d


def fabricate_rounds(cfg: ProtocolConfig, r_choices) -> list[RoundState]:
    """Build the dealer's forged round for every fabrication value.

    Round j is n one-qudit factors built from r = r_choices[j]: IQFT|r>
    for each recipient 2..n and IQFT|-(n-1)r> for P1. Read out like any
    round, P1's qudit gives his best announcement: -(n-1)r on a
    computational check, which always passes; a uniform digit on a
    Fourier-image check, as good as any fixed one; k_1 - (n-1)r once
    encoded, cancelling the offsets in the sum. Every r must be an int in
    [0, d), checked by type first: True would pass the range check and
    index the IQFT matrix as a mask. A round is a value, so each
    distinct r is built once per call and fills all of its positions.
    """
    for r in r_choices:
        require_int("fabrication value", r)
    built = {r: RoundState(tuple((fake_particle(cfg.d, r if i > 1 else -(cfg.n - 1) * r % cfg.d), (i,))
                                 for i in range(1, cfg.n + 1)), r=r)
             for r in dict.fromkeys(r_choices)}
    return [built[r] for r in r_choices]


def eve_intercept_resend(rounds, receiver: int, decoys, bits: np.ndarray, u: np.ndarray, d: int):
    """Measure every particle in transit to the receiver, over a chunk of T trials, in the drawn bases.

    rounds holds the T trials' rounds flat, in trial order, and decoys the
    (values, v2) pair of their T*D decoys, each of d levels. Row t of the
    (T, R + D) arrays bits and u is trial t's basis bit (1 for V2) and
    uniform for each of its R payload qudits, then each of its D decoys.
    The receiver gets instead of each qudit the basis state Eve read, |v>
    or QFT|v>, in a round as a one-qudit factor of its own. Positions
    holding one round in one basis are measured together, and each value
    gives one round. Returns the rounds and the resent decoys' (values, v2).
    """
    values, v2 = decoys
    trials, split = len(bits), len(rounds) // max(len(bits), 1)
    shape = (trials, split + len(values) // max(trials, 1))
    if {np.shape(bits), np.shape(u)} != {shape} or trials * shape[1] != len(rounds) + len(values):
        raise ValueError(f"bits and u must share one shape (T, R + D) for {len(rounds)} rounds and {len(values)} "
                         f"decoys over T trials: got {np.shape(bits)} and {np.shape(u)}")
    payload_u, groups = u[:, :split].reshape(-1), {}
    for j, (state, bit) in enumerate(zip(rounds, bits[:, :split].reshape(-1).tolist())):
        groups.setdefault((id(state), bit), []).append(j)
    resent = list(rounds)
    for (_, bit), positions in groups.items():
        read, after = rounds[positions[0]].intercept(receiver, BasisKind.V2 if bit else BasisKind.V1,
                                                     payload_u[positions])
        for j, value in zip(positions, read.tolist()):
            resent[j] = after[value]
    bases = bits[:, split:].reshape(-1) == 1
    return resent, (measure_pairs(d, values, v2, bases, u[:, split:].reshape(-1)), bases)
