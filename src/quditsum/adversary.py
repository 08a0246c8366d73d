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
the decoy check is built to catch. Fake and resent particles are
one-qudit factors of their rounds.
"""

from __future__ import annotations

import numpy as np

from .protocol import ProtocolConfig, RoundState, require_int
from .qudit import BasisKind, QuditRegister, _iqft_matrix, basis_rows, measure_rows


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

    Round j holds one fake particle per recipient (2..n), each its own
    one-qudit factor, all built from r_choices[j]; P1 keeps no qudit of
    it. Every r must be an int in [0, d); the types are checked first,
    since True would pass the range check and index the IQFT matrix as
    a mask.
    """
    for r in r_choices:
        require_int("fabrication value", r)
    return [RoundState(tuple((fake_particle(cfg.d, r), (i,)) for i in range(2, cfg.n + 1)), r=r)
            for r in r_choices]


def eve_intercept_resend(rounds, receiver: int, decoys: np.ndarray, rng: np.random.Generator):
    """Measure every particle in transit to the receiver in a uniformly random basis.

    The receiver's qudit of each round travels first, then the (N, d)
    array of decoy rows. Each payload qudit is intercepted: the receiver
    holds instead the basis state Eve observed, |v> or QFT|v>, as a
    one-qudit factor of its own. Returns (rounds, rows): the rounds as the
    receiver gets them and the decoy rows she resends, the same way.
    """
    resent = [state.intercept(receiver, BasisKind.V2 if rng.integers(2) else BasisKind.V1, rng)[1]
              for state in rounds]
    # per decoy, a basis bit and then the uniform measure would take
    draws = np.array([(rng.integers(2), rng.random()) for _ in range(len(decoys))]).reshape(-1, 2)
    v2 = draws[:, 0] == 1
    return resent, basis_rows(decoys.shape[1], measure_rows(decoys, v2, draws[:, 1]), v2)
