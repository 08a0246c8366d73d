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
reads, so she is one step over a whole chunk of trials: each receiver's
particles in turn, every decoy in one read.
"""

from __future__ import annotations

import numpy as np

from .protocol import ProtocolConfig, RoundState, require_int
from .qudit import BasisKind, QuditRegister, _iqft_matrix, basis_rows, measure, measure_pairs


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


def _intercept(state: RoundState, participant: int, v2: bool,
               u: np.ndarray) -> tuple[np.ndarray, dict[int, RoundState]]:
    """Measure one owner's qudit per uniform in u, in V2 if v2: the values, {v: round with |v> or QFT|v> in place}."""
    for f, (register, owners) in enumerate(state.factors):
        if participant in owners:
            break
    else:
        raise ValueError(f"participant {participant} holds no qudit in the round")
    q = owners.index(participant)
    values, rests = measure(register, q, BasisKind.V2 if v2 else BasisKind.V1, u)
    kept, head, tail = owners[:q] + owners[q + 1:], state.factors[:f], state.factors[f + 1:]
    rows = basis_rows(state.d, list(rests), v2)
    return values, {v: RoundState((*head, *(((rest, kept),) if kept else ()), *tail,
                                   (QuditRegister._trusted(state.d, 1, row), (participant,))), state.r)
                    for (v, rest), row in zip(rests.items(), rows)}


def eve_intercept_resend(rounds, decoys, bits: np.ndarray, u: np.ndarray, d: int):
    """Measure every particle in transit over a chunk of T trials, in the drawn bases: receivers 2..n in turn.

    rounds holds each trial's list of R rounds and decoys the (values, v2) pair of the (n-1, T, D) decoys,
    receiver by trial, each of d levels. Entry (i-2, t) of the (n-1, T, R + D) arrays bits and u is
    receiver i's basis bit (1 for V2) and uniform for each of trial t's R payload qudits, then each of its
    D decoys. Receiver i gets instead of each qudit the basis state Eve read, |v> or QFT|v>, in a round as
    a one-qudit factor of its own, and receiver i+1 the rounds receiver i's left. Per receiver, positions
    holding one round in one basis are measured together, and each value gives one round; every decoy is
    read in one measure_pairs call. Returns the T lists of rounds and the resent decoys' (values, v2).
    """
    values, v2 = (np.asarray(a) for a in decoys)
    split = len(rounds[0]) if rounds else 0
    shape = (*values.shape[:2], split + values.shape[-1]) if values.ndim == 3 else None
    if (shape is None or np.shape(v2) != values.shape or shape[1] != len(rounds)
            or {np.shape(bits), np.shape(u)} != {shape} or any(len(trial) != split for trial in rounds)):
        raise ValueError(f"need T lists of R rounds, (n-1, T, D) decoys and bits and u of one shape (n-1, T, R + D): "
                         f"got {len(rounds)} lists, {values.shape}, {np.shape(v2)}, {np.shape(bits)} and {np.shape(u)}")
    flat = [state for trial in rounds for state in trial]
    payload = zip(bits[..., :split].reshape(len(bits), -1).tolist(), u[..., :split].reshape(len(u), -1))
    for i, (row_bits, row_u) in enumerate(payload, start=2):
        groups = {}
        for j, key in enumerate(zip(map(id, flat), row_bits)):
            groups.setdefault(key, []).append(j)
        for (_, bit), positions in groups.items():
            read, after = _intercept(flat[positions[0]], i, bit, row_u[positions])
            for j, value in zip(positions, read.tolist()):
                flat[j] = after[value]
    bases = bits[..., split:] == 1
    return ([flat[t * split:(t + 1) * split] for t in range(len(rounds))],
            (measure_pairs(d, values, v2, bases, u[..., split:]), bases))
