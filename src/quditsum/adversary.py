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

from functools import lru_cache, reduce

import numpy as np

from .protocol import ProtocolConfig, RoundState, require_int
from .qudit import BasisKind, QuditRegister, apply_iqft, basis_state, measure, measure_rows


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


def fabricate_rounds(cfg: ProtocolConfig, r_choices) -> list[RoundState]:
    """Build the dealer's forged round for every fabrication value.

    Round j is the product of one fake particle per recipient (2..n), all
    built from r_choices[j]; P1 keeps no qudit of it. Rounds with equal r
    share one cached read-only register. Every r must be an int in [0, d),
    checked before the cache is read: 1.0 or True would match the key 1.
    """
    for r in r_choices:
        require_int("fabrication value", r)
        if not 0 <= r < cfg.d:
            raise ValueError(f"fabrication value {r} out of range for d={cfg.d}")
    owners = tuple(range(2, cfg.n + 1))
    registers = _forged_registers(cfg.d, cfg.n)
    for r in set(r_choices) - registers.keys():
        particle = fake_particle(cfg.d, r).amplitudes
        registers[r] = QuditRegister(cfg.d, len(owners), reduce(np.kron, [particle] * len(owners)))
        registers[r].amplitudes.setflags(write=False)
    return [RoundState(j, registers[r], owners=owners, r=r) for j, r in enumerate(r_choices)]


@lru_cache(maxsize=1)
def _forged_registers(d: int, n: int) -> dict[int, QuditRegister]:
    """r -> forged register of the n-1 recipients, filled on demand (at most d entries)."""
    return {}


def eve_intercept_resend(particles, decoys: np.ndarray, rng: np.random.Generator):
    """Measure every in-transit particle in a uniformly random basis.

    particles is a sequence of (register, qudit) pairs: payload particles
    still entangled with the rest of a round, addressed by their qudit
    inside the shared register. decoys is the (N, d) array of decoy rows
    sent after them. Returns (registers, rows): the post-measurement
    registers in input order and the measured decoy rows, which is
    exactly what resent particles look like to the receiver, the measured
    factor being the basis state Eve observed.
    """
    registers = [measure(reg, q, BasisKind.V2 if rng.integers(2) else BasisKind.V1, rng)[1]
                 for reg, q in particles]
    # per decoy, a basis bit and then the uniform measure would take
    draws = np.array([(rng.integers(2), rng.random()) for _ in range(len(decoys))]).reshape(-1, 2)
    return registers, measure_rows(decoys, draws[:, 0] == 1, draws[:, 1])[1]
