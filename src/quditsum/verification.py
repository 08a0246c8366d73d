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
probability 1 - d^(1-n) whatever he announces, his own readout included.
"""

from __future__ import annotations

import numpy as np

from .protocol import ProtocolConfig


def select_checks(cfg: ProtocolConfig, eta: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomly assign eta check positions to the receiving participants, for each row of words.

    A row is a trial's m+eta position keys, then eta basis words. The eta smallest keys pick distinct
    uniform positions among the m+eta prepared states; in key order, which is random, they go to the
    n-1 choosers in balanced shares, remainders to the lowest-indexed ones, and the k-th is a V2 check
    if the top bit of basis word k is set, else a V1 one. Returns the (T, eta) positions, choosers and
    V2 flags, each row in execution (position) order.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    total = cfg.m + eta
    if np.shape(words)[1:] != (total + eta,):
        raise ValueError(f"need rows of m+2*eta={total + eta} words, got shape {np.shape(words)}")
    positions = np.argsort(words[:, :total], axis=1, kind="stable")[:, :eta]
    base, rem = divmod(eta, cfg.n - 1)
    choosers = np.repeat(np.arange(2, cfg.n + 1), [base + (c < rem) for c in range(cfg.n - 1)])
    # the k-th smallest key's check belongs to choosers[k] and reads basis word k; then sort by position
    order = np.argsort(positions, axis=1)
    return tuple(np.take_along_axis(a, order, axis=1)
                 for a in (positions, np.broadcast_to(choosers, positions.shape), words[:, total:] >> 63 == 1))


def execute_check(v2, values, d: int) -> np.ndarray:
    """The verdicts of (..., n) readouts, each check's V2 flag in v2: V1 passes when they sum to 0 mod d, V2 when
    they all equal P1's.

    A readout holds the values of P1..Pn of the checked round, in that order: P1 announces first, before
    and so regardless of the others.
    """
    values = np.asarray(values)
    return np.where(v2, (values == values[..., :1]).all(axis=-1), values.sum(axis=-1) % d == 0)
