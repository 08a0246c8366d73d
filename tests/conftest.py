"""Shared helpers for the test suite."""

import math

import numpy as np

from quditsum import QuditRegister, execute_check
from quditsum.protocol import read_out
from quditsum.verification import check_rotations


def random_register(d: int, k: int, rng: np.random.Generator) -> QuditRegister:
    """Haar-ish random state: complex normal amplitudes, normalized."""
    amp = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    amp /= np.linalg.norm(amp)
    return QuditRegister(d, k, amp)


def assert_within_4sigma(observed_rate: float, p: float, n: int) -> None:
    """Binomial consistency check: |observed - p| <= 4 sqrt(p(1-p)/n).

    For p of exactly 0 or 1 the band is empty, so the observed rate must
    match exactly; that is intentional, those claims are not statistical.
    """
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(observed_rate - p) <= 4.0 * sigma + 1e-12, (
        f"rate {observed_rate} is more than 4 sigma from {p} (n={n}, sigma={sigma:.2e})"
    )


def random_secret(d: int, m: int, rng: np.random.Generator) -> tuple[int, ...]:
    """One participant's secret: m uniform digits mod d in one draw."""
    return tuple(int(x) for x in rng.integers(0, d, size=m))


def run_check(state, check: dict, rng: np.random.Generator) -> dict:
    """One check as run_protocol runs it: the round read out with the check's rotation, then the verdict."""
    return execute_check(state, check, read_out([state], check_rotations(state.d, [check]), rng)[0])
