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


def apply_shift(reg: QuditRegister, target: int, s: int) -> QuditRegister:
    """Cyclic shift on one qudit, |r> -> |(r + s) mod d>: the reference for the fused encoding unitary."""
    if not 0 <= target < reg.k:
        raise ValueError(f"target qudit {target} out of range for k={reg.k}")
    if not 0 <= s < reg.d:
        raise ValueError(f"shift amount {s} out of range for d={reg.d}")
    psi = reg.amplitudes.reshape(reg.d**target, reg.d, -1)
    return QuditRegister(reg.d, reg.k, np.roll(psi, s, axis=1))


def approx_equal(a: QuditRegister, b: QuditRegister, tol: float = 1e-9) -> bool:
    """State equality up to global phase: |<a|b>| >= 1 - tol."""
    if a.d != b.d or a.k != b.k:
        raise ValueError(f"cannot compare registers of shape ({a.d},{a.k}) and ({b.d},{b.k})")
    return abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol


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
