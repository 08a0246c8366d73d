"""Exact dense simulation of small registers of d-level systems.

A register of k qudits with d levels each is a complex amplitude vector
of length d**k, indexed by base-d digit strings with qudit 0 as the most
significant digit. Everything is simulated exactly (dense linear algebra,
no sampling shortcuts), which is what makes the probability-1 claims of
the protocol checkable rather than merely plausible.

Operations never mutate their inputs. Each returns a fresh register, so
states can be passed around and reused like values. Registers the
simulator computes itself skip the constructor's copy and re-check;
every measurement checks the norm instead.

Two measurement bases appear throughout: V1 is the computational basis
{|0>, ..., |d-1>} and V2 is its Fourier image {QFT|0>, ..., QFT|d-1>}.
Every measurement (V2 on the inverse-rotated target) is measure_stack,
reading one qudit of each register of a stack, after the QFT on all or
none, against uniforms drawn up front, or one register against many. On
qudit 0 of one register the whole stack shares, it takes the law from the
register's cached reduced state (first_qudit_state) and never rotates the
register. A decoy, kept as its (v, basis) pair, and a particle an
eavesdropper puts in a round are |v> or QFT|v>: rows of basis_rows, built
for a decoy only by measure_pairs, when it reads the decoy in the other basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

# Hard ceiling on the amplitude-vector length d**k. Construction past it
# fails loudly instead of swallowing memory. Module level so a caller who
# knows what they are doing can raise it.
DIM_CAP = 2**22

# Most amplitudes read_out stacks for one measure_stack; a larger register goes alone, as a view.
STACK_CAP = 2**16

# Normalization drift allowed before a register is rejected as invalid.
NORM_TOL = 1e-9


class BasisKind(Enum):
    """Measurement basis tag: computational (V1) or its Fourier image (V2)."""

    V1 = "V1"
    V2 = "V2"


@dataclass(eq=False)
class QuditRegister:
    """State vector of k qudits, d levels each.

    amplitudes[x] is the coefficient of the basis state whose base-d
    digits are the expansion of x, qudit 0 most significant. The vector
    must be normalized; construction rejects anything off by more than
    NORM_TOL in squared magnitude.
    """

    d: int
    k: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"need at least 2 levels per qudit, got d={self.d}")
        if self.k < 1:
            raise ValueError(f"need at least 1 qudit, got k={self.k}")
        _check_cap(self.d, self.k)
        amp = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amp.size != self.d**self.k:
            raise ValueError(
                f"amplitude vector has length {amp.size}, expected {self.d}**{self.k}"
            )
        norm_sq = float(np.vdot(amp, amp).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN counts as bad
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        self.amplitudes = amp

    @classmethod
    def _trusted(cls, d: int, k: int, amplitudes: np.ndarray) -> "QuditRegister":
        """Wrap a flat complex128 vector the package computed itself: no copy, no re-check."""
        reg = object.__new__(cls)
        reg.d, reg.k, reg.amplitudes = d, k, amplitudes
        return reg

    @cached_property
    def first_qudit_state(self) -> np.ndarray:
        """Reduced state of qudit 0, the d x d psi psi^dagger of the amplitudes viewed as (d, rest).

        Summed over column blocks of at most STACK_CAP amplitudes, so the register is never
        copied whole; computed at first read and kept with the register, which must not change.
        """
        psi, step = self.amplitudes.reshape(self.d, -1), max(1, STACK_CAP // self.d)
        return sum(psi[:, j:j + step] @ psi[:, j:j + step].conj().T for j in range(0, psi.shape[1], step))

    def __repr__(self) -> str:  # amplitudes are too long to echo
        return f"QuditRegister(d={self.d}, k={self.k})"


def _check_cap(d: int, k: int) -> None:
    dim = d**k
    if dim > DIM_CAP:
        raise ValueError(f"register dimension {d}**{k} = {dim} exceeds cap {DIM_CAP}")


@lru_cache(maxsize=None)
def _qft_matrix(d: int) -> np.ndarray:
    # Entry (l, r) = exp(2*pi*i * l*r / d) / sqrt(d). Reducing l*r mod d
    # before exponentiating keeps every phase argument in [0, 2*pi).
    lr = np.outer(np.arange(d), np.arange(d)) % d
    mat = np.exp(2j * np.pi * lr / d) / math.sqrt(d)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _iqft_matrix(d: int) -> np.ndarray:
    mat = _qft_matrix(d).conj().T.copy()
    mat.setflags(write=False)
    return mat


def _split(reg: QuditRegister, target: int) -> tuple[int, int]:
    """(a, b) such that the amplitudes view as (a, d, b) around the target qudit."""
    if not 0 <= target < reg.k:
        raise ValueError(f"target qudit {target} out of range for k={reg.k}")
    return reg.d**target, reg.d ** (reg.k - target - 1)


def _apply_single(reg: QuditRegister, mat: np.ndarray, target: int) -> QuditRegister:
    """Apply a d x d unitary to one qudit of the register: one matmul, contiguous output."""
    a, b = _split(reg, target)
    out = np.matmul(mat, reg.amplitudes.reshape(a, reg.d, b))
    return QuditRegister._trusted(reg.d, reg.k, out.reshape(-1))


def omega_state(d: int, n: int) -> QuditRegister:
    """Equal superposition of |r>|r>...|r> over r, on n qudits.

    This GHZ-like state is what each summation round starts from: the
    sum of the computational digits is 0 with certainty, yet each single
    digit alone is uniform.
    """
    if n < 2:
        raise ValueError(f"the shared state spans at least 2 qudits, got n={n}")
    _check_cap(d, n)
    amp = np.zeros(d**n, dtype=np.complex128)
    # index of |r,r,...,r> is r * (1 + d + ... + d^(n-1))
    stride = (d**n - 1) // (d - 1)
    amp[np.arange(d) * stride] = 1.0 / math.sqrt(d)
    return QuditRegister(d, n, amp)


def apply_iqft(reg: QuditRegister, target: int) -> QuditRegister:
    """Inverse Fourier transform on one qudit (conjugate transpose of the QFT)."""
    return _apply_single(reg, _iqft_matrix(reg.d), target)


def measure(reg: QuditRegister, target: int, basis: BasisKind,
            u: np.ndarray) -> tuple[np.ndarray, dict[int, QuditRegister]]:
    """Measure one qudit of the register once per uniform in u, in the given basis; the qudit leaves.

    Returns the values and {value: register of the other k-1 qudits} for
    every value drawn. V2 samples the computational digit of the
    inverse-rotated target.
    """
    if basis is BasisKind.V2:
        reg = apply_iqft(reg, target)
    a, b = _split(reg, target)
    values, kept = measure_stack(reg.amplitudes.reshape(1, a, reg.d, b), u)
    distinct, first = np.unique(values, return_index=True)  # each rest indexed out: it keeps no other alive
    return values, {int(v): QuditRegister._trusted(reg.d, reg.k - 1, rest.reshape(-1))
                    for v, rest in zip(distinct, kept[first])}


def _sample(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF outcome of each distribution (last axis) against its uniform.

    Same arithmetic as Generator.choice; also every measurement's norm check.
    """
    total = probs.sum(axis=-1, keepdims=True)
    good = np.abs(total - 1.0) <= NORM_TOL  # NaN counts as bad
    if not good.all():
        raise ValueError(f"state is not normalized: |psi|^2 = {float(total[~good][0])!r}")
    cdf = (probs / total).cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    # the count of cdf entries <= u is searchsorted(u, side="right")
    return (cdf <= np.asarray(u)[..., None]).sum(axis=-1)


def basis_rows(d: int, values, v2) -> np.ndarray:
    """Row i is |values[i]>, or QFT|values[i]> where v2[i]; scalar inputs give one row."""
    # QFT|v> is row v of the symmetric QFT matrix
    computational = np.asarray(values)[..., None] == np.arange(d)
    return np.where(np.asarray(v2)[..., None], _qft_matrix(d)[values], computational)


def measure_stack(psi: np.ndarray, u: np.ndarray, qft: bool = False,
                  rho: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Measure axis 2 of the (G, a, d, b) stack psi in V1: one qudit per register, which leaves it.

    psi's last axis is contiguous. Every register first gets the QFT on that qudit if qft, then
    register g is measured against u[g]. Returns the G values and the (G, a, b) normalized rests.
    A (1, a, d, b) psi is one register against all G uniforms, its distribution computed once.
    rho, if given, is the d x d reduced state of axis 2 of the one register every member of psi views
    (a == 1). The law is then diag(U rho U^dagger), computed once, for U the QFT or the identity, and
    rest g row values[g] of U times the register as (d, b): a d*b read, where rotating costs d*d*b.
    """
    d, g = psi.shape[2], np.arange(len(psi))
    if rho is not None:
        law = ((_qft_matrix(d) @ rho) * _qft_matrix(d).conj()).sum(axis=-1).real if qft else rho.diagonal().real
        probs = np.broadcast_to(law, (len(psi), d))
    else:
        if qft:
            psi = np.matmul(_qft_matrix(d), psi)
        # |x|^2 off the float64 (re, im) view
        f = psi.view(np.float64)
        probs = np.einsum("gadb,gadb->gd", f, f)
    values = _sample(probs, u)
    kept = (_qft_matrix(d)[values] @ psi[0, 0])[:, None] if rho is not None and qft else psi[g, :, values]
    # the kept slice's squared norm is its outcome's probability
    kept /= np.sqrt(probs[g, values])[:, None, None]
    return values, kept


def measure_pairs(d: int, values, v2, bases, u) -> np.ndarray:
    """Measure lone qudits |values>, or QFT|values> where v2, in V2 where bases, each against its uniform u.

    All four share one shape, which the outcomes keep. |v> and QFT|v> are eigenstates of their own
    measurement and read v at every u > 0 (see the README); the others, and those at u = 0.0, are
    measured as one stack.
    """
    values, v2, bases, u = (np.asarray(a) for a in (values, v2, bases, u))
    measured, outcomes = (v2 != bases) | (u == 0.0), values.copy()
    if measured.any():
        rows = basis_rows(d, values[measured], v2[measured])
        # IQFT|x> of a row x is x @ IQFT.T
        rows = np.where(bases[measured][:, None], rows @ _iqft_matrix(d).T, rows)
        outcomes[measured] = measure_stack(rows[:, None, :, None], u[measured])[0]
    return outcomes
