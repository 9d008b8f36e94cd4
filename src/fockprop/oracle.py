"""Brute-force ground truth for the closed-form propagators.

Two independent engines act on the vectorized density matrix:

  expm_evolve: scaling-and-squaring matrix exponential of L t
  rk4_evolve:  classical fixed-step fourth-order Runge-Kutta

For a linear autonomous flow one RK4 step of size h is exactly the degree-4
Taylor polynomial of exp(h L), so the whole integration is a matrix power.
That makes tight step counts affordable: cost grows with log(steps), not
steps, and the step count is sized from ||L|| t so the global truncation
error lands near a requested accuracy instead of near a guess.

Both engines work one sector at a time. A sector is a connected component
of the generator's nonzero pattern; no entry couples two sectors, so the
exponential and the RK4 step are block diagonal over them. The sectors are
read off the matrix itself, never from a model or a conserved label, so the
oracle stays independent of the closed forms it checks. (Every Kerr
generator conserves n - m and splits into 2 dim - 1 sectors; the pair drive
conserves the parity of n - m and splits into 2.)

The helpers at the bottom embed a state in a larger window and run the
oracle there. Comparing a propagator against an oracle truncated at the
same window would fold the oracle's own cutoff error into the residual;
running the oracle wide and cropping isolates the propagator's error.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .superop import vec, unvec

__all__ = [
    "IntegratorConfig",
    "expm_dense",
    "expm_evolve",
    "recommended_steps",
    "rk4_evolve",
    "embed",
    "crop",
    "converged_window_reference",
]

# largest ||h L|| per RK4 step before the degree-4 truncation is clearly felt
STEP_NORM_CAP = 0.1


@dataclass(frozen=True)
class IntegratorConfig:
    steps: int
    richardson: bool = True


def _entries(L):
    m = getattr(L, "entries", L)
    return np.asarray(m, dtype=complex)


def _sectors(mat):
    """Index sets of the connected components of the pattern of mat | mat.T."""
    nonzero = mat != 0
    linked = nonzero | nonzero.T
    n = mat.shape[0]
    unseen = np.ones(n, dtype=bool)
    sectors = []
    for start in range(n):
        if not unseen[start]:
            continue
        members = np.zeros(n, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        unseen &= ~members
        sectors.append(np.flatnonzero(members))
    return sectors


def expm_dense(A, rtol=1e-12):
    """exp(A) by scaling and squaring with a truncated Taylor series.

    The series on the scaled matrix is summed until the next term falls
    below rtol relative to the running sum, then squared back up.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    norm1 = float(np.max(np.sum(np.abs(A), axis=0))) if n else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm1))) + 1) if norm1 > 0.5 else 0
    As = A / (2.0 ** squarings)
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 64):
        term = term @ As / k
        acc += term
        if np.max(np.abs(term)) <= rtol * max(1.0, np.max(np.abs(acc))):
            break
    else:
        warnings.warn("matrix exponential series hit its iteration cap")
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def expm_evolve(L, rho0, t):
    """Propagate rho0 by exp(L t) acting on the vectorized state."""
    mat = _entries(L)
    dim = int(round(math.sqrt(mat.shape[0])))
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} does not match generator for dim {dim}")
    v = vec(rho0)
    out = np.empty_like(v)
    for idx in _sectors(mat):
        out[idx] = expm_dense(mat[np.ix_(idx, idx)] * t) @ v[idx]
    return unvec(out, dim)


def recommended_steps(L, t, accuracy=1e-12):
    """Even step count that puts the RK4 global error near `accuracy`.

    Per-step local error scales like (||L|| h)^5 / 120 and there are
    ||L|| t / (||L|| h) steps, so the global error is about
    (||L|| h)^4 * ||L|| t / 120. Solving for h and capping the step norm
    keeps the estimate honest when accuracy is loose.
    """
    mat = _entries(L)
    x = float(np.max(np.abs(mat))) * float(t)
    if x <= 0.0:
        return 2
    q = min(STEP_NORM_CAP, (120.0 * accuracy / x) ** 0.25)
    steps = int(math.ceil(x / q))
    steps += steps % 2  # even, so the half-resolution Richardson run divides it
    return max(steps, 2)


def rk4_evolve(L, rho0, t, config=None):
    """Classical RK4 on the vectorized flow. Returns (rho, error_estimate).

    For d/dt v = L v one RK4 step is v -> M v with
    M = 1 + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so `steps` steps are
    M**steps applied once. With config.richardson the run is repeated at
    half resolution and the standard fourth-order extrapolated difference
    |y_h - y_2h| / 15 is returned; otherwise the estimate is None.
    """
    mat = _entries(L)
    dim = int(round(math.sqrt(mat.shape[0])))
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} does not match generator for dim {dim}")
    if t < 0:
        raise ValueError("negative time")
    if t == 0:
        return rho0.astype(complex), 0.0

    steps = config.steps if config is not None else recommended_steps(L, t)
    richardson = config.richardson if config is not None else True
    if steps < 1:
        raise ValueError("need at least one step")
    x = float(np.max(np.abs(mat))) * float(t)
    if x / steps > STEP_NORM_CAP:
        warnings.warn(
            f"RK4 step norm {x / steps:.3g} exceeds {STEP_NORM_CAP}; "
            "the degree-4 truncation will dominate"
        )

    v = vec(rho0)
    blocks = [(idx, mat[np.ix_(idx, idx)]) for idx in _sectors(mat)]

    def power_apply(n_steps):
        h = t / n_steps
        y = np.empty_like(v)
        for idx, block in blocks:
            hL = block * h
            eye = np.eye(len(idx), dtype=complex)
            # Horner form of the degree-4 Taylor step
            m = eye + hL @ (eye + hL @ (eye / 2 + hL @ (eye / 6 + hL / 24)))
            y[idx] = np.linalg.matrix_power(m, n_steps) @ v[idx]
        return y

    y = power_apply(steps)
    err = None
    if richardson and steps >= 2:
        y_coarse = power_apply(max(1, steps // 2))
        err = float(np.max(np.abs(y - y_coarse))) / 15.0
    return unvec(y, dim), err


# ---------------------------------------------------------------------------
# Wide-window references


def embed(rho, dim):
    """Zero-pad a density matrix into a larger window."""
    rho = np.asarray(rho, dtype=complex)
    small = rho.shape[0]
    if dim < small:
        raise ValueError("target window smaller than the state")
    out = np.zeros((dim, dim), dtype=complex)
    out[:small, :small] = rho
    return out


def crop(rho, dim):
    return np.asarray(rho, dtype=complex)[:dim, :dim]


def converged_window_reference(build_matrix, rho0, t, pad=16, check=8,
                               method="rk4", accuracy=1e-12):
    """Oracle result on a window wide enough that the cutoff is converged.

    build_matrix(dim) must return the dense generator for any window size.
    The state is embedded at dim+pad and dim+pad+check, both runs are
    cropped back to dim, and their difference is returned alongside the
    result as a self-convergence estimate. A small estimate certifies that
    widening the window further would not move the cropped answer.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    results = []
    for big in (dim + pad, dim + pad + check):
        mat = _entries(build_matrix(big))
        state = embed(rho0, big)
        if method == "rk4":
            cfg = IntegratorConfig(steps=recommended_steps(mat, t, accuracy), richardson=False)
            out, _ = rk4_evolve(mat, state, t, cfg)
        elif method == "expm":
            out = expm_evolve(mat, state, t)
        else:
            raise ValueError(f"unknown method {method!r}")
        results.append(crop(out, dim))
    conv = float(np.max(np.abs(results[0] - results[1])))
    return results[0], conv
