"""Brute-force ground truth for the closed-form propagators.

Two independent engines act on the vectorized density matrix:

  expm_evolve: scaling-and-squaring matrix exponential of L t
  rk4_evolve:  classical fixed-step fourth-order Runge-Kutta

Every wide-window reference runs on expm_evolve; rk4_evolve is the CLI's
second engine. For a linear autonomous flow one RK4 step of size h is
exactly the degree-4 Taylor polynomial of exp(h L), so the whole
integration is a matrix power. That makes tight step counts affordable:
cost grows with log(steps), not steps, and the step count is sized from
||L|| t so the global truncation error lands near TARGET_ERROR.

Both engines work one sector at a time. A sector is a connected component
of the generator's entries (superop.Liouvillian); no entry couples two
sectors, so the exponential and the RK4 step are block diagonal over them,
and only the diagonal blocks are ever formed. The sectors are read off the
entries themselves, never from a model or a conserved label, so the oracle
stays independent of the closed forms it checks. (Every Kerr generator
conserves n - m and splits into 2 dim - 1 sectors of at most dim indices;
the pair drive conserves the parity of n - m and splits into 2.) They are
found once per generator and kept while the generator lives.

The helpers at the bottom embed a state in a larger window and run the
exponential there. Comparing a propagator against an oracle truncated at
the same window would fold the oracle's own cutoff error into the
residual; running the oracle wide and cropping isolates the propagator's
error.
"""

import math
import warnings
import weakref

import numpy as np

from .superop import Liouvillian, build_liouvillian, vec, unvec

__all__ = [
    "expm_dense",
    "expm_evolve",
    "recommended_steps",
    "rk4_evolve",
    "embed",
    "crop",
    "converged_window_reference",
]

# the relative size of the last Taylor term expm_dense sums, and the global
# error recommended_steps sizes an RK4 run for
TARGET_ERROR = 1e-12


def _sectors(n, rows, cols):
    """Index sets of the connected components of the graph on range(n)
    whose edges are the pairs (rows[i], cols[i]), in order of their smallest
    member, each sorted.

    Every index carries a label, at first itself. Each round lowers both
    ends of every edge, and the labels those ends held, to the smaller of
    the two labels, then points every label at its own label until that is
    stable; at the fixed point each component is labelled by its smallest
    member.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        for ends in (rows, cols, label[rows], label[cols]):
            np.minimum.at(new, ends, low)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


# generator -> [(sector indices, block rows, block cols, block entries)]
_SECTOR_ENTRIES = weakref.WeakKeyDictionary()


def _blocks(L):
    """(idx, block) for each sector of L; block is L's matrix on idx x idx.

    The sectors and each one's entries are found on the first call for L;
    a block is scattered when it is reached, so one block is dense at a time.
    """
    parts = _SECTOR_ENTRIES.get(L)
    if parts is None:
        sectors = _sectors(L.dim * L.dim, L.rows, L.cols)
        sector_of = np.empty(L.dim * L.dim, dtype=np.intp)
        local = np.empty_like(sector_of)
        for i, idx in enumerate(sectors):
            sector_of[idx] = i
            local[idx] = np.arange(len(idx))
        owner = sector_of[L.rows]
        by_sector = np.argsort(owner, kind="stable")
        cuts = np.cumsum(np.bincount(owner, minlength=len(sectors)))[:-1]
        parts = [(idx, local[L.rows[e]], local[L.cols[e]], L.entries[e])
                 for idx, e in zip(sectors, np.split(by_sector, cuts))]
        _SECTOR_ENTRIES[L] = parts
    for idx, r, c, e in parts:
        block = np.zeros((len(idx), len(idx)), dtype=complex)
        block[r, c] = e
        yield idx, block


def _max_entry(L):
    return float(np.max(np.abs(L.entries))) if L.entries.size else 0.0


def expm_dense(A):
    """exp(A) by scaling and squaring with a truncated Taylor series.

    The series on the scaled matrix is summed until the next term falls
    below TARGET_ERROR relative to the running sum, then squared back up.
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
        if np.abs(term).max() <= TARGET_ERROR * max(1.0, np.abs(acc).max()):
            break
    else:
        warnings.warn("matrix exponential series hit its iteration cap")
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def _evolve_inputs(L, rho0, t):
    """rho0 as a complex array, after checking it against L's window and t."""
    rho0 = np.asarray(rho0, dtype=complex)
    if not isinstance(L, Liouvillian):
        raise ValueError(f"the generator for a state of shape {rho0.shape} must come from "
                         f"build_liouvillian, not an array of shape {np.shape(L)}")
    if rho0.shape != (L.dim, L.dim):
        raise ValueError(f"state shape {rho0.shape} does not match the generator's "
                         f"window {L.dim}")
    if not math.isfinite(t):
        raise ValueError("times must be finite")
    if t < 0:
        raise ValueError("negative time")
    return rho0


def expm_evolve(L, rho0, t):
    """Propagate rho0 by exp(L t) acting on the vectorized state."""
    v = vec(_evolve_inputs(L, rho0, t))
    out = np.empty_like(v)
    for idx, block in _blocks(L):
        out[idx] = expm_dense(block * t) @ v[idx]
    return unvec(out, L.dim)


def recommended_steps(L, t):
    """Even step count that puts the RK4 global error near TARGET_ERROR.

    Per-step local error scales like (||L|| h)^5 / 120 and there are
    ||L|| t / (||L|| h) steps, so the global error is about
    (||L|| h)^4 * ||L|| t / 120; solving that for h gives the count.
    """
    x = _max_entry(L) * float(t)
    if x <= 0.0:
        return 2
    steps = int(math.ceil(x / (120.0 * TARGET_ERROR / x) ** 0.25))
    steps += steps % 2  # even: --engine rk4 outputs are pinned to these counts
    return max(steps, 2)


def rk4_evolve(L, rho0, t):
    """Propagate rho0 by classical RK4 at recommended_steps(L, t) steps."""
    rho0 = _evolve_inputs(L, rho0, t)
    if t == 0:
        return rho0.copy()
    return _rk4(L, rho0, t, recommended_steps(L, t))


def _rk4(L, rho0, t, steps):
    """`steps` RK4 steps of size t / steps on the vectorized flow.

    For d/dt v = L v one RK4 step is v -> M v with
    M = 1 + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so the steps are
    M**steps applied once, sector by sector.
    """
    v = vec(rho0)
    h = t / steps
    y = np.empty_like(v)
    for idx, block in _blocks(L):
        hL = block * h
        eye = np.eye(len(idx), dtype=complex)
        # Horner form of the degree-4 Taylor step
        m = eye + hL @ (eye + hL @ (eye / 2 + hL @ (eye / 6 + hL / 24)))
        y[idx] = np.linalg.matrix_power(m, steps) @ v[idx]
    return unvec(y, L.dim)


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


def converged_window_reference(generator, rho0, t, pad=16, check=8):
    """Exponential of the flow on a window wide enough that the cutoff is converged.

    generator(dim) must return the superoperator (superop.SuperopExpr) on a
    window of that size. The state is embedded at dim+pad and
    dim+pad+check, both are evolved by expm_evolve and cropped back to dim,
    and their difference is returned alongside the result as a
    self-convergence estimate. A small estimate certifies that widening the
    window further would not move the cropped answer; check must be at
    least 1, since a window compared with itself certifies nothing.
    """
    if check < 1:
        raise ValueError(f"check must be at least 1, not {check}")
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    results = [crop(expm_evolve(build_liouvillian(generator(big)), embed(rho0, big), t), dim)
               for big in (dim + pad, dim + pad + check)]
    conv = float(np.max(np.abs(results[0] - results[1])))
    return results[0], conv
