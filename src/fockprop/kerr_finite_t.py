"""Closed-form propagator for the damped Kerr oscillator.

At finite temperature upward and downward jumps do not commute, so the
flow disentangles into an eight-factor operator product whose scalar
coefficients depend on the index difference k only. That product collapses
into one lowering series, an elementwise envelope and one raising series,
whose combined weights solve the Riccati flow
du/dt = 1 - 2 z u + 4 gm gp u^2 with u(0) = 0, z = g0 + i chi k. The
weights stay bounded on the window and are smooth through a vanishing
discriminant, so the flow is accurate at any window size and any time.
The zero-temperature flow (kerr_zero_t) is this flow at gamma_plus = 0,
and the de-driven pair drive (pdc) is it at chi = 0; every series factor
here and in pdc is one kernel, _shift_series.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .superop import _ks

__all__ = [
    "KerrFiniteTParams",
    "propagate_kerr_finite_t",
]

# the closed form (1 - exp(-2 D t)) / (2 D) is 0 / 0 at D = 0; below this
# |D t| use its series t (1 - D t + 2/3 (D t)^2), good to (D t)^3 / 3
TAYLOR_SWITCH = 1e-6

# read directions of _shift_series, per axis: +1 reads index n + j (a on
# that side of rho), -1 reads n - j (a^dag)
LOWER = (1, 1)      # a^j rho a^dag^j
RAISE = (-1, -1)    # a^dag^j rho a^j


def _shift_series(c, rho, read):
    """sum_j c^j / j! L^j rho R^j on the window, with L and R each a or a^dag.

    read gives the direction per axis (see LOWER and RAISE). With p and q
    the smaller of the source and output index on each axis, term j is

      c[p, q]^j / j! * sqrt((p+j)! / p!) * sqrt((q+j)! / q!) * rho[source]

    where c is a scalar or a dim x dim array. LOWER and RAISE preserve
    k = n - m, so a k-dependent weight agrees at source and output. Each
    term's weight is the previous one, cropped to the block that still has
    a source, times c sqrt((p+j) (q+j)) / j, so no factorial is formed on
    its own and large windows neither overflow nor divide infinities. The
    sum terminates at the window edge, so it is exact on the window, and it
    stops once every weight underflows to zero.

    Either argument may also be a (T, dim, dim) stack, with a weight per
    slice or a state per slice; the other is shared by every slice. Each
    slice is the series of its own weight and state, bit for bit: a slice
    leaves the loop once its own weight underflows, as it would alone.
    """
    rho = np.asarray(rho, dtype=complex)
    c = np.asarray(c, dtype=complex)
    dim = rho.shape[-1]
    out = np.array(np.broadcast_to(rho, np.broadcast_shapes(rho.shape, c.shape)))  # term 0
    if not c.any():
        return out
    stack = out.reshape(-1, dim, dim)           # a view: out is a fresh array
    src = rho.reshape(-1, dim, dim)
    c = np.broadcast_to(c, (c.shape[0] if c.ndim == 3 else 1, dim, dim))
    root = np.sqrt(np.arange(dim, dtype=float))
    w = np.ones((1, 1, 1), dtype=complex)       # broadcasts to the first block
    live = slice(None)                          # slices whose weight is not all zero
    for j in range(1, dim):
        d = dim - j
        w = w[:, :d, :d] * c[:, :d, :d]
        alive = w.any(axis=(1, 2))
        if not alive.all():
            if not alive.any():
                break
            # only a per-slice weight can die alone; adding its zero terms
            # would still turn a -0.0 of that slice into 0.0
            w, c = w[alive], c[alive]
            live = np.flatnonzero(alive) if isinstance(live, slice) else live[alive]
        r = root[j:]
        w *= r[:, None]
        w *= r / j
        head, tail = slice(None, d), slice(j, None)
        out_rows, src_rows = (head, tail) if read[0] > 0 else (tail, head)
        out_cols, src_cols = (head, tail) if read[1] > 0 else (tail, head)
        src_live = live if len(src) > 1 else slice(None)
        # not w * src[...]: past 256 KiB numpy reuses a temporary right
        # operand for the result and swaps the operands, which moves the
        # last bit of a complex product, so a slice's bits would depend on
        # the stack size
        stack[live, out_rows, out_cols] += np.multiply(w, src[src_live, src_rows, src_cols])
    return out


def _checked_state(rho0, t):
    """rho0 as a complex array and t as a float array of times.

    Rejects a non-square state, times with more than one axis, and any
    negative time.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError("state must be a square matrix")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    if (t < 0).any():
        raise ValueError("negative time")
    return rho0, t


@dataclass(frozen=True)
class KerrFiniteTParams:
    """Rates for the finite-temperature Kerr flow.

    gamma0 and c_gamma default to gamma_minus + gamma_plus and
    -2 gamma_plus, the unique choice that preserves the trace. Explicit
    values are accepted (the factorization does not care) but warned
    about, since every density-matrix invariant then fails by design.
    """

    chi: float
    gamma_minus: float
    gamma_plus: float
    gamma0: float = None
    c_gamma: float = None

    def __post_init__(self):
        if self.gamma_minus < 0 or self.gamma_plus < 0:
            raise ValueError("rates must be non-negative")
        if self.gamma0 is None:
            object.__setattr__(self, "gamma0", self.gamma_minus + self.gamma_plus)
        if self.c_gamma is None:
            object.__setattr__(self, "c_gamma", -2.0 * self.gamma_plus)
        trace_preserving = (
            abs(self.gamma0 - (self.gamma_minus + self.gamma_plus)) == 0.0
            and abs(self.c_gamma - (-2.0 * self.gamma_plus)) == 0.0
        )
        if not trace_preserving:
            warnings.warn(
                "gamma0 or c_gamma off the trace-preserving convention; "
                "the flow will not conserve tr(rho)"
            )
        if self.gamma_plus > 0 and self.gamma_minus <= self.gamma_plus:
            warnings.warn(
                "gamma_plus >= gamma_minus: heating wins, no normalizable "
                "stationary state"
            )

    def nbar(self):
        """Occupation of the thermal stationary state."""
        if self.gamma_minus <= self.gamma_plus:
            raise ValueError("no stationary state when gamma_plus >= gamma_minus")
        return self.gamma_plus / (self.gamma_minus - self.gamma_plus)


def _propagate_resummed(rho0, t, chi, gm, gp, g0, cg):
    """The resummed flow from raw rates, without the parameter checks.

    Returns the untruncated flow of rho0 projected onto its window: the
    lowering series reads only from above each element, where rho0 is
    zero past the window, and the raising series only from below. t is a
    time or a 1-D array of times; the result has shape t.shape + rho0.shape.

    The weights depend on k and t alone, so they are evaluated once on the
    grid of times by 2 dim - 1 index differences and gathered onto a stack
    of windows. With h = (1 - exp(-2 D t)) / (2 D) they read

      q = 1 + (z - D) h,  u = h / q,  log hinv = (z - D) t - log q,

    with z - D = mu / (z + D). Re D >= 0, so nothing in them grows with t,
    and the envelope exp(-g0 s t) hinv^(s+1) exp(c_gamma t) is one
    exponential, so its decaying and growing parts never meet as 0 * inf.
    """
    dim = rho0.shape[0]
    k, s = _ks(dim)
    at = k + (dim - 1)                           # column of each k in the line
    k_line = np.arange(1 - dim, dim, dtype=float)
    z = g0 + 1j * chi * k_line
    mu = 4.0 * gm * gp
    if mu:
        root = np.sqrt(z * z - mu + 0j)
        zmd = mu / (z + root)                    # z - D; z + D = 0 needs mu = 0
    else:
        root, zmd = z, 0.0                       # D = z, so q = hinv = 1 exactly
    times = np.asarray(t, dtype=float).reshape(-1, 1)   # one row per time
    rt = root * times
    small = np.abs(rt) < TAYLOR_SWITCH
    h = np.where(
        small,
        times * (1.0 - np.multiply(rt, 1.0 - rt * (2.0 / 3.0))),   # not *: see _shift_series
        -np.expm1(-2.0 * rt) / (2.0 * np.where(small, 1.0, root)),
    )
    q = 1.0 + zmd * h
    u = h / q                                    # accumulated lowering weight
    b = np.exp(2j * chi * k_line * times) * u    # raising weight, rotated frame
    log_hinv = zmd * times - np.log(q)           # envelope base, power s+1 below

    out = _shift_series((2.0 * gm * u)[:, at], rho0, LOWER)
    times = times[:, :, None]
    # integer power of hinv, so the branch of log q cancels
    out *= np.exp((s + 1) * log_hinv[:, at] - (g0 * times) * s + cg * times)
    out = _shift_series((2.0 * gp * b)[:, at], out, RAISE)
    out = np.exp(-1j * chi * times * k * (s - 1.0)) * out
    return out.reshape(np.shape(t) + rho0.shape)


def propagate_kerr_finite_t(rho0, t, params):
    """Evolve rho0 for time t under the finite-temperature Kerr flow.

    t is a time, or a 1-D array of times for a (T, dim, dim) stack of states.
    """
    rho0, t = _checked_state(rho0, t)
    return _propagate_resummed(rho0, t, params.chi, params.gamma_minus,
                               params.gamma_plus, params.gamma0, params.c_gamma)
