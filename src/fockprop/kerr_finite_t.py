"""Closed-form propagator for the damped Kerr oscillator.

At finite temperature upward and downward jumps do not commute, so the
flow disentangles into an eight-factor operator product whose scalar
coefficients depend on the index difference k only. That product collapses
into a lowering series, the elementwise factor exp(t d) hinv^(s+1), with d
the generator's diagonal, and a raising series. Both series take one
weight u, which solves the Riccati flow du/dt = 1 - 2 z u + 4 gm gp u^2
with u(0) = 0, z = g0 + i chi k. The weights stay bounded on the window
and are smooth through a vanishing discriminant, so the flow is accurate
at any window size and any time. Along each diagonal k the elementwise
factor is a geometric progression in min(n, m): two exponentials per k
and time, and a table of powers built by doubling, each power at most
log2(dim) + 1 rounded products from its ratio.
The zero-temperature flow (kerr_zero_t) is this flow at gamma_plus = 0,
and the de-driven pair drive (pdc) is it at chi = 0; every series factor
here and in pdc is one kernel, _shift_series, run as Pascal passes over a
skewed window in which each read chain is a column. A zero rate skips its
series, so lossless runs cost the elementwise factor.
"""

import functools
import warnings
from dataclasses import dataclass, fields

import numpy as np

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


@functools.lru_cache(maxsize=4)
def _skew(dim, read):
    """Gather order and pass factors of the skewed window of read.

    Row z is the index the read walks along: m, or n for PAIR_LOWER, so
    that only LOWER reads row z + 1 and the others read row z - 1. Column j
    is (n - m) mod dim for LOWER and RAISE and (n + m) mod dim for the pair
    shifts, so each column holds two whole read chains. Returns the flat
    window index at each (z, j); the pass weight over c there, which is
    sqrt(p+1) sqrt(q+1) over z + 1 (up) or z (down), and 0 wherever the
    read leaves the window, so the two chains of a column stay apart; and
    whether the reads go up. The result is cached, four reads deep (pdc
    runs four reads on one window), so its arrays are read-only.
    """
    i = np.arange(dim)
    z = i[:, None]
    other = (i - z if read[0] == -read[1] else i + z) % dim
    axis = 1 if read == (1, -1) else 0
    up = read[axis] > 0
    factor = [np.sqrt(i + (r > 0)) * ((i + r >= 0) & (i + r < dim)) for r in read]
    factor[axis] = factor[axis] / np.maximum(i + up, 1)
    flat = other * dim + z if axis else z * dim + other
    factor = np.multiply.outer(*factor).take(flat)
    flat.flags.writeable = factor.flags.writeable = False
    return flat, factor, up


def _skewed(x, flat):
    """x, a (..., dim, dim) window or stack of S of them, as a (dim, S, dim) view."""
    return x.reshape(-1, flat.size)[:, flat].transpose(1, 0, 2)


def _shift_series(c, rho, read):
    """sum_j c^j / j! L^j rho R^j on the window, with L and R each a or a^dag.

    read gives the direction per axis (see LOWER and RAISE). One step of the
    series reads each element's neighbour one index along read and scales it
    by g = c sqrt(p+1) sqrt(q+1), p and q the smaller of the two indices per
    axis. The sum needs c constant along each read chain: a function of
    k = n - m for LOWER and RAISE, which preserve k, and a scalar for the
    pair shifts.

    The series runs on the skewed window of _skew, where each chain is a
    run of rows z of one column, as dim - 1 Pascal passes, each
    P[a:b] += w[a:b] * P[a+1:b+1] over whole rows (P[a-1:b-1] reading
    down). Reading up, passes a = dim-2 ... 0 cover rows a ... dim-2 with
    w = g / (z+1); reading down, passes a = 1 ... dim-1 cover rows
    a ... dim-1 with w = g / z. Summed over the passes, the term of order j
    reaches row z along C(z+j, j) (up) or C(z, j) (down) paths, which turns
    the product of the w into the product of the g over j!: the Taylor
    shift by repeated synthetic division. No factorial is formed, so large
    windows do not overflow, and the sum ends at the window edge, so it is
    exact on the window. The rows are absolute indices, so an element's
    arithmetic does not depend on the window size.

    Either argument may also be a (T, dim, dim) stack, with a weight per
    slice or a state per slice; the other is shared by every slice. Each
    slice is the series of its own weight and state, bit for bit. The
    result is C-ordered.
    """
    rho = np.asarray(rho, dtype=complex)
    c = np.asarray(c, dtype=complex)
    dim = rho.shape[-1]
    shape = np.broadcast_shapes(rho.shape, c.shape)
    flat, factor, up = _skew(dim, read)
    w = np.multiply(_skewed(c, flat) if c.ndim else c, factor[:, None, :], order="C")
    p = _skewed(rho, flat)
    p = np.array(np.broadcast_to(p, np.broadcast_shapes(p.shape, w.shape)), order="C")
    step = 1 if up else -1
    for a in range(dim - 2, -1, -1) if up else range(1, dim):
        dst = slice(a, dim - 1) if up else slice(a, dim)
        src = slice(dst.start + step, dst.stop + step)
        # not *: numpy may reuse a temporary right operand and swap the
        # operands, which moves a complex product's last bit (see README)
        p[dst] += np.multiply(w[dst], p[src])
    out = np.empty((p.shape[1], dim * dim), dtype=complex)
    out[:, flat] = p.transpose(1, 0, 2)
    return out.reshape(shape)


def _checked_state(rho0, t):
    """rho0 as a complex array and t as a float array of times.

    Rejects a non-square state, times with more than one axis, and any
    negative or non-finite time.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError("state must be a square matrix")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    if (t < 0).any():
        raise ValueError("negative time")
    return rho0, t


def _check_finite(params):
    """Refuses a parameter set with a nan or infinite field."""
    for f in fields(params):
        if not np.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite")


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
        _check_finite(self)
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


def _weights(times, dim, chi, gm, gp, g0):
    """Series weight u and log hinv on the grid of times by index differences.

    times is a (T, 1) column; the grid is (T, 2 dim - 1), column k + dim - 1
    holding k = 1 - dim ... dim - 1. With h = (1 - exp(-2 D t)) / (2 D)
    the weights read

      q = 1 + (z - D) h,  u = h / q,  log hinv = (z - D) t - log q,

    with z - D = mu / (z + D). Re D >= 0, so nothing in them grows with t.
    """
    k_line = np.arange(1 - dim, dim, dtype=float)
    z = g0 + 1j * chi * k_line
    mu = 4.0 * gm * gp
    if mu:
        root = np.sqrt(z * z - mu + 0j)
        zmd = mu / (z + root)                    # z - D; z + D = 0 needs mu = 0
    else:
        root, zmd = z, 0.0                       # D = z, so q = hinv = 1 exactly
    rt = root * times
    small = np.abs(rt) < TAYLOR_SWITCH
    h = np.where(
        small,
        # not *: see the pass loop of _shift_series
        times * (1.0 - np.multiply(rt, 1.0 - rt * (2.0 / 3.0))),
        -np.expm1(-2.0 * rt) / (2.0 * np.where(small, 1.0, root)),
    )
    q = 1.0 + zmd * h
    return h / q, zmd * times - np.log(q)


@functools.lru_cache(maxsize=4)
def _diagonals(dim):
    """Where each window element (n, m) sits on the grid of differences.

    Returns its column k + dim - 1, k = n - m, in the (T, 2 dim - 1) grid
    of _weights, and its flat index in a (dim, 2 dim - 1) table at row
    min(n, m) and that column. The result is cached, so both are read-only.
    """
    n = np.arange(dim)
    at = np.subtract.outer(n, n) + (dim - 1)
    flat = np.minimum.outer(n, n) * (2 * dim - 1) + at
    at.flags.writeable = flat.flags.writeable = False
    return at, flat


def _diagonal_factor(log_hinv, times, chi, g0, cg):
    """The elementwise factor exp(t d) hinv^(s+1) on a (T, dim, dim) stack.

    d = c_gamma - g0 s - i chi k (s - 1) is the generator's diagonal and
    log_hinv the (T, 2 dim - 1) grid of _weights at the (T, 1) times. Along
    a diagonal k = n - m the exponent is linear in s = |k| + 2 min(n, m),
    so with w = log hinv - g0 t - i chi t k the factor is head r^min(n, m):

      head = exp(log hinv + c_gamma t + i chi t k + |k| w),  r = exp(2 w).

    That is two exponentials per k and time. The powers r^z, z < dim, are
    built by doubling: rows h ... 2h - 1 are rows 0 ... h - 1 times r^h,
    and r is squared each round, so each power takes at most log2(dim) + 1
    rounded products, in an order that depends on z alone and not on the
    window. The rounding of r grows z-fold in r^z, as an exponent z times
    as large would round. An integer power of hinv, so the branch of log q
    cancels. Decay and growth meet inside w, never as 0 * inf, so long
    times stay finite.
    """
    width = log_hinv.shape[1]
    dim = (width + 1) // 2
    k_line = np.arange(1 - dim, dim, dtype=float)
    phase = 1j * times * (chi * k_line)
    w = log_hinv - g0 * times - phase
    head, r = np.exp([log_hinv + cg * times + phase + np.abs(k_line) * w, 2.0 * w])
    power = np.empty((len(times), dim, width), dtype=complex)
    power[:, 0] = head
    h = 1
    while h < dim:
        rows = min(h, dim - h)
        np.multiply(power[:, :rows], r[:, None, :], out=power[:, h:h + rows])
        r = np.multiply(r, r)
        h *= 2
    return np.take(power.reshape(len(times), dim * width), _diagonals(dim)[1], axis=1)


def _propagate_resummed(rho0, t, chi, gm, gp, g0, cg):
    """The resummed flow from raw rates, without the parameter checks.

    Returns the untruncated flow of rho0 projected onto its window: the
    lowering series reads only from above each element, where rho0 is
    zero past the window, and the raising series only from below. t is a
    time or a 1-D array of times; the result has shape t.shape + rho0.shape.

    The weights depend on k and t alone, so _weights evaluates them once on
    the grid of times by 2 dim - 1 index differences, and they are gathered
    onto a stack of windows. Between the series sits the factor
    exp(t d) hinv^(s+1) of _diagonal_factor, a geometric progression along
    each diagonal. Each raising order adds 2 to s at fixed k, so the Kerr
    phase in d commutes with the raising series.
    """
    dim = rho0.shape[0]
    at = _diagonals(dim)[0]
    times = np.asarray(t, dtype=float).reshape(-1, 1)   # one row per time
    u, log_hinv = _weights(times, dim, chi, gm, gp, g0)

    out = _shift_series(np.take(2.0 * gm * u, at, axis=1), rho0, LOWER) if gm else rho0
    factor = _diagonal_factor(log_hinv, times, chi, g0, cg)
    out = np.multiply(factor, out, out=factor)
    if gp:
        out = _shift_series(np.take(2.0 * gp * u, at, axis=1), out, RAISE)
    return out.reshape(np.shape(t) + rho0.shape)


def propagate_kerr_finite_t(rho0, t, params):
    """Evolve rho0 for time t under the finite-temperature Kerr flow.

    t is a time, or a 1-D array of times for a (T, dim, dim) stack of states.
    """
    rho0, t = _checked_state(rho0, t)
    return _propagate_resummed(rho0, t, params.chi, params.gamma_minus,
                               params.gamma_plus, params.gamma0, params.c_gamma)
