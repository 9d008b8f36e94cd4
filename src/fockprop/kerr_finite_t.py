"""Closed-form propagator for the damped Kerr oscillator.

At finite temperature upward and downward jumps do not commute, so the
flow disentangles into an eight-factor operator product whose scalar
coefficients depend on the index difference k only. That product collapses
into a lowering series, the elementwise factor exp(t d) hinv^(s+1), with d
the generator's diagonal, and a raising series. Both series take one
weight u, which solves the Riccati flow du/dt = 1 - 2 z u + mu u^2 with
u(0) = 0, z = g0 + i chi k and mu = 4 gm gp. The weights stay bounded on
the window and are smooth through a vanishing discriminant, so the flow
is accurate at any window size and any time. The rates are real, so
every weight at -k is the conjugate of its value at k: the weights are
evaluated on k >= 0 only, with real transcendental functions, and
mirrored. Along each diagonal k the elementwise factor is a geometric
progression in min(n, m): two exponentials per k >= 0 and time, and a
table of powers built by doubling, each power at most log2(dim) + 1
rounded products from its ratio.
The zero-temperature flow (kerr_zero_t) is this flow at gamma_plus = 0,
and pdc's channel runs it at chi = 0 between its squeezes, with feeds
2 gamma but mu = 4 (gamma^2 - |eps|^2): u at k = 0 is its kappa and
exp(d t) / hinv its C. Both series run as the Pascal passes of _passes
over the skewed window of _skew, each read chain a column and time the
innermost axis; state, weights and factor are gathered into that one
layout once, and the result is scattered back once. A zero rate skips
its series, so lossless runs cost the elementwise factor.
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

# read directions of a series, per axis: +1 reads index n + j (a on that
# side of rho), -1 reads n - j (a^dag)
LOWER = (1, 1)      # a^j rho a^dag^j
RAISE = (-1, -1)    # a^dag^j rho a^j


@functools.lru_cache(maxsize=2)
def _skew(dim, read):
    """Gather order and pass factors of the skewed window of read, LOWER or RAISE.

    Row z is the row index n of rho and column j is (m - n) mod dim, so
    each column holds two whole read chains of one k = n - m; both reads
    share the layout. Returns the flat window index at each (z, j); the
    pass weight over c there, which is sqrt(p+1) sqrt(q+1) over z + 1
    (LOWER, reading up) or z (RAISE, reading down), p and q the smaller of
    the two indices per axis, and 0 wherever the read leaves the window, so
    the two chains of a column stay apart; and whether the reads go up.
    The result is cached, both reads deep, so its arrays are read-only.
    """
    i = np.arange(dim)
    z = i[:, None]
    flat = z * dim + (i + z) % dim
    up = read[0] > 0
    factor = [np.sqrt(i + (r > 0)) * ((i + r >= 0) & (i + r < dim)) for r in read]
    factor = np.multiply.outer(factor[0] / np.maximum(i + up, 1), factor[1]).take(flat)
    flat.flags.writeable = factor.flags.writeable = False
    return flat, factor, up


def _passes(p, w, up):
    """The series of one read, in place on a skewed (dim, dim, S) stack p; returns p.

    w is the pass weight on the same layout, or broadcast to it, and up
    whether the reads go up. The passes are P[a:b] += w[a:b] * P[a+1:b+1]
    over whole rows (P[a-1:b-1] reading down), each row one contiguous run
    of dim S entries. Reading up, passes a = dim-2 ... 0 cover rows
    a ... dim-2 with w = g / (z+1); reading down, passes a = 1 ... dim-1
    cover rows a ... dim-1 with w = g / z. Summed over the passes, the term
    of order j reaches row z along C(z+j, j) (up) or C(z, j) (down) paths,
    which turns the product of the w into the product of the g over j!: the
    Taylor shift by repeated synthetic division. No factorial is formed, so
    large windows do not overflow, and the sum ends at the window edge, so
    it is exact on the window. The rows are absolute indices, so an
    element's arithmetic does not depend on the window size.
    """
    dim = p.shape[0]
    step = 1 if up else -1
    for a in range(dim - 2, -1, -1) if up else range(1, dim):
        dst = slice(a, dim - 1) if up else slice(a, dim)
        src = slice(dst.start + step, dst.stop + step)
        # not *: numpy may reuse a temporary right operand and swap the
        # operands, which moves a complex product's last bit (see README)
        p[dst] += np.multiply(w[dst], p[src])
    return p


def _unskewed(p, flat):
    """A skewed (dim, dim, S) stack back in window order, as a C-ordered (S, dim^2) array."""
    out = np.empty((p.shape[2], flat.size), dtype=complex)
    out[:, flat] = p.transpose(2, 0, 1)
    return out


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


def _weights(times, dim, chi, mu, disc, g0):
    """Series weight u and log hinv on the grid of index differences by times.

    times is a 1-D array; the grid is (2 dim - 1, T), row k + dim - 1
    holding k = 1 - dim ... dim - 1. With z = g0 + i chi k, the root
    D = sqrt(z^2 - mu) and h = (1 - exp(-2 D t)) / (2 D) the weights read

      q = 1 + (z - D) h,  u = h / q,  log hinv = (z - D) t - log q,

    with z - D = mu / (z + D). Re D >= 0, so nothing in them grows with t.
    D^2 is disc + i chi k (2 g0 + i chi k), with the k = 0 discriminant
    disc = g0^2 - mu formed by the caller free of cancellation. The rates
    are real, so each weight at -k is the conjugate of its value at k: the
    grid is evaluated on k = 0 ... dim - 1 and mirrored. At chi = 0 the
    exact weights are real, so their imaginary rounding is dropped. The
    transcendental functions run on real parts, since numpy's complex log
    and expm1 cost several times as much: with x + iy = (z - D) h,

      log q = log1p(x (2 + x) + y^2) / 2 + i atan2(y, 1 + x),

    with log hypot(1 + x, y) for the real part where |q|^2 < 1/10, and
    exp(-2 D t) - 1 is taken by _expm1.
    """
    k_line = np.arange(dim, dtype=float)[:, None]
    z = g0 + 1j * chi * k_line
    # at mu = 0, D = z and q = hinv = 1 exactly
    root = np.sqrt(disc + 1j * chi * k_line * (2.0 * g0 + 1j * chi * k_line)) if mu else z
    rt = root * times
    small = np.abs(rt) < TAYLOR_SWITCH
    u = np.where(
        small,
        # not *: see _passes
        times * (1.0 - np.multiply(rt, 1.0 - rt * (2.0 / 3.0))),
        -_expm1(-2.0 * rt) / (2.0 * np.where(small, 1.0, root)),
    )
    log_hinv = np.zeros_like(u)
    if mu:
        zmd = mu / (z + root)                    # z - D; z + D = 0 needs mu = 0
        q = 1.0 + zmd * u
        x, y = q.real - 1.0, q.imag
        s = x * (2.0 + x) + y * y                # |q|^2 - 1
        far = s < -0.9                           # s holds few digits of a small |q|^2
        log_q = 0.5 * np.log1p(s, out=np.zeros_like(s), where=~far)
        log_q[far] = np.log(np.hypot(q.real[far], y[far]))
        log_hinv.real = zmd.real * times - log_q
        log_hinv.imag = zmd.imag * times - np.arctan2(y, q.real)
        u /= q
    if not chi:
        u, log_hinv = u.real, log_hinv.real
    return _mirrored(u), _mirrored(log_hinv)


def _expm1(x):
    """exp(x) - 1 of a complex array from real functions, as numpy's complex expm1 forms it.

    With x = a + ib it is expm1(a) cos b - 2 sin^2(b/2) + i e^a sin b.
    """
    a, b = x.real, x.imag
    half = np.sin(0.5 * b)
    out = np.empty_like(x)
    out.real = np.expm1(a) * np.cos(b) - 2.0 * half * half
    out.imag = np.exp(a) * np.sin(b)
    return out


def _mirrored(grid):
    """A (dim, T) grid on k = 0 ... dim - 1 extended to k = 1 - dim ... dim - 1 by conjugation."""
    return np.concatenate((grid[:0:-1].conj(), grid))


@functools.lru_cache(maxsize=4)
def _diagonals(dim):
    """Where each element of the skewed window of LOWER and RAISE sits on the grids.

    At each (z, j) of _skew(dim, LOWER), which RAISE shares, returns the
    element's row k + dim - 1 in the grid of _weights; its flat row
    min(n, m) dim + |k| in the (dim, dim, T) table of _power_table; and
    whether k < 0, where that table entry is to be conjugated. The result
    is cached, so the arrays are read-only.
    """
    n, m = np.divmod(_skew(dim, LOWER)[0], dim)
    at = n - m + (dim - 1)
    power = np.minimum(n, m) * dim + np.abs(n - m)
    neg = n < m
    for index in (at, power, neg):
        index.flags.writeable = False
    return at, power, neg


def _power_table(log_hinv, times, chi, g0, cg):
    """head r^z by rows z < dim and columns k = 0 ... dim - 1, as a (dim, dim, T) table.

    log_hinv is the grid of _weights at the 1-D times. With
    w = log hinv - g0 t - i chi t k, head and r are

      head = exp(log hinv + c_gamma t + i chi t k + k w),  r = exp(2 w),

    two exponentials per k >= 0 and time; at -k both are the conjugates.
    The powers are built by doubling: rows h ... 2h - 1 are rows 0 ... h - 1
    times r^h, and r is squared each round, so each power takes at most
    log2(dim) + 1 rounded products, in an order that depends on z alone
    and not on the window. A round builds its rows on k < dim - h only, so
    row z holds at least the entries k < dim - z that a window element
    reads, and the rest is left unset. Time is the innermost axis, so each
    round is one product over contiguous runs. At chi = 0, w is one real
    ratio for every k, and the real entry (z, k) is exp(log hinv + c_gamma t)
    exp(w)^(k + 2 z), each power rounded once: at window 32 pdc's
    near-threshold cancellation loses about twice as much to doubling.
    """
    dim = (log_hinv.shape[0] + 1) // 2
    log_hinv = log_hinv[dim - 1:]
    if not chi:
        s = np.minimum(np.add.outer(2 * np.arange(dim), np.arange(dim)), 2 * dim - 2)
        powers = np.exp(log_hinv[0] - g0 * times) ** np.arange(2 * dim - 1)[:, None]
        return (np.exp(log_hinv[0] + cg * times) * powers)[s]
    k = np.arange(dim, dtype=float)[:, None]
    phase = 1j * times * (chi * k)
    w = log_hinv - g0 * times - phase
    table = np.empty((dim, dim, len(times)), dtype=complex)
    head, r = np.exp([log_hinv + cg * times + phase + k * w, 2.0 * w])
    table[0] = head
    h = 1
    while h < dim:
        rows, cols = min(h, dim - h), dim - h
        np.multiply(table[:rows, :cols], r[:cols], out=table[h:h + rows, :cols])
        r = np.multiply(r, r)
        h *= 2
    return table


def _diagonal_factor(log_hinv, times, chi, g0, cg):
    """The elementwise factor exp(t d) hinv^(s+1) on the skewed (dim, dim, T) stack.

    d = c_gamma - g0 s - i chi k (s - 1) is the generator's diagonal and
    log_hinv the grid of _weights at the 1-D times. Along a diagonal
    k = n - m the exponent is linear in s = |k| + 2 min(n, m), so the
    factor is a geometric progression, head r^min(n, m): it is gathered
    from _power_table at each element's row min(n, m) and column |k|, and
    conjugated where k < 0. The rounding of r grows z-fold in r^z, as an
    exponent z times as large would round. An integer power of hinv, so the
    branch of log q cancels. Decay and growth meet inside w, never as
    0 * inf, so long times stay finite.
    """
    table = _power_table(log_hinv, times, chi, g0, cg)
    dim = len(table)
    _, power, neg = _diagonals(dim)
    factor = np.take(table.reshape(dim * dim, -1), power, axis=0)
    if chi:                                      # at chi = 0 the table is real
        np.negative(factor.imag, out=factor.imag, where=neg[:, :, None])
    return factor


def _series_weights(c, read):
    """The pass weights of LOWER or RAISE on the skewed stack, and whether they read up.

    c is the series weight on the grid of index differences by times; it
    is gathered straight into the (dim, dim, T) layout of _skew.
    """
    dim = (len(c) + 1) // 2
    _, factor, up = _skew(dim, read)
    w = np.take(c, _diagonals(dim)[0], axis=0)
    return np.multiply(w, factor[:, :, None], out=w), up


def _lower_factor_raise(rho, times, u, log_hinv, down, up, chi, g0, cg):
    """The lowering series, the factor exp(t d) hinv^(s+1) and the raising series.

    rho is one (dim, dim) state for every time or a (T, dim, dim) stack;
    u and log_hinv are the grids of _weights at the 1-D times, and the
    series weights are u times the feeds down and up, a zero feed skipping
    its series. rho, the series weights and the factor are gathered into
    the skewed (dim, dim, T) stack of _skew(dim, LOWER), which both series
    share; the result is scattered back once, as a C-ordered (T, dim^2)
    array. A raising order adds 2 to s at fixed k, so it commutes with d.
    """
    dim = rho.shape[-1]
    flat = _skew(dim, LOWER)[0]
    if rho.ndim == 2:
        p = np.array(np.broadcast_to(rho.take(flat)[:, :, None], (dim, dim, len(times))))
    else:
        p = rho.reshape(len(times), dim * dim).T[flat]
    if down:
        _passes(p, *_series_weights(down * u, LOWER))
    np.multiply(_diagonal_factor(log_hinv, times, chi, g0, cg), p, out=p)
    if up:
        _passes(p, *_series_weights(up * u, RAISE))
    return _unskewed(p, flat)


def _propagate_resummed(rho0, t, chi, gm, gp, g0, cg):
    """The resummed flow from raw rates, without the parameter checks.

    Returns the untruncated flow of rho0 projected onto its window: the
    lowering series reads only from above each element, where rho0 is
    zero past the window, and the raising series only from below. t is a
    time or a 1-D array of times; the result has shape t.shape + rho0.shape.
    The weights depend on k and t alone, so _weights evaluates them once
    on the grid of index differences by times, with mu = 4 gm gp.
    """
    times = np.asarray(t, dtype=float).reshape(-1)
    mu = 4.0 * gm * gp
    u, log_hinv = _weights(times, rho0.shape[0], chi, mu, g0 * g0 - mu, g0)
    out = _lower_factor_raise(rho0, times, u, log_hinv, 2.0 * gm, 2.0 * gp, chi, g0, cg)
    return out.reshape(np.shape(t) + rho0.shape)


def propagate_kerr_finite_t(rho0, t, params):
    """Evolve rho0 for time t under the finite-temperature Kerr flow.

    t is a time, or a 1-D array of times for a (T, dim, dim) stack of states.
    """
    rho0, t = _checked_state(rho0, t)
    return _propagate_resummed(rho0, t, params.chi, params.gamma_minus,
                               params.gamma_plus, params.gamma0, params.c_gamma)
