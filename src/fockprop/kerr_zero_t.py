"""Closed-form propagator for the damped Kerr oscillator at zero temperature.

The flow factorizes into three commuting-up-to-known-phases pieces applied
right to left: a lowering-series factor whose weight depends only on the
index difference k = n - m, then two elementwise exponentials. Each factor
is evaluated exactly on the window (the lowering series terminates after at
most dim terms), so the only error left is the physical truncation of the
initial state.
"""

from dataclasses import dataclass

import numpy as np

from .superop import _ks

__all__ = [
    "KerrZeroTParams",
    "exp_diag_apply",
    "exp_fR_jminus_apply",
    "propagate_kerr_zero_t",
]

# below this |z t| the closed form (1 - exp(-2 z t)) / (2 z) loses digits
# to cancellation; switch to its series t (1 - z t + ...)
TAYLOR_SWITCH = 1e-6


@dataclass(frozen=True)
class KerrZeroTParams:
    chi: float
    gamma_minus: float

    def __post_init__(self):
        if self.gamma_minus < 0:
            raise ValueError("gamma_minus must be non-negative")


def _series_weights(c, dim):
    """Weights of a shifted-diagonal series, one shrinking block per order.

    Yields (j, w) for j = 0, 1, ... with w the top-left (dim - j) square of

      w[p, q] = c[p, q]^j / j! * sqrt((p+j)! / p!) * sqrt((q+j)! / q!)

    where c is a scalar or a dim x dim array. Each block is the previous
    one cropped and scaled by c sqrt((p+j) (q+j)) / j, so no factorial or
    factorial ratio is ever formed on its own and large windows neither
    overflow nor divide infinities. Stops once every weight underflows to
    zero: from then on every term is exactly zero.
    """
    c = np.broadcast_to(np.asarray(c, dtype=complex), (dim, dim))
    w = np.ones((dim, dim), dtype=complex)
    for j in range(dim):
        if j > 0:
            d = dim - j
            r = np.sqrt(np.arange(j, dim, dtype=float))
            w = w[:d, :d] * c[:d, :d]
            w *= r[:, None]
            w *= r[None, :] / j
            if not w.any():
                return
        yield j, w


def exp_diag_apply(f, rho):
    """Elementwise exp(f(k, s)) * rho with k = n - m, s = n + m.

    f receives integer arrays and must return the full complex exponent,
    time and rates included.
    """
    rho = np.asarray(rho, dtype=complex)
    k, s = _ks(rho.shape[0])
    return np.exp(np.asarray(f(k, s), dtype=complex)) * rho


def exp_fR_jminus_apply(g, rho, gamma_minus):
    """Exponential of the lowering feed with k-dependent weight g.

    Acts as sum_j (g(k) * 2 gamma_minus)^j / j! * a^j rho a^dag^j, i.e.

      out[n, m] = sum_j coef_j(n - m) sqrt((n+j)! / n!) sqrt((m+j)! / m!)
                  * rho[n + j, m + j]

    The weight is evaluated at the index difference of the output element;
    the feed preserves k so source and destination agree on it. The sum
    terminates at the window edge, so this is exact on the window.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    k, _ = _ks(dim)
    out = np.zeros_like(rho)
    for j, w in _series_weights(np.asarray(g(k), dtype=complex) * (2.0 * gamma_minus), dim):
        out[: dim - j, : dim - j] += w * rho[j:, j:]
    return out


def _decay_weight(k, t, chi, gamma_minus):
    """(1 - exp(-2 z t)) / (2 z) with z = gamma_minus + i chi k."""
    z = gamma_minus + 1j * chi * np.asarray(k, dtype=float)
    zt = z * t
    small = np.abs(zt) < TAYLOR_SWITCH
    safe = np.where(z == 0, 1.0, z)
    return np.where(small, t * (1.0 - zt), (1.0 - np.exp(-2.0 * zt)) / (2.0 * safe))


def propagate_kerr_zero_t(rho0, t, params):
    """Evolve rho0 for time t under the zero-temperature damped Kerr flow.

    Factor order, right to left: lowering series with the accumulated decay
    weight, then the damping envelope exp(-gm t (n + m)), then the Kerr
    phase exp(-i chi t k (s - 1)).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError("state must be a square matrix")
    if t < 0:
        raise ValueError("negative time")
    chi, gm = params.chi, params.gamma_minus

    out = exp_fR_jminus_apply(lambda k: _decay_weight(k, t, chi, gm), rho0, gm)
    out = exp_diag_apply(lambda k, s: -gm * t * s, out)
    out = exp_diag_apply(lambda k, s: -1j * chi * t * k * (s - 1.0), out)
    return out
