"""Parametric down conversion with pump depletion, diffusive limit.

The generator is the pair drive -i[eps a^dag^2 + conj(eps) a^2, rho] plus
the jump feeds 2 gamma a rho a^dag and 2 gamma a^dag rho a, with number
damping -d (n rho + rho n) - c rho: d = c = 2 gamma in the corrected mode,
d = gamma and c = 0 in the uncorrected one. It is quadratic in a and
a^dag, so its flow is a Gaussian channel, and the channel factorises:

  Phi_t(rho) = exp((d - c) t) / C  L exp(2 gamma kappa J+)[
                   C^-(n+m) * exp(2 gamma kappa J-)(G rho G^dag) ] L^dag

with J- rho = a rho a^dag, J+ rho = a^dag rho a, G = exp(-i conj(eps) kappa a^2)
and L = exp(-i eps kappa a^dag^2). With w = sqrt(d^2 - 4 (gamma^2 - |eps|^2)),
C = cosh(w t) + d sinh(w t) / w and kappa = sinh(w t) / (w C); the corrected
mode has w = 2 |eps|. kappa = u and C = exp(d t) / hinv are the k = 0 weights
of the Kerr resummed flow at chi = 0, g0 = d, mu = 4 (gamma^2 - |eps|^2) and
discriminant w^2; between the squeezes runs that flow's series core with
feeds 2 gamma, taking kappa and pdc's own table of trace C^-(n+m), both real.
G and the lowering series read only from above each element, where rho is
zero past the window, and the raising series and L only from below, so the
result is the untruncated flow projected onto the window, with no cutoff
error from the method. No step builds a superoperator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kerr_finite_t import _check_finite, _checked_state, _lower_factor_raise, _weights

__all__ = [
    "PDCParams",
    "propagate_pdc",
]


@dataclass(frozen=True)
class PDCParams:
    epsilon: complex
    gamma: float
    corrected_mode: bool = True

    def __post_init__(self):
        _check_finite(self)
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if abs(self.epsilon) >= self.gamma:
            raise ValueError(
                "drive at or above threshold |epsilon| >= gamma; the model "
                "is pdc below threshold, |epsilon| < gamma"
            )


def _rates(params):
    """(d, c, mu, w^2): the damping and trace rates, mu = 4 (gamma^2 - |eps|^2) and w^2.

    w^2 = d^2 - mu is formed as (d - 2 gamma)(d + 2 gamma) + 4 |eps|^2, so
    the corrected mode's w = 2 |eps| keeps its digits at small drives.
    """
    g, r = params.gamma, abs(params.epsilon)
    d, c = (2.0 * g, 2.0 * g) if params.corrected_mode else (g, 0.0)
    return d, c, 4.0 * (g - r) * (g + r), (d - 2.0 * g) * (d + 2.0 * g) + 4.0 * r * r


def _divergence_time(params):
    """The first zero of C, where the flow's trace diverges; inf if C has none.

    C vanishes only for w^2 < 0, which needs the uncorrected mode: there
    C = cos(|w| t) + d sin(|w| t) / |w|, zero first at
    (pi - atan(|w| / d)) / |w|.
    """
    d, _, _, w2 = _rates(params)
    if w2 >= 0:
        return math.inf
    w = math.sqrt(-w2)
    return (math.pi - math.atan2(w, d)) / w


def _channel_row(params, times):
    """kappa and log hinv at the 1-D times: the k = 0 row of _weights at pdc's rates, real.

    Its imaginary rounding, kept, made the uncorrected channel at w^2 < 0 15 times less accurate.
    """
    d, _, mu, w2 = _rates(params)
    u, log_hinv = _weights(times, 1, 0.0, mu, w2, d)
    return u[0].real, log_hinv[0].real


def _factor_table(params, log_hinv, times, dim):
    """trace C^-s by rows z and columns |k| < dim, s = min(2 z + |k|, 2 dim - 2), at the times.

    trace = exp(log hinv - c t), log hinv of _channel_row. Each power of 1/C
    is rounded once: built by doubling, they lose the near-threshold
    cancellation about twice as much at window 32.
    """
    d, c, _, _ = _rates(params)
    s = np.minimum(np.add.outer(2 * np.arange(dim), np.arange(dim)), 2 * dim - 2)
    powers = np.exp(log_hinv - d * times) ** np.arange(2 * dim - 1)[:, None]
    return (np.exp(log_hinv - c * times) * powers)[s]


def _squeezes(c, dim):
    """exp(c a^2) for each weight of the 1-D c, as a (T, dim, dim) upper triangular stack.

    Entry (n, n + 2j) is c^j / j! sqrt((n + 2j)! / n!), built along the even
    super-diagonals by the ratio c sqrt((n + 2j) (n + 2j - 1)) / j, so no
    factorial is formed and large windows do not overflow.
    """
    out = np.zeros((len(c), dim, dim), dtype=complex)
    n = np.arange(dim)
    line = np.ones((len(c), dim), dtype=complex)
    out[:, n, n] = line
    for j in range(1, (dim + 1) // 2):
        k = n[:dim - 2 * j]
        ratio = np.sqrt((k + 2 * j) * (k + 2 * j - 1.0)) / j
        line = line[:, :dim - 2 * j] * np.multiply.outer(c, ratio)
        out[:, k, k + 2 * j] = line
    return out


def propagate_pdc(rho0, t, params):
    """Evolve rho0 for time t under the pdc flow, as the channel of the module docstring.

    t is a time, or a 1-D array of times for a (T, dim, dim) stack of
    states. The uncorrected mode refuses times at or past the divergence
    of its trace.
    """
    rho0, t = _checked_state(rho0, t)
    t_max = _divergence_time(params)
    late = t[t >= t_max]
    if late.size:
        # past the first zero of C the closed form is an analytic
        # continuation with no meaning
        raise ValueError(
            f"the uncorrected flow diverges at t = {t_max:.6g}, before t = {late[0]:g}")
    dim = rho0.shape[0]
    times = t.reshape(-1)
    kappa, log_hinv = _channel_row(params, times)
    eps, feed = complex(params.epsilon), 2.0 * params.gamma
    g = _squeezes(-1j * eps.conjugate() * kappa, dim)
    low = _squeezes(-1j * eps * kappa, dim).swapaxes(1, 2)
    # the general layout: on the hermitian one, with the middle symmetrised or
    # with each kept entry taken as the product rounds it, the error against
    # the long-double channel (corrected mode, |eps| = 0.95, t = 0.3, seeds
    # 1-6) grew from a median 3.8e-14 to 8.7e-14 at window 32 and from
    # 3.5e-11 to 6.2e-11 at window 48, past tier-1's 5e-14 at window 32
    out = _lower_factor_raise(g @ rho0 @ g.conj().swapaxes(1, 2),
                              np.broadcast_to(kappa, (dim, len(times))),
                              _factor_table(params, log_hinv, times, dim),
                              feed, feed).reshape(-1, dim, dim)
    return (low @ out @ low.conj().swapaxes(1, 2)).reshape(t.shape + rho0.shape)
