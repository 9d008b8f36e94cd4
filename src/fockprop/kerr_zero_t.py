"""Closed-form propagator for the damped Kerr oscillator at zero temperature.

This is the finite-temperature resummed flow (kerr_finite_t) with no
upward jumps: gamma_plus = 0, gamma0 = gamma_minus, c_gamma = 0. There the
discriminant root is z = gamma_minus + i chi k itself and the raising
series is the identity, so the flow is three factors applied right to
left: a lowering series whose weight (1 - exp(-2 z t)) / (2 z) depends
only on the index difference k = n - m, the damping envelope
exp(-gamma_minus t (n + m)) and the Kerr phase. Each factor is exact on the
window (the lowering series terminates after at most dim terms), so the
only error left is the physical truncation of the initial state.
"""

from dataclasses import dataclass

from .kerr_finite_t import _checked_state, _propagate_resummed

__all__ = [
    "KerrZeroTParams",
    "propagate_kerr_zero_t",
]


@dataclass(frozen=True)
class KerrZeroTParams:
    chi: float
    gamma_minus: float

    def __post_init__(self):
        if self.gamma_minus < 0:
            raise ValueError("gamma_minus must be non-negative")


def propagate_kerr_zero_t(rho0, t, params):
    """Evolve rho0 for time t under the zero-temperature damped Kerr flow.

    Factor order, right to left: lowering series with the accumulated decay
    weight, then the damping envelope exp(-gm t (n + m)), then the Kerr
    phase exp(-i chi t k (s - 1)). t is a time, or a 1-D array of times
    for a (T, dim, dim) stack of states.
    """
    rho0, t = _checked_state(rho0, t)
    gm = params.gamma_minus
    return _propagate_resummed(rho0, t, params.chi, gm, 0.0, gm, 0.0)
