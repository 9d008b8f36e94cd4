"""Closed-form propagator for the damped Kerr oscillator at zero temperature.

This is the finite-temperature resummed flow (kerr_finite_t) with no
upward jumps: gamma_plus = 0, gamma0 = gamma_minus, c_gamma = 0, and it
runs as propagate_kerr_finite_t at those rates. There hinv = 1 and the
raising series drops out, leaving the textbook form: a lowering series
whose weight (1 - exp(-2 z t)) / (2 z), z = gamma_minus + i chi k, depends
only on k = n - m, then exp(t d) with d = -gamma_minus s - i chi k (s - 1)
the generator's diagonal. The series terminates after at most dim terms,
so the only error left is the truncation of the initial state.
"""

from dataclasses import dataclass

from .kerr_finite_t import KerrFiniteTParams, _check_finite, propagate_kerr_finite_t

__all__ = [
    "KerrZeroTParams",
    "propagate_kerr_zero_t",
]


@dataclass(frozen=True)
class KerrZeroTParams:
    chi: float
    gamma_minus: float

    def __post_init__(self):
        _check_finite(self)
        if self.gamma_minus < 0:
            raise ValueError("gamma_minus must be non-negative")


def propagate_kerr_zero_t(rho0, t, params):
    """Evolve rho0 for time t under the zero-temperature damped Kerr flow.

    The lowering series, then exp(t d). t is a time, or a 1-D array of
    times for a (T, dim, dim) stack of states.
    """
    return propagate_kerr_finite_t(
        rho0, t, KerrFiniteTParams(params.chi, params.gamma_minus, 0.0))
