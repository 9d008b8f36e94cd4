"""Parametric down conversion with pump depletion, diffusive limit.

The generator is a pair drive plus symmetric two-sided jump feeds. A
similarity transformation built from exponentials of the two cross-shift
superoperators (a^dag rho a^dag and a rho a) removes the drive: conjugating
the generator with exp(am * Jminus) exp(ap * Jplus) leaves a pure damping
form whose jump feeds are rescaled by lam = sqrt(1 - |eps|^2 / gamma^2).
That damping form is the finite-temperature Kerr flow at chi = 0 with
gamma_minus = gamma_plus = lam gamma, so propagation dresses the state,
runs that flow's resummed closed form, and undoes the dressing. No step
builds a matrix.

Both dressings preserve s = n + m, so a state on a window of size dim
stays on s <= 2 dim - 2 once dressed. On the window 2 dim - 1 the
closed-form flow of the dressed state is exact (its lowering series reads
only from above, where the input is zero, its raising series only from
below), and undressing an element with n, m < dim reads only that window.
The cropped result is therefore the untruncated flow projected onto the
window, with no cutoff error from the method.

The transformation coefficients solve a quadratic; which root pairs with
which factor is fixed empirically, by measuring the residual of the
transformed generator against the pure damping target and keeping the
pairing that annihilates it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kerr_finite_t import _checked_state, _propagate_resummed, _shift_series
from .superop import apply, kerr_finite_t_generator, pdc_generator, random_density

__all__ = [
    "PDCParams",
    "PDCTransform",
    "transform_params",
    "transformed_generator_residual",
    "propagate_pdc",
]

SELECTOR_TOL = 1e-8


@dataclass(frozen=True)
class PDCParams:
    epsilon: complex
    gamma: float
    corrected_mode: bool = True

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if abs(self.epsilon) >= self.gamma:
            raise ValueError(
                "drive at or above threshold |epsilon| >= gamma; the "
                "de-driving transformation does not exist there"
            )


@dataclass(frozen=True)
class PDCTransform:
    alpha_plus: complex
    alpha_minus: complex
    lam: float


# read directions of the cross shifts for _shift_series; both preserve
# s = n + m and walk along anti-diagonals
PAIR_RAISE = (-1, 1)    # a^dag^j rho a^dag^j
PAIR_LOWER = (1, -1)    # a^j rho a^j


def _dress(rho, xform):
    """X rho with X = exp(am Jminus) exp(ap Jplus)."""
    out = _shift_series(xform.alpha_plus, rho, PAIR_RAISE)
    return _shift_series(xform.alpha_minus, out, PAIR_LOWER)


def _undress(rho, xform):
    """X^-1 rho: the dressing series with negated coefficients, reversed.

    Exact on any window, since the shift superoperators are nilpotent there.
    """
    out = _shift_series(-xform.alpha_minus, rho, PAIR_LOWER)
    return _shift_series(-xform.alpha_plus, out, PAIR_RAISE)


def _candidates(params):
    """Both root pairings of the de-driving quadratic."""
    eps = complex(params.epsilon)
    g = params.gamma
    root = np.sqrt(g * g - abs(eps) ** 2 + 0j)
    lam = float(np.real(root / g))
    up = [(-g + root) / (1j * np.conj(eps)), (-g - root) / (1j * np.conj(eps))]
    down = [-1j * np.conj(eps) / (2.0 * root), 1j * np.conj(eps) / (2.0 * root)]
    return [
        PDCTransform(alpha_plus=complex(up[0]), alpha_minus=complex(down[0]), lam=lam),
        PDCTransform(alpha_plus=complex(up[1]), alpha_minus=complex(down[1]), lam=lam),
    ]


def _damping_rates(params, lam):
    """The de-driven target as finite-temperature Kerr rates.

    Returns (chi, gamma_minus, gamma_plus, gamma0, c_gamma): the drive is
    gone and both jump feeds are rescaled by lam.
    """
    g = params.gamma
    if params.corrected_mode:
        return 0.0, lam * g, lam * g, 2.0 * g, -2.0 * g
    return 0.0, lam * g, lam * g, g, 0.0


def transformed_generator_residual(params, xform, dim=12, samples=10, seed=7):
    """Max deviation of the conjugated generator from the damping target.

    Evaluates X G X^-1 rho - T rho on random densities, on the
    anti-diagonal sub-block s = n + m <= dim - 5. The conjugation walks
    along anti-diagonals and the generator reads at most two steps across
    them, so elements that far inside the window are computed from
    complete data; a rectangular sub-block would mix complete and cut-off
    anti-diagonals and report an order-one cutoff artifact instead of the
    algebraic residual.
    """
    if dim < 12:
        raise ValueError("window too small to separate algebra from cutoff, need dim >= 12")
    gen = pdc_generator(dim, params.epsilon, params.gamma, corrected=params.corrected_mode)
    target = kerr_finite_t_generator(dim, *_damping_rates(params, xform.lam))
    n = np.arange(dim)
    mask = (n[:, None] + n[None, :]) <= dim - 5
    worst = 0.0
    for i in range(samples):
        rho = random_density(dim, np.random.default_rng([seed, i]))
        resid = _dress(apply(gen, _undress(rho, xform)), xform) - apply(target, rho)
        worst = max(worst, float(np.max(np.abs(resid[mask]))))
    return worst


def transform_params(params, dim=12, samples=3, seed=101):
    """Select the root pairing that actually removes the drive.

    Tries both candidate pairings and keeps the one whose transformed
    generator matches the damping target to better than 1e-8. Raises if
    neither does (which would mean the window is corrupting the check or
    the parameters are out of domain).
    """
    if params.epsilon == 0:
        return PDCTransform(alpha_plus=0j, alpha_minus=0j, lam=1.0)
    residuals = []
    for cand in _candidates(params):
        r = transformed_generator_residual(params, cand, dim=dim, samples=samples, seed=seed)
        residuals.append(r)
        if r < SELECTOR_TOL:
            return cand
    raise ValueError(
        f"neither root pairing removes the drive: residuals {residuals[0]:.3e} "
        f"and {residuals[1]:.3e} against tolerance {SELECTOR_TOL:g}"
    )


def propagate_pdc(rho0, t, params, xform=None):
    """Evolve rho0 for time t: dress, run the damping flow, undress, crop.

    Runs on the window 2 dim - 1 (see the module docstring), so the result
    is the untruncated flow of rho0 projected onto its own window. xform
    may be passed to skip re-selecting the root pairing.
    """
    rho0 = _checked_state(rho0, t)
    if xform is None:
        xform = transform_params(params)
    if not params.corrected_mode and 2.0 * xform.lam > 1.0:
        # the uncorrected flow's trace diverges at the first zero of
        # cos(gamma r t) + sin(gamma r t) / r, r = sqrt(4 lam^2 - 1); past
        # it the closed form is an analytic continuation with no meaning
        r = math.sqrt(4.0 * xform.lam**2 - 1.0)
        t_max = (0.5 * math.pi + math.atan(1.0 / r)) / (params.gamma * r)
        if t >= t_max:
            raise ValueError(f"the uncorrected flow diverges at t = {t_max:.6g}, before t = {t:g}")
    dim = rho0.shape[0]
    wide = np.zeros((2 * dim - 1, 2 * dim - 1), dtype=complex)
    wide[:dim, :dim] = rho0

    out = _propagate_resummed(_dress(wide, xform), t, *_damping_rates(params, xform.lam))
    return _undress(out, xform)[:dim, :dim]
