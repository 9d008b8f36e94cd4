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

The transformation coefficients solve a quadratic. The principal root is
the one whose dressing goes to the identity as eps -> 0; it is taken in
closed form, and verify checks it against the damping target.
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


def transform_params(params):
    """The de-driving coefficients on the principal root of the quadratic.

    With r = sqrt(gamma^2 - |eps|^2): ap = i eps / (gamma + r),
    am = -i conj(eps) / (2 r) and lam = r / gamma. This ap is
    (r - gamma) / (i conj(eps)) with the cancellation taken out, so it
    stays accurate for small drives and is exactly 0 at eps = 0.
    """
    eps = complex(params.epsilon)
    g = params.gamma
    r = math.sqrt(g * g - abs(eps) ** 2)
    return PDCTransform(
        alpha_plus=1j * eps / (g + r),
        alpha_minus=-1j * eps.conjugate() / (2.0 * r),
        lam=r / g,
    )


def propagate_pdc(rho0, t, params, xform=None):
    """Evolve rho0 for time t: dress, run the damping flow, undress, crop.

    Runs on the window 2 dim - 1 (see the module docstring), so the result
    is the untruncated flow of rho0 projected onto its own window. t is a
    time, or a 1-D array of times for a (T, dim, dim) stack of states: the
    state is dressed once and the stack undressed together. xform replaces
    the transformation from transform_params, so that a check can plant a
    wrong one.
    """
    rho0, t = _checked_state(rho0, t)
    if xform is None:
        xform = transform_params(params)
    if not params.corrected_mode and 2.0 * xform.lam > 1.0:
        # the uncorrected flow's trace diverges at the first zero of
        # cos(gamma r t) + sin(gamma r t) / r, r = sqrt(4 lam^2 - 1); past
        # it the closed form is an analytic continuation with no meaning
        r = math.sqrt(4.0 * xform.lam**2 - 1.0)
        t_max = (0.5 * math.pi + math.atan(1.0 / r)) / (params.gamma * r)
        late = t[t >= t_max]
        if late.size:
            raise ValueError(
                f"the uncorrected flow diverges at t = {t_max:.6g}, before t = {late[0]:g}")
    dim = rho0.shape[0]
    wide = np.zeros((2 * dim - 1, 2 * dim - 1), dtype=complex)
    wide[:dim, :dim] = rho0

    out = _propagate_resummed(_dress(wide, xform), t, *_damping_rates(params, xform.lam))
    return _undress(out, xform)[..., :dim, :dim]
