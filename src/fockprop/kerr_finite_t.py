"""Closed-form propagator for the damped Kerr oscillator at finite temperature.

Upward and downward jumps no longer commute, so the flow disentangles into
an eight-factor operator product whose scalar coefficients depend on the
index difference k through four rational functions of z = g0 + i chi k and
the discriminant root D = sqrt(z^2 - 4 gm gp).

Two evaluation paths are provided:

  "resummed" (default): the product collapsed to lowering series, then an
  elementwise envelope, then a raising series. The combined weights solve
  the Riccati flow du/dt = 1 - 2 z u + 4 gm gp u^2 with u(0) = 0 and stay
  bounded on the window, so this path is accurate at any window size.

  "literal": the eight factors exactly as written, one exponential at a
  time. The two inner inverse-pair factors amplify the top of the window
  by roughly 2^dim before cancelling, so beyond dim of about 12 this path
  loses most of its precision on full-support states. It is kept because
  factor-by-factor auditing against matrix exponentials needs it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .kerr_zero_t import (
    TAYLOR_SWITCH,
    KerrZeroTParams,
    exp_diag_apply,
    exp_fR_jminus_apply,
    propagate_kerr_zero_t,
    _series_weights,
)
from .superop import _ks

__all__ = [
    "KerrFiniteTParams",
    "RFunctions",
    "r_functions",
    "exp_gR_jplus_apply",
    "propagate_kerr_finite_t",
]


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


@dataclass(frozen=True)
class RFunctions:
    beta: complex
    alpha: complex
    bigF: complex
    delta: complex


def _r_arrays(params, k):
    """The four factor coefficients, vectorized over index difference k.

    beta solves 4 gm gp beta^2 - 2 z beta + 1 = 0 on the branch that stays
    finite as gamma_plus -> 0 (the root 1 / (z + D)); the other three are
    rational in beta:

      bigF  = 4 gm gp beta = z - D
      alpha = (g0 - bigF) / g0, so that g0 alpha + i chi k = D
      delta = -1 / (2 (g0 alpha + i chi k)) = -1 / (2 D)

    A vanishing discriminant makes delta blow up. Those k are detected,
    reported, and nudged off the degeneracy by one part in 1e10 (through
    the k coefficient where possible; at k = 0 that coefficient is inert,
    so g0 is nudged instead). The resummed propagator never calls this:
    its weights are smooth through D = 0.
    """
    k = np.asarray(k, dtype=float)
    chi, g0 = params.chi, params.gamma0
    mu = 4.0 * params.gamma_minus * params.gamma_plus
    if g0 == 0:
        raise ValueError("factor coefficients need gamma0 != 0")
    z = g0 + 1j * chi * k
    disc = z * z - mu
    degen = np.abs(disc) < 1e-12 * np.maximum(np.abs(z) ** 2, max(mu, 1.0))
    if np.any(degen):
        bad = np.unique(k[degen]).astype(int)
        warnings.warn(
            f"degenerate discriminant at k = {bad.tolist()}; nudging off the "
            "degeneracy by 1e-10 (relative); prefer method='resummed' near "
            "this point"
        )
        k_eff = np.where(degen & (k != 0), k * (1.0 + 1e-10), k)
        g0_eff = np.where(degen & (k == 0), g0 * (1.0 + 1e-10), g0)
        z = g0_eff + 1j * chi * k_eff
        disc = z * z - mu
    root = np.sqrt(disc + 0j)
    beta = 1.0 / (z + root)
    big_f = mu * beta
    alpha = (g0 - big_f) / g0
    delta = -1.0 / (2.0 * root)
    return beta, alpha, big_f, delta


def r_functions(params, k):
    """Factor coefficients at a single integer index difference."""
    beta, alpha, big_f, delta = _r_arrays(params, np.array([k]))
    return RFunctions(
        beta=complex(beta[0]), alpha=complex(alpha[0]),
        bigF=complex(big_f[0]), delta=complex(delta[0]),
    )


def exp_gR_jplus_apply(g, rho, gamma_plus):
    """Exponential of the raising feed with k-dependent weight g.

    Acts as sum_j (g(k) * 2 gamma_plus)^j / j! * a^dag^j rho a^j:

      out[n, m] = sum_j coef_j(n - m) sqrt(n! / (n-j)!) sqrt(m! / (m-j)!)
                  * rho[n - j, m - j]

    Mirror of the lowering series; also exact on the window.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    k, _ = _ks(dim)
    # w is indexed by the source element; the shift preserves k, so its
    # weight equals the destination's
    out = np.zeros_like(rho)
    for j, w in _series_weights(np.asarray(g(k), dtype=complex) * (2.0 * gamma_plus), dim):
        out[j:, j:] += w * rho[: dim - j, : dim - j]
    return out


def _propagate_resummed(rho0, t, chi, gm, gp, g0, cg):
    """The resummed flow from raw rates, without the parameter checks.

    Returns the untruncated flow of rho0 projected onto its window: the
    lowering series reads only from above each element, where rho0 is
    zero past the window, and the raising series only from below.
    """
    dim = rho0.shape[0]
    k_grid, s_grid = _ks(dim)
    z = g0 + 1j * chi * k_grid.astype(float)
    mu = 4.0 * gm * gp
    root = np.sqrt(z * z - mu + 0j)
    rt = root * t
    small = np.abs(rt) < TAYLOR_SWITCH
    # sinh(Dt)/D, series branch where Dt underflows the closed form
    sh_over = np.where(
        small,
        t * (1.0 + rt * rt / 6.0),
        np.sinh(rt) / np.where(root == 0, 1.0, root),
    )
    lam = z * sh_over + np.cosh(rt)
    u = sh_over / lam                            # accumulated lowering weight
    b = np.exp(2j * chi * k_grid * t) * u        # raising weight, rotated frame
    hinv = np.exp(z * t) / lam                   # envelope base, power s+1 below

    out = exp_fR_jminus_apply(lambda k: u, rho0, gm)
    # integer power of hinv, so any log-branch ambiguity cancels exactly
    out = out * (np.exp(-g0 * s_grid * t) * hinv ** (s_grid + 1.0))
    out = exp_gR_jplus_apply(lambda k: b, out, gp)
    out = exp_diag_apply(lambda k, s: -1j * chi * t * k * (s - 1.0), out)
    return out * np.exp(cg * t)


def _propagate_literal(rho0, t, p):
    dim = rho0.shape[0]
    k_grid, _ = _ks(dim)
    beta, alpha, big_f, delta = _r_arrays(p, k_grid)
    chi = p.chi

    # right to left; the first two factors undo the raising and lowering
    # dressings at time zero, which is what makes t = 0 the identity
    out = exp_gR_jplus_apply(lambda k: -beta, rho0, p.gamma_plus)
    out = exp_fR_jminus_apply(lambda k: -delta, out, p.gamma_minus)
    out = exp_diag_apply(lambda k, s: -p.gamma0 * alpha * s * t, out)
    out = exp_fR_jminus_apply(lambda k: delta * np.exp(-2j * chi * k_grid * t), out, p.gamma_minus)
    out = exp_diag_apply(lambda k, s: big_f * t * np.ones_like(s, dtype=complex), out)
    out = exp_gR_jplus_apply(lambda k: beta * np.exp(2j * chi * k_grid * t), out, p.gamma_plus)
    out = exp_diag_apply(lambda k, s: -1j * chi * t * k * (s - 1.0), out)
    return out * np.exp(p.c_gamma * t)


def propagate_kerr_finite_t(rho0, t, params, method="resummed"):
    """Evolve rho0 for time t under the finite-temperature Kerr flow.

    method "resummed" is the production path; "literal" evaluates the
    eight written factors in order and is only trustworthy on small
    windows (see the module docstring).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError("state must be a square matrix")
    if t < 0:
        raise ValueError("negative time")
    if params.gamma_plus == 0 and params.gamma0 == params.gamma_minus and params.c_gamma == 0:
        zero_t = KerrZeroTParams(chi=params.chi, gamma_minus=params.gamma_minus)
        return propagate_kerr_zero_t(rho0, t, zero_t)
    if method == "resummed":
        return _propagate_resummed(rho0, t, params.chi, params.gamma_minus,
                                   params.gamma_plus, params.gamma0, params.c_gamma)
    if method == "literal":
        return _propagate_literal(rho0, t, params)
    raise ValueError(f"unknown method {method!r}")
