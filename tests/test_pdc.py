import cmath
import math

import numpy as np
import pytest

from fockprop.fock import coherent_state, density_from_ket, observables
from fockprop.kerr_finite_t import LOWER, RAISE, TAYLOR_SWITCH, _shift_series
from fockprop.oracle import converged_window_reference, embed
from fockprop.pdc import (
    PAIR_LOWER,
    PAIR_RAISE,
    PDCParams,
    PDCTransform,
    propagate_pdc,
    transform_params,
    transformed_generator_residual,
)
from fockprop.superop import build_liouvillian, pdc_generator

from helpers import hermiticity_error, maxabs, min_eigenvalue, seeded_density, vacuum_density


PARAMS = PDCParams(epsilon=0.6, gamma=1.0)


def test_param_validation():
    with pytest.raises(ValueError):
        PDCParams(epsilon=0.6, gamma=-1.0)
    with pytest.raises(ValueError):
        PDCParams(epsilon=0.6, gamma=0.0)
    with pytest.raises(ValueError):
        PDCParams(epsilon=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        PDCParams(epsilon=1.5j, gamma=1.0)


def test_transform_anchor_values():
    xf = transform_params(PARAMS)
    assert abs(xf.alpha_plus - 1j / 3.0) < 1e-12
    assert abs(xf.alpha_minus - (-0.375j)) < 1e-12
    assert abs(xf.lam - 0.8) < 1e-14


def test_transform_without_drive_is_identity():
    xf = transform_params(PDCParams(epsilon=0.0, gamma=1.0))
    assert xf == PDCTransform(alpha_plus=0j, alpha_minus=0j, lam=1.0)


def test_selected_pairing_removes_the_drive():
    xf = transform_params(PARAMS)
    assert transformed_generator_residual(PARAMS, xf, dim=16, samples=5) < 1e-8


def test_wrong_sign_on_lowering_dressing_is_detected():
    xf = transform_params(PARAMS)
    bad = PDCTransform(alpha_plus=xf.alpha_plus, alpha_minus=-xf.alpha_minus, lam=xf.lam)
    assert transformed_generator_residual(PARAMS, bad, dim=12, samples=3) > 1e-3


def test_other_root_branch_is_detected():
    # the rejected branch of the quadratic: alpha_plus from the minus root
    g, eps = PARAMS.gamma, complex(PARAMS.epsilon)
    root = math.sqrt(g * g - abs(eps) ** 2)
    bad = PDCTransform(
        alpha_plus=complex((-g - root) / (1j * np.conj(eps))),
        alpha_minus=complex(1j * np.conj(eps) / (2.0 * root)),
        lam=root / g,
    )
    assert transformed_generator_residual(PARAMS, bad, dim=12, samples=3) > 1e-3


def test_residual_needs_a_wide_enough_window():
    xf = transform_params(PARAMS)
    with pytest.raises(ValueError):
        transformed_generator_residual(PARAMS, xf, dim=10)


def test_dressing_series_inverse_pair():
    dim = 10
    c = 0.4 - 0.3j
    rho = seeded_density(dim, 31)
    for read in (PAIR_RAISE, PAIR_LOWER):
        back = _shift_series(-c, _shift_series(c, rho, read), read)
        assert maxabs(back - rho) < 1e-10


def test_dressing_series_on_a_wide_window():
    # past window 171 a factorial or a factorial ratio alone overflows; the
    # series must still match its terms, evaluated here in log space, in
    # each of the four read directions
    dim, n0, m0 = 200, 180, 185
    c = 0.5 - 0.2j
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n0, m0] = 1.0
    for read in (LOWER, RAISE, PAIR_RAISE, PAIR_LOWER):
        want = np.zeros_like(rho)
        for j in range(dim):
            n, m = n0 - read[0] * j, m0 - read[1] * j
            if not (0 <= n < dim and 0 <= m < dim):
                break
            p, q = min(n, n0), min(m, m0)
            log_w = 0.5 * (math.lgamma(p + j + 1) - math.lgamma(p + 1)
                           + math.lgamma(q + j + 1) - math.lgamma(q + 1)) - math.lgamma(j + 1)
            want[n, m] = c**j * math.exp(log_w)
        assert maxabs(_shift_series(c, rho, read) - want) <= 1e-12 * maxabs(want)


def reference(params, rho0, t):
    """Wide-window integrator result and its self-convergence."""
    def build(n):
        return build_liouvillian(pdc_generator(n, params.epsilon, params.gamma))

    return converged_window_reference(build, rho0, t, pad=8, check=4)


def test_propagation_matches_wide_window_reference():
    rho0 = vacuum_density(16)
    ref, conv = reference(PARAMS, rho0, 0.25)
    assert conv < 1e-10
    assert maxabs(propagate_pdc(rho0, 0.25, PARAMS) - ref) < 1e-10


@pytest.mark.parametrize("dim", [12, 16, 20])
@pytest.mark.parametrize("ratio, t", [(0.3, 0.3), (0.8, 0.15)])
@pytest.mark.parametrize("start", ["vacuum", "coherent"])
def test_propagation_matches_untruncated_flow(dim, ratio, t, start):
    # the closed form is the untruncated flow cropped to the window, so it
    # must agree with the reference to within the reference's own
    # convergence; a same-window exponential is off by the cutoff error
    params = PDCParams(epsilon=ratio * cmath.exp(0.7j), gamma=1.0)
    if start == "vacuum":
        rho0 = vacuum_density(dim)
    else:
        rho0 = density_from_ket(coherent_state(dim, 0.4 - 0.3j)[0])
    ref, conv = reference(params, rho0, t)
    assert conv < 1e-9
    assert maxabs(propagate_pdc(rho0, t, params) - ref) <= conv + 1e-12


def moment_law_mean_n(eps, gamma, psi, t):
    """<n>(t) from the closed moment equations of the corrected flow.

    d<n>/dt = 2 gamma - 4 Im(conj(eps) <a^2>) and
    d<a^2>/dt = -i eps (4 <n> + 2), so <n> + 1/2 is a combination of
    cosh and sinh at rate 4 |eps|.
    """
    n = np.arange(psi.size)
    n0 = float(np.sum(n * np.abs(psi) ** 2))
    a2 = complex(np.sum(psi[:-2].conj() * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) * psi[2:]))
    w = 4.0 * abs(eps)
    slope = 2.0 * gamma - 4.0 * (np.conj(eps) * a2).imag
    return (n0 + 0.5) * math.cosh(w * t) + slope * math.sinh(w * t) / w - 0.5


@pytest.mark.parametrize("alpha", [0.0, 1.5 - 0.5j])
def test_moment_law_on_a_wide_window(alpha):
    # dim 100 runs on the internal window 199, past where factorials overflow
    params = PDCParams(epsilon=0.8 * cmath.exp(1.1j), gamma=1.0)
    psi = coherent_state(100, alpha)[0]
    out = propagate_pdc(density_from_ket(psi), 0.3, params)
    assert abs(observables(out)["mean_n"] - moment_law_mean_n(params.epsilon, 1.0, psi, 0.3)) < 1e-8
    assert min_eigenvalue(out) > -1e-12


@pytest.mark.parametrize("size", [1e-8, 1e-9])
def test_small_drive_is_kept(size):
    # written as (r - gamma) / (i conj(eps)), alpha_plus loses its digits to
    # cancellation at small drives and rounds to 0 at 1e-9
    eps = size * (0.6 + 0.8j)
    params = PDCParams(epsilon=eps, gamma=1.0)
    rho0 = vacuum_density(8)

    def build(n):
        return build_liouvillian(pdc_generator(n, eps, 1.0))

    ref, conv = converged_window_reference(build, rho0, 0.2, pad=14, check=4, method="expm")
    assert conv < 1e-15
    assert maxabs(propagate_pdc(rho0, 0.2, params) - ref) <= 1e-12


def test_result_does_not_depend_on_the_window():
    # the same state on windows 64 and 100 must give the same cropped
    # result: neither carries a cutoff error
    params = PDCParams(epsilon=0.8 * cmath.exp(1.1j), gamma=1.0)
    rho0 = density_from_ket(coherent_state(64, 1.5 - 0.5j)[0])
    wide = propagate_pdc(embed(rho0, 100), 0.3, params)
    assert maxabs(propagate_pdc(rho0, 0.3, params) - wide[:64, :64]) < 1e-15


def test_propagation_time_zero_and_validation():
    rho0 = seeded_density(12, 33)
    assert maxabs(propagate_pdc(rho0, 0.0, PARAMS) - rho0) < 1e-10
    with pytest.raises(ValueError):
        propagate_pdc(rho0, -0.5, PARAMS)
    with pytest.raises(ValueError):
        propagate_pdc(np.zeros((3, 4)), 0.5, PARAMS)


def test_a_stack_of_times_equals_the_scalar_calls():
    rho0 = seeded_density(12, 34)
    times = [0.0, 0.25 * TAYLOR_SWITCH, 4.0 * TAYLOR_SWITCH, 0.3, 1.7, 1500.0]
    for params in (PARAMS, PDCParams(epsilon=0.3 - 0.4j, gamma=0.7)):
        got = propagate_pdc(rho0, times, params)
        want = np.stack([propagate_pdc(rho0, t, params) for t in times])
        assert got.shape == (len(times), 12, 12)
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="negative time"):
        propagate_pdc(rho0, [0.1, -0.5, 0.2], PARAMS)


def test_propagation_accepts_precomputed_transform():
    xf = transform_params(PARAMS)
    rho0 = vacuum_density(12)
    a = propagate_pdc(rho0, 0.3, PARAMS)
    b = propagate_pdc(rho0, 0.3, PARAMS, xform=xf)
    assert maxabs(a - b) == 0.0


def test_evolved_state_stays_physical():
    rho0 = vacuum_density(20)
    out = propagate_pdc(rho0, 0.5, PDCParams(epsilon=0.3, gamma=1.0))
    assert abs(np.trace(out) - 1.0) < 1e-4
    assert hermiticity_error(out) < 1e-12
    assert min_eigenvalue(out) > -1e-10


def test_pure_heating_occupation_is_linear_in_time():
    # with the drive off the corrected flow pumps exactly two quanta per
    # unit gamma t into the mean occupation, from any starting state
    params = PDCParams(epsilon=0.0, gamma=1.0)
    out = propagate_pdc(vacuum_density(30), 0.05, params)
    assert abs(observables(out)["mean_n"] - 0.1) < 1e-6


def test_uncorrected_mode_leaks_trace():
    raw = PDCParams(epsilon=0.6, gamma=1.0, corrected_mode=False)
    out = propagate_pdc(vacuum_density(16), 0.3, raw)
    assert np.real(np.trace(out)) > 1.1
    # same drive, corrected: trace stays put up to the window tail, which
    # at this drive and window sits near 3e-5
    fixed = propagate_pdc(vacuum_density(16), 0.3, PARAMS)
    assert abs(np.trace(fixed) - 1.0) < 1e-3


def test_uncorrected_mode_diverges_in_finite_time():
    # at lam = 0.8 the uncorrected trace blows up at gamma t = 1.798
    raw = PDCParams(epsilon=0.6, gamma=1.0, corrected_mode=False)
    rho0 = vacuum_density(12)
    assert np.real(np.trace(propagate_pdc(rho0, 1.7, raw))) > 1e10
    with pytest.raises(ValueError, match="diverges"):
        propagate_pdc(rho0, 1.9, raw)
    # a list of times names its first time past the divergence, in list order
    first = r"^the uncorrected flow diverges at t = 1\.79\d*, before t = 2\.5$"
    with pytest.raises(ValueError, match=first):
        propagate_pdc(rho0, [0.5, 2.5, 1.9, 1.0], raw)
