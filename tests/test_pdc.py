import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from fockprop.fock import coherent_state, density_from_ket, observables
from fockprop.kerr_finite_t import KerrFiniteTParams, propagate_kerr_finite_t
from fockprop.oracle import converged_window_reference, embed
from fockprop.pdc import PDCParams, _channel_row, _divergence_time, _rates, propagate_pdc
from fockprop.superop import pdc_generator

from helpers import hermiticity_error, maxabs, min_eigenvalue, seeded_density, vacuum_density


PARAMS = PDCParams(epsilon=0.6, gamma=1.0)

# the drive of the accuracy table in README: |eps| / gamma = 0.8
EPS_08 = 0.5 + 0.6245j


def test_param_validation():
    with pytest.raises(ValueError):
        PDCParams(epsilon=0.6, gamma=-1.0)
    with pytest.raises(ValueError):
        PDCParams(epsilon=0.6, gamma=0.0)
    # the bound is the model's domain, not a stationary state: the corrected
    # mode has none at any drive
    with pytest.raises(ValueError, match="below threshold, [|]epsilon[|] < gamma"):
        PDCParams(epsilon=1.0, gamma=1.0)
    with pytest.raises(ValueError, match="below threshold"):
        PDCParams(epsilon=1.5j, gamma=1.0)


def channel_row(params, times):
    """kappa and 1/C from pdc's row of the Kerr flow's k = 0 weights."""
    times = np.asarray(times, dtype=float)
    kappa, log_hinv = _channel_row(params, times)
    return kappa, np.exp(log_hinv - _rates(params)[0] * times)


def test_channel_anchor_values():
    # corrected mode at eps = 0.6, gamma = 1: w = 2 |eps| = 1.2, and at
    # t = ln(2) / w cosh(w t) = 5/4, sinh(w t) = 3/4, so C = 5/4 + 2 (3/4) / 1.2
    # = 5/2 and kappa = sinh(w t) / (w C) = 1/4; the trace factor is 1/C
    kappa, inv_c = channel_row(PARAMS, [math.log(2.0) / 1.2])
    assert abs(kappa[0] - 0.25) < 1e-15
    assert abs(inv_c[0] - 0.4) < 1e-15
    # without a drive w = 0: C = 1 + 2 gamma t and kappa = t / C
    times = np.array([0.0, 0.3, 7.0])
    kappa, inv_c = channel_row(PDCParams(epsilon=0.0, gamma=1.0), times)
    assert maxabs(kappa - times / (1.0 + 2.0 * times)) < 1e-15
    assert maxabs(inv_c - 1.0 / (1.0 + 2.0 * times)) < 1e-15


def closed_row(params, t, shift=0.0):
    """kappa, log C and |q| at time t from the closed cosh/sinh forms, in mpmath at 40 digits.

    w^2 = d^2 - 4 (gamma^2 - |eps|^2) is formed exactly, then moved by
    shift; q = exp(-w t) C is the flow's q = 1 + (z - D) h at k = 0.
    """
    with mpmath.workdps(40):
        g, r = mpmath.mpf(params.gamma), abs(mpmath.mpc(params.epsilon))
        d = 2 * g if params.corrected_mode else g
        w = mpmath.sqrt(mpmath.mpc(d * d - 4 * (g * g - r * r) + shift))
        t = mpmath.mpf(t)
        shw = t if w == 0 else mpmath.sinh(w * t) / w      # sinh(w t) / w
        c = mpmath.cosh(w * t) + d * shw
        return (float(mpmath.re(shw / c)), float(mpmath.re(mpmath.log(c))),
                float(abs(mpmath.exp(-w * t) * c)))


@pytest.mark.parametrize("params", [
    PARAMS,
    PDCParams(epsilon=EPS_08, gamma=1.0),
    PDCParams(epsilon=1e-9 * cmath.exp(0.7j), gamma=1.0),
    PDCParams(epsilon=0.5, gamma=1.0, corrected_mode=False),                   # w^2 < 0
    PDCParams(epsilon=0.5 * math.sqrt(3.0), gamma=1.0, corrected_mode=False),  # w^2 = 0
    PDCParams(epsilon=0.95 * cmath.exp(0.7j), gamma=1.0, corrected_mode=False),
], ids=["corrected", "corrected-0.8", "drive-1e-9", "uncorrected-w2<0", "uncorrected-w2=0",
        "uncorrected-w2>0"])
def test_the_zero_difference_row_is_the_closed_channel(params):
    # the flow's k = 0 row holds kappa = u and C = exp(d t) / hinv; pdc
    # keeps the row real, as the exact one is. The channel
    # keeps exp((d - c) t) / C of the vacuum in the vacuum. Near the
    # uncorrected divergence C falls: to 0.01 at t = 1.54 for |eps| = 0.5,
    # and to 3e-10 at 1e-10 of the time before it, where |q|^2 - 1 rounds to -1
    times = np.array([0.0, 1e-7, 0.3, 1.0, 1.54, 30.0, 1e3, 1e4])
    t_max = _divergence_time(params)
    if t_max < times[-1]:
        times = np.sort(np.append(times[times < t_max], t_max * (1.0 - 1e-10)))
    d, c, _, _ = _rates(params)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        u, log_hinv = _channel_row(params, times)
        # past exp(700) the uncorrected trace overflows; the vacuum's share
        # underflows past exp(-700) and is not compared there
        kept = times[(d - c) * times < 700.0]
        vacuum = propagate_pdc(vacuum_density(4), kept, params)[:, 0, 0]
    assert not np.iscomplexobj(u) and not np.iscomplexobj(log_hinv)
    assert u.shape == log_hinv.shape == times.shape
    # w^2 is good to the rounding of its cancellation-free terms
    # (d - 2 gamma)(d + 2 gamma) and 4 |eps|^2, which long times feel near w^2 = 0
    terms = 4.0 * params.gamma**2 - d * d + 4.0 * abs(params.epsilon)**2
    shift = 2.0 * np.finfo(float).eps * terms
    for i, t in enumerate(times):
        kappa, log_c, q = closed_row(params, t)
        kappa_moved, log_c_moved, _ = closed_row(params, t, shift)
        # q is rounded to a few units of 1, so its relative error grows as 1 / |q|
        rounding = 4.4e-16 * max(1.0, 2.0 / q)
        assert abs(u[i] - kappa) <= rounding * kappa + abs(kappa_moved - kappa)
        slack = rounding * max(1.0, d * t) + abs(log_c_moved - log_c)
        assert abs(d * t - log_c - log_hinv[i]) <= slack
        log_vacuum = (d - c) * t - log_c
        if i < len(kept) and log_vacuum > -700.0:
            assert vacuum[i].imag == 0.0
            assert abs(math.log(vacuum[i].real) - log_vacuum) <= 2.0 * slack


def test_undriven_channel_is_the_kerr_flow_at_chi_zero():
    # at eps = 0 the generator is the finite-temperature Kerr generator with
    # chi = 0, equal feeds gamma and the rates g0 = 2 gamma, c_gamma = -2 gamma
    rho0 = seeded_density(12, 35)
    times = [0.0, 0.3, 2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # equal feeds: no stationary state
        kerr = KerrFiniteTParams(chi=0.0, gamma_minus=0.7, gamma_plus=0.7)
    want = propagate_kerr_finite_t(rho0, times, kerr)
    assert maxabs(propagate_pdc(rho0, times, PDCParams(epsilon=0.0, gamma=0.7)) - want) < 1e-14


def reference(params, rho0, t):
    """Wide-window exponential result and its self-convergence."""
    return converged_window_reference(
        lambda n: pdc_generator(n, params.epsilon, params.gamma), rho0, t)


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
    # at dim 100 a factorial or a factorial ratio alone would overflow
    params = PDCParams(epsilon=0.8 * cmath.exp(1.1j), gamma=1.0)
    psi = coherent_state(100, alpha)[0]
    out = propagate_pdc(density_from_ket(psi), 0.3, params)
    assert abs(observables(out)["mean_n"] - moment_law_mean_n(params.epsilon, 1.0, psi, 0.3)) < 1e-8
    assert min_eigenvalue(out) > -1e-12


@pytest.mark.parametrize("size", [1e-8, 1e-9])
def test_small_drive_is_kept(size):
    # w = 2 |eps| is as small as the drive, so (1 - exp(-2 w t)) / w must
    # keep its digits there
    eps = size * (0.6 + 0.8j)
    params = PDCParams(epsilon=eps, gamma=1.0)
    rho0 = vacuum_density(8)

    ref, conv = converged_window_reference(
        lambda n: pdc_generator(n, eps, 1.0), rho0, 0.2)
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
    times = [0.0, 2.5e-7, 4e-6, 0.3, 1.7, 1500.0]
    for params in (PARAMS, PDCParams(epsilon=0.3 - 0.4j, gamma=0.7)):
        got = propagate_pdc(rho0, times, params)
        want = np.stack([propagate_pdc(rho0, t, params) for t in times])
        assert got.shape == (len(times), 12, 12)
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="negative time"):
        propagate_pdc(rho0, [0.1, -0.5, 0.2], PARAMS)


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
    # at eps = 0.6 the uncorrected trace blows up at gamma t = 1.798
    raw = PDCParams(epsilon=0.6, gamma=1.0, corrected_mode=False)
    rho0 = vacuum_density(12)
    assert np.real(np.trace(propagate_pdc(rho0, 1.7, raw))) > 1e10
    with pytest.raises(ValueError, match="diverges"):
        propagate_pdc(rho0, 1.9, raw)
    # a list of times names its first time past the divergence, in list order
    first = r"^the uncorrected flow diverges at t = 1\.79\d*, before t = 2\.5$"
    with pytest.raises(ValueError, match=first):
        propagate_pdc(rho0, [0.5, 2.5, 1.9, 1.0], raw)


@pytest.mark.parametrize("dim", [12, 16, 20, 24])
def test_window_map_is_completely_positive(dim):
    # the untruncated channel cropped to the window is a compression of a
    # completely positive map, so its Choi matrix has no negative eigenvalue
    params = PDCParams(epsilon=EPS_08, gamma=1.0)
    phi = np.empty((dim, dim, dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            phi[i, j] = propagate_pdc(unit, 0.05, params)
    choi = phi.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    assert hermiticity_error(choi) < 1e-15
    assert np.linalg.eigvalsh(choi).min() >= -1e-12


@pytest.mark.parametrize("dim", [12, 16, 20, 24])
def test_states_near_threshold_match_the_reference(dim):
    # a random full-support state and coherent alpha = 2 at |eps| / gamma = 0.8
    params = PDCParams(epsilon=EPS_08, gamma=1.0)
    for rho0 in (seeded_density(dim, 1), density_from_ket(coherent_state(dim, 2.0)[0])):
        ref, conv = converged_window_reference(
            lambda n: pdc_generator(n, EPS_08, 1.0), rho0, 0.05)
        assert conv < 1e-15
        assert maxabs(propagate_pdc(rho0, 0.05, params) - ref) < 1e-12


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.6, 0.85])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
def test_uncorrected_divergence_time(ratio, gamma):
    # the first zero of C against the closed form in lam = sqrt(1 - |eps|^2 / gamma^2):
    # (pi / 2 + atan(1 / r)) / (gamma r) with r = sqrt(4 lam^2 - 1), where 2 lam > 1
    eps = ratio * gamma * cmath.exp(0.4j)
    raw = PDCParams(epsilon=eps, gamma=gamma, corrected_mode=False)
    lam = math.sqrt(1.0 - ratio**2)
    if 2.0 * lam > 1.0:
        r = math.sqrt(4.0 * lam**2 - 1.0)
        t_max = (0.5 * math.pi + math.atan(1.0 / r)) / (gamma * r)
        assert abs(_divergence_time(raw) - t_max) <= 1e-12 * t_max
    else:
        assert _divergence_time(raw) == math.inf
    assert _divergence_time(PDCParams(epsilon=eps, gamma=gamma)) == math.inf


@pytest.mark.parametrize("t", [1e3, 1e4])
def test_long_times_stay_finite(t):
    # C grows as exp(w t), past the float range at w t ~ 710; the channel is
    # written over exp(-w t), so nothing overflows. The uncorrected flow's
    # trace itself grows without bound, so it is left out
    rho0 = seeded_density(12, 36)
    with np.errstate(over="raise", invalid="raise", divide="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in (PDCParams(epsilon=EPS_08, gamma=1.0), PDCParams(epsilon=0.0, gamma=1.0)):
            out = propagate_pdc(rho0, t, params)
            assert np.isfinite(out).all()


def longdouble_channel(rho0, t, eps, gamma, corrected):
    """The channel of the pdc module docstring in np.clongdouble, with plain matrix products.

    kappa and C come from the closed cosh/sinh forms. Every exponential is
    its Taylor series, which terminates on the window.
    """
    dim = len(rho0)
    g, t, eps = np.longdouble(gamma), np.longdouble(t), np.clongdouble(eps)
    d, c = (2 * g, 2 * g) if corrected else (g, 0)
    w = np.sqrt(np.clongdouble(d * d - 4 * (g * g - abs(eps) ** 2)))
    C = (np.cosh(w * t) + d * np.sinh(w * t) / w).real
    kappa = (np.sinh(w * t) / (w * C)).real
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=np.longdouble)), 1).astype(np.clongdouble)

    def series(x, left, rho, right):
        # sum_j x^j / j! left^j rho right^j
        out = term = rho
        for j in range(1, dim):
            term = (x / j) * (left @ term @ right)
            out = out + term
        return out

    one = np.eye(dim, dtype=np.clongdouble)
    G = series(-1j * eps.conjugate() * kappa, a @ a, one, one)
    L = series(-1j * eps * kappa, a.T @ a.T, one, one)
    s = np.add.outer(np.arange(dim), np.arange(dim))
    mid = series(2 * g * kappa, a, G @ rho0 @ G.conj().T, a.T) / C ** s
    return np.exp((d - c) * t) / C * (L @ series(2 * g * kappa, a.T, mid, a) @ L.conj().T)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("dim", [16, 24, 32])
@pytest.mark.parametrize("corrected", [True, False], ids=["corrected", "uncorrected"])
def test_channel_matches_the_factorisation_in_long_double(dim, corrected):
    # full-support states lose digits to cancellation inside the
    # factorisation (README's pdc accuracy table), most in the uncorrected
    # mode, whose outputs grow as exp(d t) / C; the error is held to a
    # share of max(1, the output's largest entry). At window 32 and
    # |eps| = 0.95 the corrected mode reads 2.6e-14 to 4.4e-14 over seeds
    # 1-6, and 6.1e-14 to 8.6e-14 with C^-(n+m) built by doubling
    rho0 = seeded_density(dim, 1)
    for r, t in [(0.5, 0.3), (0.5, 1.0), (0.8, 0.3), (0.8, 1.0), (0.95, 0.3)]:
        params = PDCParams(epsilon=r * cmath.exp(0.7j), gamma=1.0, corrected_mode=corrected)
        assert t < _divergence_time(params)
        want = longdouble_channel(rho0, t, params.epsilon, 1.0, corrected)
        tol = 5e-14 if corrected else 5e-12 if r == 0.5 else 5e-11
        err = np.abs(propagate_pdc(rho0, t, params) - want).max()
        assert err <= tol * max(1.0, np.abs(want).max()), (r, t)
