import math

import numpy as np
import pytest

from fockprop.fock import annihilation, coherent_state, creation, density_from_ket, observables
from fockprop.kerr_finite_t import (
    LOWER,
    RAISE,
    TAYLOR_SWITCH,
    KerrFiniteTParams,
    _shift_series,
    propagate_kerr_finite_t,
)
from fockprop.kerr_zero_t import KerrZeroTParams, propagate_kerr_zero_t
from fockprop.oracle import crop, embed, expm_evolve
from fockprop.pdc import PAIR_LOWER, PAIR_RAISE
from fockprop.superop import build_liouvillian, kerr_finite_t_generator, raising_sandwich

from helpers import hermiticity_error, maxabs, min_eigenvalue, seeded_density


PARAMS = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.05)


def test_trace_preserving_defaults():
    assert PARAMS.gamma0 == PARAMS.gamma_minus + PARAMS.gamma_plus
    assert PARAMS.c_gamma == -2.0 * PARAMS.gamma_plus


def test_off_convention_warns():
    with pytest.warns(UserWarning, match="trace-preserving"):
        KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.05, gamma0=0.2)
    with pytest.warns(UserWarning, match="trace-preserving"):
        KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.05, c_gamma=0.0)


def test_heating_warns():
    with pytest.warns(UserWarning, match="heating"):
        KerrFiniteTParams(chi=1.0, gamma_minus=0.05, gamma_plus=0.1)


def test_rate_validation_and_nbar():
    with pytest.raises(ValueError):
        KerrFiniteTParams(chi=1.0, gamma_minus=-0.1, gamma_plus=0.05)
    with pytest.raises(ValueError):
        KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=-0.05)
    assert PARAMS.nbar() == 1.0
    with pytest.warns(UserWarning):
        hot = KerrFiniteTParams(chi=1.0, gamma_minus=0.05, gamma_plus=0.1)
    with pytest.raises(ValueError):
        hot.nbar()


def test_cold_limit_dispatches_to_zero_temperature():
    params = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.0)
    rho0 = seeded_density(12, 18)
    got = propagate_kerr_finite_t(rho0, 0.8, params)
    ref = propagate_kerr_zero_t(rho0, 0.8, KerrZeroTParams(chi=1.0, gamma_minus=0.1))
    assert maxabs(got - ref) == 0.0


def test_continuity_in_the_cold_limit():
    dim = 15
    ket, _ = coherent_state(dim, 1.5)
    rho0 = density_from_ket(ket)
    warm = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=1e-8)
    got = propagate_kerr_finite_t(rho0, 1.0, warm)
    ref = propagate_kerr_zero_t(rho0, 1.0, KerrZeroTParams(chi=1.0, gamma_minus=0.1))
    assert maxabs(got - ref) < 1e-6


def test_resummed_matches_wide_window_exponential():
    # evolve the same small state on a much wider window with both the
    # closed form and the dense exponential; at that width the upward
    # leakage past the edge is far below the tolerance
    dim, wide = 10, 24
    L = build_liouvillian(kerr_finite_t_generator(
        wide, PARAMS.chi, PARAMS.gamma_minus, PARAMS.gamma_plus,
        PARAMS.gamma0, PARAMS.c_gamma,
    ))
    for i in range(2):
        big = embed(seeded_density(dim, 19, i), wide)
        got = propagate_kerr_finite_t(big, 0.5, PARAMS)
        ref = expm_evolve(L, big, 0.5)
        assert maxabs(crop(got, dim) - crop(ref, dim)) < 1e-9


def test_resummed_at_a_vanishing_discriminant():
    # gamma_minus = gamma_plus puts D = 0 exactly at k = 0, where the
    # weights take their series branch; the wide-window exponential checks it
    with pytest.warns(UserWarning, match="heating"):
        params = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.1)
    dim, wide = 10, 24
    L = build_liouvillian(kerr_finite_t_generator(
        wide, params.chi, params.gamma_minus, params.gamma_plus,
        params.gamma0, params.c_gamma,
    ))
    big = embed(seeded_density(dim, 19, 0), wide)
    got = propagate_kerr_finite_t(big, 0.5, params)
    ref = expm_evolve(L, big, 0.5)
    assert maxabs(crop(got, dim) - crop(ref, dim)) < 1e-12


@pytest.mark.parametrize("dim, t", [(128, 20.0), (40, 60.0)])
def test_long_times_relax_to_the_thermal_state(dim, t):
    # once g0 s t passes about 745 the envelope's decaying part underflows
    # and its growing part overflows; the flow must still be finite, keep
    # its trace, follow the <n> law and settle on the thermal diagonal, to
    # within e^{-2 (gm - gp) t}
    params = KerrFiniteTParams(chi=1.0, gamma_minus=0.5, gamma_plus=0.1)
    nbar = params.nbar()
    rho = density_from_ket(coherent_state(dim, 3.0)[0])
    out = propagate_kerr_finite_t(rho, t, params)
    assert np.isfinite(out).all()
    assert abs(np.trace(out) - 1.0) < 1e-12
    relax = math.exp(-2.0 * (params.gamma_minus - params.gamma_plus) * t)
    want_n = nbar + (observables(rho)["mean_n"] - nbar) * relax
    assert abs(observables(out)["mean_n"] - want_n) < 1e-12
    thermal = np.diag((nbar / (nbar + 1.0)) ** np.arange(dim) / (nbar + 1.0))
    assert maxabs(out - thermal) < 1e-12 + 10.0 * relax


def test_semigroup_property():
    ket, _ = coherent_state(15, 1.0)
    rho0 = density_from_ket(ket)
    one = propagate_kerr_finite_t(rho0, 0.5, PARAMS)
    two = propagate_kerr_finite_t(propagate_kerr_finite_t(rho0, 0.25, PARAMS), 0.25, PARAMS)
    assert maxabs(one - two) < 1e-8


def test_physicality_of_evolved_coherent_state():
    ket, _ = coherent_state(15, 1.0)
    rho = density_from_ket(ket)
    for t in (0.25, 1.0):
        out = propagate_kerr_finite_t(rho, t, PARAMS)
        # the trace slack is upward leakage past the window top, about
        # 1.3e-9 by t = 1 at this width
        assert abs(np.trace(out) - 1.0) < 1e-8
        assert hermiticity_error(out) < 1e-11
        assert min_eigenvalue(out) > -1e-9


def test_thermal_state_is_stationary():
    dim = 40
    ratio = PARAMS.nbar() / (PARAMS.nbar() + 1.0)
    weights = ratio ** np.arange(dim)
    thermal = np.diag(weights / weights.sum()).astype(complex)

    L = build_liouvillian(kerr_finite_t_generator(
        dim, PARAMS.chi, PARAMS.gamma_minus, PARAMS.gamma_plus,
        PARAMS.gamma0, PARAMS.c_gamma,
    ))
    rate = (L @ thermal.flatten(order="F")).reshape((dim, dim), order="F")
    assert maxabs(rate) < 1e-10

    out = propagate_kerr_finite_t(thermal, 1.0, PARAMS)
    assert maxabs(out - thermal) < 1e-8


@pytest.mark.parametrize("dim", [200, 256])
def test_thermal_state_is_stationary_on_wide_windows(dim):
    # nbar = 8: the geometric tail beyond the window is below 1e-10, so the
    # truncated thermal state is stationary to that order
    params = KerrFiniteTParams(chi=1.0, gamma_minus=0.09, gamma_plus=0.08)
    ratio = params.nbar() / (params.nbar() + 1.0)
    weights = ratio ** np.arange(dim)
    thermal = np.diag(weights / weights.sum()).astype(complex)
    out = propagate_kerr_finite_t(thermal, 1.0, params)
    assert np.all(np.isfinite(out))
    assert maxabs(out - thermal) < 1e-10


def test_negative_time_rejected():
    mixed = np.eye(4, dtype=complex) / 4.0
    with pytest.raises(ValueError):
        propagate_kerr_finite_t(mixed, -0.1, PARAMS)
    with pytest.raises(ValueError, match="negative time"):
        propagate_kerr_finite_t(mixed, [0.5, 1.0, -0.1, 2.0], PARAMS)
    with pytest.raises(ValueError, match="1-D"):
        propagate_kerr_finite_t(mixed, [[0.5, 1.0]], PARAMS)


# t = 0; times on both sides of the series switch of (1 - exp(-2 D t)) / (2 D),
# whose |D| runs from g0 at k = 0 to about chi (dim - 1) at the corner; and a
# long time, where every weight has settled
BATCH_TIMES = [0.0, 0.25 * TAYLOR_SWITCH, 4.0 * TAYLOR_SWITCH, 0.3, 1.7, 1500.0]


# the second case is a stack of more than 256 KiB behind its t = 0 slice,
# past which numpy reuses temporaries for results
@pytest.mark.parametrize("dim, times", [
    (10, BATCH_TIMES),
    (24, [0.0] + [0.05 * (i + 1) for i in range(39)]),
], ids=["edge-times", "large-stack"])
def test_a_stack_of_times_equals_the_scalar_calls(dim, times):
    rho0 = seeded_density(dim, 40)
    cold = KerrZeroTParams(chi=1.3, gamma_minus=0.2)
    for run, params in ((propagate_kerr_zero_t, cold), (propagate_kerr_finite_t, PARAMS)):
        got = run(rho0, np.array(times), params)
        want = np.stack([run(rho0, t, params) for t in times])
        assert got.shape == (len(times), dim, dim)
        assert got.tobytes() == want.tobytes()
        assert run(rho0, times[1:2], params).shape == (1, dim, dim)


def _with_signed_zeros(rho):
    # -0.0 entries, which an added zero term would turn into 0.0
    rho = rho.copy()
    rho.real[::3, 1::2] = -0.0
    rho.imag[1::2, ::3] = -0.0
    return rho


@pytest.mark.parametrize("read, left, right", [
    (LOWER, annihilation, creation),
    (RAISE, creation, annihilation),
    (PAIR_RAISE, creation, creation),
    (PAIR_LOWER, annihilation, annihilation),
], ids=["a-adag", "adag-a", "adag-adag", "a-a"])
def test_shift_series_against_brute_force(read, left, right):
    # exp(c J) rho = sum_j c^j / j! L^j rho R^j, summed with dense matrices
    dim = 9
    c = 0.3 + 0.2j
    rho = seeded_density(dim, 30)
    lop, rop = left(dim), right(dim)
    ref = np.zeros_like(rho)
    term = rho
    for j in range(dim):
        ref += c**j / math.factorial(j) * term
        term = lop @ term @ rop
    assert maxabs(_shift_series(c, rho, read) - ref) < 1e-12
    assert maxabs(_shift_series(0.0, rho, read) - rho) == 0.0


@pytest.mark.parametrize("read", [LOWER, RAISE, PAIR_RAISE, PAIR_LOWER],
                         ids=["a-adag", "adag-a", "adag-adag", "a-a"])
def test_shift_series_on_a_stack_equals_each_slice(read):
    dim = 9
    grid = (0.3 + 0.2j) * np.exp(-0.1j * np.subtract.outer(np.arange(dim), np.arange(dim)))
    # per-slice weights; the second dies after one term, the third at once,
    # while the others run on, and each must stop as it would alone
    c = np.stack([grid, np.full((dim, dim), 1e-200), np.zeros((dim, dim)), 2.0 * grid])
    states = np.stack([_with_signed_zeros(seeded_density(dim, 50, i)) for i in range(4)])
    cases = [
        (c, states, lambda i: (c[i], states[i])),              # a weight and a state per slice
        (c, states[0], lambda i: (c[i], states[0])),           # one state, a weight per slice
        (0.3 - 0.1j, states, lambda i: (0.3 - 0.1j, states[i])),  # one weight, a state per slice
    ]
    for weight, rho, per_slice in cases:
        got = _shift_series(weight, rho, read)
        want = np.stack([_shift_series(*per_slice(i), read) for i in range(4)])
        assert got.tobytes() == want.tobytes()


def test_raising_series_against_dense_exponential():
    dim = 8
    gp = 0.25
    rho = seeded_density(dim, 22)
    got = _shift_series(0.3 * 2.0 * gp, rho, RAISE)
    L = build_liouvillian(raising_sandwich(dim, 2.0 * gp))
    ref = expm_evolve(L, rho, 0.3)
    assert maxabs(got - ref) < 1e-12
