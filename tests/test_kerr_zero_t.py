import math

import numpy as np
import pytest

from fockprop import kerr_finite_t
from fockprop.fock import coherent_state, density_from_ket, fidelity_pure, observables
from fockprop.kerr_zero_t import KerrZeroTParams, propagate_kerr_zero_t
from fockprop.oracle import expm_evolve
from fockprop.superop import build_liouvillian, kerr_zero_t_generator

from helpers import hermiticity_error, maxabs, min_eigenvalue, seeded_density, vacuum_density


PARAMS = KerrZeroTParams(chi=1.0, gamma_minus=0.1)


def _ks(dim):
    """k = n - m and s = n + m at each element (n, m) of the window."""
    n = np.arange(dim)
    return np.subtract.outer(n, n), np.add.outer(n, n)


def test_param_validation():
    with pytest.raises(ValueError):
        KerrZeroTParams(chi=1.0, gamma_minus=-0.1)
    KerrZeroTParams(chi=-2.0, gamma_minus=0.0)


def test_input_validation():
    with pytest.raises(ValueError):
        propagate_kerr_zero_t(vacuum_density(4), -0.1, PARAMS)
    with pytest.raises(ValueError):
        propagate_kerr_zero_t(np.zeros((3, 4)), 0.1, PARAMS)


def test_matches_dense_exponential_on_the_window():
    # nothing in this flow moves probability upward, so truncating the
    # generator and truncating the solution agree to rounding
    dim = 15
    L = build_liouvillian(kerr_zero_t_generator(dim, PARAMS.chi, PARAMS.gamma_minus))
    for i in range(10):
        rho0 = seeded_density(dim, 3, i)
        got = propagate_kerr_zero_t(rho0, 0.7, PARAMS)
        ref = expm_evolve(L, rho0, 0.7)
        assert maxabs(got - ref) < 1e-12


def test_semigroup_property():
    ket, _ = coherent_state(20, 1.5)
    rho0 = density_from_ket(ket)
    one = propagate_kerr_zero_t(rho0, 0.7, PARAMS)
    two = propagate_kerr_zero_t(propagate_kerr_zero_t(rho0, 0.3, PARAMS), 0.4, PARAMS)
    assert maxabs(one - two) < 1e-10


def test_physicality_of_evolved_coherent_state():
    ket, _ = coherent_state(20, 2.0)
    rho = density_from_ket(ket)
    for t in (0.1, 0.5, 1.0):
        out = propagate_kerr_zero_t(rho, t, PARAMS)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert hermiticity_error(out) < 1e-13
        assert min_eigenvalue(out) > -1e-12


def decay_weight(k, t, chi, gamma_minus):
    """The lowering weight u(k) at time t, read off one propagated element.

    The element (k + 1, 1) feeds (k, 0) through the first lowering term
    only, with weight 2 gm u(k) sqrt(k + 1); the envelope there is
    exp(-gm t k) and the Kerr phase exp(-i chi t k (k - 1)).
    """
    rho = np.zeros((k + 2, k + 2), dtype=complex)
    rho[k + 1, 1] = 1.0
    out = propagate_kerr_zero_t(rho, t, KerrZeroTParams(chi=chi, gamma_minus=gamma_minus))
    factor = 2.0 * gamma_minus * math.sqrt(k + 1) * np.exp(
        -gamma_minus * t * k - 1j * chi * t * k * (k - 1))
    return out[k, 0] / factor


def test_decay_weight_branches():
    # small |z t|, where expm1 keeps the digits that 1 - exp would lose,
    # against a higher-order expansion
    t = 1.0
    for mag in (1e-9, 1e-7, 0.5e-6, 0.99e-6, 1.01e-6, 1e-5):
        z = mag * (0.6 + 0.8j)
        got = decay_weight(1, t, z.imag, z.real)
        zt = z * t
        ref = t * (1.0 - zt + (2.0 / 3.0) * zt**2 - (1.0 / 3.0) * zt**3)
        assert abs(got - ref) / abs(ref) < 1e-9
    # z = 0 exactly at k = 0 of the lossless flow: no division blowup, and
    # with no loss the flow is the Kerr phase alone, to rounding of the
    # geometric progression that applies it
    lossless = KerrZeroTParams(chi=1.0, gamma_minus=0.0)
    rho = seeded_density(6, 8)
    k, s = _ks(6)
    for t in (0.0, 2.5):
        out = propagate_kerr_zero_t(rho, t, lossless)
        assert np.isfinite(out).all()
        assert maxabs(out - np.exp(-1j * t * k * (s - 1.0)) * rho) < 1e-15


def test_lossless_flow_runs_no_series(monkeypatch):
    # a zero rate skips its series, so lossless runs cost the Kerr phase alone
    def refuse(*args):
        raise AssertionError("series kernel called at a zero rate")

    monkeypatch.setattr(kerr_finite_t, "_passes", refuse)
    lossless = KerrZeroTParams(chi=1.0, gamma_minus=0.0)
    rho = seeded_density(6, 8)
    k, s = _ks(6)
    for t in (0.0, 2.5, [0.0, 2.5]):
        out = propagate_kerr_zero_t(rho, t, lossless)
        want = np.exp(-1j * np.multiply.outer(t, k * (s - 1.0))) * rho
        assert out.shape == want.shape
        assert maxabs(out - want) < 1e-15


def test_decay_weight_closed_form_region():
    z = 0.1 + 2.0j
    t = 0.8
    got = decay_weight(2, t, 1.0, 0.1)
    ref = (1.0 - np.exp(-2.0 * z * t)) / (2.0 * z)
    assert abs(got - ref) < 1e-15


def test_mean_occupation_decays_exponentially():
    dim = 30
    ket, _ = coherent_state(dim, 2.0)
    rho = density_from_ket(ket)
    for t in (0.0, 0.3, 1.0, 2.0):
        out = propagate_kerr_zero_t(rho, t, PARAMS)
        want = 4.0 * math.exp(-2.0 * PARAMS.gamma_minus * t)
        assert abs(observables(out)["mean_n"] - want) < 1e-12


@pytest.mark.parametrize("dim, alpha", [(200, 10.0), (256, 12.0)])
def test_mean_occupation_decays_exponentially_on_wide_windows(dim, alpha):
    # past window 171 the series weights no longer fit a float as separate
    # factorials; the decay law needs no oracle to check them
    rho = density_from_ket(coherent_state(dim, alpha)[0])
    for t in (0.5, 2.0):
        out = propagate_kerr_zero_t(rho, t, PARAMS)
        want = alpha**2 * math.exp(-2.0 * PARAMS.gamma_minus * t)
        assert abs(observables(out)["mean_n"] - want) < 1e-9


def test_lossless_revival_at_full_period():
    params = KerrZeroTParams(chi=1.0, gamma_minus=0.0)
    ket, _ = coherent_state(25, 1.8)
    rho = density_from_ket(ket)
    out = propagate_kerr_zero_t(rho, math.pi / params.chi, params)
    assert maxabs(out - rho) < 1e-12


def test_lossless_two_component_superposition_at_half_period():
    # at a quarter of the phase period the pure Kerr flow turns a coherent
    # state into an equal superposition of two opposite-phase copies; check
    # against an independently built target with the per-level phase applied
    # straight to the ket
    dim = 25
    params = KerrZeroTParams(chi=1.0, gamma_minus=0.0)
    ket, _ = coherent_state(dim, 1.5)
    rho = density_from_ket(ket)
    t = math.pi / (2.0 * params.chi)
    out = propagate_kerr_zero_t(rho, t, params)
    n = np.arange(dim)
    target = np.exp(-0.5j * math.pi * n * (n - 1)) * ket
    assert fidelity_pure(target, out) > 1.0 - 1e-10


def test_vacuum_is_stationary():
    rho = vacuum_density(8)
    out = propagate_kerr_zero_t(rho, 3.7, PARAMS)
    assert maxabs(out - rho) == 0.0
