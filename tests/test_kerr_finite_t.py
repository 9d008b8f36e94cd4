import math

import mpmath
import numpy as np
import pytest

from fockprop import kerr_finite_t
from fockprop.fock import annihilation, coherent_state, creation, density_from_ket, observables
from fockprop.kerr_finite_t import (
    KerrFiniteTParams,
    _layout,
    _lower_factor_raise,
    _passes,
    _power_table,
    _series_weights,
    _unskewed,
    _weights,
    propagate_kerr_finite_t,
)
from fockprop.kerr_zero_t import KerrZeroTParams, propagate_kerr_zero_t
from fockprop.oracle import crop, embed, expm_evolve
from fockprop.pdc import PDCParams, _channel_row, _factor_table, _rates, propagate_pdc
from fockprop.superop import (
    build_liouvillian,
    kerr_finite_t_generator,
    kerr_zero_t_generator,
    lowering_sandwich,
    raising_sandwich,
)

from helpers import hermiticity_error, maxabs, min_eigenvalue, seeded_density, vacuum_density


PARAMS = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.05)

# the two series, by whether they read up: lowering a^j rho a^dag^j reads
# (n + j, m + j), raising a^dag^j rho a^j reads (n - j, m - j)
LOWER, RAISE = True, False


def pass_factor(dim, read):
    """The pass factor of the series read on the general skewed window of _layout."""
    return _layout(dim, False)[4 if read else 5]


def test_trace_preserving_defaults():
    assert PARAMS.gamma0 == PARAMS.gamma_minus + PARAMS.gamma_plus
    assert PARAMS.c_gamma == -2.0 * PARAMS.gamma_plus


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: propagate_kerr_zero_t(np.eye(8) / 8, NAN, KerrZeroTParams(chi=1.0, gamma_minus=0.1)),
    lambda: propagate_kerr_finite_t(np.eye(8) / 8, [0.5, INF], PARAMS),
    lambda: propagate_pdc(np.eye(8) / 8, -INF, PDCParams(epsilon=0.3, gamma=1.0)),
    lambda: KerrZeroTParams(chi=NAN, gamma_minus=0.1),
    lambda: KerrZeroTParams(chi=1.0, gamma_minus=INF),
    lambda: KerrFiniteTParams(chi=1.0, gamma_minus=NAN, gamma_plus=0.05),
    lambda: KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.05, c_gamma=NAN),
    lambda: PDCParams(epsilon=complex(0.3, NAN), gamma=1.0),
    lambda: PDCParams(epsilon=0.3, gamma=NAN),
], ids=["kerr0-t", "kerrT-t", "pdc-t", "kerr0-chi", "kerr0-gamma", "kerrT-gamma",
        "kerrT-c_gamma", "pdc-epsilon", "pdc-gamma"])
def test_non_finite_inputs_are_refused(make):
    with pytest.raises(ValueError, match="finite"):
        make()


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


def test_long_times_on_the_widest_window():
    # at t = 1e4 every decaying power underflows long before the growing
    # hinv^(s+1) would overflow on its own; both stay inside one exponent
    dim, t = 160, 1e4
    rho = density_from_ket(coherent_state(dim, 3.0 + 1.0j)[0])
    cold = propagate_kerr_zero_t(rho, t, KerrZeroTParams(chi=1.0, gamma_minus=0.1))
    assert np.isfinite(cold).all()
    assert maxabs(cold - vacuum_density(dim)) < 1e-15
    warm = propagate_kerr_finite_t(rho, t, PARAMS)
    assert np.isfinite(warm).all()
    nbar = PARAMS.nbar()
    thermal = np.diag((nbar / (nbar + 1.0)) ** np.arange(dim) / (nbar + 1.0))
    assert maxabs(warm - thermal) < 1e-13


def weight_rates(params):
    """The arguments (chi, mu, disc, g0) of _weights and c_gamma for Kerr or pdc rates.

    pdc's channel is the flow at chi = 0, g0 = d, c_gamma = -c and disc = w^2.
    """
    if isinstance(params, PDCParams):
        d, c, mu, w2 = _rates(params)
        return 0.0, mu, w2, d, -c
    mu = 4.0 * params.gamma_minus * params.gamma_plus
    return params.chi, mu, params.gamma0 * params.gamma0 - mu, params.gamma0, params.c_gamma


def factor_table(params, times, dim):
    """log hinv on k >= 0 and the factor table that the propagator of params builds."""
    if isinstance(params, PDCParams):
        _, row = _channel_row(params, times)
        return np.broadcast_to(row, (dim, len(times))), _factor_table(params, row, times, dim)
    chi, mu, disc, g0, cg = weight_rates(params)
    _, log_hinv = _weights(times, dim, chi, mu, disc, g0)
    return log_hinv, _power_table(log_hinv, times, chi, g0, cg)


# each flow that ends in the elementwise factor; undriven, pdc's discriminant
# vanishes at k = 0, and Kerr at chi = 0 runs the doubling table on real ratios
FACTOR_RATES = {
    "kerr0": KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.0),
    "kerrT": PARAMS,
    "kerrT-chi0": KerrFiniteTParams(chi=0.0, gamma_minus=0.1, gamma_plus=0.05),
    "pdc": PDCParams(epsilon=0.3 + 0.4j, gamma=1.0),
    "pdc-undriven": PDCParams(epsilon=0.0, gamma=1.0),
}


@pytest.mark.parametrize("dim", [6, 40, 160])
@pytest.mark.parametrize("model", sorted(FACTOR_RATES))
def test_diagonal_factor_matches_the_per_entry_exponential(model, dim):
    # the geometric progression along each diagonal against the form it
    # replaced: one exponential of the whole exponent per window entry
    chi, _, _, g0, cg = weight_rates(FACTOR_RATES[model])
    times = np.array([0.0, 1e-7, 0.3, 2.9, 1500.0])
    log_hinv, table = factor_table(FACTOR_RATES[model], times, dim)
    n = np.arange(dim)
    k, s = np.subtract.outer(n, n), np.add.outer(n, n)
    t = times[:, None, None]
    at_k = np.moveaxis(log_hinv[np.abs(k)], -1, 0)
    at_k = np.where(k < 0, at_k.conj(), at_k)
    want = np.exp((s + 1) * at_k - (g0 * t) * s + cg * t - 1j * t * (chi * k * (s - 1.0)))
    # the core at zero feeds runs no series: on a unit state it returns the
    # factor alone, scattered back to window order
    got = _lower_factor_raise(np.ones((dim, dim), dtype=complex), None, table, 0.0, 0.0)
    got = got.reshape(want.shape)
    assert np.isfinite(got).all() and np.isfinite(want).all()
    assert maxabs(got - want) < 1e-13


def test_diagonal_factor_takes_exponentials_per_difference_not_per_entry(monkeypatch):
    # one exponential per window entry would pass T dim^2 = 12,288 entries
    dim, times = 64, np.array([0.1, 0.7, 2.0])
    exp, sizes = np.exp, []

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    rho = density_from_ket(coherent_state(dim, 2.0)[0])
    out = propagate_kerr_finite_t(rho, times, PARAMS)
    assert out.shape == (3, dim, dim)
    assert 0 < sum(sizes) <= 4 * len(times) * (2 * dim - 1)


# (chi, mu, disc, g0) of each _weights call the tests run: every flow of
# FACTOR_RATES, pdc's uncorrected mode, a zero discriminant at k = 0 with
# chi > 0, and the lossless flow, where D = z = 0 at k = 0
WEIGHT_RATES = {
    **{model: weight_rates(params)[:4] for model, params in FACTOR_RATES.items()},
    "pdc-uncorrected": weight_rates(PDCParams(epsilon=0.3 + 0.4j, gamma=1.0,
                                              corrected_mode=False))[:4],
    "disc0": (1.0, 0.04, 0.0, 0.2),
    "lossless": (1.0, 0.0, 0.0, 0.0),
}

# t = 0; |D t| tiny, where expm1 keeps the digits that 1 - exp loses; and a
# long time, where every weight has settled
WEIGHT_TIMES = [0.0, 2.5e-7, 4e-6, 0.3, 2.9, 1500.0]


def _mpmath_weights(ks, times, chi, mu, disc, g0):
    """u, log hinv and |2 D t| at rows ks by times, from the forms of _weights in 40-digit mpmath.

    D^2 = disc + i chi k (2 g0 + i chi k) from the same floats, and D = z at mu = 0.
    """
    out = np.empty((3, len(ks), len(times)), dtype=complex)
    with mpmath.workdps(40):
        for i, k in enumerate(ks):
            ck = 1j * mpmath.mpf(chi) * int(k)
            z = g0 + ck
            root = mpmath.sqrt(disc + ck * (2 * mpmath.mpf(g0) + ck)) if mu else z
            for j, t in enumerate(times):
                t = mpmath.mpf(t)
                h = t if root * t == 0 else -mpmath.expm1(-2 * root * t) / (2 * root)
                q = 1 + (z - root) * h
                out[:, i, j] = h / q, (z - root) * t - mpmath.log(q), abs(2 * root * t)
    return out


@pytest.mark.parametrize("dim", [6, 40, 160])
@pytest.mark.parametrize("model", sorted(WEIGHT_RATES))
def test_weights_match_the_complex_forms(model, dim):
    # the complex forms at 40 digits on about 16 rows k, the first and last
    # among them; numpy's complex expm1 and log keep u and log hinv to a few
    # units in the last place of max(1, |w|), times 1 + |2 D t| for the
    # rounding of the exponent. At the small times u ~ t << 1 keeps them
    # relative to |u| itself, where an absolute bound would pass a series
    # cut after its first order; log hinv, a difference of two terms ~ t,
    # does not
    times = np.array(WEIGHT_TIMES)
    got = _weights(times, dim, *WEIGHT_RATES[model])
    ks = np.unique(np.linspace(0, dim - 1, 16).round().astype(int))
    *want, scale = _mpmath_weights(ks, times, *WEIGHT_RATES[model])
    for g, w, relative in zip(got, want, (times <= 4e-6, False)):
        assert g.shape == (dim, len(times))
        assert np.isfinite(g).all()
        size = np.where(relative, np.abs(w), np.maximum(1.0, np.abs(w)))
        assert (np.abs(g[ks] - w) <= 4.4e-16 * size * (1.0 + scale.real)).all()


@pytest.mark.parametrize("read", [LOWER, RAISE], ids=["lower", "raise"])
def test_series_weights_at_minus_k_are_the_conjugates(read):
    # the weight grid holds k >= 0; gathered onto the skewed window, the
    # weight at -k is the conjugate of the one at k, to the bit
    dim, times = 9, np.array([0.0, 0.3, 2.9])
    chi, mu, disc, g0, _ = weight_rates(PARAMS)
    u = _weights(times, dim, chi, mu, disc, g0)[0]
    flat, at = _layout(dim, False)[:2]
    factor = pass_factor(dim, read)
    got = _series_weights(u, at, factor)
    n, m = np.divmod(flat, dim)
    at_k = u[np.abs(n - m)]
    want = np.where((n < m)[:, :, None], at_k.conj(), at_k) * factor[:, :, None]
    assert got.tobytes() == want.tobytes()


def test_weights_take_real_transcendentals_per_nonnegative_difference(monkeypatch):
    # on k >= 0 alone each function sees at most T dim entries
    dim, times = 40, np.array([0.0, 1e-7, 0.3, 2.9, 1500.0])
    sizes = {}

    def watched(name):
        ufunc = getattr(np, name)

        def call(*args, **kwargs):
            sizes.setdefault(name, []).append(max(np.size(a) for a in args))
            return ufunc(*args, **kwargs)
        return call

    for name in ("log", "expm1", "sqrt"):
        monkeypatch.setattr(np, name, watched(name))
    for model in sorted(FACTOR_RATES):
        chi, mu, disc, g0, _ = weight_rates(FACTOR_RATES[model])
        u, log_hinv = _weights(times, dim, chi, mu, disc, g0)
        assert u.shape == log_hinv.shape == (dim, len(times))
    assert {"log", "expm1", "sqrt"} <= set(sizes)
    assert max(max(s) for s in sizes.values()) <= len(times) * dim


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
    rate = (L.dense() @ thermal.flatten(order="F")).reshape((dim, dim), order="F")
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


# t = 0; times where |2 D t| is tiny at k = 0 and not at the corner, whose
# |D| is about chi (dim - 1); and a long time, where every weight has settled
BATCH_TIMES = [0.0, 2.5e-7, 4e-6, 0.3, 1.7, 1500.0]


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


def test_an_empty_list_of_times_gives_an_empty_stack():
    rho0 = seeded_density(6, 42)
    lossless = KerrZeroTParams(chi=1.0, gamma_minus=0.0)
    for run, params in ((propagate_kerr_zero_t, lossless), (propagate_kerr_finite_t, PARAMS),
                        (propagate_pdc, FACTOR_RATES["pdc"])):
        assert run(rho0, [], params).shape == (0, 6, 6)


def test_closed_forms_return_c_ordered_states():
    # matmul rounds by memory layout, so each slice of a stack must be laid
    # out as the one-time result is for the CSV values to agree to the bit
    rho0 = seeded_density(12, 41)
    cold = KerrZeroTParams(chi=1.3, gamma_minus=0.2)
    for run, params in ((propagate_kerr_zero_t, cold), (propagate_kerr_finite_t, PARAMS)):
        assert run(rho0, 0.7, params).flags.c_contiguous
        stack = run(rho0, [0.0, 0.7, 2.0], params)
        assert stack.flags.c_contiguous
        assert all(piece.flags.c_contiguous for piece in stack)


def series(c, rho, read):
    """sum_j c^j / j! L^j rho R^j for the L, R of read, as _passes runs it on the skewed window.

    c is a scalar weight or one per entry, constant along each diagonal k;
    either argument may be a (T, dim, dim) stack, the other shared by every
    slice.
    """
    rho, c = np.broadcast_arrays(np.asarray(rho, dtype=complex), np.asarray(c, dtype=complex))
    dim = rho.shape[-1]
    flat = _layout(dim, False)[0]
    p = rho.reshape(-1, dim * dim).T[flat]
    w = c.reshape(-1, dim * dim).T[flat] * pass_factor(dim, read)[:, :, None]
    return _unskewed(_passes(p, w, read), flat).reshape(rho.shape)


def _with_signed_zeros(rho):
    # -0.0 entries, which an added zero term would turn into 0.0
    rho = rho.copy()
    rho.real[::3, 1::2] = -0.0
    rho.imag[1::2, ::3] = -0.0
    return rho


@pytest.mark.parametrize("read, left, right", [
    (LOWER, annihilation, creation),
    (RAISE, creation, annihilation),
], ids=["a-adag", "adag-a"])
def test_shift_series_against_brute_force(read, left, right):
    # exp(c J) rho = sum_j c^j / j! L^j rho R^j, summed with dense matrices
    dim = 9
    rho = seeded_density(dim, 30)
    lop, rop = left(dim), right(dim)
    # the terms of -3.5 + 1j reach thousands, so it is held to a relative bound
    for c in (0.3 + 0.2j, -3.5 + 1j):
        ref = np.zeros_like(rho)
        term = rho
        for j in range(dim):
            ref += c**j / math.factorial(j) * term
            term = lop @ term @ rop
        tol = 1e-12 * (maxabs(ref) if abs(c) > 1 else 1.0)
        assert maxabs(series(c, rho, read) - ref) < tol
    assert maxabs(series(0.0, rho, read) - rho) == 0.0


def test_shift_series_on_a_wide_window():
    # past window 171 a factorial or a factorial ratio alone overflows; the
    # series must still match its terms, evaluated here in log space, in
    # both read directions
    dim, n0, m0 = 200, 180, 185
    c = 0.5 - 0.2j
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n0, m0] = 1.0
    for read in (LOWER, RAISE):
        want = np.zeros_like(rho)
        step = 1 if read else -1
        for j in range(dim):
            n, m = n0 - step * j, m0 - step * j
            if not (0 <= n < dim and 0 <= m < dim):
                break
            p, q = min(n, n0), min(m, m0)
            log_w = 0.5 * (math.lgamma(p + j + 1) - math.lgamma(p + 1)
                           + math.lgamma(q + j + 1) - math.lgamma(q + 1)) - math.lgamma(j + 1)
            want[n, m] = c**j * math.exp(log_w)
        assert maxabs(series(c, rho, read) - want) <= 1e-12 * maxabs(want)


@pytest.mark.parametrize("read", [LOWER, RAISE], ids=["a-adag", "adag-a"])
def test_shift_series_on_a_stack_equals_each_slice(read):
    dim = 9
    grid = (0.3 + 0.2j) * np.exp(-0.1j * np.subtract.outer(np.arange(dim), np.arange(dim)))
    # per-slice weights; the second underflows after one order and the third
    # is zero, so an added zero term would flip their -0.0 entries unless
    # every slice runs the same arithmetic as it would alone
    c = np.stack([grid, np.full((dim, dim), 1e-200), np.zeros((dim, dim)), 2.0 * grid])
    states = np.stack([_with_signed_zeros(seeded_density(dim, 50, i)) for i in range(4)])
    cases = [
        (c, states, lambda i: (c[i], states[i])),              # a weight and a state per slice
        (c, states[0], lambda i: (c[i], states[0])),           # one state, a weight per slice
        (0.3 - 0.1j, states, lambda i: (0.3 - 0.1j, states[i])),  # one weight, a state per slice
    ]
    for weight, rho, per_slice in cases:
        got = series(weight, rho, read)
        want = np.stack([series(*per_slice(i), read) for i in range(4)])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [7, 8])
@pytest.mark.parametrize("read, block", [
    (LOWER, lowering_sandwich),
    (RAISE, raising_sandwich),
], ids=["a-adag", "adag-a"])
def test_shift_series_against_dense_exponential(read, block, dim):
    # odd and even windows split the skewed columns' chains differently
    rate, t = 0.6, 0.4
    rho = seeded_density(dim, 22)
    got = series(rate * t, rho, read)
    ref = expm_evolve(build_liouvillian(block(dim, rate)), rho, t)
    assert maxabs(got - ref) < 1e-12


@pytest.mark.parametrize("read", [LOWER, RAISE], ids=["a-adag", "adag-a"])
def test_shift_series_does_not_depend_on_the_window(read):
    # a state of window 40 zero-padded to 64: every read chain of the small
    # window is the start of one of the large window, so the crop must be
    # the small window's series to the bit
    small, large = 40, 64
    rho = density_from_ket(coherent_state(small, 2.5 + 1.5j)[0])
    for c in ((0.3 + 0.2j) * np.exp(-0.1j * np.subtract.outer(np.arange(large), np.arange(large))),
              0.45 - 0.2j):
        c_small = c if np.ndim(c) == 0 else c[:small, :small]
        wide = series(c, embed(rho, large), read)
        assert crop(wide, small).tobytes() == series(c_small, rho, read).tobytes()


def test_the_cached_layout_is_read_only():
    # every flow on the window shares _layout's arrays, so none may write
    # them; and a layout built afresh gives the flow the same bytes as the
    # cached one. A Hermitian state takes the hermitian layout, which adds
    # the rows _unskewed reads, and any other state the general one
    rho = seeded_density(9, 5)
    for hermitian, state, count in ((True, rho, 7), (False, np.triu(rho), 6)):
        _layout.cache_clear()
        cold = propagate_kerr_finite_t(state, [0.0, 0.4], PARAMS)
        layout = [array for array in _layout(9, hermitian) if array is not None]
        assert _layout.cache_info()[:2] == (1, 1)
        assert len(layout) == count
        assert not any(array.flags.writeable for array in layout)
        assert propagate_kerr_finite_t(state, [0.0, 0.4], PARAMS).tobytes() == cold.tobytes()
        _layout.cache_clear()
        fresh = [array for array in _layout(9, hermitian) if array is not None]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fresh, layout))


def test_the_hermitian_layout_holds_fewer_bytes():
    # the cache may hold a layout of each kind; the hermitian one, which
    # every CLI state takes, must not raise the memory of the widest runs
    def size(hermitian):
        return sum(array.nbytes for array in _layout(160, hermitian) if array is not None)

    assert size(True) < size(False)


def spy_on_the_layout(monkeypatch, hermitian=None):
    """Records the layout the Kerr flows ask the core for; hermitian, if given, overrides it."""
    asked = []

    def core(*args):
        asked.append(args[5])
        return _lower_factor_raise(*args[:5], args[5] if hermitian is None else hermitian)

    monkeypatch.setattr(kerr_finite_t, "_lower_factor_raise", core)
    return asked


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 16, 41, 160])
def test_the_hermitian_layout_computes_the_general_entries(monkeypatch, dim, count):
    # an exactly Hermitian state runs one chain of each pair of diagonals
    # +-d, the upper one for even d and the lower one for odd d: those
    # entries are the general layout's to the bit, and the output is
    # exactly Hermitian
    rho = seeded_density(dim, 60, count)
    times = [0.3, 2.9, 0.0][:count]
    n, m = np.indices((dim, dim))
    computed = np.where((n - m) % 2 == 0, n <= m, n > m)
    cold = KerrZeroTParams(chi=1.3, gamma_minus=0.2)
    for run, params in ((propagate_kerr_zero_t, cold), (propagate_kerr_finite_t, PARAMS)):
        asked = spy_on_the_layout(monkeypatch)
        got = run(rho, times, params)
        assert asked == [True]
        spy_on_the_layout(monkeypatch, hermitian=False)
        want = run(rho, times, params)
        assert got[:, computed].tobytes() == want[:, computed].tobytes()
        assert np.array_equal(got, got.conj().swapaxes(1, 2))


@pytest.mark.parametrize("dim", [7, 8])
def test_a_state_that_is_not_hermitian_runs_the_general_layout(monkeypatch, dim):
    # matrix units off the diagonal are not Hermitian, so the flows may not
    # mirror them; the window map the units span must still be the flow's:
    # the same-window exponential for kerr0, which moves nothing upward,
    # and the wide-window one, cropped, for kerrT
    cold = KerrZeroTParams(chi=1.3, gamma_minus=0.2)
    wide = dim + 14
    cold_map = build_liouvillian(kerr_zero_t_generator(dim, cold.chi, cold.gamma_minus))
    warm_map = build_liouvillian(kerr_finite_t_generator(
        wide, PARAMS.chi, PARAMS.gamma_minus, PARAMS.gamma_plus, PARAMS.gamma0, PARAMS.c_gamma))
    asked = spy_on_the_layout(monkeypatch)
    for i, j in np.ndindex(dim, dim):
        unit = np.zeros((dim, dim), dtype=complex)
        unit[i, j] = 1.0
        got = propagate_kerr_zero_t(unit, 0.7, cold)
        assert maxabs(got - expm_evolve(cold_map, unit, 0.7)) < 1e-12
        big = embed(unit, wide)
        got = propagate_kerr_finite_t(big, 0.5, PARAMS)
        assert maxabs(crop(got - expm_evolve(warm_map, big, 0.5), dim)) < 1e-9
        assert asked[-2:] == [i == j] * 2


def test_closed_forms_do_not_depend_on_the_window():
    # an even and an odd window, each nested in an even one: the hermitian
    # layout picks its chains by the parity of n - m, not by the window
    large = 64
    cold = KerrZeroTParams(chi=1.3, gamma_minus=0.2)
    for small, times in ((40, [0.0, 0.35, 2.0]), (39, [0.35, 2.0]), (39, [0.0, 0.35, 0.9, 2.0, 7.5])):
        rho = density_from_ket(coherent_state(small, 2.5 + 1.5j)[0])
        for run, params in ((propagate_kerr_zero_t, cold), (propagate_kerr_finite_t, PARAMS)):
            wide = run(embed(rho, large), times, params)
            assert wide[:, :small, :small].tobytes() == run(rho, times, params).tobytes()
