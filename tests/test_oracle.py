import math

import numpy as np
import pytest
import scipy.linalg

from fockprop.oracle import (
    IntegratorConfig,
    STEP_NORM_CAP,
    _sectors,
    converged_window_reference,
    crop,
    embed,
    expm_dense,
    expm_evolve,
    recommended_steps,
    rk4_evolve,
)
from fockprop.superop import (
    build_liouvillian,
    kerr_finite_t_generator,
    kerr_zero_t_generator,
    pdc_generator,
    vec,
)

from helpers import maxabs, seeded_density, vacuum_density


def test_expm_dense_against_scipy():
    rng = np.random.default_rng(42)
    for scale in (0.1, 1.0, 10.0):
        a = scale * (rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
        ours = expm_dense(a)
        ref = scipy.linalg.expm(a)
        assert maxabs(ours - ref) < 1e-9 * max(1.0, maxabs(ref))


def test_expm_dense_trivial_cases():
    assert maxabs(expm_dense(np.zeros((3, 3))) - np.eye(3)) == 0.0
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert maxabs(expm_dense(nil) - np.array([[1.0, 1.0], [0.0, 1.0]])) < 1e-15


def test_expm_evolve_shape_check():
    L = build_liouvillian(kerr_zero_t_generator(4, 1.0, 0.1))
    with pytest.raises(ValueError):
        expm_evolve(L, np.eye(5, dtype=complex), 0.1)


def test_rk4_matches_expm_at_recommended_steps():
    dim = 10
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    rho0 = seeded_density(dim, 20)
    ref = expm_evolve(L, rho0, 0.6)
    out, err = rk4_evolve(L, rho0, 0.6)
    assert maxabs(out - ref) < 1e-10
    assert err is not None and err < 1e-9


def test_rk4_error_estimate_optional():
    dim = 6
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    rho0 = seeded_density(dim, 21)
    cfg = IntegratorConfig(steps=200, richardson=False)
    _, err = rk4_evolve(L, rho0, 0.5, cfg)
    assert err is None


def test_rk4_fourth_order_convergence():
    dim = 8
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    rho0 = seeded_density(dim, 22)
    t = 0.4
    ref = expm_evolve(L, rho0, t)
    errs = []
    for steps in (400, 800):
        out, _ = rk4_evolve(L, rho0, t, IntegratorConfig(steps=steps, richardson=False))
        errs.append(maxabs(out - ref))
    slope = math.log2(errs[0] / errs[1])
    assert abs(slope - 4.0) < 0.3


def test_rk4_input_validation():
    dim = 4
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    rho0 = vacuum_density(dim)
    with pytest.raises(ValueError):
        rk4_evolve(L, rho0, -0.1)
    with pytest.raises(ValueError):
        rk4_evolve(L, np.eye(5, dtype=complex), 0.1)
    out, err = rk4_evolve(L, rho0, 0.0)
    assert maxabs(out - rho0) == 0.0 and err == 0.0


def test_rk4_warns_on_fat_steps():
    dim = 8
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    rho0 = seeded_density(dim, 23)
    with pytest.warns(UserWarning, match="step norm"):
        rk4_evolve(L, rho0, 1.0, IntegratorConfig(steps=2, richardson=False))


def test_recommended_steps_behaviour():
    dim = 10
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    tight = recommended_steps(L, 1.0, accuracy=1e-12)
    loose = recommended_steps(L, 1.0, accuracy=1e-6)
    assert tight % 2 == 0 and loose % 2 == 0
    assert tight > loose >= 2
    # the cap keeps the step length sane even for very loose targets
    x = maxabs(L.entries) * 1.0
    assert x / recommended_steps(L, 1.0, accuracy=1.0) <= STEP_NORM_CAP * 1.001


def test_embed_and_crop():
    rho = seeded_density(4, 24)
    big = embed(rho, 7)
    assert big.shape == (7, 7)
    assert maxabs(big[4:, :]) == 0.0 and maxabs(big[:, 4:]) == 0.0
    assert maxabs(crop(big, 4) - rho) == 0.0
    with pytest.raises(ValueError):
        embed(rho, 3)


def test_converged_reference_is_exact_for_downward_only_flow():
    # without a raising feed nothing ever leaves the window upward, so
    # widening it cannot change the cropped result
    dim = 10
    rho0 = seeded_density(dim, 25)

    def build(n):
        return build_liouvillian(kerr_zero_t_generator(n, 1.0, 0.1))

    ref, conv = converged_window_reference(build, rho0, 0.5, pad=6, check=4, method="expm")
    assert conv < 1e-12
    same = expm_evolve(build(dim), rho0, 0.5)
    assert maxabs(ref - same) < 1e-12


def test_converged_reference_methods_agree():
    dim = 8
    rho0 = seeded_density(dim, 26)

    def build(n):
        return build_liouvillian(kerr_zero_t_generator(n, 1.0, 0.1))

    r1, _ = converged_window_reference(build, rho0, 0.3, pad=4, check=4, method="expm")
    r2, _ = converged_window_reference(build, rho0, 0.3, pad=4, check=4, method="rk4")
    assert maxabs(r1 - r2) < 1e-9
    with pytest.raises(ValueError):
        converged_window_reference(build, rho0, 0.3, method="simpson")


# ---------------------------------------------------------------------------
# Sector blocking

GENERATORS = {
    "kerr0": lambda dim: kerr_zero_t_generator(dim, 1.0, 0.1),
    "kerrT": lambda dim: kerr_finite_t_generator(dim, 1.0, 0.1, 0.05, 0.15, -0.1),
    "pdc": lambda dim: pdc_generator(dim, 0.5 + 0.6245j, 1.0),
}


def _matrix(model, dim):
    return build_liouvillian(GENERATORS[model](dim)).entries


def _k_labels(dim):
    # n - m of each entry of vec(rho), column-stacked like superop.vec
    n = np.arange(dim)
    return vec(n[:, None] - n[None, :]).real.astype(int)


def _as_sets(sectors):
    return {frozenset(int(i) for i in idx) for idx in sectors}


def _full_expm(mat, rho0, t):
    return expm_dense(mat * t) @ vec(rho0)


def _full_rk4(mat, rho0, t, steps):
    hL = mat * (t / steps)
    eye = np.eye(mat.shape[0], dtype=complex)
    step = eye + hL @ (eye + hL @ (eye / 2 + hL @ (eye / 6 + hL / 24)))
    return np.linalg.matrix_power(step, steps) @ vec(rho0)


@pytest.mark.parametrize("model", ["kerr0", "kerrT", "pdc"])
@pytest.mark.parametrize("dim", [6, 10])
def test_sectors_are_the_conserved_index_sets(model, dim):
    sectors = _sectors(_matrix(model, dim))
    flat = np.sort(np.concatenate(sectors))
    assert np.array_equal(flat, np.arange(dim * dim))  # a partition
    k = _k_labels(dim)
    if model == "pdc":
        expected = {frozenset(np.flatnonzero(k % 2 == p).tolist()) for p in (0, 1)}
    else:
        expected = {frozenset(np.flatnonzero(k == kk).tolist())
                    for kk in range(-(dim - 1), dim)}
        assert len(expected) == 2 * dim - 1
    assert _as_sets(sectors) == expected


def test_dense_matrix_is_one_sector():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    sectors = _sectors(a)
    assert len(sectors) == 1 and np.array_equal(sectors[0], np.arange(20))


@pytest.mark.parametrize("model", ["kerr0", "kerrT", "pdc"])
@pytest.mark.parametrize("dim", [8, 12])
def test_blocked_engines_match_the_full_matrix(model, dim):
    mat = _matrix(model, dim)
    rho0 = seeded_density(dim, 40, dim)
    t = 0.3
    out = expm_evolve(mat, rho0, t)
    assert maxabs(vec(out) - _full_expm(mat, rho0, t)) <= 1e-12

    steps = recommended_steps(mat, t)
    y, err = rk4_evolve(mat, rho0, t)
    assert maxabs(vec(y) - _full_rk4(mat, rho0, t, steps)) <= 1e-12
    # the Richardson estimate is the max over the whole vector
    coarse = _full_rk4(mat, rho0, t, steps // 2)
    assert err == pytest.approx(maxabs(vec(y) - coarse) / 15.0, rel=1e-6, abs=1e-15)


def test_blocking_follows_a_planted_cross_sector_entry():
    # the oracle must not assume the closed forms' conserved n - m: a
    # single entry that breaks it must merge two sectors and enter the result
    dim = 6
    mat = _matrix("kerrT", dim).copy()
    k = _k_labels(dim)
    # the row's sector starts after the column's, so only the entry's
    # transpose links the column's sector to it
    row = int(np.flatnonzero(k == -1)[0])
    col = int(np.flatnonzero(k == 2)[0])
    assert row > col
    mat[row, col] = 0.7
    sectors = _sectors(mat)
    assert sum(len(idx) for idx in sectors) == dim * dim
    sectors = _as_sets(sectors)
    assert len(sectors) == 2 * dim - 2
    merged = frozenset(np.flatnonzero((k == 2) | (k == -1)).tolist())
    assert merged in sectors

    rho0 = seeded_density(dim, 41)
    t = 0.4
    out = expm_evolve(mat, rho0, t)
    assert maxabs(vec(out) - _full_expm(mat, rho0, t)) <= 1e-12
    assert maxabs(out - expm_evolve(_matrix("kerrT", dim), rho0, t)) > 1e-3
    steps = recommended_steps(mat, t)
    y, _ = rk4_evolve(mat, rho0, t, IntegratorConfig(steps=steps, richardson=False))
    assert maxabs(vec(y) - _full_rk4(mat, rho0, t, steps)) <= 1e-12
