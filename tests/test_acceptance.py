"""Top-level validation gates for the three closed-form propagators.

Every test here pins one externally meaningful guarantee, at the widest
tolerance the underlying analysis supports; the per-module test files hold
the finer-grained and negative cases. Runs in under a minute, dominated by
the wide-window exponential references.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from fockprop.cli import main
from fockprop.fock import (
    annihilation,
    coherent_state,
    density_from_ket,
    fidelity_pure,
    observables,
)
from fockprop.kerr_finite_t import KerrFiniteTParams, propagate_kerr_finite_t
from fockprop.kerr_zero_t import KerrZeroTParams, propagate_kerr_zero_t
from fockprop.oracle import _rk4, converged_window_reference, crop, expm_evolve, rk4_evolve
from fockprop.pdc import PDCParams, propagate_pdc
from fockprop.superop import (
    apply,
    build_liouvillian,
    commutator,
    index_difference,
    kerr_finite_t_generator,
    kerr_zero_t_generator,
    kerr_phase,
    lowering_sandwich,
    number_damping,
    pdc_drive,
    pdc_generator,
    verify_commutator_table,
)

from helpers import (
    hermiticity_error,
    maxabs,
    min_eigenvalue,
    seeded_density,
    trace_distance,
    vacuum_density,
)

KERR0 = KerrZeroTParams(chi=1.0, gamma_minus=0.1)
KERRT = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.05)
PDC = PDCParams(epsilon=0.3, gamma=1.0)


@pytest.fixture(scope="module")
def table_records():
    return verify_commutator_table(12)


def coherent_density(dim, alpha):
    ket, _ = coherent_state(dim, alpha)
    return ket, density_from_ket(ket)


def test_01_zero_temperature_factorization_matches_integrator():
    dim = 20
    _, rho0 = coherent_density(dim, 2.0)
    L = build_liouvillian(kerr_zero_t_generator(dim, KERR0.chi, KERR0.gamma_minus))
    start = time.perf_counter()
    for t in (0.1, 0.5, 1.0):
        analytic = propagate_kerr_zero_t(rho0, t, KERR0)
        reference = rk4_evolve(L, rho0, t)
        assert maxabs(analytic - reference) <= 1e-8
    assert time.perf_counter() - start < 5.0


def test_02_zero_temperature_commutation_relations():
    dim = 12
    chi, gm = 1.0, 0.1
    damping = number_damping(dim, gm)
    lowering = lowering_sandwich(dim, 2.0 * gm)
    phase = kerr_phase(dim, chi)
    shift = index_difference(dim)
    mask = np.zeros((dim, dim), dtype=bool)
    mask[: dim - 4, : dim - 4] = True

    relations = [
        (lambda r: commutator(damping, lowering, r),
         lambda r: 2.0 * gm * apply(lowering, r)),
        (lambda r: commutator(phase, lowering, r),
         lambda r: 2j * chi * apply(shift, apply(lowering, r))),
        (lambda r: commutator(shift, lowering, r),
         lambda r: np.zeros_like(r)),
    ]
    for i in range(10):
        rho = seeded_density(dim, 2, i)
        for lhs, rhs in relations:
            assert maxabs((lhs(rho) - rhs(rho))[mask]) < 1e-10


def physicality(rho, trace_tol=1e-8, herm_tol=1e-9, eig_floor=-1e-7):
    assert abs(np.trace(rho) - 1.0) <= trace_tol
    assert hermiticity_error(rho) <= herm_tol
    assert min_eigenvalue(rho) >= eig_floor


def test_03_propagators_preserve_physicality():
    # zero temperature, the grid of the factorization gate
    _, rho0 = coherent_density(20, 2.0)
    for t in (0.1, 0.5, 1.0):
        physicality(propagate_kerr_zero_t(rho0, t, KERR0))
    half = propagate_kerr_zero_t(rho0, 0.5, KERR0)
    assert maxabs(
        propagate_kerr_zero_t(half, 0.5, KERR0)
        - propagate_kerr_zero_t(rho0, 1.0, KERR0)
    ) <= 1e-8

    # finite temperature, the grid of the factorization gate
    _, rho0 = coherent_density(15, 1.0)
    for t in (0.25, 0.5, 1.0):
        physicality(propagate_kerr_finite_t(rho0, t, KERRT))
    half = propagate_kerr_finite_t(rho0, 0.25, KERRT)
    assert maxabs(
        propagate_kerr_finite_t(half, 0.25, KERRT)
        - propagate_kerr_finite_t(rho0, 0.5, KERRT)
    ) <= 1e-8

    # pair drive, same drive and state as the propagation gate but on a
    # wider window: the truncated tail of this squeezing-like flow sits
    # above the trace tolerance at width 20 and only falls below it near
    # width 40, and what is under test is the propagator, not the cutoff
    dim = 40
    rho0 = vacuum_density(dim)
    full = propagate_pdc(rho0, 0.5, PDC)
    physicality(full)
    half = propagate_pdc(rho0, 0.25, PDC)
    again = propagate_pdc(half, 0.25, PDC)
    assert maxabs(again - full) <= 1e-8


def test_04_exact_observable_laws():
    # amplitude damping empties the mean occupation at exactly twice the
    # field rate, independent of the phase nonlinearity
    _, rho0 = coherent_density(30, 2.0)
    for t in (0.0, 0.5, 1.0, 2.0):
        got = observables(propagate_kerr_zero_t(rho0, t, KERR0))["mean_n"]
        assert abs(got - 4.0 * math.exp(-2.0 * KERR0.gamma_minus * t)) <= 1e-8

    # without damping the quadratic phases realign at t = pi/chi
    lossless = KerrZeroTParams(chi=1.0, gamma_minus=0.0)
    ket, rho0 = coherent_density(25, 2.0)
    revived = propagate_kerr_zero_t(rho0, math.pi / lossless.chi, lossless)
    assert abs(fidelity_pure(ket, revived) - 1.0) <= 1e-8

    # at half that time the state is the two-component superposition;
    # the target is built by applying the diagonal phases directly to the
    # coherent amplitudes, which fixes the sign convention independently
    ket, rho0 = coherent_density(25, 2.0)
    t = math.pi / (2.0 * lossless.chi)
    evolved = propagate_kerr_zero_t(rho0, t, lossless)
    n = np.arange(25)
    target = np.exp(-0.5j * math.pi * n * (n - 1)) * ket
    assert abs(fidelity_pure(target, evolved) - 1.0) <= 1e-8


def test_05_finite_temperature_factorization():
    # the upward rate switching off must reproduce the zero-T closed form
    _, rho0 = coherent_density(15, 1.5)
    warm = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=1e-8)
    cold = propagate_kerr_zero_t(rho0, 1.0, KerrZeroTParams(chi=1.0, gamma_minus=0.1))
    assert maxabs(propagate_kerr_finite_t(rho0, 1.0, warm) - cold) <= 1e-6

    # against the exponential, run on a window wide enough that the
    # oracle's own cutoff error is out of the comparison
    def build(n):
        return kerr_finite_t_generator(n, KERRT.chi, KERRT.gamma_minus, KERRT.gamma_plus,
                                       KERRT.gamma0, KERRT.c_gamma)

    _, rho0 = coherent_density(15, 1.0)
    for t in (0.25, 0.5, 1.0):
        ref, conv = converged_window_reference(build, rho0, t)
        assert conv <= 1e-10
        assert maxabs(propagate_kerr_finite_t(rho0, t, KERRT) - ref) <= 1e-10

    # the geometric thermal state at nbar = 1 is stationary
    dim = 40
    weights = 0.5 ** np.arange(dim)
    thermal = np.diag(weights / weights.sum()).astype(complex)
    gen = kerr_finite_t_generator(dim, KERRT.chi, KERRT.gamma_minus,
                                  KERRT.gamma_plus, KERRT.gamma0, KERRT.c_gamma)
    assert KERRT.nbar() == 1.0
    assert maxabs(apply(gen, thermal)) <= 1e-10
    assert maxabs(propagate_kerr_finite_t(thermal, 1.0, KERRT) - thermal) <= 1e-8


def generator_residual(params, channel, t, step=1e-5):
    """Max deviation of channel's time derivative from params' generator applied to its output.

    channel is the parameter set the closed form runs with. Its output is
    the untruncated flow projected onto the window, and the generator reads
    at most two indices across, so two short of the window's edge it sees
    only exact entries. The derivative is the central difference, off by
    about step^2 times the third derivative.
    """
    dim = 12
    rho0 = seeded_density(dim, 6)
    before, at, after = propagate_pdc(rho0, [t - step, t, t + step], channel)
    gen = pdc_generator(dim, params.epsilon, params.gamma, corrected=params.corrected_mode)
    return maxabs(crop((after - before) / (2.0 * step) - apply(gen, at), dim - 2))


def test_06_pair_drive_channel_solves_the_master_equation():
    # the closed-form channel must be the flow of the generator it claims,
    # in both modes; a channel with the drive's phase conjugated is not
    eps = 0.5 + 0.6245j
    for corrected in (True, False):
        params = PDCParams(epsilon=eps, gamma=1.0, corrected_mode=corrected)
        assert generator_residual(params, params, 0.1) <= 1e-6
    params, conjugated = PDCParams(epsilon=eps, gamma=1.0), PDCParams(epsilon=np.conj(eps), gamma=1.0)
    assert generator_residual(params, conjugated, 0.1) > 1e-2

    # the drive is the pair Hamiltonian's commutator -i[H, rho], written out
    dim = 16
    a2 = np.linalg.matrix_power(annihilation(dim), 2)
    h = PDC.epsilon * a2.conj().T + np.conj(PDC.epsilon) * a2
    drive = pdc_drive(dim, PDC.epsilon)
    for i in range(3):
        rho = seeded_density(dim, 6, i)
        assert maxabs(apply(drive, rho) + 1j * (h @ rho - rho @ h)) <= 1e-13


def test_07_pair_drive_propagation_matches_untruncated_flow():
    # the reference runs the generator on wider windows until the cropped
    # result stops moving, so its own cutoff error is out of the comparison
    dim = 20
    rho0 = vacuum_density(dim)
    analytic = propagate_pdc(rho0, 0.5, PDC)

    reference, conv = converged_window_reference(
        lambda n: pdc_generator(n, PDC.epsilon, PDC.gamma), rho0, 0.5)
    assert conv <= 1e-8
    assert trace_distance(analytic, reference) <= 1e-8


def test_08_superoperator_commutator_table(table_records):
    checks = [r for r in table_records if r["kind"] == "check"]
    notes = [r for r in table_records if r["kind"] == "note"]

    assert len(checks) == 36 and len(checks) + len(notes) == len(table_records)
    for rec in checks:
        assert rec["passed"], f"{rec['name']}: residual {rec['residual']:.3e}"
        assert rec["residual"] <= 1e-10
    # the rejected-coefficient audit trail must show a clear separation
    assert len(notes) == 2
    for rec in notes:
        assert rec["residual"] > 1e-2


def test_09_integrator_self_consistency():
    dim = 8
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    rho0 = seeded_density(dim, 9)
    t = 0.4
    exact = expm_evolve(L, rho0, t)
    errs = []
    for steps in (400, 800):
        errs.append(maxabs(_rk4(L, rho0, t, steps) - exact))
    slope = math.log2(errs[0] / errs[1])
    assert abs(slope - 4.0) <= 0.3

    generators = [
        kerr_zero_t_generator(10, 1.0, 0.1),
        kerr_finite_t_generator(10, 1.0, 0.1, 0.05, 0.15, -0.1),
        pdc_generator(10, 0.3, 1.0),
    ]
    for i, gen in enumerate(generators):
        mat = build_liouvillian(gen)
        rho0 = seeded_density(10, 10, i)
        stepped = rk4_evolve(mat, rho0, 0.5)
        assert maxabs(stepped - expm_evolve(mat, rho0, 0.5)) <= 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_10_cli_determinism_and_negative_controls(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model = kerrT\ndim = 15\nchi = 1.0\ngamma_minus = 0.1\n"
        "gamma_plus = 0.05\nstate = coherent\nalpha = 1.0\n"
        "times = 0.25, 0.5\n",
        encoding="utf-8",
    )
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["propagate", "--config", str(cfg), "--out", out1]) == 0
    assert main(["propagate", "--config", str(cfg), "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()

    assert main(["verify", "--suite", "all"]) == 0
    assert main(["verify", "--suite", "kerr0", "--inject-fault", "kerr0-phase-sign"]) != 0
    assert main(["verify", "--suite", "pdc", "--inject-fault", "pdc-conjugate-eps"]) != 0
    assert main(["verify", "--suite", "pdc", "--inject-fault", "pdc-mode-flip"]) != 0
