"""Self-check suites behind `fockprop verify`.

Each suite returns a list of record dicts: a "check" has a residual held to a
tolerance, and a "note" is reported without a verdict. report() runs suites
and formats their records; it fails iff any check does. A planted fault (one
of FAULTS) swaps a correct ingredient for a wrong one, and the suite that
covers it must then fail.

MODELS is the one table of each model's parameters, closed form and the
generator that closed form solves; the CLI and every suite build from it.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .fock import (
    _maxabs, annihilation, coherent_state, density_from_ket, fidelity_pure, observables,
)
from .kerr_finite_t import KerrFiniteTParams, propagate_kerr_finite_t
from .kerr_zero_t import KerrZeroTParams, propagate_kerr_zero_t
from .oracle import converged_window_reference, expm_evolve
from .pdc import PDCParams, _channel_row, _rates, propagate_pdc
from .superop import (
    _record,
    apply,
    build_liouvillian,
    kerr_finite_t_generator,
    kerr_zero_t_generator,
    pdc_drive,
    pdc_generator,
    random_density,
    verify_commutator_table,
)



@dataclass(frozen=True)
class _Model:
    params: type           # parameter dataclass, one field per config key
    closed_form: Callable  # rho0, t, params -> rho(t), or the stack of a 1-D t
    generator: Callable    # dim, params -> the generator on that window


# The entries look this module's names up when they run, so a rebound name
# (a profiler's wrapper, a test's monkeypatch) reaches them.
MODELS = {
    "kerr0": _Model(
        KerrZeroTParams,
        lambda rho0, t, p: propagate_kerr_zero_t(rho0, t, p),
        lambda dim, p: kerr_zero_t_generator(dim, p.chi, p.gamma_minus),
    ),
    "kerrT": _Model(
        KerrFiniteTParams,
        lambda rho0, t, p: propagate_kerr_finite_t(rho0, t, p),
        lambda dim, p: kerr_finite_t_generator(
            dim, p.chi, p.gamma_minus, p.gamma_plus, p.gamma0, p.c_gamma),
    ),
    "pdc": _Model(
        PDCParams,
        lambda rho0, t, p: propagate_pdc(rho0, t, p),
        lambda dim, p: pdc_generator(dim, p.epsilon, p.gamma, corrected=p.corrected_mode),
    ),
}

# each planted fault and the suite that plants it
FAULTS = {"kerr0-phase-sign": "kerr0", "pdc-conjugate-eps": "pdc", "pdc-mode-flip": "pdc",
          "tables-kerr-phase-sign": "tables"}


def _check_of(name, residual, tol):
    """_record of residual(). A closed form that returns no density matrix
    makes fock's observables raise a ValueError; the check then fails with
    residual inf and the error as its note, and the suite goes on."""
    try:
        value = residual()
    except ValueError as err:
        return _record(name, math.inf, tol, note=str(err))
    return _record(name, value, tol)


def _against_wide_window(generator, rho0, t, result, name, tol):
    """Two checks of `result` = rho0 evolved to t on its own window.

    The closed forms solve the untruncated flow, so a same-window exponential
    would differ from them by the cutoff error. The reference is evolved on
    wider windows instead, widened until it stops moving
    (`converged_window_reference`); first its own convergence is checked,
    then `result` against it.
    """
    ref, conv = converged_window_reference(generator, rho0, t)
    return [
        _record(f"wide-window exponential self-convergence, dim={len(rho0)}", conv, tol),
        _record(name, _maxabs(result - ref), tol),
    ]


def _suite_kerr0(dim, seed, fault):
    dim = dim or 12
    recs = []
    model = MODELS["kerr0"]
    chi, gm = 1.0, 0.1
    params = KerrZeroTParams(chi=chi, gamma_minus=gm)

    # closed form vs brute-force exponential on the same window; the
    # closed form is exact there, so tolerance is tight
    oracle = KerrZeroTParams(-chi, gm) if fault == "kerr0-phase-sign" else params
    gen = build_liouvillian(model.generator(dim, oracle))
    worst = 0.0
    for i in range(3):
        rho0 = random_density(dim, np.random.default_rng([seed, i]))
        a = model.closed_form(rho0, 0.5, params)
        b = expm_evolve(gen, rho0, 0.5)
        worst = np.maximum(worst, _maxabs(a - b))  # keeps a nan
    recs.append(_record(f"propagator vs exponential, dim={dim}, t=0.5", worst, 1e-13))

    # mean occupation must decay at exactly twice the amplitude rate
    psi, _ = coherent_state(30, 2.0)
    rho0 = density_from_ket(psi)
    ts = np.array([0.0, 0.5, 1.0, 2.0])
    recs.append(_check_of(
        "mean occupation decay, coherent alpha=2, dim=30",
        lambda: _maxabs(observables(model.closed_form(rho0, ts, params))["mean_n"]
                        - 4.0 * np.exp(-2.0 * gm * ts)),
        1e-8,
    ))

    # undamped revival: the phases n(n-1) chi t all return to 1 at t = pi/chi
    psi, _ = coherent_state(20, 2.0)
    rho0 = density_from_ket(psi)
    lossless = KerrZeroTParams(chi=chi, gamma_minus=0.0)
    recs.append(_check_of(
        "undamped revival fidelity at t=pi/chi, dim=20",
        lambda: abs(1.0 - fidelity_pure(psi, model.closed_form(rho0, math.pi / chi, lossless))),
        1e-8,
    ))

    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    recs.append(_record(
        "vacuum is stationary",
        _maxabs(model.closed_form(vac, 1.3, params) - vac),
        1e-12,
    ))
    return recs


def _suite_kerrt(dim, seed, fault):
    dim = dim or 12
    recs = []
    model = MODELS["kerrT"]
    params = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.05)

    # continuity of the upward-rate limit against the zero-temperature form
    psi, _ = coherent_state(12, 1.0)
    r0 = density_from_ket(psi)
    warm = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=1e-8)
    cold = KerrZeroTParams(chi=1.0, gamma_minus=0.1)
    recs.append(_record(
        "gamma_plus -> 0 continuity, dim=12, t=0.5",
        _maxabs(
            model.closed_form(r0, 0.5, warm)
            - MODELS["kerr0"].closed_form(r0, 0.5, cold)
        ),
        1e-6,
    ))

    # thermal stationarity at nbar = 1 on a window wide enough that the
    # geometric tail beyond the cutoff is below the tolerance
    nth = 40
    weights = 0.5 ** (np.arange(nth) + 1)
    rho_th = np.diag(weights / weights.sum()).astype(complex)
    recs.append(_record(
        "thermal state annihilated by the generator, dim=40",
        _maxabs(apply(model.generator(nth, params), rho_th)),
        1e-10,
    ))
    recs.append(_record(
        "thermal state fixed by the propagator, dim=40, t=0.7",
        _maxabs(model.closed_form(rho_th, 0.7, params) - rho_th),
        1e-8,
    ))

    rho0 = random_density(dim, np.random.default_rng([seed, 13]))
    recs += _against_wide_window(
        lambda n: model.generator(n, params), rho0, 0.5, model.closed_form(rho0, 0.5, params),
        f"resummed propagator vs wide-window exponential, dim={dim}, t=0.5", 1e-13,
    )
    return recs


def _suite_pdc(dim, seed, fault):
    dim = dim or 16
    recs = []
    model = MODELS["pdc"]
    eps = 0.5 + 0.6245j
    params = PDCParams(epsilon=eps, gamma=1.0)

    # at eps = 0.6, gamma = 1 the corrected channel has w = 2 |eps| = 1.2; at
    # t = ln(2) / w, cosh(w t) = 5/4 and sinh(w t) = 3/4, so C = 5/4 + 2 (3/4) / 1.2
    # = 5/2 and kappa = (3/4) / (1.2 C) = 1/4, the flow's u and exp(d t) / hinv at k = 0
    t = math.log(2.0) / 1.2
    anchor = PDCParams(epsilon=0.6, gamma=1.0)
    kappa, log_hinv = _channel_row(anchor, np.array([t]))
    recs.append(_record(
        "channel anchor values kappa=1/4, C=5/2 at eps=0.6, gamma=1, t=ln(2)/1.2",
        _maxabs(np.array([kappa[0] - 0.25, math.exp(log_hinv[0] - _rates(anchor)[0] * t) - 0.4])),
        1e-12,
    ))

    # the drive is the pair Hamiltonian's commutator, written out directly
    a2 = np.linalg.matrix_power(annihilation(dim), 2)
    h = eps * a2.conj().T + np.conj(eps) * a2
    drive = pdc_drive(dim, eps)
    rho = np.stack([random_density(dim, np.random.default_rng([seed, i])) for i in range(3)])
    recs.append(_record("drive equals -i[eps adag^2 + conj(eps) a^2, rho]",
                        _maxabs(apply(drive, rho) + 1j * (h @ rho - rho @ h)), 1e-13))

    # a planted fault runs the channel with eps conjugated, or with the
    # other mode's damping rates, against the reference of the right flow
    channel = params
    if fault == "pdc-conjugate-eps":
        channel = PDCParams(epsilon=np.conj(eps), gamma=1.0)
    elif fault == "pdc-mode-flip":
        channel = PDCParams(epsilon=eps, gamma=1.0, corrected_mode=False)
    t = 0.05
    rho0 = random_density(dim, np.random.default_rng([seed, 13]))
    recs += _against_wide_window(
        lambda n: model.generator(n, params), rho0, t, model.closed_form(rho0, t, channel),
        f"propagation vs wide-window exponential, random state, dim={dim}, t={t}", 1e-13,
    )
    return recs


def _suite_tables(dim, seed, fault):
    dim = dim or 12
    return verify_commutator_table(dim, seed=seed, fault=fault)


SUITES = {
    "kerr0": _suite_kerr0,
    "kerrT": _suite_kerrt,
    "pdc": _suite_pdc,
    "tables": _suite_tables,
}

# smallest window a suite accepts beyond the CLI's dim >= 2
MIN_DIM = {"tables": 10}


def report(suite, dim, seed, fault):
    """Run one suite, or all with suite="all". Returns (text, failed checks).

    A NOTE or FAIL line ends with its record's note, a PASS line never.

    A dim below any selected suite's MIN_DIM is refused before a suite runs.
    """
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if dim is not None and dim < MIN_DIM.get(name, 0):
            raise ValueError(f"{name} suite needs dim >= {MIN_DIM[name]}")
    lines = [f"fockprop {__version__} verification report",
             f"suite: {suite}  seed: {seed}" + (f"  fault: {fault}" if fault else "")]
    failed = 0
    checked = 0
    for name in names:
        for rec in SUITES[name](dim, seed, fault):
            kind = rec["kind"]
            if kind == "check":
                checked += 1
                verdict = "PASS" if rec["passed"] else "FAIL"
                failed += 0 if rec["passed"] else 1
                lines.append(
                    f"[{name}] {verdict} {rec['name']}: residual {rec['residual']:.3e}"
                    f" tol {rec['tolerance']:.0e}"
                    + (f" ({rec['note']})" if rec["note"] and not rec["passed"] else "")
                )
            else:
                lines.append(
                    f"[{name}] NOTE {rec['name']}: residual {rec['residual']:.3e}"
                    + (f" ({rec['note']})" if rec["note"] else "")
                )
    lines.append(
        f"{checked} checks, {failed} failed" if failed
        else f"{checked} checks, all passed"
    )
    return "\n".join(lines) + "\n", failed
