"""Command line front end: propagate, verify, qfunc.

propagate reads a config file, evolves the configured initial state to each
requested time with the chosen engine, and writes a CSV of observables, a
JSON metadata sidecar, and optional density dumps. verify runs a named
self-check suite and exits nonzero iff any check fails. qfunc evaluates the
Husimi distribution of the evolved state on a phase-space grid.

Every output is deterministic: same inputs, byte-identical files.
"""

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import __version__
from .fock import (
    cat_state,
    coherent_state,
    density_from_ket,
    fidelity_pure,
    husimi_q,
    observables,
)
from .kerr_finite_t import KerrFiniteTParams, propagate_kerr_finite_t
from .kerr_zero_t import KerrZeroTParams, propagate_kerr_zero_t
from .oracle import (
    IntegratorConfig,
    converged_window_reference,
    expm_evolve,
    recommended_steps,
    rk4_evolve,
)
from .pdc import (
    PDCParams,
    propagate_pdc,
    transform_params,
    transformed_generator_residual,
)
from .superop import (
    apply,
    build_liouvillian,
    kerr_finite_t_generator,
    kerr_zero_t_generator,
    pdc_drive,
    pdc_drive_parts,
    pdc_generator,
    random_density,
    verify_commutator_table,
)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config files: "key = value" lines, # comments, comma-separated lists

KEY_TYPES = {
    "model": ("choice", ("kerr0", "kerrT", "pdc")),
    "dim": ("int", None),
    "chi": ("float", None),
    "gamma_minus": ("float", None),
    "gamma_plus": ("float", None),
    "gamma0": ("float", None),
    "c_gamma": ("float", None),
    "epsilon": ("complex", None),
    "gamma": ("float", None),
    "corrected_mode": ("bool", None),
    "state": ("choice", ("vacuum", "coherent", "fock", "cat")),
    "alpha": ("complex", None),
    "fock_n": ("int", None),
    "cat_phase": ("float", None),
    "times": ("floatlist", None),
    "engine": ("choice", ("analytic", "expm", "rk4")),
    "steps": ("int", None),
    "seed": ("int", None),
    "target": ("str", None),
    "dump_density": ("bool", None),
    "re_min": ("float", None),
    "re_max": ("float", None),
    "im_min": ("float", None),
    "im_max": ("float", None),
    "points_per_axis": ("int", None),
}

KEY_ORDER = list(KEY_TYPES)


def _parse_value(key, raw):
    kind, extra = KEY_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(float(raw))
        if kind == "complex":
            return _finite(complex(raw.replace(" ", "")))
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError("expected true or false")
        if kind == "floatlist":
            items = [p.strip() for p in raw.split(",") if p.strip()]
            if not items:
                raise ValueError("empty list")
            return [_finite(float(p)) for p in items]
        if kind == "choice":
            if raw not in extra:
                raise ValueError(f"expected one of {', '.join(extra)}")
            return raw
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {e}") from None


def _finite(x):
    if not cmath.isfinite(x):
        raise ValueError(f"{x} is not a finite number")
    return x


def parse_config(text):
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = _parse_value(key, raw)
    return cfg


def _format_value(key, value):
    kind, _ = KEY_TYPES[key]
    if kind == "floatlist":
        return ", ".join(repr(float(v)) for v in value)
    if kind == "bool":
        return "true" if value else "false"
    if kind == "complex":
        return str(complex(value))
    if kind == "float":
        return repr(float(value))
    return str(value)


def serialize_config(cfg):
    lines = [f"{key} = {_format_value(key, cfg[key])}" for key in KEY_ORDER if key in cfg]
    return "\n".join(lines) + "\n"


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None


def _require(cfg, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Model plumbing


def _window(cfg):
    dim = cfg["dim"]
    if dim < 2:
        raise ConfigError("dim must be at least 2")
    return dim


def _model_params(cfg):
    model = cfg["model"]
    if model == "kerr0":
        _require(cfg, "chi", "gamma_minus")
        return KerrZeroTParams(chi=cfg["chi"], gamma_minus=cfg["gamma_minus"])
    if model == "kerrT":
        _require(cfg, "chi", "gamma_minus", "gamma_plus")
        return KerrFiniteTParams(
            chi=cfg["chi"],
            gamma_minus=cfg["gamma_minus"],
            gamma_plus=cfg["gamma_plus"],
            gamma0=cfg.get("gamma0"),
            c_gamma=cfg.get("c_gamma"),
        )
    _require(cfg, "epsilon", "gamma")
    return PDCParams(
        epsilon=cfg["epsilon"],
        gamma=cfg["gamma"],
        corrected_mode=cfg.get("corrected_mode", True),
    )


def _generator_matrix(cfg, dim, params):
    model = cfg["model"]
    if model == "kerr0":
        expr = kerr_zero_t_generator(dim, params.chi, params.gamma_minus)
    elif model == "kerrT":
        expr = kerr_finite_t_generator(
            dim, params.chi, params.gamma_minus, params.gamma_plus,
            params.gamma0, params.c_gamma,
        )
    else:
        expr = pdc_generator(dim, params.epsilon, params.gamma,
                             corrected=params.corrected_mode)
    return build_liouvillian(expr)


def _initial_state(cfg, dim):
    """Initial pure state and its truncation deficit."""
    kind = cfg.get("state", "vacuum")
    if kind == "vacuum":
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        return psi, 0.0
    if kind == "coherent":
        _require(cfg, "alpha")
        return coherent_state(dim, cfg["alpha"])
    if kind == "fock":
        _require(cfg, "fock_n")
        return _fock_ket(cfg["fock_n"], dim, "fock_n"), 0.0
    _require(cfg, "alpha", "cat_phase")
    return cat_state(dim, cfg["alpha"], cfg["cat_phase"])


def _fock_ket(n, dim, what):
    if not 0 <= n < dim:
        raise ConfigError(f"{what} {n} outside window of size {dim}")
    psi = np.zeros(dim, dtype=complex)
    psi[n] = 1.0
    return psi


def _target_state(spec, dim):
    parts = spec.split()
    try:
        if parts[0] == "initial":
            return None  # resolved by caller against the initial state
        if parts[0] == "fock" and len(parts) == 2:
            return _fock_ket(int(parts[1]), dim, "target fock")
        nums = [_finite(float(p)) for p in parts[1:]]
        if parts[0] == "coherent" and len(nums) == 2:
            return coherent_state(dim, complex(nums[0], nums[1]))[0]
        if parts[0] == "cat" and len(nums) == 3:
            return cat_state(dim, complex(nums[0], nums[1]), nums[2])[0]
    except (ValueError, IndexError):
        pass
    raise ConfigError(
        f"bad target {spec!r}; use 'initial', 'coherent RE IM', 'fock N', "
        "or 'cat RE IM PHASE'"
    )


def _propagator(cfg, params, dim, engine):
    """Returns a function rho0, t -> rho(t) for the chosen engine."""
    steps = cfg.get("steps")
    if steps is not None and steps < 1:
        raise ConfigError("steps must be at least 1")
    if engine == "analytic":
        model = cfg["model"]
        if model == "kerr0":
            return lambda rho0, t: propagate_kerr_zero_t(rho0, t, params)
        if model == "kerrT":
            return lambda rho0, t: propagate_kerr_finite_t(rho0, t, params)
        return lambda rho0, t: propagate_pdc(rho0, t, params)
    mat = _generator_matrix(cfg, dim, params)
    if engine == "expm":
        return lambda rho0, t: expm_evolve(mat, rho0, t)

    def rk4(rho0, t):
        n = recommended_steps(mat, t) if steps is None else steps
        out, _ = rk4_evolve(mat, rho0, t, IntegratorConfig(steps=n, richardson=False))
        return out

    return rk4


def _g17(x):
    return format(float(x), ".17g")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# propagate


def run_propagate(config_path, out_path, engine=None, dump_density=False):
    cfg = load_config(config_path)
    _require(cfg, "model", "dim", "times")
    dim = _window(cfg)
    params = _model_params(cfg)
    engine = engine or cfg.get("engine", "analytic")
    psi0, deficit = _initial_state(cfg, dim)
    rho0 = density_from_ket(psi0)

    target = None
    if "target" in cfg:
        target = _target_state(cfg["target"], dim)
        if target is None:
            target = psi0

    step = _propagator(cfg, params, dim, engine)
    dump = dump_density or cfg.get("dump_density", False)

    header = "t,trace_re,trace_im,purity,mean_n,min_eig"
    if target is not None:
        header += ",fidelity_target"
    rows = [header]
    for i, t in enumerate(cfg["times"]):
        rho = step(rho0, t)
        obs = observables(rho)
        herm = 0.5 * (rho + rho.conj().T)
        min_eig = float(np.linalg.eigvalsh(herm).min())
        cells = [
            _g17(t),
            _g17(obs["trace"].real),
            _g17(obs["trace"].imag),
            _g17(obs["purity"]),
            _g17(obs["mean_n"]),
            _g17(min_eig),
        ]
        if target is not None:
            cells.append(_g17(fidelity_pure(target, rho)))
        rows.append(",".join(cells))
        if dump:
            dump_lines = []
            for n in range(dim):
                for m in range(dim):
                    dump_lines.append(
                        f"{n} {m} {_g17(rho[n, m].real)} {_g17(rho[n, m].imag)}"
                    )
            _write_text(f"{out_path}.rho{i}.txt", "\n".join(dump_lines) + "\n")

    _write_text(out_path, "\n".join(rows) + "\n")

    meta = {
        "config": {k: _format_value(k, v) for k, v in cfg.items()},
        "engine": engine,
        "norm_deficit": deficit,
        "seed": cfg.get("seed", 0),
        "tool_version": __version__,
    }
    _write_text(out_path + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# qfunc


def run_qfunc(config_path, out_path, engine=None):
    cfg = load_config(config_path)
    _require(cfg, "model", "dim", "times",
             "re_min", "re_max", "im_min", "im_max", "points_per_axis")
    if len(cfg["times"]) != 1:
        raise ConfigError("qfunc needs exactly one entry in times")
    pts = cfg["points_per_axis"]
    if pts < 1:
        raise ConfigError("points_per_axis must be at least 1")
    for lo, hi, nm in ((cfg["re_min"], cfg["re_max"], "re"),
                       (cfg["im_min"], cfg["im_max"], "im")):
        if lo > hi:
            raise ConfigError(f"{nm}_min exceeds {nm}_max")
        if pts > 1 and lo == hi:
            raise ConfigError(f"degenerate {nm} axis: {pts} points on a zero span")

    dim = _window(cfg)
    params = _model_params(cfg)
    engine = engine or cfg.get("engine", "analytic")
    psi0, _ = _initial_state(cfg, dim)
    rho = _propagator(cfg, params, dim, engine)(density_from_ket(psi0), cfg["times"][0])

    res = np.linspace(cfg["re_min"], cfg["re_max"], pts)
    ims = np.linspace(cfg["im_min"], cfg["im_max"], pts)
    alphas = [complex(re, im) for im in ims for re in res]  # row-major, im outer
    q = husimi_q(rho, alphas)

    rows = ["re,im,q"]
    for (alpha, val) in zip(alphas, q):
        rows.append(f"{_g17(alpha.real)},{_g17(alpha.imag)},{_g17(val)}")
    _write_text(out_path, "\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify suites

FAULTS = ("kerr0-phase-sign", "pdc-alpha-minus-flip", "pdc-branch-swap")


def _check(name, residual, tol):
    return {
        "name": name,
        "kind": "check",
        "residual": float(residual),
        "tolerance": tol,
        "passed": float(residual) <= tol,
        "note": "",
    }


def _maxabs(x):
    return float(np.max(np.abs(x)))


def _suite_kerr0(dim, seed, fault):
    dim = dim or 12
    recs = []
    chi, gm = 1.0, 0.1
    params = KerrZeroTParams(chi=chi, gamma_minus=gm)

    # closed form vs brute-force exponential on the same window; the
    # closed form is exact there, so tolerance is tight
    chi_oracle = -chi if fault == "kerr0-phase-sign" else chi
    mat = build_liouvillian(kerr_zero_t_generator(dim, chi_oracle, gm))
    worst = 0.0
    for i in range(3):
        rho0 = random_density(dim, np.random.default_rng([seed, i]))
        a = propagate_kerr_zero_t(rho0, 0.5, params)
        b = expm_evolve(mat, rho0, 0.5)
        worst = max(worst, _maxabs(a - b))
    recs.append(_check(f"propagator vs exponential, dim={dim}, t=0.5", worst, 1e-8))

    # mean occupation must decay at exactly twice the amplitude rate
    psi, _ = coherent_state(30, 2.0)
    rho0 = density_from_ket(psi)
    worst = 0.0
    for t in (0.0, 0.5, 1.0, 2.0):
        n_t = observables(propagate_kerr_zero_t(rho0, t, params))["mean_n"]
        worst = max(worst, abs(n_t - 4.0 * math.exp(-2.0 * gm * t)))
    recs.append(_check("mean occupation decay, coherent alpha=2, dim=30", worst, 1e-8))

    # undamped revival: the phases n(n-1) chi t all return to 1 at t = pi/chi
    psi, _ = coherent_state(20, 2.0)
    rho0 = density_from_ket(psi)
    lossless = KerrZeroTParams(chi=chi, gamma_minus=0.0)
    fid = fidelity_pure(psi, propagate_kerr_zero_t(rho0, math.pi / chi, lossless))
    recs.append(_check("undamped revival fidelity at t=pi/chi, dim=20", abs(1.0 - fid), 1e-8))

    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    recs.append(_check(
        "vacuum is stationary",
        _maxabs(propagate_kerr_zero_t(vac, 1.3, params) - vac),
        1e-12,
    ))
    return recs


def _suite_kerrt(dim, seed, fault):
    dim = dim or 12
    recs = []
    params = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=0.05)

    # continuity of the upward-rate limit against the zero-temperature form
    psi, _ = coherent_state(12, 1.0)
    r0 = density_from_ket(psi)
    warm = KerrFiniteTParams(chi=1.0, gamma_minus=0.1, gamma_plus=1e-8)
    cold = KerrZeroTParams(chi=1.0, gamma_minus=0.1)
    recs.append(_check(
        "gamma_plus -> 0 continuity, dim=12, t=0.5",
        _maxabs(
            propagate_kerr_finite_t(r0, 0.5, warm)
            - propagate_kerr_zero_t(r0, 0.5, cold)
        ),
        1e-6,
    ))

    # thermal stationarity at nbar = 1 on a window wide enough that the
    # geometric tail beyond the cutoff is below the tolerance
    nth = 40
    weights = 0.5 ** (np.arange(nth) + 1)
    rho_th = np.diag(weights / weights.sum()).astype(complex)
    gen = kerr_finite_t_generator(nth, 1.0, 0.1, 0.05, 0.15, -0.1)
    recs.append(_check(
        "thermal state annihilated by the generator, dim=40",
        _maxabs(apply(gen, rho_th)),
        1e-10,
    ))
    recs.append(_check(
        "thermal state fixed by the propagator, dim=40, t=0.7",
        _maxabs(propagate_kerr_finite_t(rho_th, 0.7, params) - rho_th),
        1e-8,
    ))

    # against a wide-window integrator, which removes the oracle's own
    # cutoff error from the comparison
    rho0 = random_density(dim, np.random.default_rng([seed, 13]))

    def build(n):
        return build_liouvillian(kerr_finite_t_generator(n, 1.0, 0.1, 0.05, 0.15, -0.1))

    ref, conv = converged_window_reference(build, rho0, 0.5, pad=16, check=8,
                                           method="rk4", accuracy=1e-9)
    recs.append(_check(
        f"wide-window integrator self-convergence, dim={dim}+pad",
        conv, 1e-10,
    ))
    recs.append(_check(
        f"resummed propagator vs wide-window integrator, dim={dim}, t=0.5",
        _maxabs(propagate_kerr_finite_t(rho0, 0.5, params) - ref),
        1e-10,
    ))
    return recs


def _suite_pdc(dim, seed, fault):
    dim = dim or 16
    if dim < 12:
        raise ConfigError("pdc suite needs dim >= 12")
    recs = []
    params = PDCParams(epsilon=0.3, gamma=1.0)

    # anchor values of the de-driving coefficients at eps=0.6, gamma=1
    anchor = transform_params(PDCParams(epsilon=0.6, gamma=1.0))
    worst = max(
        abs(anchor.alpha_plus - 1j / 3.0),
        abs(anchor.alpha_minus - (-0.375j)),
        abs(anchor.lam - 0.8),
    )
    recs.append(_check("transform anchor values at eps=0.6, gamma=1", worst, 1e-12))

    xform = transform_params(params)
    if fault == "pdc-alpha-minus-flip":
        xform = type(xform)(alpha_plus=xform.alpha_plus,
                            alpha_minus=-xform.alpha_minus, lam=xform.lam)
    elif fault == "pdc-branch-swap":
        # the quadratic's other root, i (gamma + r) / conj(eps), diverges as eps -> 0
        other = 1j * params.gamma * (1.0 + xform.lam) / np.conj(params.epsilon)
        xform = type(xform)(alpha_plus=other, alpha_minus=-xform.alpha_minus, lam=xform.lam)

    recs.append(_check(
        f"transformed generator matches the damping target, dim={dim}",
        transformed_generator_residual(params, xform, dim=dim),
        1e-8,
    ))

    # drive splits into its four one-sided pieces exactly
    parts = pdc_drive_parts(dim, params.epsilon)
    whole = build_liouvillian(pdc_drive(dim, params.epsilon))
    summed = sum(build_liouvillian(p) for p in parts.values())
    recs.append(_check("drive equals the sum of its four pieces", _maxabs(whole - summed), 1e-14))

    # against a wide-window integrator: the closed form solves the
    # untruncated flow, so a same-window exponential would differ from it
    # by the cutoff error; windows 18 and 20 keep the suite quick
    small, t = 10, 0.4
    vac = np.zeros((small, small), dtype=complex)
    vac[0, 0] = 1.0

    def build(n):
        return build_liouvillian(pdc_generator(n, params.epsilon, params.gamma))

    ref, conv = converged_window_reference(build, vac, t, pad=8, check=2)
    recs.append(_check(f"wide-window integrator self-convergence, dim={small}+pad", conv, 1e-8))
    recs.append(_check(
        f"propagation vs wide-window integrator, vacuum, dim={small}, t={t}",
        _maxabs(propagate_pdc(vac, t, params, xform=xform) - ref),
        1e-8,
    ))
    return recs


def _suite_tables(dim, seed, fault):
    dim = dim or 12
    return verify_commutator_table(dim, epsilon=0.3, gamma=1.0, samples=10, seed=seed)


SUITES = {
    "kerr0": _suite_kerr0,
    "kerrT": _suite_kerrt,
    "pdc": _suite_pdc,
    "tables": _suite_tables,
}


def run_verify(suite, dim=None, seed=0, out=None, fault=None):
    if fault is not None and fault not in FAULTS:
        raise ConfigError(f"unknown fault {fault!r}; known: {', '.join(FAULTS)}")
    if dim is not None and dim < 2:
        raise ConfigError("dim must be at least 2")
    names = list(SUITES) if suite == "all" else [suite]

    lines = [f"fockprop {__version__} verification report",
             f"suite: {suite}  seed: {seed}" + (f"  fault: {fault}" if fault else "")]
    failed = 0
    checked = 0
    for name in names:
        records = SUITES[name](dim, seed, fault)
        for rec in records:
            kind = rec["kind"]
            if kind == "check":
                checked += 1
                verdict = "PASS" if rec["passed"] else "FAIL"
                failed += 0 if rec["passed"] else 1
                lines.append(
                    f"[{name}] {verdict} {rec['name']}: residual {rec['residual']:.3e}"
                    f" tol {rec['tolerance']:.0e}"
                )
            elif kind == "note":
                lines.append(
                    f"[{name}] NOTE {rec['name']}: residual {rec['residual']:.3e}"
                    + (f" ({rec['note']})" if rec["note"] else "")
                )
            else:
                lines.append(f"[{name}] UNVERIFIABLE {rec['name']}: {rec['note']}")
    lines.append(
        f"{checked} checks, {failed} failed" if failed
        else f"{checked} checks, all passed"
    )
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if out:
        _write_text(out, report)
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fockprop",
        description="closed-form Fock-space propagators with self-verification",
    )
    parser.add_argument("--version", action="version", version=f"fockprop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="evolve a state and tabulate observables")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--engine", choices=("analytic", "expm", "rk4"))
    p.add_argument("--dump-density", action="store_true")

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", required=True, choices=("kerr0", "kerrT", "pdc", "tables", "all"))
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--inject-fault", dest="fault")

    p = sub.add_parser("qfunc", help="Husimi distribution on a phase-space grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--engine", choices=("analytic", "expm", "rk4"))

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        if args.command == "propagate":
            return run_propagate(args.config, args.out, engine=args.engine,
                                 dump_density=args.dump_density)
        if args.command == "verify":
            return run_verify(args.suite, dim=args.dim, seed=args.seed,
                              out=args.out, fault=args.fault)
        return run_qfunc(args.config, args.out, engine=args.engine)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
