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
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Callable

import numpy as np

from . import __version__
from .fock import (
    _chunks, cat_state, coherent_state, density_from_ket, fidelity_pure, husimi_q, observables,
)
from .kerr_finite_t import KerrFiniteTParams, propagate_kerr_finite_t
from .kerr_zero_t import KerrZeroTParams, propagate_kerr_zero_t
from .oracle import IntegratorConfig, expm_evolve, recommended_steps, rk4_evolve
from .pdc import PDCParams, propagate_pdc
from .superop import (
    build_liouvillian, kerr_finite_t_generator, kerr_zero_t_generator, pdc_generator,
)
from .verify import FAULTS, SUITES, report


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


def _model_params(cfg):
    """The model's parameters from the config; fields without a default are required."""
    cls = MODELS[cfg["model"]].params
    _require(cfg, *(f.name for f in fields(cls) if f.default is MISSING))
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg})


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
    """Returns a function rho0, times -> the states rho(t), one per time.

    The closed forms return them as one (T, dim, dim) stack; the dense
    engines evolve one time after another and keep each result's layout.
    """
    steps = cfg.get("steps")
    if steps is not None and steps < 1:
        raise ConfigError("steps must be at least 1")
    model = MODELS[cfg["model"]]
    if engine == "analytic":
        return lambda rho0, times: model.closed_form(rho0, times, params)
    mat = build_liouvillian(model.generator(dim, params))

    def one(rho0, t):
        if engine == "expm":
            return expm_evolve(mat, rho0, t)
        n = recommended_steps(mat, t) if steps is None else steps
        out, _ = rk4_evolve(mat, rho0, t, IntegratorConfig(steps=n, richardson=False))
        return out

    return lambda rho0, times: [one(rho0, t) for t in times]


def _evolved(evolve, rho0, times, dim):
    """(t, rho(t)) for each time, evolved one chunk of times at a time.

    A chunk holds as many times as the shared entry budget allows for
    states of dim^2 entries, so memory stays bounded however many times
    the config lists.
    """
    for part in _chunks(len(times), dim * dim):
        yield from zip(times[part], evolve(rho0, times[part]))


def _g17(x):
    return format(float(x), ".17g")


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None


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

    evolve = _propagator(cfg, params, dim, engine)
    dump = dump_density or cfg.get("dump_density", False)

    header = "t,trace_re,trace_im,purity,mean_n,min_eig"
    if target is not None:
        header += ",fidelity_target"
    rows = [header]
    for i, (t, rho) in enumerate(_evolved(evolve, rho0, cfg["times"], dim)):
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
    rho = _propagator(cfg, params, dim, engine)(density_from_ket(psi0), cfg["times"])[0]

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
# verify


def run_verify(suite, dim=None, seed=0, out=None, fault=None):
    if fault is not None and fault not in FAULTS:
        raise ConfigError(f"unknown fault {fault!r}; known: {', '.join(FAULTS)}")
    if dim is not None and dim < 2:
        raise ConfigError("dim must be at least 2")
    text, failed = report(suite, dim, seed, fault)
    sys.stdout.write(text)
    if out:
        _write_text(out, text)
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
    p.add_argument("--suite", required=True, choices=(*SUITES, "all"))
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
    except (ConfigError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
