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
import functools
import json
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import __version__
from .fock import (
    _chunks, _hermitian_mean, cat_state, coherent_state, density_from_ket, fidelity_pure,
    husimi_q, observables,
)
from .oracle import action_evolve, expm_evolve, rk4_evolve
from .superop import build_liouvillian
from .verify import FAULTS, MODELS, SUITES, report


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Model plumbing


# The oracle engines: generator, rho0, t -> rho(t). Like verify.MODELS, the
# entries look the engine up when they run, so a rebound name reaches them.
ENGINES = {
    "expm": lambda L, rho0, t: expm_evolve(L, rho0, t),
    "rk4": lambda L, rho0, t: rk4_evolve(L, rho0, t),
    "action": lambda L, rho0, t: action_evolve(L, rho0, t),
}


PARAM_KINDS = {f.name: f.type.__name__ for m in MODELS.values() for f in fields(m.params)}


# ---------------------------------------------------------------------------
# Config files: "key = value" lines, # comments, comma-separated lists

KEY_TYPES = {
    "model": ("choice", tuple(MODELS)),
    "dim": ("int", None),
    **{key: (kind, None) for key, kind in PARAM_KINDS.items()},
    "state": ("choice", ("vacuum", "coherent", "fock", "cat")),
    "alpha": ("complex", None),
    "fock_n": ("int", None),
    "cat_phase": ("float", None),
    "times": ("floatlist", None),
    "engine": ("choice", ("analytic", *ENGINES)),
    "target": ("str", None),
    "dump_density": ("bool", None),
    "re_min": ("float", None),
    "re_max": ("float", None),
    "im_min": ("float", None),
    "im_max": ("float", None),
    "points_per_axis": ("int", None),
}


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


def _window(dim):
    if dim < 2:
        raise ConfigError("dim must be at least 2")
    return dim


def _model_params(cfg):
    """The model's parameters from the config; another model's keys are refused."""
    cls = MODELS[cfg["model"]].params
    foreign = [k for k in cfg if k in PARAM_KINDS and k not in {f.name for f in fields(cls)}]
    if foreign:
        raise ConfigError(f"model {cfg['model']} takes no {', '.join(foreign)}")
    _require(cfg, *(f.name for f in fields(cls) if f.default is MISSING))
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg})


def _initial_state(cfg, dim):
    """Initial pure state and its truncation deficit."""
    kind = cfg.get("state", "vacuum")
    if kind == "vacuum":
        return _fock_ket(0, dim, "vacuum"), 0.0
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


def _target_state(spec, initial):
    parts = spec.split()
    try:
        if parts[0] == "initial":
            return initial
        if parts[0] == "fock" and len(parts) == 2:
            return _fock_ket(int(parts[1]), initial.size, "target fock")
        nums = [_finite(float(p)) for p in parts[1:]]
        if parts[0] == "coherent" and len(nums) == 2:
            return coherent_state(initial.size, complex(nums[0], nums[1]))[0]
        if parts[0] == "cat" and len(nums) == 3:
            return cat_state(initial.size, complex(nums[0], nums[1]), nums[2])[0]
    except (ValueError, IndexError):
        pass
    raise ConfigError(
        f"bad target {spec!r}; use 'initial', 'coherent RE IM', 'fock N', "
        "or 'cat RE IM PHASE'"
    )


def _propagator(cfg, params, dim, engine):
    """Returns a function rho0, times -> the (T, dim, dim) stack of rho(t).

    The closed forms evolve the times together; the oracle engines evolve
    one time after another into the stack, on one generator built here.
    """
    model = MODELS[cfg["model"]]
    if engine == "analytic":
        return lambda rho0, times: model.closed_form(rho0, times, params)
    gen = build_liouvillian(model.generator(dim, params))
    evolve = ENGINES[engine]
    return lambda rho0, times: np.stack([evolve(gen, rho0, t) for t in times])


def _evolved(evolve, rho0, times, dim):
    """(times, stack) per chunk: a slice of the times and their states.

    A chunk holds as many times as the shared entry budget allows for
    states of dim^2 entries, so memory stays bounded however many times
    the config lists.
    """
    for part in _chunks(len(times), dim * dim):
        yield times[part], evolve(rho0, times[part])


def _filled(template, values):
    """template % the entries of an array, as Python floats in C order.

    Every text output is a block of rows whose numbers are %.17g fields,
    filled with one %; "%.17g" % x is format(x, ".17g"), -0 and all.
    """
    return template % tuple(np.asarray(values, dtype=float).reshape(-1).tolist())


def _csv_rows(columns):
    """Comma-separated rows of equal-length columns, each ending in a newline."""
    table = np.column_stack([np.asarray(c, dtype=float).reshape(-1) for c in columns])
    return _filled((",".join(["%.17g"] * table.shape[1]) + "\n") * len(table), table)


def _qfunc_rows(res, ims, q):
    """The re,im,q rows of a row-major grid, im outer, each ending in a newline.

    Each axis value is formatted once, into a row template that q fills in.
    """
    re_text, im_text = (_filled("%.17g\n" * len(x), x).split() for x in (res, ims))
    return _filled("".join(f"{re},{im},%.17g\n" for im in im_text for re in re_text), q)


def _engine_fault(engine, times, e):
    """The error of check e failed at times[e.index]: the input is valid, so it blames the engine."""
    return ValueError(f"the {engine} engine's state at t = {times[e.index]:g} "
                      f"failed its checks: {e}")


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None


# ---------------------------------------------------------------------------
# propagate


# tau of the min_eig column, relative to max(1, |tr rho|): inside the
# tightest positivity check a caller makes (1e-12), and far above the
# rounding of a Cholesky of a healthy state
MIN_EIG_SHIFT = 1e-13


def _min_eig_bound(rhos):
    """min(lambda_min, -tau) of the Hermitian part of each slice of a (T, dim, dim) stack.

    tau = MIN_EIG_SHIFT max(1, |tr rho|). A Cholesky of H + tau I that
    succeeds proves lambda_min(H) > -tau (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 10.1) at about a quarter of an
    eigensolve's cost, so a stack that factorises reads -tau. One that does
    not is split into its slices, and a slice that still fails reads its
    eigvalsh minimum: each slice reads what a chunk of one time would.
    """
    tau = MIN_EIG_SHIFT * np.maximum(1.0, np.abs(np.trace(rhos, axis1=-2, axis2=-1)))
    shifted = _hermitian_mean(rhos)
    shifted.reshape(len(rhos), -1)[:, ::rhos.shape[-1] + 1] += tau[:, None]  # the diagonals
    try:
        np.linalg.cholesky(shifted)
        return -tau
    except np.linalg.LinAlgError:
        if len(rhos) > 1:
            return np.concatenate([_min_eig_bound(rhos[i:i + 1]) for i in range(len(rhos))])
    return np.minimum(np.linalg.eigvalsh(_hermitian_mean(rhos)).min(axis=-1), -tau)


def run_propagate(config_path, out_path, engine=None, dump_density=False):
    cfg = load_config(config_path)
    _require(cfg, "model", "dim", "times")
    dim = _window(cfg["dim"])
    params = _model_params(cfg)
    engine = engine or cfg.get("engine", "analytic")
    psi0, deficit = _initial_state(cfg, dim)
    rho0 = density_from_ket(psi0)

    target = _target_state(cfg["target"], psi0) if "target" in cfg else None

    evolve = _propagator(cfg, params, dim, engine)
    dump = dump_density or cfg.get("dump_density", False)
    # a dump's lines are "n m re im", n outer: one template serves every time
    cells = ("".join(f"{n} {m} %.17g %.17g\n" for n in range(dim) for m in range(dim))
             if dump else None)

    header = "t,trace_re,trace_im,purity,mean_n,min_eig"
    if target is not None:
        header += ",fidelity_target"
    rows = [header + "\n"]
    done = 0                       # times already written
    for ts, rhos in _evolved(evolve, rho0, cfg["times"], dim):
        try:
            obs = observables(rhos)
            fidelity = [] if target is None else [fidelity_pure(target, rhos)]
        except ValueError as e:
            raise _engine_fault(engine, ts, e) from None
        columns = [ts, obs["trace"].real, obs["trace"].imag, obs["purity"], obs["mean_n"],
                   _min_eig_bound(rhos), *fidelity]
        if dump:
            for i, rho in enumerate(rhos, start=done):
                _write_text(f"{out_path}.rho{i}.txt",
                            _filled(cells, np.stack((rho.real, rho.imag), axis=-1)))
        rows.append(_csv_rows(columns))
        done += len(ts)

    _write_text(out_path, "".join(rows))

    meta = {
        "config": {k: _format_value(k, v) for k, v in cfg.items()},
        "engine": engine,
        "norm_deficit": deficit,
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

    dim = _window(cfg["dim"])
    params = _model_params(cfg)
    engine = engine or cfg.get("engine", "analytic")
    psi0, _ = _initial_state(cfg, dim)
    rho = _propagator(cfg, params, dim, engine)(density_from_ket(psi0), cfg["times"])[0]
    try:
        observables(rho)
    except ValueError as e:
        raise _engine_fault(engine, cfg["times"], e) from None

    res = np.linspace(cfg["re_min"], cfg["re_max"], pts)
    ims = np.linspace(cfg["im_min"], cfg["im_max"], pts)
    alphas = np.empty((pts, pts), dtype=complex)   # row-major, im outer
    alphas.real, alphas.imag = res, ims[:, None]
    q = husimi_q(rho, alphas.reshape(-1))

    _write_text(out_path, "re,im,q\n" + _qfunc_rows(res, ims, q))
    return 0


# ---------------------------------------------------------------------------
# verify


def run_verify(suite, dim=None, seed=0, out=None, fault=None):
    if fault is not None and fault not in FAULTS:
        raise ConfigError(f"unknown fault {fault!r}; known: {', '.join(FAULTS)}")
    if fault is not None and suite not in ("all", FAULTS[fault]):
        raise ConfigError(f"fault {fault!r} is planted by the {FAULTS[fault]} suite, "
                          f"not by {suite}")
    if dim is not None:
        _window(dim)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    text, failed = report(suite, dim, seed, fault)
    sys.stdout.write(text)
    if out:
        _write_text(out, text)
    return 1 if failed else 0


# ---------------------------------------------------------------------------


@functools.cache
def _parser():
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fockprop",
        description="closed-form Fock-space propagators with self-verification",
    )
    parser.add_argument("--version", action="version", version=f"fockprop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="evolve a state and tabulate observables")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--engine", choices=KEY_TYPES["engine"][1])
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
    p.add_argument("--engine", choices=KEY_TYPES["engine"][1])
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    # an overflow or nan is caught by the finiteness checks, which name it
    # in one error line; numpy's own floating-point warnings would only echo
    # library source lines
    try:
        with np.errstate(all="ignore"):
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
