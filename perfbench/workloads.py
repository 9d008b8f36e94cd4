"""Seeded operation generators for the four benchmark workloads.

An op is one call of ``fockprop.cli.main(argv)`` on a generated config
file. A workload run is a closed loop over rounds of one fixed batch:
``random.Random(f"{workload}/{seed}")`` draws the batch, so the same
seed gives the same inputs, and every round runs the same ops in the same
order. Every batch runs the same ladder of windows across the workload's
range: op cost is steep in the window (up to dim^6), so seeded windows
would let the seed move the cost of a run by more than the noise of the
machine. The seed sets every other parameter.

Only the standard library is used here: the inputs do not depend on the
numpy version under test.
"""

import math
import random
from dataclasses import dataclass, field

# Functions of the package, by module, that the traced run wraps.
TRACED = {
    "cli": ("run_propagate", "run_qfunc", "run_verify"),
    "fock": ("observables", "fidelity_pure", "husimi_q"),
    "kerr_zero_t": ("propagate_kerr_zero_t", "exp_fR_jminus_apply", "exp_diag_apply"),
    "kerr_finite_t": ("propagate_kerr_finite_t", "exp_gR_jplus_apply"),
    "pdc": ("transform_params", "transformed_generator_residual",
            "transform_matrices", "propagate_pdc", "exp_jtilde_apply"),
    "superop": ("build_liouvillian", "apply", "verify_commutator_table"),
    "oracle": ("expm_dense", "expm_evolve", "rk4_evolve", "converged_window_reference"),
}


@dataclass
class Op:
    """One CLI call. ``config`` holds the config-file keys, in file order."""

    kind: str                      # "propagate", "qfunc" or "verify"
    config: dict = field(default_factory=dict)
    engine: str = None             # --engine for propagate
    suite: str = None              # --suite for verify
    verify_seed: int = None        # --seed for verify

    def label(self):
        if self.kind == "verify":
            return f"verify/{self.suite}"
        engine = self.engine or "analytic"
        return f"{self.kind}/{self.config['model']}/{engine}/dim{self.config['dim']}"


def format_config(cfg):
    """key = value lines; repr keeps every float and complex exact."""
    lines = []
    for key, value in cfg.items():
        if isinstance(value, (list, tuple)):
            text = ", ".join(repr(float(v)) for v in value)
        elif isinstance(value, complex):
            text = repr(complex(value))
        elif isinstance(value, float):
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _polar(rng, r_lo, r_hi):
    return complex(rng.uniform(r_lo, r_hi) * math.e ** (1j * rng.uniform(0, 2 * math.pi)))


def _state(rng, cfg, r_lo, r_hi, cat=True):
    alpha = _polar(rng, r_lo, r_hi)
    if cat and rng.random() < 0.5:
        cfg.update(state="cat", alpha=alpha, cat_phase=rng.uniform(0, 2 * math.pi))
    else:
        cfg.update(state="coherent", alpha=alpha)
    return alpha


def _kerr_rates(rng, cfg, model, up_ratio):
    cfg["chi"] = rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.25)
    cfg["gamma_minus"] = rng.uniform(0.05, 0.5)
    if model == "kerrT":
        cfg["gamma_plus"] = cfg["gamma_minus"] * rng.uniform(*up_ratio)


def _rotated_target(rng, alpha):
    beta = alpha * rng.uniform(0.6, 1.0) * complex(math.e ** (1j * rng.uniform(-1.5, 1.5)))
    return f"coherent {beta.real!r} {beta.imag!r}"


# ---------------------------------------------------------------------------
# kerr_wide: big windows, the series kernels dominate


def _kerr_wide_op(rng, model, dim, times=None):
    cfg = {"model": model, "dim": dim}
    _kerr_rates(rng, cfg, model, (0.1, 0.5))
    alpha = _state(rng, cfg, 3.0, 5.0)
    cfg["times"] = times or sorted(2.0 * (i + rng.random()) / 4 for i in range(4))
    cfg["target"] = _rotated_target(rng, alpha)
    return Op("propagate", cfg)


def kerr_wide_batch(rng):
    # windows stay below 172, where math.factorial overflows in the kernels
    ops = []
    for dim in _shuffled(rng, range(96, 161, 4)):
        pair = [_kerr_wide_op(rng, "kerr0", dim), _kerr_wide_op(rng, "kerrT", dim)]
        ops.extend(pair if rng.random() < 0.5 else pair[::-1])
    return ops


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# kerr_timeseries: small windows, many time points, fixed cost per call


def _small_alpha(dim, per_level=1 / 16):
    # |alpha|^2 <= dim / 16 keeps the coherent tail beyond a window of 16
    # or more below 2e-14, and dim / 40 keeps it below 1e-15 from dim 12 up,
    # so the untruncated references hold on the window
    hi = math.sqrt(dim * per_level)
    return 0.6 * hi, hi


def _timeseries_op(rng, model, dim):
    cfg = {"model": model, "dim": dim}
    # gamma_plus / gamma_minus <= 0.08 puts nbar below 0.09, so the thermal
    # tail above a 16-level window stays below 1e-16
    _kerr_rates(rng, cfg, model, (0.02, 0.08))
    _state(rng, cfg, *_small_alpha(dim))
    t_max = rng.uniform(1.0, 3.0)
    cfg["times"] = [t_max * (i + 1) / 200 for i in range(200)]
    cfg["target"] = "initial"
    return Op("propagate", cfg)


def _qfunc_op(rng, dim, points):
    cfg = {"model": "kerr0", "dim": dim}
    _kerr_rates(rng, cfg, "kerr0", None)
    alpha = _state(rng, cfg, *_small_alpha(dim))
    cfg["times"] = [rng.uniform(0.2, 2.0)]
    span = abs(alpha) + 2.5
    cfg.update(re_min=-span, re_max=span, im_min=-span, im_max=span,
               points_per_axis=points)
    return Op("qfunc", cfg)


def kerr_timeseries_batch(rng):
    # 24 ops, so that ten lie beyond a tail percentile above the median
    ops = []
    for dim, points in zip((16, 20, 24, 28, 32, 36, 40, 48), range(40, 81, 5)):
        ops += [_timeseries_op(rng, "kerr0", dim), _timeseries_op(rng, "kerrT", dim),
                _qfunc_op(rng, dim, points)]
    return _shuffled(rng, ops)


# ---------------------------------------------------------------------------
# pdc_scan: dense pair-drive path, each parameter set used by two ops


def _pdc_op(dim, eps, gamma, t_max, alpha):
    cfg = {"model": "pdc", "dim": dim, "epsilon": eps, "gamma": gamma}
    if alpha is None:
        cfg["state"] = "vacuum"
    else:
        cfg.update(state="coherent", alpha=alpha)
    cfg["times"] = [t_max * (i + 1) / 3 for i in range(3)]
    return Op("propagate", cfg)


def _pdc_pair(rng, dim, ratio):
    gamma = rng.uniform(0.5, 2.0)
    eps = complex(ratio * gamma * math.e ** (1j * rng.uniform(0, 2 * math.pi)))
    # gamma t = dim / 160, at most 0.15 at dim 24: the dense path loses
    # hermiticity past about gamma t = 0.2 at eps/gamma = 0.8, dim >= 20.
    # A fixed gamma t also keeps the expm squarings, and so the cost, steady.
    t_max = dim / 160 / gamma
    pair = [_pdc_op(dim, eps, gamma, t_max, None),
            _pdc_op(dim, eps, gamma, t_max, _polar(rng, 0.2, 0.5))]
    rng.shuffle(pair)
    return pair


# Two parameter sets at each window 12-16 and one at each window 17-20:
# 28 ops, about 8 s on a 2-core shared VM, so a 30 s run holds three
# rounds. One pair at window 24 alone took 5.5 s there.
PDC_WINDOWS = (12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 18, 19, 20)


def pdc_scan_batch(rng):
    # Swept upwards: the pair-drive cache keeps the last 8 parameter sets,
    # fewer than a batch holds, so every round misses on the first op of
    # each pair and hits on the second, and a seeded order would let the
    # seed move the peak memory.
    n = len(PDC_WINDOWS)
    ratios = [0.1 + 0.7 * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(ratios)
    ops = []
    for dim, ratio in zip(PDC_WINDOWS, ratios):
        ops.extend(_pdc_pair(rng, dim, ratio))
    return ops


# ---------------------------------------------------------------------------
# oracle_verify: the verify suites and the dense engines


def _engine_op(rng, model, engine, dim):
    cfg = {"model": model, "dim": dim}
    _kerr_rates(rng, cfg, model, (0.02, 0.08))
    alpha = _state(rng, cfg, *_small_alpha(dim, 1 / 40), cat=False)
    # a narrow time range keeps the RK4 step count, and so the cost, steady
    cfg["times"] = sorted(rng.uniform(0.5, 1.0) for _ in range(2))
    cfg["target"] = _rotated_target(rng, alpha)
    return Op("propagate", cfg, engine=engine)


def oracle_verify_batch(rng):
    # --seed 0-23 pass every suite of fockprop 0.1.0; the kerrT suite's
    # literal-path checks fail for some later seeds (24 and 35 among 0-49)
    ops = [Op("verify", suite=s, verify_seed=rng.randrange(24))
           for s in ("kerr0", "kerrT", "pdc", "tables")]
    for model in ("kerr0", "kerrT"):
        for engine in ("expm", "rk4"):
            ops += [_engine_op(rng, model, engine, d) for d in range(12, 21, 2)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_batch: object       # rng -> [Op]
    warmup: object           # rng -> Op, with parameters outside the batch
    expected: tuple          # module.function that must be called in a traced run
    bypassed: tuple          # modules whose functions must not be called


_KERNELS = ("kerr_zero_t.propagate_kerr_zero_t", "kerr_zero_t.exp_fR_jminus_apply",
            "kerr_zero_t.exp_diag_apply", "kerr_finite_t.propagate_kerr_finite_t",
            "kerr_finite_t.exp_gR_jplus_apply")

WORKLOADS = {
    "kerr_wide": Workload(
        kerr_wide_batch,
        # window 98 lies between the batch's windows; below about 96 the
        # tail of an |alpha| = 5 state with thermal noise reaches the edge
        # of the window, and the untruncated reference no longer holds
        lambda rng: _kerr_wide_op(rng, "kerrT", 98, [0.5, 1.0]),
        expected=("cli.run_propagate", "fock.observables", "fock.fidelity_pure") + _KERNELS,
        bypassed=("superop", "oracle", "pdc"),
    ),
    "kerr_timeseries": Workload(
        kerr_timeseries_batch,
        lambda rng: _qfunc_op(rng, 14, 20),
        expected=("cli.run_propagate", "cli.run_qfunc", "fock.observables",
                  "fock.fidelity_pure", "fock.husimi_q") + _KERNELS,
        bypassed=("superop", "oracle", "pdc"),
    ),
    "pdc_scan": Workload(
        pdc_scan_batch,
        lambda rng: _pdc_op(10, 0.05, 1.0, 0.06, None),
        expected=("cli.run_propagate", "fock.observables")
        + tuple(f"pdc.{f}" for f in TRACED["pdc"])
        + ("superop.build_liouvillian", "oracle.expm_dense"),
        bypassed=("kerr_zero_t", "kerr_finite_t"),
    ),
    "oracle_verify": Workload(
        oracle_verify_batch,
        lambda rng: _engine_op(rng, "kerr0", "rk4", 8),
        expected=("cli.run_propagate", "cli.run_verify")
        + tuple(f"superop.{f}" for f in TRACED["superop"])
        + tuple(f"oracle.{f}" for f in TRACED["oracle"]),
        bypassed=(),
    ),
}


def batch_ops(workload, seed):
    """The ops of one round of a workload run with this seed."""
    return WORKLOADS[workload].make_batch(random.Random(f"{workload}/{seed}"))


def warmup_op(workload, seed):
    return WORKLOADS[workload].warmup(random.Random(f"{workload}/{seed}/warmup"))
