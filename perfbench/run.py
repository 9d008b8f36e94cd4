"""fockprop benchmark: four CLI workloads, timed end to end and per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload kerr_wide --seed 1 --seconds 20 --trace 0

Workloads: kerr_wide, kerr_timeseries, pdc_scan, oracle_verify (see
workloads.py and README.md). Each is a closed loop: one client, one op at
a time, in a single fresh worker process with one BLAS thread, running
one seeded batch of ops round after round. Times are scaled to a
reference host speed (hostspeed.py), and each op's time is its median
over rounds. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-module ones from a
run that alternates untraced and traced rounds.

Set-up time is the median over several fresh processes, each timing its
own import, input generation and warm-up op. Full results, with the raw
times, the host-speed samples and the environment, go to
perfbench/out/result-<workload>-seed<seed>-trace<t>.json.
The command fails without printing a result when the fockprop sources
are not beside it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402  (stdlib only)

SETUP_PROBES = 4         # extra fresh processes that only set up; plus the measuring one
DEADLINE_S = 175.0       # the whole command must end within 180 s


def _worker(mode, args, env, timeout):
    cmd = [sys.executable, "-m", "perfbench.worker", "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread, which is at most nproc. On a 2-core shared VM, 40
    # repeats of one pdc op at dim 20 took 0.70-1.96 s with two threads and
    # 0.39-0.55 s with one: a busy neighbour stalls every two-thread barrier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _quantile(values, pct, grid=64):
    """Harrell-Davis estimate of a percentile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights, rather than one interpolated order statistic. Op times fall
    into levels (one per window), and a single order statistic at a gap
    between levels moved by twice the machine noise from run to run.
    """
    xs = sorted(values)
    n, p = len(xs), pct / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    estimate = total = 0.0
    for i, x in enumerate(xs):
        # mass of the Beta density on [i/n, (i+1)/n], by the midpoint rule
        h = 1.0 / (n * grid)
        w = h * sum(math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
                    for u in ((i + (k + 0.5) / grid) / n for k in range(grid)))
        estimate += w * x
        total += w
    return estimate / total


def op_times(ops, key="ref_s"):
    """Each op's median time over the untraced rounds, in batch order."""
    times = {}
    for op in ops:
        if not op["traced"]:
            times.setdefault(op["op"], []).append(op[key])
    return [statistics.median(times[i]) for i in sorted(times)]


def tail_percentile(n_ops):
    """A whole percentile with at least ten of n_ops ops beyond it.

    One op of margin: the Harrell-Davis estimate at 100 (n - 10) / n can
    land just above the order statistic that leaves ten beyond.
    """
    return 100 * (n_ops - 11) // n_ops


def end_to_end(measured, setups):
    from perfbench.checks import DIGITS_CAP, error_digits

    ops = measured["ops"]
    times = op_times(ops)
    tail_pct = tail_percentile(len(times))
    failed = sum(not op["ok"] for op in ops)
    checked = [op["worst"] for op in ops if not op["label"].startswith("verify")]
    tail = _quantile(times, tail_pct)
    metrics = {
        "wall_s": (math.fsum(times), "s"),
        "op_p50_ms": (1000.0 * _quantile(times, 50), "ms"),
        "op_tail_ms": (1000.0 * tail, "ms"),
        "setup_s": (statistics.median(s["setup_ref_s"] for s in setups), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "err_digits": (statistics.fmean(map(error_digits, checked)) if checked else DIGITS_CAP, "digits"),
        "ops_ok_frac": (1.0 - failed / len(ops), "ratio"),
    }
    detail = {
        "op_tail": {"percentile": tail_pct, "ops": len(times),
                    "ops_beyond": sum(t > tail for t in times)},
        "ops_failed_frac": failed / len(ops),
        "worst_deviation": max(checked, default=0.0),
        "rounds": len(measured["rounds"]),
        "raw_wall_s": math.fsum(op_times(ops, "s")),
        "unit_s_median": statistics.median(op["unit_s"] for op in ops),
    }
    return metrics, detail


def per_layer(measured):
    metrics = dict(measured["layers"])
    walls = {flag: [r["wall_s"] for r in measured["rounds"] if r["traced"] is flag]
             for flag in (True, False)}
    traced, untraced = statistics.median(walls[True]), statistics.median(walls[False])
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.coverage_violations"] = (float(len(measured["coverage"])), "count")
    detail = {"untraced_wall_s": untraced, "coverage": measured["coverage"],
              "spans_file": measured["spans_file"]}
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fockprop" / "cli.py").is_file():
        sys.stderr.write(f"fockprop sources not found under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2

    started = time.perf_counter()
    env = _child_env()
    try:
        def remaining():
            return DEADLINE_S - (time.perf_counter() - started)

        setups = [_worker("setup", args, env, remaining()) for _ in range(SETUP_PROBES)]
        measured = _worker("measure", args, env, remaining())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1
    setups.append(measured)

    ops = measured["ops"]
    failed = sum(not op["ok"] for op in ops)
    if args.trace:
        metrics, detail = per_layer(measured)
    else:
        metrics, detail = end_to_end(measured, setups)
    detail["setup_samples_s"] = [s["setup_s"] for s in setups]
    detail["setup_samples_ref_s"] = [s["setup_ref_s"] for s in setups]
    detail["warmup_ok"] = measured["warmup_ok"]
    detail["warmup_failures"] = measured["warmup_failures"]
    detail["failures"] = [f"{op['label']}: {'; '.join(op['failures'])}" for op in ops if not op["ok"]][:10]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": measured["env"], "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "ops": ops,
    }
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("env " + json.dumps(measured["env"]))
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and measured["warmup_ok"],
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
