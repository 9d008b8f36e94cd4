"""One benchmark process: set up, then (in measure mode) run a workload.

Run by run.py as ``python -m perfbench.worker`` from the repository root
with ``src`` on PYTHONPATH. A fresh process per run, so ``ru_maxrss`` is
this workload's peak and the import is paid again by every set-up. Prints
one JSON object as its last stdout line.

Set-up is the import of numpy and fockprop, generation of the batch and
one warm-up op whose parameters lie outside the batch, so the batch
starts with cold caches. Each op is timed around the ``fockprop.cli.main``
call only; writing its config and checking its output happen outside the
timed region. Between ops, and after set-up, the worker times the
host-speed unit (hostspeed.py), and each time is also given scaled to
the reference speed.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: numpy and fockprop are not imported yet

import argparse
import gc
import io
import json
import os
import resource
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

from perfbench import checks, envinfo, hostspeed, workloads
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def run_op(cli, op, workdir, tracer=None, op_id=0):
    """Run one op. Returns (seconds, exit code or exception text, stdout, csv path)."""
    cfg_path, out_path = workdir / "op.cfg", workdir / "op.csv"
    for stale in (out_path, Path(f"{out_path}.meta.json")):
        stale.unlink(missing_ok=True)
    if op.kind == "verify":
        argv = ["verify", "--suite", op.suite, "--seed", str(op.verify_seed)]
    else:
        cfg_path.write_text(workloads.format_config(op.config), encoding="utf-8")
        argv = [op.kind, "--config", str(cfg_path), "--out", str(out_path)]
        if op.engine:
            argv += ["--engine", op.engine]
    if tracer is not None:
        tracer.op = op_id
    buf = io.StringIO()
    with redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as e:  # an uncaught error is a failed op, not a crashed run
            rc = f"raised {e!r}"
        elapsed = time.perf_counter() - start
    return elapsed, rc, buf.getvalue(), out_path


def setup(workload, seed, workdir):
    """Import, inputs and warm-up op. Returns (cli, batch, warm-up result)."""
    from fockprop import cli

    batch = workloads.batch_ops(workload, seed)
    op = workloads.warmup_op(workload, seed)
    _, rc, stdout, out_path = run_op(cli, op, workdir)
    return cli, batch, checks.check_op(op, rc, stdout, out_path)


def measure(seconds, trace, cli, batch, workdir):
    """Run the batch round after round while the next round is expected to
    end within `seconds`, and at least twice.

    Every round runs the same ops in the same order, so each op is timed
    once per round. An op's `ref_s` is its time scaled by the mean of the
    host-speed samples taken just before and just after it. With trace
    on, rounds alternate untraced and traced, so the traced round walls
    minus the untraced ones give the tracing overhead.
    """
    tracer = Tracer(workloads.TRACED) if trace else None
    t_start = time.perf_counter()
    ops, rounds = [], []
    index = 0
    unit_before = hostspeed.sample_s()
    while True:
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        try:
            for i, op in enumerate(batch):
                elapsed, rc, stdout, out_path = run_op(cli, op, workdir, tracer, len(ops))
                res = checks.check_op(op, rc, stdout, out_path)
                unit_after = hostspeed.sample_s()
                unit = 0.5 * (unit_before + unit_after)
                unit_before = unit_after
                wall += elapsed
                ops.append({"label": op.label(), "op": i, "s": elapsed,
                            "ref_s": hostspeed.scaled(elapsed, unit), "unit_s": unit,
                            "ok": res.ok, "worst": res.worst, "failures": res.failures[:3],
                            "round": index, "traced": traced})
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"wall_s": wall, "traced": traced})
        index += 1
        gc.collect()
        spent = time.perf_counter() - t_start
        if spent + spent / index > seconds and index >= 2:
            break
    return ops, rounds, tracer, t_start


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, batch, warm = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        unit = hostspeed.sample_s()
        result = {"setup_s": setup_s, "setup_ref_s": hostspeed.scaled(setup_s, unit),
                  "warmup_ok": warm.ok, "warmup_failures": warm.failures}
        if args.mode == "measure":
            ops, rounds, tracer, t_start = measure(args.seconds, bool(args.trace), cli, batch, workdir)
            result.update(ops=ops, rounds=rounds,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                          env=envinfo.collect(ROOT, args.seed))
            if tracer is not None:
                wl = workloads.WORKLOADS[args.workload]
                result["layers"] = tracer.layer_stats()
                result["coverage"] = tracer.coverage(wl.expected, wl.bypassed)
                spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
                tracer.write_spans(spans_path, t_start)
                result["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
