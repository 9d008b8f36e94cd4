"""The benchmark's own tests: inputs, checks, tracing and the command.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The traced-coverage test runs two rounds of every workload, about 90 s;
the whole file takes about two minutes.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockprop import cli, kerr_zero_t
from perfbench import checks, hostspeed, tracing, worker, workloads

ROOT = Path(__file__).resolve().parents[2]


def _rounds(workload, seed, workdir, trace=False):
    """Run the batch twice; with trace, once untraced and once traced."""
    batch = workloads.batch_ops(workload, seed)
    ops, _, tracer, _ = worker.measure(0.0, trace, cli, batch, workdir)
    return ops, tracer


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    again = workloads.batch_ops(workload, 5)
    assert workloads.batch_ops(workload, 5) == again
    assert workloads.batch_ops(workload, 6) != again
    assert workloads.warmup_op(workload, 5) not in again


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_batch_has_ten_ops_beyond_a_tail_above_the_median(workload):
    from perfbench import run

    n = len(workloads.batch_ops(workload, 1))
    assert run.tail_percentile(n) > 50
    assert n * (100 - run.tail_percentile(n)) / 100 >= 11


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_warmup_ops_pass_their_checks(workload, tmp_path):
    for seed in range(12):
        op = workloads.warmup_op(workload, seed)
        _, rc, stdout, out_path = worker.run_op(cli, op, tmp_path)
        assert checks.check_op(op, rc, stdout, out_path).ok, (seed, op)


def test_pdc_parameter_sets_are_used_by_two_ops():
    keys = [(op.config["dim"], op.config["epsilon"], op.config["gamma"])
            for op in workloads.batch_ops("pdc_scan", 3)]
    assert all(keys.count(k) == 2 for k in keys)


def test_kerr_wide_windows_stay_below_the_factorial_overflow():
    for seed in range(20):
        for op in workloads.batch_ops("kerr_wide", seed):
            assert 96 <= op.config["dim"] <= 160


def test_timings_take_each_ops_median_over_untraced_rounds():
    from perfbench import run

    ops = [{"op": 0, "ref_s": 3.0, "traced": False}, {"op": 1, "ref_s": 1.0, "traced": False},
           {"op": 0, "ref_s": 2.0, "traced": False}, {"op": 1, "ref_s": 1.5, "traced": False},
           {"op": 0, "ref_s": 0.5, "traced": True}, {"op": 1, "ref_s": 0.5, "traced": True}]
    assert run.op_times(ops) == [2.5, 1.25]


def test_times_scale_to_the_reference_host_speed():
    assert hostspeed.scaled(3.0, 2 * hostspeed.REFERENCE_S) == 1.5
    assert 0 < hostspeed.sample_s() < 1.0


def test_kerr0_reference_matches_the_mean_occupation_law():
    cfg = {"model": "kerr0", "dim": 60, "chi": 0.7, "gamma_minus": 0.3,
           "state": "cat", "alpha": 2 + 1j, "cat_phase": 0.4}
    psi0, _ = checks.initial_ket(cfg)
    rho = checks.kerr0_density(cfg, 0.8)
    assert abs(np.trace(rho) - 1) < 1e-12
    n = np.arange(60)
    assert abs(np.sum(n * np.diag(rho)).real - checks.mean_n(psi0) * np.exp(-0.48)) < 1e-12


def test_flipped_kerr_sign_fails_ops(tmp_path):
    """Negative control: a planted wrong answer must show up as failed ops."""
    original = kerr_zero_t.propagate_kerr_zero_t

    def flipped(rho0, t, params):
        return original(rho0, t, dataclasses.replace(params, chi=-params.chi))

    sites = tracing.rebind(original, flipped)
    try:
        for workload in ("kerr_wide", "kerr_timeseries"):
            ops, _ = _rounds(workload, 4, tmp_path)
            failed = [op for op in ops if not op["ok"]]
            assert len(failed) / len(ops) > 0, workload
            assert all("kerr0" in op["label"] for op in failed)
    finally:
        tracing.restore(sites, original)
    assert kerr_zero_t.propagate_kerr_zero_t is original


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_covers_its_layers_and_passes_its_checks(workload, tmp_path):
    ops, tracer = _rounds(workload, 7, tmp_path, trace=True)
    assert all(op["ok"] for op in ops), [op["failures"] for op in ops if not op["ok"]]
    spec = workloads.WORKLOADS[workload]
    assert tracer.coverage(spec.expected, spec.bypassed) == []
    stats = tracer.layer_stats()
    for name in tracer.names:
        calls, self_s, total_s = (stats[f"{name}.{k}"][0] for k in ("calls", "self_s", "total_s"))
        assert 0 <= self_s <= total_s + 1e-9
        assert (calls == 0) == (total_s == 0)
    # wrappers are gone once the traced round ends
    assert cli.run_propagate.__module__ == "fockprop.cli"
    assert not hasattr(cli.run_propagate, "__wrapped__")


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer({"a": ("outer", "inner")})
    tracer.rounds = 1
    tracer.spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 3.0, 0, 0), (1, 4.0, 8.0, 0, 0)]
    stats = tracer.layer_stats()
    assert stats["a.outer.total_s"][0] == 10.0
    assert stats["a.outer.self_s"][0] == 4.0
    assert stats["a.inner.self_s"][0] == 6.0
    assert stats["a.inner.calls"][0] == 2


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable] + command[1:] + [
        "--workload", "kerr_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_printed_metrics_match_benchmark_json():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer(workloads.TRACED)
    tracer.rounds = 1
    measured = {
        "ops": [{"label": "propagate/kerr0/analytic/dim96", "op": i, "s": 0.1, "ok": True,
                 "worst": 1e-13, "traced": False, "ref_s": 0.1, "unit_s": 0.008}
                for i in range(24)],
        "rounds": [{"wall_s": 2.4, "traced": False}, {"wall_s": 2.4, "traced": True}],
        "peak_rss_mb": 40.0, "layers": tracer.layer_stats(), "coverage": [], "spans_file": "",
    }
    e2e, _ = run.end_to_end(measured, [{"setup_s": 0.2, "setup_ref_s": 0.2}])
    layers, _ = run.per_layer(measured)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layers}.items())
