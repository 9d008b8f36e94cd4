import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fockprop import __version__, cli, verify
from fockprop.cli import ConfigError, main, parse_config, serialize_config
from fockprop.fock import observables
from fockprop.oracle import converged_window_reference
from fockprop.superop import build_liouvillian, pdc_generator


def cfg_file(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return header, rows


def read_density(path, dim):
    rho = np.zeros((dim, dim), dtype=complex)
    for line in Path(path).read_text().strip().splitlines():
        n_s, m_s, re_s, im_s = line.split()
        rho[int(n_s), int(m_s)] = complex(float(re_s), float(im_s))
    return rho


KERR0_DECAY = """\
# zero-temperature decay run
model = kerr0
dim = 30
chi = 1.0
gamma_minus = 0.1
state = coherent
alpha = 2.0
times = 0.0, 0.5, 1.0
"""


def test_config_round_trip_is_idempotent():
    cfg = parse_config(KERR0_DECAY)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_config_round_trip_covers_every_value_kind():
    text = (
        "model = pdc\ndim = 16\nepsilon = (0.3+0.1j)\ngamma = 1.0\n"
        "corrected_mode = true\nstate = fock\nfock_n = 2\n"
        "times = 0.1, 0.25\nengine = expm\nseed = 7\ntarget = fock 2\n"
    )
    cfg = parse_config(text)
    assert cfg["epsilon"] == 0.3 + 0.1j
    assert cfg["corrected_mode"] is True
    assert cfg["times"] == [0.1, 0.25]
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config("dim = 8\nwibble = 3\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config("dim = 8\nchi = 1.0\ndim = 9\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("dim = 8\njust some words\n")
    with pytest.raises(ConfigError, match="bad value for 'dim'"):
        parse_config("dim = eight\n")
    with pytest.raises(ConfigError, match="bad value for 'model'"):
        parse_config("model = kerr3\n")
    with pytest.raises(ConfigError, match="bad value for 'times'"):
        parse_config("times = ,\n")
    for text in ("chi = nan\n", "gamma = inf\n", "epsilon = (nan+1j)\n", "times = 0.1, -inf\n"):
        with pytest.raises(ConfigError, match="not a finite number"):
            parse_config(text)


def non_finite_rates(text):
    """Variants of a kerr0 config with a non-finite Kerr or kerrT rate."""
    return [text.replace("chi = 1.0", "chi = nan"),
            text.replace("kerr0", "kerrT") + "gamma_plus = nan\n",
            text.replace("kerr0", "kerrT") + "gamma_plus = inf\n"]


def test_propagate_decay_table_and_determinism(tmp_path):
    cfg = cfg_file(tmp_path, KERR0_DECAY)
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["propagate", "--config", cfg, "--out", out1]) == 0
    assert main(["propagate", "--config", cfg, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()

    header, rows = read_csv(out1)
    assert header == ["t", "trace_re", "trace_im", "purity", "mean_n", "min_eig"]
    for t, trace_re, trace_im, purity, mean_n, min_eig in rows:
        assert abs(mean_n - 4.0 * math.exp(-0.2 * t)) < 1e-6
        assert abs(trace_re - 1.0) < 1e-10 and abs(trace_im) < 1e-14
        assert min_eig > -1e-10

    meta = json.loads(Path(out1 + ".meta.json").read_text())
    assert meta["engine"] == "analytic"
    assert meta["config"]["model"] == "kerr0"
    assert meta["seed"] == 0
    assert -1e-12 < meta["norm_deficit"] < 1e-10
    assert meta["tool_version"]


def test_propagate_fidelity_against_initial(tmp_path):
    cfg = cfg_file(tmp_path, (
        "model = kerr0\ndim = 20\nchi = 1.0\ngamma_minus = 0.0\n"
        "state = coherent\nalpha = 1.5\n"
        f"times = {math.pi}\ntarget = initial\n"
    ))
    out = str(tmp_path / "revival.csv")
    assert main(["propagate", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[-1] == "fidelity_target"
    assert abs(rows[0][-1] - 1.0) < 1e-8


def test_propagate_density_dump(tmp_path):
    cfg = cfg_file(tmp_path, (
        "model = kerr0\ndim = 6\nchi = 1.0\ngamma_minus = 0.1\n"
        "state = coherent\nalpha = 1.0\ntimes = 0.3\n"
    ))
    out = str(tmp_path / "run.csv")
    assert main(["propagate", "--config", cfg, "--out", out, "--dump-density"]) == 0
    assert len(Path(out + ".rho0.txt").read_text().strip().splitlines()) == 36
    rho = read_density(out + ".rho0.txt", 6)
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_chunked_times_match_one_time_runs(tmp_path):
    # 60 times at window 24 span several chunks of the time stack; each row
    # and dump must not depend on which chunk, or which other times, it ran with
    base = ("model = kerrT\ndim = 24\nchi = -1.1\ngamma_minus = 0.3\ngamma_plus = 0.02\n"
            "state = cat\nalpha = (0.9-0.6j)\ncat_phase = 1.2\ntarget = initial\n")
    times = [0.05 * i for i in range(60)]
    many = str(tmp_path / "many.csv")
    cfg = cfg_file(tmp_path, base + "times = " + ", ".join(map(repr, times)) + "\n")
    assert main(["propagate", "--config", cfg, "--out", many, "--dump-density"]) == 0
    rows = Path(many).read_text().splitlines()
    assert len(rows) == 61
    for i, t in enumerate(times):
        one = str(tmp_path / f"one{i}.csv")
        cfg = cfg_file(tmp_path, base + f"times = {t!r}\n", name=f"one{i}.cfg")
        assert main(["propagate", "--config", cfg, "--out", one, "--dump-density"]) == 0
        header, row = Path(one).read_text().splitlines()
        assert (header, row) == (rows[0], rows[i + 1])
        assert Path(f"{one}.rho0.txt").read_bytes() == Path(f"{many}.rho{i}.txt").read_bytes()


def _peak_mib(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_long_time_series_runs_in_bounded_memory(tmp_path):
    # numpy reports its buffers to tracemalloc: 400 states of window 48
    # held at once would take 14 MiB, and their temporaries 73 MiB
    times = ", ".join(repr(0.01 * (i + 1)) for i in range(400))
    cfg = cfg_file(tmp_path, (
        "model = kerrT\ndim = 48\nchi = 1.0\ngamma_minus = 0.2\ngamma_plus = 0.01\n"
        f"state = coherent\nalpha = 1.5\ntarget = initial\ntimes = {times}\n"
    ))
    assert _peak_mib(["propagate", "--config", cfg, "--out", str(tmp_path / "run.csv")]) < 4.0


def test_large_qfunc_grid_runs_in_bounded_memory(tmp_path):
    # the 22,500 coherent amplitude columns of window 48 take 16 MiB at once
    cfg = cfg_file(tmp_path, (
        "model = kerr0\ndim = 48\nchi = 1.0\ngamma_minus = 0.1\ntimes = 0.5\n"
        "state = coherent\nalpha = 1.5\n"
        "re_min = -4.0\nre_max = 4.0\nim_min = -4.0\nim_max = 4.0\npoints_per_axis = 150\n"
    ))
    assert _peak_mib(["qfunc", "--config", cfg, "--out", str(tmp_path / "q.csv")]) < 12.0


KERRT_BASE = (
    "model = kerrT\ndim = 24\nchi = 1.0\ngamma_minus = 0.1\ngamma_plus = 0.05\n"
    "state = coherent\nalpha = 1.0\ntimes = 0.5\n"
)


def test_engines_agree_on_finite_temperature_run(tmp_path):
    cfg = cfg_file(tmp_path, KERRT_BASE)
    tables = {}
    for engine in ("analytic", "expm", "rk4"):
        out = str(tmp_path / f"{engine}.csv")
        assert main(["propagate", "--config", cfg, "--out", out, "--engine", engine]) == 0
        tables[engine] = np.array(read_csv(out)[1])
    for engine in ("expm", "rk4"):
        assert np.max(np.abs(tables[engine] - tables["analytic"])) < 1e-7


def test_engines_agree_on_pair_drive_run(tmp_path):
    # the analytic engine returns the untruncated flow on the window, so it
    # is held to a wide-window reference; the dense engine evolves the
    # truncated window and differs from both by the cutoff error
    cfg = cfg_file(tmp_path, (
        "model = pdc\ndim = 16\nepsilon = 0.3\ngamma = 1.0\ntimes = 0.4\n"
    ))
    outs = {}
    for engine in ("analytic", "expm"):
        out = str(tmp_path / f"{engine}.csv")
        assert main(["propagate", "--config", cfg, "--out", out, "--engine", engine]) == 0
        outs[engine] = np.array(read_csv(out)[1][0])

    vac = np.zeros((16, 16), dtype=complex)
    vac[0, 0] = 1.0
    ref, conv = converged_window_reference(
        lambda n: build_liouvillian(pdc_generator(n, 0.3, 1.0)), vac, 0.4, pad=8, check=4,
    )
    obs = observables(ref)
    row = np.array([0.4, obs["trace"].real, obs["trace"].imag, obs["purity"], obs["mean_n"],
                    np.linalg.eigvalsh(0.5 * (ref + ref.conj().T)).min()])
    assert conv < 1e-9
    assert np.max(np.abs(outs["analytic"] - row)) < 1e-8
    assert np.max(np.abs(outs["expm"] - row)) < 1e-4


def test_pair_drive_run_stays_physical(tmp_path):
    # near threshold the evolved state spreads to the window's edge; the
    # result must still be a density matrix on the window
    cfg = cfg_file(tmp_path, (
        "model = pdc\ndim = 24\nepsilon = 0.5+0.6245j\ngamma = 1.0\n"
        "state = vacuum\ntimes = 0.1, 0.3, 0.6\n"
    ))
    out = str(tmp_path / "run.csv")
    assert main(["propagate", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 3
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["min_eig"] >= -1e-12
        assert 0.0 < cells["trace_re"] <= 1.0 + 1e-12


@pytest.mark.parametrize("epsilon", [0.98, 0.99])
def test_pair_drive_run_near_threshold_matches_untruncated_flow(tmp_path, epsilon):
    # a valid drive just below threshold must be answered, and the vacuum
    # stays accurate there despite the dressing's growth
    cfg = cfg_file(tmp_path, (
        f"model = pdc\ndim = 16\nepsilon = {epsilon}\ngamma = 1.0\n"
        "state = vacuum\ntimes = 0.1\n"
    ))
    out = str(tmp_path / "run.csv")
    assert main(["propagate", "--config", cfg, "--out", out, "--dump-density"]) == 0
    rho = read_density(out + ".rho0.txt", 16)

    vac = np.zeros((16, 16), dtype=complex)
    vac[0, 0] = 1.0
    ref, conv = converged_window_reference(
        lambda n: build_liouvillian(pdc_generator(n, epsilon, 1.0)), vac, 0.1,
        pad=8, check=4, method="expm",
    )
    assert conv < 1e-12
    assert np.max(np.abs(rho - ref)) <= conv + 1e-12


def test_engine_from_config_is_used(tmp_path):
    cfg = cfg_file(tmp_path, KERR0_DECAY + "engine = expm\n")
    out = str(tmp_path / "run.csv")
    assert main(["propagate", "--config", cfg, "--out", out]) == 0
    meta = json.loads(Path(out + ".meta.json").read_text())
    assert meta["engine"] == "expm"


def test_propagate_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    bad_dim = cfg_file(tmp_path, "model = kerr0\ndim = 1\nchi = 1.0\ngamma_minus = 0.1\ntimes = 0.1\n", "a.cfg")
    assert main(["propagate", "--config", bad_dim, "--out", out]) == 2
    missing = cfg_file(tmp_path, "model = kerr0\ndim = 8\nchi = 1.0\ngamma_minus = 0.1\ntimes = 0.1\nstate = coherent\n", "b.cfg")
    assert main(["propagate", "--config", missing, "--out", out]) == 2
    bad_fock = cfg_file(tmp_path, "model = kerr0\ndim = 8\nchi = 1.0\ngamma_minus = 0.1\ntimes = 0.1\nstate = fock\nfock_n = 8\n", "c.cfg")
    assert main(["propagate", "--config", bad_fock, "--out", out]) == 2
    bad_target = cfg_file(tmp_path, KERR0_DECAY + "target = nearest pole\n", "d.cfg")
    assert main(["propagate", "--config", bad_target, "--out", out]) == 2
    for target in ("fock -1", "fock 30", "coherent nan 0", "cat 1 0 inf"):
        outside = cfg_file(tmp_path, KERR0_DECAY + f"target = {target}\n", "e.cfg")
        assert main(["propagate", "--config", outside, "--out", out]) == 2
    for i, text in enumerate(non_finite_rates(KERR0_DECAY)):
        nan_rate = cfg_file(tmp_path, text, f"f{i}.cfg")
        assert main(["propagate", "--config", nan_rate, "--out", out]) == 2
    backward = cfg_file(tmp_path, KERR0_DECAY.replace("0.0, 0.5, 1.0", "-1.0, 0.5"), "g.cfg")
    for engine in ("analytic", "expm", "rk4"):
        assert main(["propagate", "--config", backward, "--out", out, "--engine", engine]) == 2
    for steps in (0, -2):
        no_steps = cfg_file(tmp_path, KERR0_DECAY + f"steps = {steps}\n", "h.cfg")
        assert main(["propagate", "--config", no_steps, "--out", out, "--engine", "rk4"]) == 2
    no_cat = cfg_file(tmp_path, KERR0_DECAY.replace(
        "state = coherent\nalpha = 2.0", "state = cat\nalpha = 0.0\ncat_phase = 3.141592653589793"), "i.cfg")
    assert main(["propagate", "--config", no_cat, "--out", out]) == 2
    assert main(["propagate", "--config", str(tmp_path / "nope.cfg"), "--out", out]) == 2
    good = cfg_file(tmp_path, KERR0_DECAY, "j.cfg")
    assert main(["propagate", "--config", good, "--out", str(tmp_path / "no" / "x.csv")]) == 2


def test_propagate_long_times_stay_finite(tmp_path):
    # at t = 1500 the weights' exponentials over- and underflow unless the
    # flow is written so that nothing in it grows with t
    cfg = cfg_file(tmp_path, (
        "model = kerrT\ndim = 8\nchi = 1.0\ngamma_minus = 0.5\ngamma_plus = 0.1\n"
        "state = coherent\nalpha = 1.0\ntimes = 1.0, 1500.0\ntarget = initial\n"
    ))
    out = str(tmp_path / "long.csv")
    assert main(["propagate", "--config", cfg, "--out", out]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2
    assert all(math.isfinite(cell) for row in rows for cell in row)


QFUNC_VACUUM = (
    "model = kerr0\ndim = 8\nchi = 1.0\ngamma_minus = 0.1\ntimes = 0.0\n"
    "re_min = 0.0\nre_max = 2.0\nim_min = 0.0\nim_max = 2.0\npoints_per_axis = 2\n"
)


def test_qfunc_vacuum_values_and_row_order(tmp_path):
    cfg = cfg_file(tmp_path, QFUNC_VACUUM)
    out = str(tmp_path / "q.csv")
    assert main(["qfunc", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["re", "im", "q"]
    got = [(r[0], r[1]) for r in rows]
    assert got == [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)]
    for (re, im, q) in rows:
        want = math.exp(-(re * re + im * im)) / math.pi
        assert abs(q - want) < 1e-12


def test_qfunc_quadrature_sums_to_one(tmp_path):
    cfg = cfg_file(tmp_path, (
        "model = kerr0\ndim = 20\nchi = 1.0\ngamma_minus = 0.1\ntimes = 0.0\n"
        "state = coherent\nalpha = 1.0\n"
        "re_min = -4.0\nre_max = 4.0\nim_min = -4.0\nim_max = 4.0\n"
        "points_per_axis = 41\n"
    ))
    out = str(tmp_path / "q.csv")
    assert main(["qfunc", "--config", cfg, "--out", out]) == 0
    _, rows = read_csv(out)
    d_area = (8.0 / 40.0) ** 2
    total = sum(r[2] for r in rows) * d_area
    assert abs(total - 1.0) < 1e-2


def test_qfunc_single_point_grid(tmp_path):
    cfg = cfg_file(tmp_path, (
        "model = kerr0\ndim = 8\nchi = 1.0\ngamma_minus = 0.1\ntimes = 0.0\n"
        "re_min = 0.5\nre_max = 0.5\nim_min = -0.25\nim_max = -0.25\n"
        "points_per_axis = 1\n"
    ))
    out = str(tmp_path / "q.csv")
    assert main(["qfunc", "--config", cfg, "--out", out]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    want = math.exp(-(0.5**2 + 0.25**2)) / math.pi
    assert abs(rows[0][2] - want) < 1e-12


def test_qfunc_usage_errors(tmp_path):
    out = str(tmp_path / "q.csv")
    degenerate = cfg_file(tmp_path, QFUNC_VACUUM.replace("re_max = 2.0", "re_max = 0.0"), "a.cfg")
    assert main(["qfunc", "--config", degenerate, "--out", out]) == 2
    two_times = cfg_file(tmp_path, QFUNC_VACUUM.replace("times = 0.0", "times = 0.0, 0.5"), "b.cfg")
    assert main(["qfunc", "--config", two_times, "--out", out]) == 2
    inverted = cfg_file(tmp_path, QFUNC_VACUUM.replace("im_min = 0.0", "im_min = 3.0"), "c.cfg")
    assert main(["qfunc", "--config", inverted, "--out", out]) == 2
    for dim in (0, 1):
        small = cfg_file(tmp_path, QFUNC_VACUUM.replace("dim = 8", f"dim = {dim}"), "d.cfg")
        assert main(["qfunc", "--config", small, "--out", out]) == 2
    for i, text in enumerate(non_finite_rates(QFUNC_VACUUM)):
        nan_rate = cfg_file(tmp_path, text, f"e{i}.cfg")
        assert main(["qfunc", "--config", nan_rate, "--out", out]) == 2
    good = cfg_file(tmp_path, QFUNC_VACUUM, "f.cfg")
    assert main(["qfunc", "--config", good, "--out", str(tmp_path / "no" / "q.csv")]) == 2


def test_verify_suites_pass_and_report(tmp_path):
    report = tmp_path / "report.txt"
    assert main(["verify", "--suite", "tables", "--out", str(report)]) == 0
    text = report.read_text()
    assert text.splitlines()[0].startswith("fockprop")
    assert "UNVERIFIABLE" in text
    assert "FAIL" not in text
    assert main(["verify", "--suite", "kerr0"]) == 0
    for seed in (24, 35):
        assert main(["verify", "--suite", "kerrT", "--seed", str(seed)]) == 0
    assert main(["verify", "--suite", "kerrT", "--dim", "16", "--out", str(report)]) == 0
    wide = [line for line in report.read_text().splitlines() if "wide-window" in line]
    assert len(wide) == 2 and all("dim=16" in line for line in wide)


def test_verify_faults_are_caught(tmp_path):
    assert main(["verify", "--suite", "kerr0", "--inject-fault", "kerr0-phase-sign"]) == 1
    for fault in ("pdc-alpha-minus-flip", "pdc-branch-swap"):
        report = tmp_path / f"{fault}.txt"
        assert main(["verify", "--suite", "pdc", "--inject-fault", fault,
                     "--out", str(report)]) == 1
        failed = [line for line in report.read_text().splitlines() if " FAIL " in line]
        assert any("damping target" in line for line in failed)
        assert any("propagation vs wide-window integrator" in line for line in failed)
    assert main(["verify", "--suite", "kerr0", "--inject-fault", "made-up"]) == 2


def test_top_level_usage(tmp_path):
    assert main(["--version"]) == 0
    assert main([]) == 2
    assert main(["verify", "--suite", "bogus"]) == 2
    for dim in ("0", "1"):
        assert main(["verify", "--suite", "kerr0", "--dim", dim]) == 2
    assert main(["verify", "--suite", "kerr0", "--out", str(tmp_path / "no" / "r.txt")]) == 2


def test_dense_engines_out_of_memory_exit_2(tmp_path, monkeypatch, capsys):
    # a window too large for the dense dim^2 x dim^2 generator must end in a
    # usage error, not a traceback; no real allocation is attempted here
    def refuse(expr):
        raise MemoryError(f"Unable to allocate the generator for dim {expr.dim}")

    monkeypatch.setattr(cli, "build_liouvillian", refuse)
    monkeypatch.setattr(verify, "build_liouvillian", refuse)
    assert main(["verify", "--suite", "kerr0", "--dim", "400"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate the generator for dim 400\n"
    cfg = cfg_file(tmp_path, KERR0_DECAY)
    for engine in ("expm", "rk4"):
        assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--engine", engine]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")


# `verify --suite all --seed 0` with residuals masked: pins which checks run,
# their names, tolerances and order
VERIFY_ALL_SEED0 = """\
suite: all  seed: 0
[kerr0] PASS propagator vs exponential, dim=12, t=0.5: residual * tol 1e-08
[kerr0] PASS mean occupation decay, coherent alpha=2, dim=30: residual * tol 1e-08
[kerr0] PASS undamped revival fidelity at t=pi/chi, dim=20: residual * tol 1e-08
[kerr0] PASS vacuum is stationary: residual * tol 1e-12
[kerrT] PASS gamma_plus -> 0 continuity, dim=12, t=0.5: residual * tol 1e-06
[kerrT] PASS thermal state annihilated by the generator, dim=40: residual * tol 1e-10
[kerrT] PASS thermal state fixed by the propagator, dim=40, t=0.7: residual * tol 1e-08
[kerrT] PASS wide-window integrator self-convergence, dim=12+pad: residual * tol 1e-10
[kerrT] PASS resummed propagator vs wide-window integrator, dim=12, t=0.5: residual * tol 1e-10
[pdc] PASS transform anchor values at eps=0.6, gamma=1: residual * tol 1e-12
[pdc] PASS transformed generator matches the damping target, dim=16: residual * tol 1e-08
[pdc] PASS drive equals the sum of its four pieces: residual * tol 1e-14
[pdc] PASS wide-window integrator self-convergence, dim=10+pad: residual * tol 1e-08
[pdc] PASS propagation vs wide-window integrator, vacuum, dim=10, t=0.4: residual * tol 1e-08
[tables] PASS [pair_sink, jump_down_scaled] = 0: residual * tol 1e-10
[tables] PASS [jump_down_scaled, pair_sink] = -(0): residual * tol 1e-10
[tables] PASS [pair_sink, cross_shift_sum] = -jump_down_scaled: residual * tol 1e-10
[tables] PASS [cross_shift_sum, pair_sink] = -(-jump_down_scaled): residual * tol 1e-10
[tables] PASS [pair_sink, pair_source] = 4*damping_shift: residual * tol 1e-10
[tables] PASS [pair_source, pair_sink] = -(4*damping_shift): residual * tol 1e-10
[tables] PASS [pair_sink, jump_up_scaled] = -8*cross_shift_sum: residual * tol 1e-10
[tables] PASS [jump_up_scaled, pair_sink] = -(-8*cross_shift_sum): residual * tol 1e-10
[tables] PASS [jump_down_scaled, cross_shift_sum] = -4*pair_sink: residual * tol 1e-10
[tables] PASS [cross_shift_sum, jump_down_scaled] = -(-4*pair_sink): residual * tol 1e-10
[tables] PASS [jump_down_scaled, pair_source] = 8*cross_shift_sum: residual * tol 1e-10
[tables] PASS [pair_source, jump_down_scaled] = -(8*cross_shift_sum): residual * tol 1e-10
[tables] PASS [jump_down_scaled, jump_up_scaled] = -16*damping_shift: residual * tol 1e-10
[tables] PASS [jump_up_scaled, jump_down_scaled] = -(-16*damping_shift): residual * tol 1e-10
[tables] PASS [cross_shift_sum, pair_source] = jump_up_scaled: residual * tol 1e-10
[tables] PASS [pair_source, cross_shift_sum] = -(jump_up_scaled): residual * tol 1e-10
[tables] PASS [cross_shift_sum, jump_up_scaled] = 4*pair_source: residual * tol 1e-10
[tables] PASS [jump_up_scaled, cross_shift_sum] = -(4*pair_source): residual * tol 1e-10
[tables] PASS [pair_source, jump_up_scaled] = 0: residual * tol 1e-10
[tables] PASS [jump_up_scaled, pair_source] = -(0): residual * tol 1e-10
[tables] PASS [pair_sink, pair_sink] = 0: residual * tol 1e-10
[tables] PASS [jump_down_scaled, jump_down_scaled] = 0: residual * tol 1e-10
[tables] PASS [cross_shift_sum, cross_shift_sum] = 0: residual * tol 1e-10
[tables] PASS [pair_source, pair_source] = 0: residual * tol 1e-10
[tables] PASS [jump_up_scaled, jump_up_scaled] = 0: residual * tol 1e-10
[tables] NOTE [pair_sink, jump_up_scaled] coefficient-2 variant: residual * (coefficient 2 rejected in favor of 8, residual shown)
[tables] NOTE [jump_up_scaled, pair_sink] coefficient-2 variant: residual * (coefficient 2 rejected in favor of 8, residual shown)
[tables] PASS closure: span{jump_down_scaled, pair_sink, cross_shift_sum}: residual * tol 1e-10
[tables] PASS closure: span{jump_up_scaled, pair_source, cross_shift_sum}: residual * tol 1e-10
[tables] PASS [number_damping(0.1), lowering] = 2*0.1*lowering: residual * tol 1e-10
[tables] PASS [kerr_phase(1.0), lowering] = 2i*1.0*index_difference.lowering: residual * tol 1e-10
[tables] PASS [index_difference, lowering] = 0: residual * tol 1e-10
[tables] PASS [cross_raise, jump_down] rho = -2g rho adag^2: residual * tol 1e-10
[tables] PASS [cross_raise, jump_up] rho = 2g adag^2 rho: residual * tol 1e-10
[tables] PASS [cross_raise, drive] = (i conj(eps)/g) (jump_down + jump_up): residual * tol 1e-10
[tables] PASS [cross_lower, jump_down] rho = -2g a^2 rho: residual * tol 1e-10
[tables] PASS [cross_lower, jump_up] rho = 2g rho a^2: residual * tol 1e-10
[tables] PASS [cross_lower, drive] = (-i eps/g) (jump_down + jump_up): residual * tol 1e-10
[tables] PASS [cross_raise, number_damping] = 0: residual * tol 1e-10
[tables] PASS [cross_lower, number_damping] = 0: residual * tol 1e-10
[tables] UNVERIFIABLE [cross_lower, <undefined partner>] = (coupling/g)(jump_up + jump_down): the partner superoperator is never defined, so the relation cannot be evaluated; recorded, not failed
52 checks, all passed
"""


def test_verify_report_lists_every_check(capsys):
    assert main(["verify", "--suite", "all", "--seed", "0"]) == 0
    got = re.sub(r"residual -?\d\.\d{3}e[+-]\d\d", "residual *", capsys.readouterr().out)
    want = [f"fockprop {__version__} verification report"] + VERIFY_ALL_SEED0.splitlines()
    assert got.splitlines() == want


def test_verify_refuses_a_small_window_before_any_suite(monkeypatch, capsys):
    ran = []
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda *args, name=name: ran.append(name) or [])
    for dim in ("10", "11"):
        assert main(["verify", "--suite", "all", "--dim", dim]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: pdc suite needs dim >= 12\n")
    assert main(["verify", "--suite", "tables", "--dim", "9"]) == 2
    assert capsys.readouterr().err == "error: tables suite needs dim >= 10\n"
    assert ran == []


def test_verify_all_at_the_smallest_common_window(capsys):
    assert main(["verify", "--suite", "all", "--dim", "12"]) == 0
    assert capsys.readouterr().out.endswith("\n52 checks, all passed\n")
