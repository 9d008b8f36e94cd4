import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fockprop import __version__, cli, kerr_finite_t, verify
from fockprop.cli import ConfigError, main, parse_config
from fockprop.fock import annihilation, coherent_state, density_from_ket, husimi_q, observables
from fockprop.kerr_finite_t import propagate_kerr_finite_t
from fockprop.oracle import converged_window_reference
from fockprop.superop import SandwichTerm, SuperopExpr, pdc_generator


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


def test_config_round_trip_covers_every_value_kind(tmp_path):
    # a run's .meta.json gives back its config: complex, bool, float list,
    # choice, int, float and str values all parse to what the run read
    text = (
        "model = pdc\ndim = 16\nepsilon = (0.3+0.1j)\ngamma = 1.0\n"
        "corrected_mode = true\nstate = fock\nfock_n = 2\n"
        "times = 0.1, 0.3333333333333333\nengine = analytic\ntarget = fock 2\n"
    )
    cfg = parse_config(text)
    assert cfg["epsilon"] == 0.3 + 0.1j
    assert cfg["corrected_mode"] is True
    assert cfg["times"] == [0.1, 1 / 3]
    out = str(tmp_path / "run.csv")
    assert main(["propagate", "--config", cfg_file(tmp_path, text), "--out", out]) == 0
    written = json.loads(Path(out + ".meta.json").read_text(encoding="utf-8"))["config"]
    assert parse_config("".join(f"{k} = {v}\n" for k, v in written.items())) == cfg


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
    assert set(meta) == {"config", "engine", "norm_deficit", "tool_version"}
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
    # 60 times at window 24 span several chunks of the time stack, and 8 times
    # of the dense engine one; each row and dump must not depend on which
    # chunk, or which other times, it ran with
    for engine, dim, count in (("analytic", 24, 60), ("expm", 12, 8)):
        base = (f"model = kerrT\ndim = {dim}\nchi = -1.1\ngamma_minus = 0.3\n"
                "gamma_plus = 0.02\nstate = cat\nalpha = (0.9-0.6j)\ncat_phase = 1.2\n"
                f"target = initial\nengine = {engine}\n")
        times = [0.05 * i for i in range(count)]
        many = str(tmp_path / f"{engine}.csv")
        cfg = cfg_file(tmp_path, base + "times = " + ", ".join(map(repr, times)) + "\n")
        assert main(["propagate", "--config", cfg, "--out", many, "--dump-density"]) == 0
        rows = Path(many).read_text().splitlines()
        assert len(rows) == count + 1
        for i, t in enumerate(times):
            one = str(tmp_path / f"{engine}{i}.csv")
            cfg = cfg_file(tmp_path, base + f"times = {t!r}\n", name=f"one{i}.cfg")
            assert main(["propagate", "--config", cfg, "--out", one, "--dump-density"]) == 0
            header, row = Path(one).read_text().splitlines()
            assert (header, row) == (rows[0], rows[i + 1])
            assert (Path(f"{one}.rho0.txt").read_bytes()
                    == Path(f"{many}.rho{i}.txt").read_bytes())


def _peak_mib(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_long_time_series_runs_in_bounded_memory(tmp_path):
    # numpy reports its buffers to tracemalloc: 400 states of window 48
    # held at once would take 14 MiB, and their temporaries 73 MiB; pdc
    # evolves on the window 2 dim - 1, four times the entries of its output,
    # so 16 of its states chunked by the output window already exceed the bound
    kerrt = "model = kerrT\nchi = 1.0\ngamma_minus = 0.2\ngamma_plus = 0.01\n"
    pdc = "model = pdc\nepsilon = (0.18+0.24j)\ngamma = 1.0\n"
    for model, count in ((kerrt, 400), (pdc, 16)):
        times = ", ".join(repr(0.01 * (i + 1)) for i in range(count))
        cfg = cfg_file(tmp_path, (
            f"{model}dim = 48\nstate = coherent\nalpha = 1.5\ntarget = initial\n"
            f"times = {times}\n"
        ))
        assert _peak_mib(["propagate", "--config", cfg, "--out", str(tmp_path / "run.csv")]) < 4.0


def test_verify_kerrT_runs_in_bounded_memory():
    # the oracle forms only each sector's block, at most the reference
    # window wide: at dim 64 the references run on windows 80 and 88, whose
    # dense generators would take 0.66 and 0.96 GB; the default dim 12 runs
    # them on 28 and 36, 87 MiB as dense matrices
    for dim, cap in ((64, 16.0), (None, 8.0)):
        tracemalloc.start()
        try:
            text, failed = verify.report("kerrT", dim, 0, None)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert failed == 0 and text.endswith("5 checks, all passed\n")
        assert peak <= cap


def test_verify_pdc_runs_in_bounded_memory():
    # the drive is checked by acting on states: its dense matrix at window
    # 48 would take 81 MiB, and the sum of four such matrices as much again
    tracemalloc.start()
    try:
        text, failed = verify.report("pdc", 48, 0, None)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert failed == 0 and text.endswith("4 checks, all passed\n")
    assert peak <= 16.0


@pytest.mark.parametrize("dim", ["56", "64"])
def test_verify_pdc_passes_at_wide_windows(dim):
    # the pair drive carries a full-support state past dim + 16, where pads
    # 16 and 20 still differ by 1.5e-10 and 4.0e-10; pdc is within 1e-15 of
    # the converged flow, so the reference must climb past them to pass it
    assert main(["verify", "--suite", "pdc", "--dim", dim]) == 0


def test_pdc_suite_catches_a_sign_slip_in_the_drive(monkeypatch):
    # the drive is compared with the commutator written out, not with the
    # operator it is built from, so a wrong sign on one term must fail the check
    def slipped(dim, epsilon):
        a2 = np.linalg.matrix_power(annihilation(dim), 2)
        h = epsilon * a2.conj().T - np.conj(epsilon) * a2
        eye = np.eye(dim, dtype=complex)
        return SuperopExpr(dim, (SandwichTerm(-1j, h, eye), SandwichTerm(1j, eye, h)))

    monkeypatch.setattr(verify, "pdc_drive", slipped)
    drive = [r for r in verify.SUITES["pdc"](None, 0, None) if r["name"].startswith("drive")]
    assert len(drive) == 1
    assert drive[0]["passed"] is False and drive[0]["residual"] > 0.1


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


# per model: a run, and how far an oracle engine may sit from the closed
# form. The oracle engines evolve the truncated window and the closed forms
# the untruncated flow: kerr0 moves nothing upward and the kerrT run keeps
# its edge nearly empty, but the pair drive feeds the cutoff (about 3e-6 here).
ENGINE_RUNS = {
    "kerr0": ("model = kerr0\ndim = 16\nchi = 1.0\ngamma_minus = 0.1\n"
              "state = coherent\nalpha = 1.0\ntimes = 0.5\n", 1e-10),
    "kerrT": (KERRT_BASE, 1e-7),
    "pdc": ("model = pdc\ndim = 16\nepsilon = 0.3\ngamma = 1.0\ntimes = 0.4\n", 1e-4),
}


@pytest.mark.parametrize("engine", cli.ENGINES)
@pytest.mark.parametrize("model", ENGINE_RUNS)
def test_engines_agree(tmp_path, model, engine):
    text, tol = ENGINE_RUNS[model]
    cfg = cfg_file(tmp_path, text)
    tables = {}
    for name in ("analytic", engine):
        out = str(tmp_path / f"{name}.csv")
        assert main(["propagate", "--config", cfg, "--out", out, "--engine", name]) == 0
        tables[name] = np.array(read_csv(out)[1])
    assert np.max(np.abs(tables[engine] - tables["analytic"])) < tol


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
    ref, conv = converged_window_reference(lambda n: pdc_generator(n, 0.3, 1.0), vac, 0.4)
    obs = observables(ref)
    row = np.array([0.4, obs["trace"].real, obs["trace"].imag, obs["purity"], obs["mean_n"],
                    min(np.linalg.eigvalsh(0.5 * (ref + ref.conj().T)).min(), -_tau(obs["trace"]))])
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


UNIT_ROUNDOFF = 2.0**-53


def _with_spectrum(eigenvalues, seed):
    """U diag(eigenvalues) U^dag for a seeded random unitary U."""
    rng = np.random.default_rng(seed)
    dim = len(eigenvalues)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rho = (u * np.asarray(eigenvalues)) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def _tau(traces):
    """The min_eig column's tau at each of the traces."""
    return cli.MIN_EIG_SHIFT * np.maximum(1.0, np.abs(np.asarray(traces)))


def test_min_eig_bound_shows_a_planted_negative_eigenvalue():
    # one slice of five has an eigenvalue of -1e-6: its batch fails the
    # Cholesky, that slice reads its eigensolve's minimum, and the healthy
    # slices read -tau, as they would in a chunk of their own
    dim = 12
    spectrum = np.linspace(0.0, 1.0, dim) / 6.0
    stack = np.stack([_with_spectrum(spectrum, seed) for seed in range(5)])
    planted = spectrum.copy()
    planted[:2] += [-1e-6, 1e-6]
    stack[2] = _with_spectrum(planted, 2)
    got = cli._min_eig_bound(stack)
    assert abs(got[2] + 1e-6) <= dim * UNIT_ROUNDOFF
    assert got[2] == np.linalg.eigvalsh(stack[2]).min()
    tau = _tau(np.trace(stack, axis1=-2, axis2=-1))
    assert np.delete(got, 2).tolist() == np.delete(-tau, 2).tolist()
    assert got.tolist() == [cli._min_eig_bound(rho[None])[0] for rho in stack]


def test_min_eig_bound_reads_each_slice_as_a_chunk_of_its_own():
    # slices whose smallest eigenvalue lies within 0.1% of -tau pass or fail
    # their own Cholesky by rounding, and some that pass read an eigvalsh
    # minimum below -tau; in a stack that a -1e-6 slice makes fail, each
    # must still read what it reads alone
    dim, rng = 16, np.random.default_rng(5)
    spectrum = np.linspace(0.0, 1.0, dim) / 8.0
    stack = []
    for seed in range(200):
        spectrum[0] = -cli.MIN_EIG_SHIFT * (1.0 + rng.uniform(-1e-3, 1e-3))
        stack.append(_with_spectrum(spectrum, seed))
    spectrum[0] = -1e-6
    stack = np.stack(stack + [_with_spectrum(spectrum, 200)])
    got = cli._min_eig_bound(stack)
    assert got.tolist() == [cli._min_eig_bound(rho[None])[0] for rho in stack]
    assert abs(got[-1] + 1e-6) <= dim * UNIT_ROUNDOFF


@pytest.mark.parametrize("dim", [2, 16, 160])
def test_min_eig_bound_of_density_matrices_needs_no_eigensolve(monkeypatch, dim):
    # full-rank, rank-one (the thinnest margin) and vacuum states each read
    # exactly -tau, from one Cholesky and no eigensolve
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    psi = coherent_state(dim, 0.8 - 0.5j)[0]
    levels = np.linspace(1.0, 2.0, dim)
    warm = _with_spectrum(levels / levels.sum(), dim)
    vacuum = np.zeros((dim, dim), dtype=complex)
    vacuum[0, 0] = 1.0
    stack = np.stack([warm, density_from_ket(psi), vacuum, 3.0 * warm])
    got = cli._min_eig_bound(stack)
    assert got.tolist() == (-_tau(np.trace(stack, axis1=-2, axis2=-1))).tolist()
    assert -3.1e-13 < got[3] < -2.9e-13
    assert calls == []


def test_propagate_shows_a_negative_eigenvalue_in_its_csv(tmp_path, monkeypatch):
    # a closed form that returns a state with an eigenvalue of -1e-6 at
    # t = 0.5: that row shows the value, the others read -tau, and every row
    # is the one a run of its time alone writes
    dim, delta = 30, 1e-6

    def negative_at_half(rho0, t, params):
        out = np.tile(np.asarray(rho0, dtype=complex), (len(t), 1, 1))
        psi = out[0, :, 0] / np.linalg.norm(out[0, :, 0])
        phi = np.zeros(dim, dtype=complex)
        phi[1] = 1.0
        phi -= (psi.conj() @ phi) * psi
        phi /= np.linalg.norm(phi)
        out[np.asarray(t) == 0.5] = ((1 + delta) * np.outer(psi, psi.conj())
                                     - delta * np.outer(phi, phi.conj()))
        return out

    monkeypatch.setattr(verify, "propagate_kerr_zero_t", negative_at_half)
    times = "0.0, 0.25, 0.5, 0.75"
    cfg = cfg_file(tmp_path, KERR0_DECAY.replace("0.0, 0.5, 1.0", times))
    out = str(tmp_path / "x.csv")
    assert main(["propagate", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert abs(rows[2][-1] + delta) <= dim * UNIT_ROUNDOFF
    for i in (0, 1, 3):
        assert rows[i][-1] == -_tau(complex(rows[i][1], rows[i][2]))
    lines = Path(out).read_text().splitlines()
    for i, t in enumerate(times.split(", ")):
        one = str(tmp_path / f"one{i}.csv")
        cfg = cfg_file(tmp_path, KERR0_DECAY.replace("0.0, 0.5, 1.0", t), name=f"one{i}.cfg")
        assert main(["propagate", "--config", cfg, "--out", one]) == 0
        assert Path(one).read_text().splitlines() == [lines[0], lines[i + 1]]


def test_propagate_does_not_depend_on_the_blas_thread_count(tmp_path):
    # a window-128 Kerr run writes the same bytes at one and at two BLAS
    # threads, its min_eig verdicts among them
    cfg = cfg_file(tmp_path, (
        "model = kerrT\ndim = 128\nchi = 1.0\ngamma_minus = 0.2\ngamma_plus = 0.05\n"
        "state = cat\nalpha = (2.5-1j)\ncat_phase = 0.4\ntimes = 0.0, 0.3, 1.7\n"
    ))
    src = str(Path(cli.__file__).parents[1])
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c",
                        "import sys; from fockprop.cli import main; sys.exit(main(sys.argv[1:]))",
                        "propagate", "--config", cfg, "--out", str(out)], env=env, check=True)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    header, rows = read_csv(tmp_path / "threads1.csv")
    assert [row[-1] for row in rows] == [-_tau(complex(row[1], row[2])) for row in rows]


@pytest.mark.parametrize("epsilon", [0.98, 0.99])
def test_pair_drive_run_near_threshold_matches_untruncated_flow(tmp_path, epsilon):
    # a valid drive just below threshold must be answered, and the vacuum
    # stays accurate there, where the channel's squeezes are largest
    cfg = cfg_file(tmp_path, (
        f"model = pdc\ndim = 16\nepsilon = {epsilon}\ngamma = 1.0\n"
        "state = vacuum\ntimes = 0.1\n"
    ))
    out = str(tmp_path / "run.csv")
    assert main(["propagate", "--config", cfg, "--out", out, "--dump-density"]) == 0
    rho = read_density(out + ".rho0.txt", 16)

    vac = np.zeros((16, 16), dtype=complex)
    vac[0, 0] = 1.0
    ref, conv = converged_window_reference(lambda n: pdc_generator(n, epsilon, 1.0), vac, 0.1)
    assert conv < 1e-12
    assert np.max(np.abs(rho - ref)) <= conv + 1e-12


def test_engine_from_config_is_used(tmp_path):
    cfg = cfg_file(tmp_path, KERR0_DECAY + "engine = expm\n")
    out = str(tmp_path / "run.csv")
    assert main(["propagate", "--config", cfg, "--out", out]) == 0
    meta = json.loads(Path(out + ".meta.json").read_text())
    assert meta["engine"] == "expm"


def test_propagate_usage_errors(tmp_path, capsys):
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
    for engine in ("analytic", *cli.ENGINES):
        assert main(["propagate", "--config", backward, "--out", out, "--engine", engine]) == 2
    for steps in (0, -2):
        no_steps = cfg_file(tmp_path, KERR0_DECAY + f"steps = {steps}\n", "h.cfg")
        assert main(["propagate", "--config", no_steps, "--out", out, "--engine", "rk4"]) == 2
        assert "unknown key 'steps'" in capsys.readouterr().err
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


# trace-changing modes: the trace grows by orders of magnitude, and with it
# the rounding of tr(rho^2) and <psi|rho|psi>
TRACE_CHANGING = {
    "kerrT-c_gamma": ("model = kerrT\ndim = 24\nchi = 1.0\ngamma_minus = 0.1\ngamma_plus = 0.05\n"
                      "c_gamma = 5.0\nstate = coherent\nalpha = 2.0\ntimes = 1.0, 3.0\n"),
    "pdc-uncorrected": ("model = pdc\ndim = 16\nepsilon = 0.3\ngamma = 1.0\ncorrected_mode = false\n"
                        "state = coherent\nalpha = 1.5\ntimes = 0.5\n"),
}


@pytest.mark.parametrize("text", TRACE_CHANGING.values(), ids=TRACE_CHANGING)
def test_trace_changing_runs_report_raw_purity_and_fidelity(tmp_path, text):
    out = str(tmp_path / "grow.csv")
    argv = ["propagate", "--config", cfg_file(tmp_path, text + "target = initial\n"),
            "--out", out, "--dump-density"]
    if "c_gamma" in text:
        with pytest.warns(UserWarning, match="trace-preserving"):
            assert main(argv) == 0
    else:
        assert main(argv) == 0
    header, rows = read_csv(out)
    cfg = parse_config(text)
    dim = cfg["dim"]
    psi = coherent_state(dim, cfg["alpha"])[0]
    for i, row in enumerate(rows):
        rho = read_density(f"{out}.rho{i}.txt", dim)
        cells = dict(zip(header, row))
        assert cells["trace_re"] > 100.0
        assert cells["purity"] == pytest.approx(np.trace(rho @ rho).real, rel=1e-12)
        assert cells["fidelity_target"] == pytest.approx((psi.conj() @ rho @ psi).real, rel=1e-12)
        assert cells["fidelity_target"] > 1.0


@pytest.mark.parametrize("text, key", [
    ("model = kerr0\ndim = 8\nchi = 1.0\ngamma_minus = 0.1\ngamma_plus = 0.3\ntimes = 0.5\n",
     "gamma_plus"),
    ("model = pdc\ndim = 12\nepsilon = 0.3\ngamma = 1.0\nchi = 1.0\ntimes = 0.5\n", "chi"),
], ids=["kerr0-gamma_plus", "pdc-chi"])
def test_a_key_of_another_model_is_refused(tmp_path, capsys, text, key):
    out = str(tmp_path / "x.csv")
    assert main(["propagate", "--config", cfg_file(tmp_path, text), "--out", out]) == 2
    assert key in capsys.readouterr().err
    assert not Path(out).exists()


def test_finite_temperature_run_takes_all_five_rate_keys(tmp_path):
    cfg = cfg_file(tmp_path, (
        "model = kerrT\ndim = 8\nchi = 1.0\ngamma_minus = 0.25\ngamma_plus = 0.125\n"
        "gamma0 = 0.375\nc_gamma = -0.25\ntimes = 0.5\n"
    ))
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0


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


def test_qfunc_rows_match_the_per_point_format(tmp_path, monkeypatch):
    # each axis value is formatted once; the rows must keep the bytes of
    # the per-point f-string of complex(re, im), on a grid with -0.0,
    # integer values and steps that a float cannot hold exactly
    res = np.linspace(-3.0, 4.0, 8)
    ims = np.linspace(-0.7, -0.0, 8)
    assert math.copysign(1.0, ims[-1]) == -1.0 and len(cli._g17(ims[-2])) > 17
    q = np.random.default_rng(4).random(64) * 10.0 ** np.arange(-32, 32)
    q[:8] = 0.0, -0.0, 2.0, 1e-300, 5e-324, 0.1, 0.2, 0.30000000000000004
    alphas = [complex(re, im) for im in ims for re in res]
    want = [f"{cli._g17(a.real)},{cli._g17(a.imag)},{cli._g17(v)}" for a, v in zip(alphas, q)]
    assert cli._qfunc_rows(res, ims, q) == "".join(row + "\n" for row in want)
    assert cli._qfunc_rows(res[:1], ims[-1:], q[:1]) == "-3,-0,0\n"
    assert cli._g17_all(q) == [cli._g17(v) for v in q]
    # end to end, husimi_q sees those points, signed zero included, and the
    # CSV holds them with its values
    seen = []

    def recorded(rho, points):
        seen.append((np.array(points), husimi_q(rho, points)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "husimi_q", recorded)
    cfg = cfg_file(tmp_path, (
        "model = kerr0\ndim = 8\nchi = 1.0\ngamma_minus = 0.1\ntimes = 0.3\n"
        "state = coherent\nalpha = 0.5\n"
        "re_min = -3.0\nre_max = 4.0\nim_min = -0.7\nim_max = -0.0\npoints_per_axis = 8\n"
    ))
    out = tmp_path / "q.csv"
    assert main(["qfunc", "--config", cfg, "--out", str(out)]) == 0
    (points, values), = seen
    assert points.tobytes() == np.array(alphas).tobytes()
    want = [f"{cli._g17(a.real)},{cli._g17(a.imag)},{cli._g17(v)}" for a, v in zip(alphas, values)]
    assert out.read_text(encoding="utf-8") == "\n".join(["re,im,q"] + want) + "\n"


def test_propagate_rows_match_the_per_value_format(tmp_path):
    # one % over a row template must keep the bytes of _g17 per value, on
    # -0.0, the smallest normal and subnormal magnitudes, integer values
    # and steps that a float cannot hold exactly
    steps = 0.1 * np.arange(8)
    columns = [steps, [-0.0, 0.0, 1e-300, 5e-324, -5e-324, 3.0, -7.0, 1e300], np.arange(8),
               -steps, np.random.default_rng(5).random(8) * 10.0 ** np.arange(-4, 4)]
    want = [",".join(cli._g17(c[i]) for c in columns) + "\n" for i in range(8)]
    assert cli._csv_rows(columns) == "".join(want)
    assert cli._csv_rows([c[:1] for c in columns]) == want[0]
    assert cli._csv_rows([c[:1] for c in columns[:4]]) == "0,-0,0,-0\n"
    assert cli._csv_rows([[] for _ in columns]) == ""
    # end to end over several chunks: each value reads back as the float it
    # formats, in _g17's bytes, and the times are the config's
    times = [0.01 * (i + 1) for i in range(600)]
    cfg = cfg_file(tmp_path, (
        "model = kerr0\ndim = 8\nchi = 1.0\ngamma_minus = 0.1\nstate = coherent\n"
        f"alpha = 0.5\ntarget = initial\ntimes = {', '.join(map(repr, times))}\n"
    ))
    out = tmp_path / "p.csv"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    header, *lines = out.read_text(encoding="utf-8").split("\n")
    assert header == "t,trace_re,trace_im,purity,mean_n,min_eig,fidelity_target"
    assert lines.pop() == "" and len(lines) == len(times)
    for line, t in zip(lines, times):
        values = line.split(",")
        assert len(values) == 7 and values[0] == cli._g17(t)
        assert line == ",".join(cli._g17(float(v)) for v in values)


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
    assert "FAIL" not in text
    # every relation passes or is a note, and names the group it belongs to
    table = [line for line in text.splitlines() if line.startswith("[tables] ")]
    assert table and all(re.match(r"\[tables\] (PASS|NOTE) (paper|Kerr flow|pdc channel): ", line)
                         for line in table)
    assert main(["verify", "--suite", "kerr0"]) == 0
    for seed in (24, 35):
        assert main(["verify", "--suite", "kerrT", "--seed", str(seed)]) == 0
    assert main(["verify", "--suite", "kerrT", "--dim", "16", "--out", str(report)]) == 0
    wide = [line for line in report.read_text().splitlines() if "wide-window" in line]
    assert len(wide) == 2 and all("dim=16" in line for line in wide)


# the record each planted fault must fail, alone in its suite's report
FAULT_RECORDS = {
    "kerr0-phase-sign": "propagator vs exponential, dim=12, t=0.5",
    "pdc-conjugate-eps": "propagation vs wide-window exponential, random state",
    "pdc-mode-flip": "propagation vs wide-window exponential, random state",
    "tables-kerr-phase-sign": "Kerr flow: [kerr_phase(1.0), lowering] = ",
}


@pytest.mark.parametrize("fault", list(verify.FAULTS))
def test_verify_faults_are_caught(tmp_path, fault):
    # a fault with no entry above fails here until its record is named
    owner = verify.FAULTS[fault]
    for suite in (owner, "all"):
        report = tmp_path / f"{suite}.txt"
        assert main(["verify", "--suite", suite, "--inject-fault", fault,
                     "--out", str(report)]) == 1
        failed = [line for line in report.read_text().splitlines() if " FAIL " in line]
        assert len(failed) == 1
        assert failed[0].startswith(f"[{owner}] FAIL {FAULT_RECORDS[fault]}")


def test_verify_refuses_an_unknown_fault():
    assert main(["verify", "--suite", "kerr0", "--inject-fault", "made-up"]) == 2


def test_verify_refuses_a_fault_that_no_selected_suite_plants(capsys):
    # a fault outside the selected suite would leave the negative control
    # silently unplanted; --suite all plants every fault
    for suite, fault, owner in (("kerrT", "kerr0-phase-sign", "kerr0"),
                                ("tables", "pdc-mode-flip", "pdc")):
        assert main(["verify", "--suite", suite, "--inject-fault", fault]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"planted by the {owner} suite" in err
    assert main(["verify", "--suite", "all", "--dim", "10", "--inject-fault",
                 "kerr0-phase-sign"]) == 1


def test_top_level_usage(tmp_path):
    assert main(["--version"]) == 0
    assert main([]) == 2
    assert main(["verify", "--suite", "bogus"]) == 2
    for dim in ("0", "1"):
        assert main(["verify", "--suite", "kerr0", "--dim", dim]) == 2
    assert main(["verify", "--suite", "kerr0", "--out", str(tmp_path / "no" / "r.txt")]) == 2


def test_dense_engines_out_of_memory_exit_2(tmp_path, monkeypatch, capsys):
    # a generator too large to allocate must end in a usage error, not a
    # traceback, for verify and every oracle engine; the builder they call
    # is replaced, so no real allocation is attempted here
    def refuse(expr):
        raise MemoryError(f"Unable to allocate the generator for dim {expr.dim}")

    monkeypatch.setattr(cli, "build_liouvillian", refuse)
    monkeypatch.setattr(verify, "build_liouvillian", refuse)
    assert main(["verify", "--suite", "kerr0", "--dim", "400"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate the generator for dim 400\n"
    cfg = cfg_file(tmp_path, KERR0_DECAY)
    for engine in cli.ENGINES:
        assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--engine", engine]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")


def test_propagate_blames_the_engine_for_a_bad_state(tmp_path, monkeypatch, capsys):
    # a non-Hermitian output must name the engine and the time, not the input;
    # only the state at t = 0.75, past the first of its chunk, is skewed
    def skewed(rho0, t, params):
        out = np.tile(np.asarray(rho0, dtype=complex), (len(t), 1, 1))
        late = np.asarray(t) == 0.75
        out[late, 0, 1] += 1.0
        out[late, 1, 0] += 1.0j
        return out

    monkeypatch.setattr(verify, "propagate_kerr_zero_t", skewed)
    cfg = cfg_file(tmp_path, KERR0_DECAY.replace("0.0, 0.5, 1.0", "0.0, 0.25, 0.75, 1.0"))
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "analytic" in err and "t = 0.75 " in err
    assert "input" not in err


@pytest.mark.parametrize("epsilon, t", [("0.48+0.64j", 0.05), ("0.594+0.792j", 0.1)])
def test_pdc_runs_near_threshold_match_the_reference(tmp_path, epsilon, t):
    # two dim-16 runs at |eps| / gamma = 0.8 and 0.99 from coherent alpha = 2:
    # each dumped state must be the untruncated flow cropped to the window
    cfg = cfg_file(tmp_path, (
        f"model = pdc\ndim = 16\ngamma = 1.0\nepsilon = {epsilon}\n"
        f"state = coherent\nalpha = 2.0\ntimes = {t}\n"
    ))
    out = str(tmp_path / "p.csv")
    assert main(["propagate", "--config", cfg, "--out", out, "--dump-density"]) == 0
    dumped = np.loadtxt(out + ".rho0.txt")
    rho = np.zeros((16, 16), dtype=complex)
    rho[dumped[:, 0].astype(int), dumped[:, 1].astype(int)] = dumped[:, 2] + 1j * dumped[:, 3]
    eps = complex(epsilon)
    ref, conv = converged_window_reference(
        lambda n: pdc_generator(n, eps, 1.0), density_from_ket(coherent_state(16, 2.0)[0]), t)
    assert conv < 1e-13
    assert np.abs(rho - ref).max() < 1e-12


# `verify --suite all --seed 0` with residuals masked: pins which checks run,
# their names, tolerances and order
VERIFY_ALL_SEED0 = """\
suite: all  seed: 0
[kerr0] PASS propagator vs exponential, dim=12, t=0.5: residual * tol 1e-13
[kerr0] PASS mean occupation decay, coherent alpha=2, dim=30: residual * tol 1e-08
[kerr0] PASS undamped revival fidelity at t=pi/chi, dim=20: residual * tol 1e-08
[kerr0] PASS vacuum is stationary: residual * tol 1e-12
[kerrT] PASS gamma_plus -> 0 continuity, dim=12, t=0.5: residual * tol 1e-06
[kerrT] PASS thermal state annihilated by the generator, dim=40: residual * tol 1e-10
[kerrT] PASS thermal state fixed by the propagator, dim=40, t=0.7: residual * tol 1e-08
[kerrT] PASS wide-window exponential self-convergence, dim=12: residual * tol 1e-13
[kerrT] PASS resummed propagator vs wide-window exponential, dim=12, t=0.5: residual * tol 1e-13
[pdc] PASS channel anchor values kappa=1/4, C=5/2 at eps=0.6, gamma=1, t=ln(2)/1.2: residual * tol 1e-12
[pdc] PASS drive equals -i[eps adag^2 + conj(eps) a^2, rho]: residual * tol 1e-13
[pdc] PASS wide-window exponential self-convergence, dim=16: residual * tol 1e-13
[pdc] PASS propagation vs wide-window exponential, random state, dim=16, t=0.05: residual * tol 1e-13
[tables] PASS paper: [pair_sink, jump_down_scaled] = 0: residual * tol 1e-10
[tables] PASS paper: [jump_down_scaled, pair_sink] = -(0): residual * tol 1e-10
[tables] PASS paper: [pair_sink, cross_shift_sum] = -jump_down_scaled: residual * tol 1e-10
[tables] PASS paper: [cross_shift_sum, pair_sink] = -(-jump_down_scaled): residual * tol 1e-10
[tables] PASS paper: [pair_sink, pair_source] = 4*damping_shift: residual * tol 1e-10
[tables] PASS paper: [pair_source, pair_sink] = -(4*damping_shift): residual * tol 1e-10
[tables] PASS paper: [pair_sink, jump_up_scaled] = -8*cross_shift_sum: residual * tol 1e-10
[tables] PASS paper: [jump_up_scaled, pair_sink] = -(-8*cross_shift_sum): residual * tol 1e-10
[tables] PASS paper: [jump_down_scaled, cross_shift_sum] = -4*pair_sink: residual * tol 1e-10
[tables] PASS paper: [cross_shift_sum, jump_down_scaled] = -(-4*pair_sink): residual * tol 1e-10
[tables] PASS paper: [jump_down_scaled, pair_source] = 8*cross_shift_sum: residual * tol 1e-10
[tables] PASS paper: [pair_source, jump_down_scaled] = -(8*cross_shift_sum): residual * tol 1e-10
[tables] PASS paper: [jump_down_scaled, jump_up_scaled] = -16*damping_shift: residual * tol 1e-10
[tables] PASS paper: [jump_up_scaled, jump_down_scaled] = -(-16*damping_shift): residual * tol 1e-10
[tables] PASS paper: [cross_shift_sum, pair_source] = jump_up_scaled: residual * tol 1e-10
[tables] PASS paper: [pair_source, cross_shift_sum] = -(jump_up_scaled): residual * tol 1e-10
[tables] PASS paper: [cross_shift_sum, jump_up_scaled] = 4*pair_source: residual * tol 1e-10
[tables] PASS paper: [jump_up_scaled, cross_shift_sum] = -(4*pair_source): residual * tol 1e-10
[tables] PASS paper: [pair_source, jump_up_scaled] = 0: residual * tol 1e-10
[tables] PASS paper: [jump_up_scaled, pair_source] = -(0): residual * tol 1e-10
[tables] PASS paper: [pair_sink, pair_sink] = 0: residual * tol 1e-10
[tables] PASS paper: [jump_down_scaled, jump_down_scaled] = 0: residual * tol 1e-10
[tables] PASS paper: [cross_shift_sum, cross_shift_sum] = 0: residual * tol 1e-10
[tables] PASS paper: [pair_source, pair_source] = 0: residual * tol 1e-10
[tables] PASS paper: [jump_up_scaled, jump_up_scaled] = 0: residual * tol 1e-10
[tables] NOTE paper: [pair_sink, jump_up_scaled] coefficient-2 variant: residual * (coefficient 2 rejected in favor of 8, residual shown)
[tables] NOTE paper: [jump_up_scaled, pair_sink] coefficient-2 variant: residual * (coefficient 2 rejected in favor of 8, residual shown)
[tables] PASS paper: closure: span{jump_down_scaled, pair_sink, cross_shift_sum}: residual * tol 1e-10
[tables] PASS paper: closure: span{jump_up_scaled, pair_source, cross_shift_sum}: residual * tol 1e-10
[tables] PASS Kerr flow: [number_damping(0.1), lowering] = 2*0.1*lowering: residual * tol 1e-10
[tables] PASS Kerr flow: [kerr_phase(1.0), lowering] = 2i*1.0*index_difference.lowering: residual * tol 1e-10
[tables] PASS Kerr flow: [index_difference, lowering] = 0: residual * tol 1e-10
[tables] PASS pdc channel: [a^2 rho, rho adag^2] = 0 on the input side: residual * tol 1e-10
[tables] PASS pdc channel: [a^2 rho, J-] = 0 on the input side: residual * tol 1e-10
[tables] PASS pdc channel: [rho adag^2, J-] = 0 on the input side: residual * tol 1e-10
[tables] PASS pdc channel: [adag^2 rho, rho a^2] = 0 on the output side: residual * tol 1e-10
[tables] PASS pdc channel: [adag^2 rho, J+] = 0 on the output side: residual * tol 1e-10
[tables] PASS pdc channel: [rho a^2, J+] = 0 on the output side: residual * tol 1e-10
49 checks, all passed
"""


# a heating c_gamma carries the trace past the float range by t = 800
NON_FINITE = (
    "model = kerrT\ndim = 8\nchi = 1.0\ngamma_minus = 0.3\ngamma_plus = 0.1\nc_gamma = 1.0\n"
    "state = coherent\nalpha = 1.0\ntimes = 800\n"
    "re_min = -1.0\nre_max = 1.0\nim_min = -1.0\nim_max = 1.0\npoints_per_axis = 3\n"
)


@pytest.mark.parametrize("engine", ["analytic", "expm", "action"])
@pytest.mark.parametrize("command", ["propagate", "qfunc"])
def test_a_non_finite_state_exits_2(tmp_path, capsys, command, engine):
    # a nan or inf state must not reach the CSV as nan values; the action
    # engine ends each substep's series once its sum is no longer finite,
    # rather than running it to the iteration cap
    out = tmp_path / "x.csv"
    argv = [command, "--config", cfg_file(tmp_path, NON_FINITE), "--out", str(out),
            "--engine", engine]
    # the overflow reaches the user as the one error line, not as numpy's
    # floating-point warnings
    with pytest.warns(UserWarning, match="trace-preserving") as caught:
        assert main(argv) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not any("iteration cap" in str(w.message) for w in caught)
    err = capsys.readouterr().err
    assert f"the {engine} engine's state at t = 800 failed its checks" in err
    assert "not finite" in err
    assert not out.exists()


def test_verify_report_lists_every_check(capsys):
    assert main(["verify", "--suite", "all", "--seed", "0"]) == 0
    got = re.sub(r"residual -?\d\.\d{3}e[+-]\d\d", "residual *", capsys.readouterr().out)
    want = [f"fockprop {__version__} verification report"] + VERIFY_ALL_SEED0.splitlines()
    assert got.splitlines() == want


def test_verify_refuses_a_small_window_before_any_suite(monkeypatch, capsys):
    ran = []
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda *args, name=name: ran.append(name) or [])
    for suite, dim in (("all", "8"), ("all", "9"), ("tables", "9")):
        assert main(["verify", "--suite", suite, "--dim", dim]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: tables suite needs dim >= 10\n")
    assert ran == []


def test_verify_refuses_a_negative_seed_by_name(capsys):
    assert main(["verify", "--suite", "kerr0", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: seed must be non-negative, got -1\n")


def test_verify_all_at_the_smallest_common_window(capsys):
    assert main(["verify", "--suite", "all", "--dim", "10"]) == 0
    assert capsys.readouterr().out.endswith("\n49 checks, all passed\n")


def test_verify_runs_the_closed_form_of_the_shared_model_table(monkeypatch, capsys):
    # verify builds its closed forms from the table the CLI propagates with,
    # so a kerrT closed form off by 1e-10 in chi there must fail the suite
    model = verify.MODELS["kerrT"]

    def detuned(rho0, t, p):
        return propagate_kerr_finite_t(rho0, t, dataclasses.replace(p, chi=p.chi * (1 + 1e-10)))

    monkeypatch.setitem(verify.MODELS, "kerrT", dataclasses.replace(model, closed_form=detuned))
    assert main(["verify", "--suite", "kerrT"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if " FAIL " in line]
    assert len(failed) == 1 and "resummed propagator vs wide-window" in failed[0]


@pytest.mark.parametrize("suite, code, seen", [
    ("kerr0", 1, " FAIL "),
    ("kerrT", 1, " FAIL "),
])
def test_verify_catches_a_mirror_that_drops_its_conjugate(monkeypatch, capsys, suite, code, seen):
    # verify's states are exactly Hermitian, so its Kerr checks run the
    # hermitian layout, whose left-out side is the conjugate of the kept
    # one; written unconjugated, it must fail the suite (kerr0's occupation
    # check, which refuses the evolved state, is reported as a FAIL)
    layout = kerr_finite_t._layout

    def unconjugated(dim, hermitian):
        *arrays, source = layout(dim, hermitian)
        return (*arrays, None if source is None else source % arrays[0].size)

    monkeypatch.setattr(kerr_finite_t, "_layout", unconjugated)
    assert main(["verify", "--suite", suite]) == code
    assert seen in "".join(capsys.readouterr())


def test_a_kerr0_state_that_is_no_density_matrix_fails_its_check(monkeypatch):
    # the occupation and revival checks cannot read the observables of a
    # state that is not Hermitian; each fails with the error in its record,
    # and the suite still reports every check
    model = verify.MODELS["kerr0"]

    def skewed(rho0, t, p):
        rho = model.closed_form(rho0, t, p)
        return rho + 0.1j * np.tril(np.ones(rho.shape[-2:]), -1)

    monkeypatch.setitem(verify.MODELS, "kerr0", dataclasses.replace(model, closed_form=skewed))
    recs = {rec["name"]: rec for rec in verify.SUITES["kerr0"](None, 0, None)}
    assert len(recs) == 4
    occupation = recs["mean occupation decay, coherent alpha=2, dim=30"]
    assert occupation["residual"] == math.inf and not occupation["passed"]
    assert "not a density matrix" in occupation["note"]
    revival = recs["undamped revival fidelity at t=pi/chi, dim=20"]
    assert revival["residual"] == math.inf and "imaginary part" in revival["note"]
    assert not recs["propagator vs exponential, dim=12, t=0.5"]["passed"]


def test_a_fail_line_gives_its_check_s_reason(monkeypatch, capsys):
    # the skewed closed form above fails the occupation check at residual
    # inf; the FAIL line carries the error that put it there
    model = verify.MODELS["kerr0"]

    def skewed(rho0, t, p):
        rho = model.closed_form(rho0, t, p)
        return rho + 0.1j * np.tril(np.ones(rho.shape[-2:]), -1)

    monkeypatch.setitem(verify.MODELS, "kerr0", dataclasses.replace(model, closed_form=skewed))
    assert main(["verify", "--suite", "kerr0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    occupation = [line for line in lines if "mean occupation decay" in line]
    assert len(occupation) == 1 and " FAIL " in occupation[0]
    assert occupation[0].endswith(", not a density matrix)")


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_record_names_are_unique_within_a_suite(suite):
    # the table keys each relation's seeded draw and its closure lookups by
    # name, so a repeated name would silently reuse a draw
    names = [rec["name"] for rec in verify.SUITES[suite](None, 0, None)]
    assert names and len(names) == len(set(names))
