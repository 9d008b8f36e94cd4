"""Independent references for every benchmark op.

Nothing here calls fockprop: the references are closed-form laws and
sums written from the physics, so a fault on the timed path cannot also
move its reference.

  kerr0  The zero-temperature flow has an exact solution for any sum of
         coherent components |a><b|:
           rho_nm(t) = c_n(a) conj(c_m(b)) exp(2 gm u_k a conj(b))
                       exp(-gm t s) exp(-i chi t k (s - 1))
         with k = n - m, s = n + m, u_k = (1 - exp(-2 z t)) / (2 z) and
         z = gm + i chi k. It gives trace, purity, mean occupation,
         fidelity with the target and the Husimi Q function. The mean
         occupation also follows <n>(t) = <n>_0 exp(-2 gm t).
  kerrT  With the trace-preserving convention,
           <n>(t) = nbar + (<n>_0 - nbar) exp(-2 (gm - gp) t),
         nbar = gp / (gm - gp); purity and fidelity must lie in [0, 1].
  pdc    The closed moment equations
           d<n>/dt = 2 gamma + 2i conj(eps) <a^2> - 2i eps <a^dag^2>,
           d<a^2>/dt = -i eps (4 <n> + 2)
         give <n>(t) + 1/2 = (<n>_0 + 1/2) cosh(w t) + <n>'(0) sinh(w t) / w
         with w = 4 |eps|. The gap to the windowed propagator is the
         window's cutoff error, hence the looser tolerance.
  all    trace, and smallest eigenvalue >= -tolerance.
  verify exit code 0 and a report that ends in "all passed".

The untruncated references hold on the window because the workloads keep
the initial coherent tail beyond the window below 1e-13 (see workloads.py).
"""

import math

import numpy as np

KERR_TOL = 1e-9        # Kerr observables; measured deviations are near 1e-13
ENGINE_TOL = 1e-8      # dense engines (expm, rk4); RK4 is sized for 1e-12 and lands near 1e-10
PDC_TOL = 1e-4         # pdc: cutoff error, at most 6e-6 over the pdc_scan parameter box
DIGITS_CAP = 12.0      # -log10 deviations beyond this are rounding noise


class CheckResult:
    """Outcome of one op: passed or not, the worst deviation seen, why."""

    def __init__(self):
        self.worst = 0.0
        self.failures = []

    def compare(self, name, got, want, tol):
        dev = abs(got - want)
        if not dev <= tol:  # also catches NaN
            self.failures.append(f"{name}: got {got!r}, want {want!r} (tol {tol:g})")
        self.worst = max(self.worst, dev) if dev == dev else math.inf

    def bound(self, name, got, lo, hi):
        if not lo <= got <= hi:
            self.failures.append(f"{name}: {got!r} outside [{lo:g}, {hi:g}]")
            self.worst = math.inf if got != got else max(self.worst, lo - got, got - hi)

    def fail(self, why):
        self.failures.append(why)

    @property
    def ok(self):
        return not self.failures


def error_digits(worst):
    """-log10 of the worst deviation, capped where it stops meaning anything."""
    if worst <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return max(-math.log10(worst), 0.0)


# ---------------------------------------------------------------------------
# States


def amplitudes(betas, dim):
    """Raw coherent amplitudes exp(-|b|^2/2) b^n / sqrt(n!), one row per b."""
    betas = np.atleast_1d(np.asarray(betas, dtype=complex))
    n = np.arange(dim)
    half_log_fact = 0.5 * np.array([math.lgamma(k + 1) for k in range(dim)])
    mag = np.abs(betas)[:, None]
    log_pow = n * np.log(np.where(mag > 0, mag, 1.0))
    log_pow = np.where(mag > 0, log_pow, np.where(n == 0, 0.0, -np.inf))  # 0^0 = 1
    amp = np.exp(-0.5 * mag ** 2 + log_pow - half_log_fact)
    return amp * np.exp(1j * n * np.angle(betas)[:, None])


def components(cfg):
    """The initial state as (weight, alpha) coherent components."""
    state = cfg.get("state", "vacuum")
    if state == "vacuum":
        return [(1.0, 0j)]
    alpha = complex(cfg["alpha"])
    if state == "coherent":
        return [(1.0, alpha)]
    if state == "cat":
        return [(1.0, alpha), (complex(math.e ** (1j * cfg["cat_phase"])), -alpha)]
    raise ValueError(f"no reference for state {state!r}")


def initial_ket(cfg):
    """Normalized initial ket on the window and its squared raw norm."""
    dim = cfg["dim"]
    raw = sum(w * amplitudes(a, dim)[0] for w, a in components(cfg))
    norm_sq = float(np.sum(np.abs(raw) ** 2))
    return raw / math.sqrt(norm_sq), norm_sq


def target_ket(cfg, psi0):
    spec = cfg["target"].split()
    if spec[0] == "initial":
        return psi0
    if spec[0] == "coherent":
        c = amplitudes(complex(float(spec[1]), float(spec[2])), cfg["dim"])[0]
        return c / np.linalg.norm(c)
    raise ValueError(f"no reference for target {cfg['target']!r}")


def kerr0_density(cfg, t):
    """Exact zero-temperature density matrix at time t on the window."""
    dim, chi, gm = cfg["dim"], cfg["chi"], cfg["gamma_minus"]
    _, norm_sq = initial_ket(cfg)
    n = np.arange(dim)
    k = (n[:, None] - n[None, :]).astype(float)
    s = (n[:, None] + n[None, :]).astype(float)
    z = gm + 1j * chi * k
    u = -np.expm1(-2.0 * z * t) / (2.0 * z)
    rho = np.zeros((dim, dim), dtype=complex)
    for wa, a in components(cfg):
        ca = amplitudes(a, dim)[0]
        for wb, b in components(cfg):
            cb = amplitudes(b, dim)[0]
            rho += (wa * np.conj(wb)) * np.outer(ca, cb.conj()) * np.exp(2.0 * gm * u * a * np.conj(b))
    return rho * np.exp(-gm * t * s - 1j * chi * t * k * (s - 1.0)) / norm_sq


def mean_n(psi):
    return float(np.sum(np.arange(psi.size) * np.abs(psi) ** 2))


def mean_a2(psi):
    n = np.arange(psi.size - 2)
    return complex(np.sum(psi[:-2].conj() * np.sqrt((n + 1.0) * (n + 2.0)) * psi[2:]))


def pdc_mean_n(cfg, psi0, t):
    eps, gamma = complex(cfg["epsilon"]), cfg["gamma"]
    n0, a20 = mean_n(psi0), mean_a2(psi0)
    w = 4.0 * abs(eps)
    slope = 2.0 * gamma - 4.0 * (eps.conjugate() * a20).imag
    return (n0 + 0.5) * math.cosh(w * t) + slope * math.sinh(w * t) / w - 0.5


def kerrT_mean_n(cfg, psi0, t):
    gm, gp = cfg["gamma_minus"], cfg["gamma_plus"]
    nbar = gp / (gm - gp)
    return nbar + (mean_n(psi0) - nbar) * math.exp(-2.0 * (gm - gp) * t)


# ---------------------------------------------------------------------------
# Output checks


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def check_propagate(cfg, engine, out_path, res):
    model = cfg["model"]
    header, rows = _read_csv(out_path)
    times = cfg["times"]
    if len(rows) != len(times):
        res.fail(f"{len(rows)} rows for {len(times)} times")
        return
    psi0, _ = initial_ket(cfg)
    target = target_ket(cfg, psi0) if "target" in cfg else None
    if target is not None and "fidelity_target" not in header:
        res.fail("fidelity_target column missing")
        return
    tol = PDC_TOL if model == "pdc" else KERR_TOL
    if engine in ("expm", "rk4"):
        tol = ENGINE_TOL
    for t, row in zip(times, rows):
        res.compare("t", row["t"], t, 0.0)
        res.compare(f"trace_im@{t:.4g}", row["trace_im"], 0.0, tol)
        res.bound(f"min_eig@{t:.4g}", row["min_eig"], -tol, 1.0 + tol)
        if model == "kerr0":
            rho = kerr0_density(cfg, t)
            res.compare(f"trace@{t:.4g}", row["trace_re"], np.trace(rho).real, tol)
            res.compare(f"purity@{t:.4g}", row["purity"], float(np.sum(rho * rho.T).real), tol)
            res.compare(f"mean_n@{t:.4g}", row["mean_n"], mean_n(psi0) * math.exp(-2.0 * cfg["gamma_minus"] * t), tol)
            if target is not None:
                fid = float(np.real(target.conj() @ rho @ target))
                res.compare(f"fidelity@{t:.4g}", row["fidelity_target"], fid, tol)
            continue
        res.compare(f"trace@{t:.4g}", row["trace_re"], 1.0, tol)
        res.bound(f"purity@{t:.4g}", row["purity"], 0.0, 1.0 + tol)
        if target is not None:
            res.bound(f"fidelity@{t:.4g}", row["fidelity_target"], 0.0, 1.0 + tol)
        want = kerrT_mean_n(cfg, psi0, t) if model == "kerrT" else pdc_mean_n(cfg, psi0, t)
        res.compare(f"mean_n@{t:.4g}", row["mean_n"], want, tol)


def check_qfunc(cfg, out_path, res):
    _, rows = _read_csv(out_path)
    pts = cfg["points_per_axis"]
    if len(rows) != pts * pts:
        res.fail(f"{len(rows)} grid points, want {pts * pts}")
        return
    rho = kerr0_density(cfg, cfg["times"][0])
    betas = np.array([complex(r["re"], r["im"]) for r in rows])
    q_ref = np.empty(len(betas))
    for lo in range(0, len(betas), 512):  # in chunks, so the check adds little to peak memory
        c = amplitudes(betas[lo:lo + 512], cfg["dim"])
        q_ref[lo:lo + 512] = np.real(np.sum(c.conj() * (c @ rho.T), axis=1)) / math.pi
    q_got = np.array([r["q"] for r in rows])
    i = int(np.argmax(np.abs(q_got - q_ref)))
    res.compare(f"q@{betas[i]:.3g}", float(q_got[i]), float(q_ref[i]), KERR_TOL)


def check_op(op, rc, stdout, out_path):
    """Check one finished op against its reference. Returns a CheckResult."""
    res = CheckResult()
    if rc != 0:
        res.fail(f"exit code {rc}")
        return res
    if op.kind == "verify":
        if not stdout.rstrip().endswith("all passed"):
            res.fail("verify report does not end in 'all passed'")
        return res
    try:
        if op.kind == "qfunc":
            check_qfunc(op.config, out_path, res)
        else:
            check_propagate(op.config, op.engine, out_path, res)
    except (OSError, ValueError, KeyError, IndexError) as e:
        res.fail(f"unreadable output: {e!r}")
    return res
