"""Superoperators as formal sums of terms, plus their dense matrix form.

Two term kinds cover everything this package needs:

  SandwichTerm(c, L, R):   rho -> c * L @ rho @ R
  DiagonalTerm(f):         rho[n, m] -> exp-free elementwise weight
                           f(k, s) * rho[n, m] with k = n - m, s = n + m

Diagonal terms capture generators that only multiply each matrix element
by a function of its index pair (Kerr phases, number damping). The (k, s)
coordinates are the natural ones: every propagator factor in this package
preserves k, and s counts total excitation of the element.

The dense form uses column stacking: vec(rho) = rho.flatten(order="F"),
so vec(A rho B) = (B.T kron A) vec(rho).
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fock import annihilation, creation

__all__ = [
    "SandwichTerm",
    "DiagonalTerm",
    "SuperopExpr",
    "apply",
    "commutator",
    "vec",
    "unvec",
    "build_liouvillian",
    "random_density",
    "lowering_sandwich",
    "raising_sandwich",
    "number_damping",
    "damping_shift",
    "kerr_phase",
    "index_difference",
    "identity_superop",
    "cross_raise",
    "cross_lower",
    "cross_shift_sum",
    "pair_sink",
    "pair_source",
    "jump_down_scaled",
    "jump_up_scaled",
    "pdc_drive_parts",
    "pdc_drive",
    "kerr_zero_t_generator",
    "kerr_finite_t_generator",
    "pdc_generator",
    "verify_commutator_table",
]

@dataclass(frozen=True)
class SandwichTerm:
    coeff: complex
    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class DiagonalTerm:
    # f takes integer arrays (k, s) and must broadcast elementwise
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SuperopExpr:
    """Ordered sum of terms acting on dim x dim density matrices."""

    dim: int
    terms: tuple = field(default_factory=tuple)

    def __add__(self, other):
        if not isinstance(other, SuperopExpr):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return SuperopExpr(self.dim, self.terms + other.terms)

    def __rmul__(self, c):
        c = complex(c)
        scaled = []
        for t in self.terms:
            if isinstance(t, SandwichTerm):
                scaled.append(SandwichTerm(c * t.coeff, t.left, t.right))
            else:
                scaled.append(DiagonalTerm(lambda k, s, f=t.f, c=c: c * f(k, s)))
        return SuperopExpr(self.dim, tuple(scaled))

    __mul__ = __rmul__


def _ks(dim):
    n = np.arange(dim)
    return n[:, None] - n[None, :], n[:, None] + n[None, :]


def apply(expr, rho):
    """Act with expr on rho. Always returns a fresh complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (expr.dim, expr.dim):
        raise ValueError(f"state shape {rho.shape} does not match dim {expr.dim}")
    out = np.zeros_like(rho)
    k, s = _ks(expr.dim)
    for t in expr.terms:
        if isinstance(t, SandwichTerm):
            out += t.coeff * (t.left @ rho @ t.right)
        elif isinstance(t, DiagonalTerm):
            out += np.asarray(t.f(k, s), dtype=complex) * rho
        else:
            raise TypeError(f"unknown term type {type(t).__name__}")
    return out


def commutator(e1, e2, rho):
    """(e1 e2 - e2 e1) rho, superoperator composition order."""
    return apply(e1, apply(e2, rho)) - apply(e2, apply(e1, rho))


def vec(rho):
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v, dim):
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def build_liouvillian(expr):
    """Dense dim^2 x dim^2 matrix of expr in the column-stacking convention."""
    dim = expr.dim
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)
    k, s = _ks(dim)
    for t in expr.terms:
        if isinstance(t, SandwichTerm):
            mat += t.coeff * np.kron(t.right.T, t.left)
        elif isinstance(t, DiagonalTerm):
            w = np.asarray(t.f(k, s), dtype=complex) * np.ones((dim, dim))
            mat += np.diag(w.flatten(order="F"))
        else:
            raise TypeError(f"unknown term type {type(t).__name__}")
    return mat


def random_density(dim, rng):
    """Full-rank random density matrix G G^dag / tr, G complex Gaussian."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# Named building blocks


def lowering_sandwich(dim, rate):
    """rate * a rho a^dag, the downward jump feed."""
    a = annihilation(dim)
    return SuperopExpr(dim, (SandwichTerm(complex(rate), a, a.conj().T),))


def raising_sandwich(dim, rate):
    """rate * a^dag rho a, the upward jump feed."""
    a = annihilation(dim)
    return SuperopExpr(dim, (SandwichTerm(complex(rate), a.conj().T, a),))


def number_damping(dim, gamma):
    """-gamma (n rho + rho n), elementwise -gamma (n + m)."""
    return SuperopExpr(dim, (DiagonalTerm(lambda k, s, g=gamma: -g * s),))


def damping_shift(dim):
    """Elementwise -(n + m + 1): number damping at unit rate minus identity."""
    return SuperopExpr(dim, (DiagonalTerm(lambda k, s: -(s + 1.0)),))


def kerr_phase(dim, chi):
    """-i chi (n(n-1) - m(m-1)) elementwise, i.e. -i chi k (s - 1)."""
    return SuperopExpr(dim, (DiagonalTerm(lambda k, s, c=chi: -1j * c * k * (s - 1.0)),))


def index_difference(dim):
    """Elementwise weight k = n - m."""
    return SuperopExpr(dim, (DiagonalTerm(lambda k, s: k + 0.0),))


def identity_superop(dim, c=1.0):
    return SuperopExpr(dim, (DiagonalTerm(lambda k, s, c=complex(c): c * np.ones_like(s, dtype=complex)),))


def cross_raise(dim, c=1.0):
    """c * a^dag rho a^dag: shifts both indices up, preserves k."""
    ad = creation(dim)
    return SuperopExpr(dim, (SandwichTerm(complex(c), ad, ad),))


def cross_lower(dim, c=1.0):
    """c * a rho a: shifts both indices down, preserves k."""
    a = annihilation(dim)
    return SuperopExpr(dim, (SandwichTerm(complex(c), a, a),))


def cross_shift_sum(dim):
    return cross_raise(dim) + cross_lower(dim)


def pair_sink(dim):
    """rho -> -(a^2 rho + rho a^dag^2)."""
    a = annihilation(dim)
    ad = a.conj().T
    eye = np.eye(dim, dtype=complex)
    return SuperopExpr(
        dim,
        (SandwichTerm(-1.0, a @ a, eye), SandwichTerm(-1.0, eye, ad @ ad)),
    )


def pair_source(dim):
    """rho -> a^dag^2 rho + rho a^2."""
    a = annihilation(dim)
    ad = a.conj().T
    eye = np.eye(dim, dtype=complex)
    return SuperopExpr(
        dim,
        (SandwichTerm(1.0, ad @ ad, eye), SandwichTerm(1.0, eye, a @ a)),
    )


def jump_down_scaled(dim):
    """4 a rho a^dag (downward jump feed at fixed reference rate)."""
    return lowering_sandwich(dim, 4.0)


def jump_up_scaled(dim):
    """4 a^dag rho a (upward jump feed at fixed reference rate)."""
    return raising_sandwich(dim, 4.0)


def pdc_drive_parts(dim, epsilon):
    """The four one-sided pieces of the pair drive, keyed by what they do.

    right_raise:  i eps        rho a^dag^2
    left_lower:  -i conj(eps)  a^2 rho
    left_raise:  -i eps        a^dag^2 rho
    right_lower:  i conj(eps)  rho a^2

    Their sum is the full commutator drive -i [eps a^dag^2 + conj(eps) a^2, rho].
    """
    a = annihilation(dim)
    ad = a.conj().T
    eye = np.eye(dim, dtype=complex)
    e = complex(epsilon)
    return {
        "right_raise": SuperopExpr(dim, (SandwichTerm(1j * e, eye, ad @ ad),)),
        "left_lower": SuperopExpr(dim, (SandwichTerm(-1j * np.conj(e), a @ a, eye),)),
        "left_raise": SuperopExpr(dim, (SandwichTerm(-1j * e, ad @ ad, eye),)),
        "right_lower": SuperopExpr(dim, (SandwichTerm(1j * np.conj(e), eye, a @ a),)),
    }


def pdc_drive(dim, epsilon):
    parts = pdc_drive_parts(dim, epsilon)
    return parts["right_raise"] + parts["left_lower"] + parts["left_raise"] + parts["right_lower"]


# ---------------------------------------------------------------------------
# Full generators


def kerr_zero_t_generator(dim, chi, gamma_minus):
    """Kerr oscillator with downward decay only.

    d rho / dt = -i chi [n(n-1), rho] + 2 gm a rho a^dag - gm (n rho + rho n)
    """
    return (
        kerr_phase(dim, chi)
        + lowering_sandwich(dim, 2.0 * gamma_minus)
        + number_damping(dim, gamma_minus)
    )


def kerr_finite_t_generator(dim, chi, gamma_minus, gamma_plus, gamma0, c_gamma):
    """Kerr oscillator with both decay directions.

    d rho / dt = -i chi [n(n-1), rho] + 2 gm a rho a^dag + 2 gp a^dag rho a
                 - g0 (n rho + rho n) + cg rho

    Trace is preserved exactly when g0 = gm + gp and cg = -2 gp; other
    values are legal inputs (the factorized solution holds for any of
    them) but give a non-trace-preserving flow.
    """
    return (
        kerr_phase(dim, chi)
        + lowering_sandwich(dim, 2.0 * gamma_minus)
        + raising_sandwich(dim, 2.0 * gamma_plus)
        + number_damping(dim, gamma0)
        + identity_superop(dim, c_gamma)
    )


def pdc_generator(dim, epsilon, gamma, corrected=True):
    """Pump-depleted down conversion in the diffusive limit.

    corrected=True builds the trace-preserving combination
        drive + 2g a rho a^dag + 2g a^dag rho a - 2g (n rho + rho n) - 2g rho
    which is the standard two-sided diffusion form. corrected=False keeps
    the single-weight damping term
        drive + 2g a rho a^dag + 2g a^dag rho a - g (n rho + rho n)
    whose flow inflates the trace; it is kept selectable because the
    closed-form machinery applies to it unchanged.
    """
    g = float(gamma)
    core = (
        pdc_drive(dim, epsilon)
        + lowering_sandwich(dim, 2.0 * g)
        + raising_sandwich(dim, 2.0 * g)
    )
    if corrected:
        return core + 2.0 * number_damping(dim, g) + identity_superop(dim, -2.0 * g)
    return core + number_damping(dim, g)


# ---------------------------------------------------------------------------
# Commutator table verification


def _maxabs(x):
    return float(np.max(np.abs(x))) if x.size else 0.0


def verify_commutator_table(dim, epsilon, gamma, samples=10, seed=7):
    """Check every closure relation the closed-form solutions rest on.

    Evaluates each commutator on `samples` random densities and compares
    against the claimed right-hand side on the rectangular sub-block
    n, m <= dim - 5. The margin keeps every relation's two-step index
    shifts inside the window, so residuals measure algebra, not cutoff.

    Returns a list of records. kind "check" entries carry a residual and
    a pass flag; kind "note" entries document alternative coefficients the
    verifier evaluated and rejected; the single kind "unverifiable" entry
    records a relation whose partner operator has no definition available,
    which is reported but never counted as a failure.

    Each relation draws its own generator seeded by (seed, index), so a
    single relation can be reproduced without replaying the whole table.
    """
    if dim < 10:
        raise ValueError("need dim >= 10 so the checked sub-block is non-trivial")

    a = annihilation(dim)
    ad = a.conj().T
    a2 = a @ a
    ad2 = ad @ ad

    eps = complex(epsilon)
    g = float(gamma)

    # operators of the five-element table
    ps = pair_sink(dim)
    jd = jump_down_scaled(dim)
    cs = cross_shift_sum(dim)
    pq = pair_source(dim)
    ju = jump_up_scaled(dim)
    ds = damping_shift(dim)

    def rhs_expr(e):
        return lambda rho: apply(e, rho)

    zero = lambda rho: np.zeros_like(rho)

    names = {
        id(ps): "pair_sink",
        id(jd): "jump_down_scaled",
        id(cs): "cross_shift_sum",
        id(pq): "pair_source",
        id(ju): "jump_up_scaled",
    }

    # (row, col, rhs expression or None-for-zero, rhs label)
    table = [
        (ps, jd, None, "0"),
        (ps, cs, -1.0 * jd, "-jump_down_scaled"),
        (ps, pq, 4.0 * ds, "4*damping_shift"),
        (ps, ju, -8.0 * cs, "-8*cross_shift_sum"),
        (jd, cs, -4.0 * ps, "-4*pair_sink"),
        (jd, pq, 8.0 * cs, "8*cross_shift_sum"),
        (jd, ju, -16.0 * ds, "-16*damping_shift"),
        (cs, pq, 1.0 * ju, "jump_up_scaled"),
        (cs, ju, 4.0 * pq, "4*pair_source"),
        (pq, ju, None, "0"),
    ]

    records = []
    idx = 0

    def draw(n_idx):
        rng = np.random.default_rng([seed, n_idx])
        return [random_density(dim, rng) for _ in range(samples)]

    mask = np.zeros((dim, dim), dtype=bool)
    mask[: dim - 4, : dim - 4] = True  # n, m <= dim - 5

    def check(name, lhs_fn, rhs_fn, tol=1e-10, kind="check", note=""):
        nonlocal idx
        res = 0.0
        for rho in draw(idx):
            diff = lhs_fn(rho) - rhs_fn(rho)
            res = max(res, _maxabs(diff[mask]))
        records.append(
            {
                "name": name,
                "kind": kind,
                "residual": res,
                "tolerance": tol,
                "passed": (res <= tol) if kind == "check" else None,
                "note": note,
            }
        )
        idx += 1
        return res

    # upper triangle of the table plus the diagonal (self commutators are
    # trivially zero, included once to show they were exercised)
    for row, col, rhs, label in table:
        name = f"[{names[id(row)]}, {names[id(col)]}] = {label}"
        rhs_fn = zero if rhs is None else rhs_expr(rhs)
        check(name, lambda rho, r=row, c=col: commutator(r, c, rho), rhs_fn)
        # antisymmetric partner, evaluated on fresh draws
        rev = f"[{names[id(col)]}, {names[id(row)]}] = -({label})"
        neg = zero if rhs is None else (lambda rho, e=rhs: -apply(e, rho))
        check(rev, lambda rho, r=col, c=row: commutator(r, c, rho), neg)
    for op in (ps, jd, cs, pq, ju):
        check(f"[{names[id(op)]}, {names[id(op)]}] = 0",
              lambda rho, o=op: commutator(o, o, rho), zero)

    # coefficient audit for the two mixed-ladder cells: the factor 8 above
    # is the one the algebra produces; the factor 2 variant is evaluated
    # here and recorded as rejected so the distinction is on the record
    for nm, row, col, alt in [
        ("[pair_sink, jump_up_scaled]", ps, ju, lambda rho: -2.0 * apply(cs, rho)),
        ("[jump_up_scaled, pair_sink]", ju, ps, lambda rho: 2.0 * apply(cs, rho)),
    ]:
        r = 0.0
        for rho in draw(idx):
            r = max(r, _maxabs((commutator(row, col, rho) - alt(rho))[mask]))
        idx += 1
        records.append(
            {
                "name": f"{nm} coefficient-2 variant",
                "kind": "note",
                "residual": r,
                "tolerance": None,
                "passed": None,
                "note": "coefficient 2 rejected in favor of 8, residual shown",
            }
        )

    # closure of the two three-element subalgebras follows from the cells
    # above; record it explicitly with the worst member residual
    def cell_res(frag):
        return max(rec["residual"] for rec in records if rec["kind"] == "check" and frag in rec["name"])

    for label, frags in [
        ("closure: span{jump_down_scaled, pair_sink, cross_shift_sum}",
         ["[pair_sink, jump_down_scaled]", "[pair_sink, cross_shift_sum]",
          "[jump_down_scaled, cross_shift_sum]"]),
        ("closure: span{jump_up_scaled, pair_source, cross_shift_sum}",
         ["[pair_source, jump_up_scaled]", "[cross_shift_sum, pair_source]",
          "[cross_shift_sum, jump_up_scaled]"]),
    ]:
        res = max(cell_res(f) for f in frags)
        records.append(
            {
                "name": label,
                "kind": "check",
                "residual": res,
                "tolerance": 1e-10,
                "passed": res <= 1e-10,
                "note": "max over member cells",
            }
        )

    # zero-temperature Kerr closure trio at fixed reference rates
    chi0, gm0 = 1.0, 0.1
    damp = number_damping(dim, gm0)
    phase = kerr_phase(dim, chi0)
    kdiff = index_difference(dim)
    low = lowering_sandwich(dim, 1.0)

    check(
        "[number_damping(0.1), lowering] = 2*0.1*lowering",
        lambda rho: commutator(damp, low, rho),
        lambda rho: 2.0 * gm0 * apply(low, rho),
    )
    check(
        "[kerr_phase(1.0), lowering] = 2i*1.0*index_difference.lowering",
        lambda rho: commutator(phase, low, rho),
        lambda rho: 2j * chi0 * apply(kdiff, apply(low, rho)),
    )
    check(
        "[index_difference, lowering] = 0",
        lambda rho: commutator(kdiff, low, rho),
        zero,
    )

    # pair-drive closure relations at the given (epsilon, gamma)
    jref = lowering_sandwich(dim, 2.0 * g)
    kref = raising_sandwich(dim, 2.0 * g)
    lref = number_damping(dim, g)
    sref = pdc_drive(dim, eps)
    craise = cross_raise(dim)
    clower = cross_lower(dim)

    check(
        "[cross_raise, jump_down] rho = -2g rho adag^2",
        lambda rho: commutator(craise, jref, rho),
        lambda rho: -2.0 * g * (rho @ ad2),
    )
    check(
        "[cross_raise, jump_up] rho = 2g adag^2 rho",
        lambda rho: commutator(craise, kref, rho),
        lambda rho: 2.0 * g * (ad2 @ rho),
    )
    check(
        "[cross_raise, drive] = (i conj(eps)/g) (jump_down + jump_up)",
        lambda rho: commutator(craise, sref, rho),
        lambda rho: (1j * np.conj(eps) / g) * apply(jref + kref, rho),
    )
    check(
        "[cross_lower, jump_down] rho = -2g a^2 rho",
        lambda rho: commutator(clower, jref, rho),
        lambda rho: -2.0 * g * (a2 @ rho),
    )
    check(
        "[cross_lower, jump_up] rho = 2g rho a^2",
        lambda rho: commutator(clower, kref, rho),
        lambda rho: 2.0 * g * (rho @ a2),
    )
    check(
        "[cross_lower, drive] = (-i eps/g) (jump_down + jump_up)",
        lambda rho: commutator(clower, sref, rho),
        lambda rho: (-1j * eps / g) * apply(jref + kref, rho),
    )
    check(
        "[cross_raise, number_damping] = 0",
        lambda rho: commutator(craise, lref, rho),
        zero,
    )
    check(
        "[cross_lower, number_damping] = 0",
        lambda rho: commutator(clower, lref, rho),
        zero,
    )

    records.append(
        {
            "name": "[cross_lower, <undefined partner>] = (coupling/g)(jump_up + jump_down)",
            "kind": "unverifiable",
            "residual": None,
            "tolerance": None,
            "passed": None,
            "note": "the partner superoperator is never defined, so the relation "
                    "cannot be evaluated; recorded, not failed",
        }
    )

    return records
