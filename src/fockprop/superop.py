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
from functools import partial
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
    "pair_sink",
    "pair_source",
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


def _record(name, residual, tol, kind="check", note=""):
    """One verification record. A "check" passes iff its residual is within
    tol; a "note" or an "unverifiable" record carries no verdict."""
    return {
        "name": name,
        "kind": kind,
        "residual": residual,
        "tolerance": tol,
        "passed": residual <= tol if kind == "check" else None,
        "note": note,
    }


def verify_commutator_table(dim, epsilon, gamma, samples=10, seed=7):
    """Check every closure relation the closed-form solutions rest on.

    Each relation (name, (A, B), rhs, kind) claims [A, B] rho = rhs(rho), with
    A and B keys of `op`. It is evaluated on `samples` random densities and
    compared on the sub-block n, m <= dim - 5, whose margin keeps every
    two-step index shift inside the window, so residuals measure algebra, not
    cutoff. The i-th evaluated relation draws from a generator seeded by
    (seed, i), so one relation can be reproduced without replaying the table.

    Returns a list of records: a "check" carries a residual and a pass flag; a
    "note" shows a rejected alternative coefficient; a "closure" becomes the
    check of the worst residual over its member cells; the one "unverifiable"
    record names a relation whose partner is undefined and never fails.
    """
    if dim < 10:
        raise ValueError("need dim >= 10 so the checked sub-block is non-trivial")
    if samples < 1:
        raise ValueError("need samples >= 1; with none, every residual reads 0 unchecked")
    if gamma == 0:
        raise ValueError("need gamma != 0; the pair-drive relations divide by it")

    a = annihilation(dim)
    a2, ad2 = a @ a, a.conj().T @ a.conj().T
    eps, g = complex(epsilon), float(gamma)
    chi0, gm0 = 1.0, 0.1  # fixed reference rates of the Kerr trio

    op = {
        # the five-element table
        "pair_sink": pair_sink(dim),
        "jump_down_scaled": lowering_sandwich(dim, 4.0),
        "cross_shift_sum": cross_raise(dim) + cross_lower(dim),
        "pair_source": pair_source(dim),
        "jump_up_scaled": raising_sandwich(dim, 4.0),
        # the zero-temperature Kerr trio
        "number_damping(0.1)": number_damping(dim, gm0),
        "kerr_phase(1.0)": kerr_phase(dim, chi0),
        "index_difference": index_difference(dim),
        "lowering": lowering_sandwich(dim, 1.0),
        # the pair drive at the given (epsilon, gamma)
        "cross_raise": cross_raise(dim),
        "cross_lower": cross_lower(dim),
        "jump_down": lowering_sandwich(dim, 2.0 * g),
        "jump_up": raising_sandwich(dim, 2.0 * g),
        "drive": pdc_drive(dim, eps),
        "number_damping": number_damping(dim, g),
    }
    zero = SuperopExpr(dim)  # the empty sum
    nothing = partial(apply, zero)
    cs, low, jumps = op["cross_shift_sum"], op["lowering"], op["jump_down"] + op["jump_up"]

    # upper triangle of the table as (row, col, rhs label, rhs)
    cells = [
        ("pair_sink", "jump_down_scaled", "0", zero),
        ("pair_sink", "cross_shift_sum", "-jump_down_scaled", -1.0 * op["jump_down_scaled"]),
        ("pair_sink", "pair_source", "4*damping_shift", 4.0 * damping_shift(dim)),
        ("pair_sink", "jump_up_scaled", "-8*cross_shift_sum", -8.0 * cs),
        ("jump_down_scaled", "cross_shift_sum", "-4*pair_sink", -4.0 * op["pair_sink"]),
        ("jump_down_scaled", "pair_source", "8*cross_shift_sum", 8.0 * cs),
        ("jump_down_scaled", "jump_up_scaled", "-16*damping_shift", -16.0 * damping_shift(dim)),
        ("cross_shift_sum", "pair_source", "jump_up_scaled", op["jump_up_scaled"]),
        ("cross_shift_sum", "jump_up_scaled", "4*pair_source", 4.0 * op["pair_source"]),
        ("pair_source", "jump_up_scaled", "0", zero),
    ]
    relations = []
    for row, col, label, e in cells:
        relations += [
            (f"[{row}, {col}] = {label}", (row, col), partial(apply, e), "check"),
            # the antisymmetric partner, evaluated on fresh draws
            (f"[{col}, {row}] = -({label})", (col, row), lambda rho, e=e: -apply(e, rho), "check"),
        ]
    # self commutators vanish trivially; listed once to show they were exercised
    relations += [(f"[{o}, {o}] = 0", (o, o), nothing, "check") for o in list(op)[:5]]
    relations += [
        # the algebra gives the mixed-ladder cells a factor 8; the factor 2
        # variant is evaluated and recorded as rejected
        ("[pair_sink, jump_up_scaled] coefficient-2 variant", ("pair_sink", "jump_up_scaled"),
         lambda rho: -2.0 * apply(cs, rho), "note"),
        ("[jump_up_scaled, pair_sink] coefficient-2 variant", ("jump_up_scaled", "pair_sink"),
         lambda rho: 2.0 * apply(cs, rho), "note"),
        # closure of the two three-element subalgebras follows from their cells
        ("closure: span{jump_down_scaled, pair_sink, cross_shift_sum}",
         ("[pair_sink, jump_down_scaled] = 0",
          "[pair_sink, cross_shift_sum] = -jump_down_scaled",
          "[jump_down_scaled, cross_shift_sum] = -4*pair_sink"), None, "closure"),
        ("closure: span{jump_up_scaled, pair_source, cross_shift_sum}",
         ("[pair_source, jump_up_scaled] = 0",
          "[cross_shift_sum, pair_source] = jump_up_scaled",
          "[cross_shift_sum, jump_up_scaled] = 4*pair_source"), None, "closure"),
        ("[number_damping(0.1), lowering] = 2*0.1*lowering", ("number_damping(0.1)", "lowering"),
         lambda rho: 2.0 * gm0 * apply(low, rho), "check"),
        ("[kerr_phase(1.0), lowering] = 2i*1.0*index_difference.lowering",
         ("kerr_phase(1.0)", "lowering"),
         lambda rho: 2j * chi0 * apply(op["index_difference"], apply(low, rho)), "check"),
        ("[index_difference, lowering] = 0", ("index_difference", "lowering"), nothing, "check"),
        ("[cross_raise, jump_down] rho = -2g rho adag^2", ("cross_raise", "jump_down"),
         lambda rho: -2.0 * g * (rho @ ad2), "check"),
        ("[cross_raise, jump_up] rho = 2g adag^2 rho", ("cross_raise", "jump_up"),
         lambda rho: 2.0 * g * (ad2 @ rho), "check"),
        ("[cross_raise, drive] = (i conj(eps)/g) (jump_down + jump_up)", ("cross_raise", "drive"),
         lambda rho: (1j * np.conj(eps) / g) * apply(jumps, rho), "check"),
        ("[cross_lower, jump_down] rho = -2g a^2 rho", ("cross_lower", "jump_down"),
         lambda rho: -2.0 * g * (a2 @ rho), "check"),
        ("[cross_lower, jump_up] rho = 2g rho a^2", ("cross_lower", "jump_up"),
         lambda rho: 2.0 * g * (rho @ a2), "check"),
        ("[cross_lower, drive] = (-i eps/g) (jump_down + jump_up)", ("cross_lower", "drive"),
         lambda rho: (-1j * eps / g) * apply(jumps, rho), "check"),
        ("[cross_raise, number_damping] = 0", ("cross_raise", "number_damping"), nothing, "check"),
        ("[cross_lower, number_damping] = 0", ("cross_lower", "number_damping"), nothing, "check"),
    ]

    keep = slice(dim - 4)  # n, m <= dim - 5
    records, worst = [], {}  # residuals so far by name; len(worst) is i of (seed, i)
    for name, lhs, rhs, kind in relations:
        if kind == "closure":
            res = max(worst[cell] for cell in lhs)
            records.append(_record(name, res, 1e-10, note="max over member cells"))
            continue
        rng = np.random.default_rng([seed, len(worst)])
        res = 0.0
        for _ in range(samples):
            rho = random_density(dim, rng)
            diff = commutator(op[lhs[0]], op[lhs[1]], rho) - rhs(rho)
            res = max(res, _maxabs(diff[keep, keep]))
        worst[name] = res
        tol, note = (1e-10, "") if kind == "check" else (
            None, "coefficient 2 rejected in favor of 8, residual shown")
        records.append(_record(name, res, tol, kind, note))
    records.append(_record(
        "[cross_lower, <undefined partner>] = (coupling/g)(jump_up + jump_down)", None, None,
        "unverifiable", "the partner superoperator is never defined, so the relation "
        "cannot be evaluated; recorded, not failed"))
    return records
