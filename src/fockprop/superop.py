"""Superoperators as formal sums of sandwich terms, plus their matrix form.

Every superoperator here is an ordered sum of one term kind:

  SandwichTerm(c, L, R):   rho -> c * L @ rho @ R

A Hamiltonian part is a commutator -i[H, rho] and number damping an
anticommutator, two sandwiches each with the identity on one side: the
pair drive is -i[eps a^dag^2 + conj(eps) a^2, rho], the Kerr phase
-i chi [n(n-1), rho] and the damping -gamma (n rho + rho n).

The matrix form uses column stacking: vec(rho) = rho.flatten(order="F"),
so vec(A rho B) = (B.T kron A) vec(rho). build_liouvillian keeps only its
nonzero entries; a Kerr generator has O(dim^2) of them, against the dim^4 of
the dense matrix.
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

import numpy as np

from .fock import _chunks, _hermitian_mean, _maxabs, annihilation, creation, number_op

__all__ = [
    "SandwichTerm",
    "SuperopExpr",
    "Liouvillian",
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
    "cross_shift_sum",
    "pair_sink",
    "pair_source",
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
class SuperopExpr:
    """Ordered sum of sandwich terms acting on dim x dim density matrices."""

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
        return SuperopExpr(self.dim, tuple(SandwichTerm(c * t.coeff, t.left, t.right)
                                           for t in self.terms))


def apply(expr, rho):
    """Act with expr on rho, or on each slice of a (..., dim, dim) stack.

    Term by term as c * (L @ rho @ R), the products formed into two buffers
    of the state's shape. A stack's slices are each one gemm, as a lone
    state's product is, so every slice reads what apply gives it alone.
    The coefficient multiplies from the left, the operand order of
    c * (L @ rho @ R): swapping the factors of a complex product can move
    its last bit. Always returns a fresh complex array.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (expr.dim, expr.dim):
        raise ValueError(f"state shape {rho.shape} does not match dim {expr.dim}")
    left, term = np.empty((2,) + rho.shape, dtype=complex)
    out = np.zeros_like(rho)
    for t in expr.terms:
        np.matmul(t.left, rho, out=left)
        np.matmul(left, t.right, out=term)
        out += np.multiply(t.coeff, term, out=term)
    return out


def commutator(e1, e2, rho):
    """(e1 e2 - e2 e1) rho, superoperator composition order."""
    out = apply(e1, apply(e2, rho))
    out -= apply(e2, apply(e1, rho))
    return out


def vec(rho):
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v, dim):
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """The dim^2 x dim^2 column-stacking matrix of an expression, as entries.

    entries[i] sits at row rows[i] and column cols[i]; every position appears
    at most once, and positions not listed hold zero. Equality is identity
    and the arrays are read-only, so a generator can key a cache of what is
    read off it.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        for a in (self.rows, self.cols, self.entries):
            a.flags.writeable = False

    def dense(self):
        """The full matrix, scattered from the entries."""
        mat = np.zeros((self.dim * self.dim,) * 2, dtype=complex)
        mat[self.rows, self.cols] = self.entries
        return mat


def _term_entries(term, dim):
    """(rows, cols, values) of one term's nonzero pattern.

    The values are the products of the nonzeros of right.T and left, formed
    as np.kron forms them, so they are bit-identical to its entries.
    """
    a, b = term.right.T, term.left
    i, j = np.nonzero(a)
    p, q = np.nonzero(b)
    rows = (dim * i[:, None] + p).ravel()
    cols = (dim * j[:, None] + q).ravel()
    return rows, cols, term.coeff * (a[i, j][:, None] * b[p, q]).ravel()


def build_liouvillian(expr):
    """The Liouvillian of expr in the column-stacking convention.

    Entries at one position are summed from zero in term order, as adding
    the terms' dense matrices would, and exact zeros are dropped, so the
    dense matrix is the dense sum bit for bit.
    """
    dim = expr.dim
    n = dim * dim
    parts = [_term_entries(t, dim) for t in expr.terms]
    keys = np.concatenate([np.zeros(0, dtype=np.intp)] + [r * n + c for r, c, _ in parts])
    positions, slot = np.unique(keys, return_inverse=True)
    acc = np.zeros(len(positions), dtype=complex)
    start = 0
    for rows, _, values in parts:
        # one term lists each position once, so the fancy += adds every value
        acc[slot[start:start + len(rows)]] += values
        start += len(rows)
    keep = acc != 0
    rows, cols = np.divmod(positions[keep], n)
    return Liouvillian(dim, rows, cols, acc[keep])


def random_density(dim, rng):
    """Full-rank random density matrix G G^dag / tr, G complex Gaussian, exactly Hermitian.

    The product rounds its two triangles apart at most windows; the mean
    with its adjoint is Hermitian to the bit, so the Kerr flows run it on
    their hermitian layout, as they run every CLI state.
    """
    return _random_densities(dim, rng, 1)[0]


def _random_densities(dim, rng, count):
    """A (count, dim, dim) stack of random_density draws, from one draw of rng.

    Each density takes its real and then its imaginary part from the
    stream, so the stack is `count` successive random_density calls.
    """
    z = rng.standard_normal((count, 2, dim, dim))
    g = np.empty((count, dim, dim), dtype=complex)
    g.real, g.imag = z[:, 0], z[:, 1]
    rho = _hermitian_mean(g @ g.conj().swapaxes(-1, -2))
    return np.divide(rho, np.trace(rho, axis1=-2, axis2=-1).real[:, None, None], out=rho)


# ---------------------------------------------------------------------------
# Named building blocks


def _terms(dim, *triples):
    """The sum of sandwiches c * L rho R over (c, L, R) triples, in order."""
    return SuperopExpr(dim, tuple(SandwichTerm(complex(c), left, right)
                                  for c, left, right in triples))


def _commutator(dim, c, h):
    """c (h rho - rho h)."""
    eye = np.eye(dim, dtype=complex)
    return _terms(dim, (c, h, eye), (-c, eye, h))


def _anticommutator(dim, c, h):
    """c (h rho + rho h)."""
    eye = np.eye(dim, dtype=complex)
    return _terms(dim, (c, h, eye), (c, eye, h))


def lowering_sandwich(dim, rate):
    """rate * a rho a^dag, the downward jump feed."""
    return _terms(dim, (rate, annihilation(dim), creation(dim)))


def raising_sandwich(dim, rate):
    """rate * a^dag rho a, the upward jump feed."""
    return _terms(dim, (rate, creation(dim), annihilation(dim)))


def number_damping(dim, gamma):
    """-gamma (n rho + rho n)."""
    return _anticommutator(dim, -complex(gamma), number_op(dim))


def damping_shift(dim):
    """-(n rho + rho n) - rho: number damping at unit rate minus identity."""
    return number_damping(dim, 1.0) + identity_superop(dim, -1.0)


def kerr_phase(dim, chi):
    """-i chi [K, rho] with K = n(n-1), the Kerr Hamiltonian's commutator."""
    n = number_op(dim)
    return _commutator(dim, -1j * complex(chi), n @ n - n)


def index_difference(dim):
    """[n, rho]: weights element (n, m) by n - m."""
    return _commutator(dim, 1.0, number_op(dim))


def identity_superop(dim, c=1.0):
    """c * rho."""
    eye = np.eye(dim, dtype=complex)
    return _terms(dim, (c, eye, eye))


def cross_shift_sum(dim):
    """a^dag rho a^dag + a rho a: shifts both indices up, or both down; preserves k."""
    a, ad = annihilation(dim), creation(dim)
    return _terms(dim, (1.0, ad, ad), (1.0, a, a))


def _squares(dim):
    """a^2 and a^dag^2."""
    a, ad = annihilation(dim), creation(dim)
    return a @ a, ad @ ad


def pair_sink(dim):
    """rho -> -(a^2 rho + rho a^dag^2)."""
    a2, ad2 = _squares(dim)
    eye = np.eye(dim, dtype=complex)
    return _terms(dim, (-1.0, a2, eye), (-1.0, eye, ad2))


def pair_source(dim):
    """rho -> a^dag^2 rho + rho a^2."""
    a2, ad2 = _squares(dim)
    eye = np.eye(dim, dtype=complex)
    return _terms(dim, (1.0, ad2, eye), (1.0, eye, a2))


def pdc_drive(dim, epsilon):
    """-i [eps a^dag^2 + conj(eps) a^2, rho], the pair pump's commutator."""
    a2, ad2 = _squares(dim)
    e = complex(epsilon)
    return _commutator(dim, -1j, e * ad2 + np.conj(e) * a2)


# ---------------------------------------------------------------------------
# Full generators


def kerr_zero_t_generator(dim, chi, gamma_minus):
    """Kerr oscillator with downward decay only: the finite-temperature one at gp = 0.

    d rho / dt = -i chi [n(n-1), rho] + 2 gm a rho a^dag - gm (n rho + rho n)
    """
    return kerr_finite_t_generator(dim, chi, gamma_minus, 0.0, gamma_minus, 0.0)


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


def _record(name, residual, tol, kind="check", note=""):
    """One verification record, its residual as a float. A "check" passes
    iff its residual is within tol, so a nan one fails; a "note" carries no
    verdict."""
    residual = float(residual)
    return {
        "name": name,
        "kind": kind,
        "residual": residual,
        "tolerance": tol,
        "passed": residual <= tol if kind == "check" else None,
        "note": note,
    }


# The three maps on each side of the pdc channel, as keys of the table's
# operators: each side is the exponential of a sum of its three, and
# because they commute, the order of that side's factors is free.
_CHANNEL_SIDES = {
    "input": ("a^2 rho", "rho adag^2", "J-"),
    "output": ("adag^2 rho", "rho a^2", "J+"),
}


# random densities each relation of verify_commutator_table is evaluated on
TABLE_SAMPLES = 10


def verify_commutator_table(dim, seed=7, fault=None):
    """Check the commutators of the paper's pdc algebra, the Kerr flow and the pdc channel.

    The relations come in three groups, and each record's name starts with
    its group's label:
    - "paper": the paper's five-element algebra of pdc superoperators, with
      the closure of its two three-element subalgebras and two notes on a
      rejected coefficient;
    - "Kerr flow": the zero-temperature Kerr trio that the lowering series
      of the resummed Kerr flow rests on;
    - "pdc channel": the commutations of the three maps on each side of
      propagate_pdc's channel (_CHANNEL_SIDES), with J- rho = a rho adag
      and J+ rho = adag rho a.

    Each relation (name, (A, B), rhs, kind) claims [A, B] rho = rhs(rho), with
    A and B keys of `op`. It is evaluated on TABLE_SAMPLES random densities and
    compared on the sub-block n, m <= dim - 5, whose margin keeps every
    two-step index shift inside the window, so residuals measure algebra, not
    cutoff. The i-th evaluated relation draws from a generator seeded by
    (seed, i), so one relation can be reproduced without replaying the table.
    The samples are drawn and evaluated as stacks, as many at a time as fock's
    chunk budget holds; each sample reads what it would alone.

    fault="tables-kerr-phase-sign" builds the Kerr trio's kerr_phase with -chi
    while its relation still claims +chi, so exactly that relation fails.

    Returns a list of records: a "check" carries a residual and a pass flag; a
    "note" shows a rejected alternative coefficient; a "closure" becomes the
    check of the worst residual over its member cells. A nan residual, of a
    sample or of a member cell, is kept as the worst, so its checks fail.
    """
    if dim < 10:
        raise ValueError("need dim >= 10 so the checked sub-block is non-trivial")

    a2, ad2 = _squares(dim)
    eye = np.eye(dim, dtype=complex)
    chi0, gm0 = 1.0, 0.1  # fixed reference rates of the Kerr trio

    op = {
        # the five-element table
        "pair_sink": pair_sink(dim),
        "jump_down_scaled": lowering_sandwich(dim, 4.0),
        "cross_shift_sum": cross_shift_sum(dim),
        "pair_source": pair_source(dim),
        "jump_up_scaled": raising_sandwich(dim, 4.0),
        # the zero-temperature Kerr trio
        "number_damping(0.1)": number_damping(dim, gm0),
        "kerr_phase(1.0)": kerr_phase(dim, -chi0 if fault == "tables-kerr-phase-sign" else chi0),
        "index_difference": index_difference(dim),
        "lowering": lowering_sandwich(dim, 1.0),
        # the maps of the pdc channel's two sides
        "a^2 rho": _terms(dim, (1.0, a2, eye)),
        "rho adag^2": _terms(dim, (1.0, eye, ad2)),
        "J-": lowering_sandwich(dim, 1.0),
        "adag^2 rho": _terms(dim, (1.0, ad2, eye)),
        "rho a^2": _terms(dim, (1.0, eye, a2)),
        "J+": raising_sandwich(dim, 1.0),
    }
    zero = SuperopExpr(dim)  # the empty sum
    nothing = partial(apply, zero)
    cs, low = op["cross_shift_sum"], op["lowering"]

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
    paper = []
    for row, col, label, e in cells:
        paper += [
            (f"[{row}, {col}] = {label}", (row, col), partial(apply, e), "check"),
            # the antisymmetric partner, evaluated on fresh draws
            (f"[{col}, {row}] = -({label})", (col, row), lambda rho, e=e: -apply(e, rho), "check"),
        ]
    # self commutators vanish trivially; listed once to show they were exercised
    paper += [(f"[{o}, {o}] = 0", (o, o), nothing, "check") for o in list(op)[:5]]
    paper += [
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
    ]
    kerr = [
        ("[number_damping(0.1), lowering] = 2*0.1*lowering", ("number_damping(0.1)", "lowering"),
         lambda rho: 2.0 * gm0 * apply(low, rho), "check"),
        ("[kerr_phase(1.0), lowering] = 2i*1.0*index_difference.lowering",
         ("kerr_phase(1.0)", "lowering"),
         lambda rho: 2j * chi0 * apply(op["index_difference"], apply(low, rho)), "check"),
        ("[index_difference, lowering] = 0", ("index_difference", "lowering"), nothing, "check"),
    ]
    channel = [(f"[{x}, {y}] = 0 on the {side} side", (x, y), nothing, "check")
               for side, maps in _CHANNEL_SIDES.items() for x, y in combinations(maps, 2)]

    keep = slice(dim - 4)  # n, m <= dim - 5
    counts = [len(range(TABLE_SAMPLES)[part]) for part in _chunks(TABLE_SAMPLES, dim * dim)]
    records, worst = [], {}  # residuals so far by name; len(worst) is i of (seed, i)
    for group, relations in (("paper", paper), ("Kerr flow", kerr), ("pdc channel", channel)):
        for name, lhs, rhs, kind in relations:
            name = f"{group}: {name}"
            if kind == "closure":
                res = np.max([worst[f"{group}: {cell}"] for cell in lhs])
                records.append(_record(name, res, 1e-10, note="max over member cells"))
                continue
            rng = np.random.default_rng([seed, len(worst)])
            res = 0.0
            for count in counts:
                rho = _random_densities(dim, rng, count)
                diff = commutator(op[lhs[0]], op[lhs[1]], rho)
                diff -= rhs(rho)
                res = np.maximum(res, _maxabs(diff[:, keep, keep]))
            worst[name] = res
            tol, note = (1e-10, "") if kind == "check" else (
                None, "coefficient 2 rejected in favor of 8, residual shown")
            records.append(_record(name, res, tol, kind, note))
    return records
