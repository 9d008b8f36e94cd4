"""Closed-form propagator for the damped Kerr oscillator.

At finite temperature upward and downward jumps do not commute, so the
flow disentangles into an eight-factor operator product whose scalar
coefficients depend on the index difference k only. That product collapses
into a lowering series, the elementwise factor exp(t d) hinv^(s+1), with d
the generator's diagonal, and a raising series. Both series take one
weight u, which solves the Riccati flow du/dt = 1 - 2 z u + mu u^2 with
u(0) = 0, z = g0 + i chi k and mu = 4 gm gp. The weights stay bounded on
the window and are smooth through a vanishing discriminant, so the flow
is accurate at any window size and any time. The rates are real, so
every weight at -k is the conjugate of its value at k: the weights are
evaluated on k >= 0 only, by numpy's complex expm1 and log. Along each
diagonal k the elementwise factor is a geometric progression in min(n, m):
two exponentials per k >= 0 and time, and a table of powers built by
doubling, each power at most log2(dim) + 1 rounded products from its ratio.
The zero-temperature flow (kerr_zero_t) is this flow at gamma_plus = 0,
run through propagate_kerr_finite_t. Both series run as the Pascal passes
of _passes over the one skewed window of _layout, two read chains a column
and time the innermost axis; _layout, cached per window, also holds where
each element of that window reads the weight grid and the factor table.
The flow maps a Hermitian state to a Hermitian state, so an exactly
Hermitian rho0 runs on the hermitian layout, one chain of each pair of
diagonals +-k in about half the columns, and the other side is written as
its conjugate; any other state runs on the general layout, all of the
window. The core, _lower_factor_raise, gathers state, weights and the
caller's factor table into that layout once and puts the result back in
window order once; pdc's channel runs it on the general layout with its
own weights and table. A zero rate skips its series, so lossless runs
cost the elementwise factor.
"""

import functools
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .fock import _check_times

__all__ = [
    "KerrFiniteTParams",
    "propagate_kerr_finite_t",
]

@functools.lru_cache(maxsize=2)
def _layout(dim, hermitian):
    """The skewed window of the resummed flow, and where each of its elements sits on the grids.

    Row z is the row index n of rho, and each column holds two read chains,
    an upper chain m - n = j >= 0 on rows z < dim - j and a lower chain
    n - m = k > 0 on rows z >= k, so both series run on this one layout. The
    general layout pairs j with k = dim - j, j = 0 ... dim - 1: column j is
    (m - n) mod dim, a permutation of the window. The hermitian layout
    holds one chain of each pair of diagonals +-d, the upper one for even d
    and the lower one for odd d, a rule independent of the window: it pairs
    each even j with the smallest odd k >= dim - j, which for even dim
    leaves a gap row at z = dim - j and needs one more column for k = 1
    alone. A gap gathers a window entry, its pass factors are 0 and it is
    never read back; the entries left out are the conjugates of the kept.

    At each (z, column) returns the flat window index; the element's row
    k + dim - 1 in the mirrored weight grid of _series_weights; its flat row
    min(n, m) dim + |k| in a (dim, dim, T) factor table; whether k < 0,
    where gathered entries are conjugated; and the pass factors of the
    lowering series a^j rho a^dag^j, which reads up, sqrt(n+1) sqrt(m+1) /
    (n+1), and of the raising series a^dag^j rho a^j, which reads down,
    sqrt(n) sqrt(m) / n. A pass factor is 0 wherever its read leaves the
    window, so the two chains of a column stay apart. Last, for the
    hermitian layout, the row each window entry reads in _unskewed: its
    flat skewed position if kept, else its transpose's plus dim times the
    columns, the offset of the conjugates; the general layout has None
    there. The result is cached, so its arrays are read-only.
    """
    i = np.arange(dim)
    z = i[:, None]
    col = i
    if hermitian:
        j = np.arange(0, dim + 1, 2)
        # for even dim the lower chain dim - j + 1 is general column j - 1
        shift = (z >= dim - j) & (dim % 2 == 0)
        gap = shift & (z == dim - j)
        col = j - shift
    flat = z * dim + (col + z) % dim
    n, m = np.divmod(flat, dim)
    above, below = np.sqrt(i + 1) * (i + 1 < dim), np.sqrt(i) * (i > 0)
    lowering = np.multiply.outer(above / (i + 1), above).take(flat)
    raising = np.multiply.outer(below / np.maximum(i, 1), below).take(flat)
    source = None
    if hermitian:
        lowering[gap] = raising[gap] = 0.0
        kept = np.flatnonzero(~gap)
        source = np.empty(dim * dim, dtype=np.intp)
        source[(m * dim + n).flat[kept]] = kept + flat.size
        # after the transposes, so the diagonal reads its computed value
        source[flat.flat[kept]] = kept
    layout = (flat, n - m + (dim - 1), np.minimum(n, m) * dim + np.abs(n - m), n < m,
              lowering, raising, source)
    for array in layout:
        if array is not None:
            array.flags.writeable = False
    return layout


def _passes(p, w, up):
    """The series of one read, in place on a skewed (dim, dim, S) stack p; returns p.

    w is the pass weight on the same layout, or broadcast to it, and up
    whether the reads go up. The passes are P[a:b] += w[a:b] * P[a+1:b+1]
    over whole rows (P[a-1:b-1] reading down), each row one contiguous run
    of dim S entries. Reading up, passes a = dim-2 ... 0 cover rows
    a ... dim-2 with w = g / (z+1); reading down, passes a = 1 ... dim-1
    cover rows a ... dim-1 with w = g / z. Summed over the passes, the term
    of order j reaches row z along C(z+j, j) (up) or C(z, j) (down) paths,
    which turns the product of the w into the product of the g over j!: the
    Taylor shift by repeated synthetic division. No factorial is formed, so
    large windows do not overflow, and the sum ends at the window edge, so
    it is exact on the window. The rows are absolute indices, so an
    element's arithmetic does not depend on the window size.
    """
    dim = p.shape[0]
    step = 1 if up else -1
    for a in range(dim - 2, -1, -1) if up else range(1, dim):
        dst = slice(a, dim - 1) if up else slice(a, dim)
        src = slice(dst.start + step, dst.stop + step)
        # not *: numpy may reuse a temporary right operand and swap the
        # operands, which moves a complex product's last bit (see README);
        # adding into the view writes no slab back onto itself
        d = p[dst]
        np.add(d, np.multiply(w[dst], p[src]), out=d)
    return p


def _unskewed(p, flat, source=None):
    """A skewed (dim, columns, S) stack back in window order, as a C-ordered (S, dim^2) array.

    On the general layout flat scatters the stack. On the hermitian one
    each window entry is read instead from the stack followed by its
    conjugate, at its row in source: a kept entry, the diagonal among
    them, reads its computed value, and its transpose the exact conjugate.
    """
    dim, columns, count = p.shape
    if source is None:
        out = np.empty((count, flat.size), dtype=complex)
        out[:, flat] = p.transpose(2, 0, 1)
        return out
    skewed = p.reshape(dim * columns, count)
    both = np.concatenate((skewed, skewed.conj()))
    return np.ascontiguousarray(both.take(source, axis=0).T)


def _checked_state(rho0, t):
    """rho0 as a complex array and t as a float array of times.

    Rejects a non-square state, times with more than one axis, and any
    negative or non-finite time.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError("state must be a square matrix")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    _check_times(t)
    return rho0, t


def _check_finite(params):
    """Refuses a parameter set with a nan or infinite field."""
    for f in fields(params):
        if not np.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class KerrFiniteTParams:
    """Rates for the finite-temperature Kerr flow.

    gamma0 and c_gamma default to gamma_minus + gamma_plus and
    -2 gamma_plus, the unique choice that preserves the trace. Explicit
    values are accepted (the factorization does not care) but warned
    about, since every density-matrix invariant then fails by design.
    """

    chi: float
    gamma_minus: float
    gamma_plus: float
    gamma0: float = None
    c_gamma: float = None

    def __post_init__(self):
        if self.gamma_minus < 0 or self.gamma_plus < 0:
            raise ValueError("rates must be non-negative")
        if self.gamma0 is None:
            object.__setattr__(self, "gamma0", self.gamma_minus + self.gamma_plus)
        if self.c_gamma is None:
            object.__setattr__(self, "c_gamma", -2.0 * self.gamma_plus)
        _check_finite(self)
        trace_preserving = (
            abs(self.gamma0 - (self.gamma_minus + self.gamma_plus)) == 0.0
            and abs(self.c_gamma - (-2.0 * self.gamma_plus)) == 0.0
        )
        if not trace_preserving:
            warnings.warn(
                "gamma0 or c_gamma off the trace-preserving convention; "
                "the flow will not conserve tr(rho)"
            )
        if self.gamma_plus > 0 and self.gamma_minus <= self.gamma_plus:
            warnings.warn(
                "gamma_plus >= gamma_minus: heating wins, no normalizable "
                "stationary state"
            )

    def nbar(self):
        """Occupation of the thermal stationary state."""
        if self.gamma_minus <= self.gamma_plus:
            raise ValueError("no stationary state when gamma_plus >= gamma_minus")
        return self.gamma_plus / (self.gamma_minus - self.gamma_plus)


def _weights(times, dim, chi, mu, disc, g0):
    """Series weight u and log hinv on the grid of index differences by times.

    times is a 1-D array; the grid is (dim, T), row k holding k >= 0. With
    z = g0 + i chi k, D = sqrt(z^2 - mu) and h = -expm1(-2 D t) / (2 D),
    h = t where D t = 0,

      q = 1 + (z - D) h,  u = h / q,  log hinv = (z - D) t - log q,

    with z - D = mu / (z + D). Re D >= 0, so nothing in them grows with t.
    D^2 is disc + i chi k (2 g0 + i chi k), with the k = 0 discriminant
    disc = g0^2 - mu formed by the caller free of cancellation. At -k a
    weight is the conjugate of its value at k.
    """
    k_line = np.arange(dim, dtype=float)[:, None]
    z = g0 + 1j * chi * k_line
    # at mu = 0, D = z and q = hinv = 1 exactly
    root = np.sqrt(disc + 1j * chi * k_line * (2.0 * g0 + 1j * chi * k_line)) if mu else z
    rt = root * times
    still = rt == 0
    h = np.where(still, times, -np.expm1(-2.0 * rt) / (2.0 * np.where(still, 1.0, root)))
    if not mu:
        return h, np.zeros_like(h)
    zmd = mu / (z + root)                        # z - D; z + D = 0 needs mu = 0
    q = 1.0 + zmd * h
    return h / q, zmd * times - np.log(q)


def _power_table(log_hinv, times, chi, g0, cg):
    """exp(t d) hinv^(s+1) by rows z = min(n, m) < dim and columns k >= 0, as a (dim, dim, T) table.

    d = c_gamma - g0 s - i chi k (s - 1) is the generator's diagonal and
    log_hinv the grid of _weights at the 1-D times. The exponent is linear
    in s = k + 2 z, so each column is a geometric progression head r^z:
    with w = log hinv - g0 t - i chi t k,

      head = exp(log hinv + c_gamma t + i chi t k + k w),  r = exp(2 w),

    two exponentials per k >= 0 and time; at -k both are the conjugates.
    hinv's power is an integer, so the branch of log q cancels, and decay
    and growth meet inside w, never as 0 * inf. The powers are built by
    doubling: rows h ... 2h - 1 are rows 0 ... h - 1 times r^h, and r is
    squared each round, so each power takes at most log2(dim) + 1 rounded
    products, in an order that depends on z alone, and r^z rounds as an
    exponent z times as large would. A round builds its rows on k < dim - h
    only, which covers the entries k < dim - z that a window element reads;
    the rest is left unset. Time is the innermost axis, so each round is one
    product over contiguous runs.
    """
    dim = len(log_hinv)
    k = np.arange(dim, dtype=float)[:, None]
    phase = 1j * times * (chi * k)
    w = log_hinv - g0 * times - phase
    table = np.empty((dim, dim, len(times)), dtype=complex)
    table[0], r = np.exp([log_hinv + cg * times + phase + k * w, 2.0 * w])
    h = 1
    while h < dim:
        rows, cols = min(h, dim - h), dim - h
        np.multiply(table[:rows, :cols], r[:cols], out=table[h:h + rows, :cols])
        r = np.multiply(r, r)
        h *= 2
    return table


def _series_weights(c, at, factor):
    """The pass weights of one series on the skewed stack.

    c is the series weight on k >= 0 by times, mirrored onto k < 0 by
    conjugation and gathered by at, the mirrored-grid rows of _layout,
    straight into its (dim, dim, T) layout; factor is the series' pass
    factor there.
    """
    w = np.take(np.concatenate((c[:0:-1].conj(), c)), at, axis=0)
    return np.multiply(w, factor[:, :, None], out=w)


def _lower_factor_raise(rho, u, table, down, up, hermitian=False):
    """The lowering series, the elementwise factor and the raising series.

    rho is one (dim, dim) state for every time or a (T, dim, dim) stack, u
    the series weight on k >= 0 by time, scaled by the feeds down and up (a
    zero feed skips its series), and table the factor by rows min(n, m) and
    columns |k| < dim at each time, as _power_table builds it. All are
    gathered into the skewed stack of _layout, the factor conjugated where
    k < 0, which leaves a real table as it is; the result is put back in
    window order once, as a C-ordered (T, dim^2) array. A raising order adds 2 to s at
    fixed k, so it commutes with the factor. hermitian, which the caller
    may pass only for one exactly Hermitian state whose flow keeps it so,
    runs the hermitian layout: half the columns, and an output whose
    entries are those of the general layout or their exact conjugates.
    """
    dim, count = rho.shape[-1], table.shape[-1]
    flat, at, power, neg, lowering, raising, source = _layout(dim, hermitian)
    if rho.ndim == 2:
        p = np.array(np.broadcast_to(rho.take(flat)[:, :, None], flat.shape + (count,)))
    else:
        p = rho.reshape(count, dim * dim).T[flat]
    if down:
        _passes(p, _series_weights(down * u, at, lowering), True)
    factor = np.take(table.reshape(dim * dim, -1), power, axis=0)
    np.conjugate(factor, out=factor, where=neg[:, :, None])
    np.multiply(factor, p, out=p)
    if up:
        _passes(p, _series_weights(up * u, at, raising), False)
    return _unskewed(p, flat, source)


def propagate_kerr_finite_t(rho0, t, params):
    """Evolve rho0 for time t under the finite-temperature Kerr flow.

    Returns the untruncated flow of rho0 projected onto its window: the
    lowering series reads only from above each element, where rho0 is
    zero past the window, and the raising series only from below. t is a
    time, or a 1-D array of times for a (T, dim, dim) stack of states. The
    weights, at mu = 4 gamma_minus gamma_plus, are evaluated once per
    k >= 0 and time.
    """
    rho0, t = _checked_state(rho0, t)
    times = t.reshape(-1)
    chi, gm, gp, g0 = params.chi, params.gamma_minus, params.gamma_plus, params.gamma0
    mu = 4.0 * gm * gp
    u, log_hinv = _weights(times, rho0.shape[0], chi, mu, g0 * g0 - mu, g0)
    table = _power_table(log_hinv, times, chi, g0, params.c_gamma)
    out = _lower_factor_raise(rho0, u, table, 2.0 * gm, 2.0 * gp,
                              np.array_equal(rho0, rho0.conj().T))
    return out.reshape(t.shape + rho0.shape)
