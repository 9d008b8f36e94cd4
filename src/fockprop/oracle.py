"""Brute-force ground truth for the closed-form propagators.

Three independent engines act on the vectorized density matrix:

  expm_evolve:   scaling-and-squaring Taylor polynomial of L t, per sector
  action_evolve: exp(L t) v as a Taylor series in substeps, on L's entries
  rk4_evolve:    classical fixed-step fourth-order Runge-Kutta

The wide-window references run on expm_evolve or action_evolve, whichever
suits the generator (below); rk4_evolve is one more engine for the CLI. For
a linear autonomous flow one RK4 step of size h is exactly the degree-4
Taylor polynomial of exp(h L), so the whole integration is a matrix power.
That makes tight step counts affordable: cost grows with log(steps), not
steps, and the step count is sized from ||L|| t so the global truncation
error lands near TARGET_ERROR.

expm_evolve and rk4_evolve work sector by sector. A sector is a
connected component of the generator's entries (superop.Liouvillian); no
entry couples two sectors, so the exponential and the RK4 step are block
diagonal over them, and only the diagonal blocks are ever formed. The
sectors are read off the entries themselves, never from a model or a
conserved label, so the oracle stays independent of the closed forms it
checks. (Every Kerr generator conserves n - m and splits into 2 dim - 1
sectors of at most dim indices; the pair drive conserves the parity of
n - m and splits into 2 of dim^2 / 2.) They are found once per generator
and kept while the generator lives.

A narrow block's products are dispatch-bound: numpy's call overhead costs
more than the arithmetic. So the sectors run widest first as stacks of
neighbouring widths, each zero-padded to its widest member and passed to
the exponential or the RK4 power in one call (_stacks); a sector wide
enough that its products are not dispatch-bound runs alone. The zero
border is exact: its exponential and its RK4 power are the identity, and
nothing crosses it. The top-left blocks move in their last bits only,
because BLAS sums a padded product in another order. expm_dense scales
each member of a stack by its own norm.

Sectors are also paired under the transpose (n, m) -> (m, n) of the
column-stacked index. A Lindblad generator maps rho^dagger to L(rho)^dagger:
each entry has its conjugate at the transposed position. Where all of L's
entries show exactly that, the transpose is an automorphism of the entry
graph, so it maps each sector onto a sector, its mirror, whose block in
transposed order is the conjugate of the sector's (Kerr's n - m = -k mirrors
k). The pair's exponential (or RK4 power) is formed once and its conjugate
applied to the mirror. That is exact: conjugating both factors of a complex
product conjugates it, and the two blocks have equal 1-norms and so the same
Taylor degree and squarings. A sector that is its own mirror (Kerr's k = 0,
the pair drive's two parities) is exponentiated for itself only, as is
every sector of an L with an entry short of its conjugate.

action_evolve forms no block at all: each Taylor term is one product of
L's entries, sorted by row once per call, with a vector. Its cost
grows like ||L||_1 t times the number of entries, the blocked exponential's
like the cube of each sector's width. So the pair drive's two wide sectors
run far quicker on the action, while the Kerr generators, whose sectors
are narrow and whose ||L||_1 grows like chi dim^2 with the Kerr phase, run
quicker on the blocks.

The helpers at the bottom embed a state in a larger window and run the
exponential there, on the engine that suits the generator's widest sector.
Comparing a propagator against an oracle truncated at the same window
would fold the oracle's own cutoff error into the residual; running the
oracle wide and cropping isolates the propagator's error. The reference
sizes its own window: it climbs a fixed ladder of pads until two rungs
agree to REFERENCE_TARGET, stop converging, or the ladder ends, so no
caller picks a pad.
"""

import math
import warnings
import weakref
from typing import NamedTuple

import numpy as np

from .fock import _check_times, _maxabs
from .superop import Liouvillian, build_liouvillian, vec, unvec

__all__ = [
    "expm_dense",
    "expm_evolve",
    "action_evolve",
    "recommended_steps",
    "rk4_evolve",
    "embed",
    "crop",
    "converged_window_reference",
]

# the global error recommended_steps sizes an RK4 run for
TARGET_ERROR = 1e-12

# unit roundoff: the Taylor tail expm_dense leaves, and the relative size of
# the last term action_evolve sums
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _sectors(n, rows, cols):
    """Index sets of the connected components of the graph on range(n)
    whose edges are the pairs (rows[i], cols[i]), in order of their smallest
    member, each sorted.

    Every index carries a label, at first itself. Each round lowers both
    ends of every edge, and the labels those ends held, to the smaller of
    the two labels, then points every label at its own label until that is
    stable; at the fixed point each component is labelled by its smallest
    member.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        for ends in (rows, cols, label[rows], label[cols]):
            np.minimum.at(new, ends, low)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


# generator -> [(sector indices, block rows, block cols, block entries, mirror)];
# the CLI's oracle engines evolve each requested time on one generator, and
# each of those calls after the first finds its sectors here
_SECTOR_ENTRIES = weakref.WeakKeyDictionary()


def _sector_entries(L):
    """(idx, block rows, block cols, block entries, mirror) for each sector
    of L the engines exponentiate.

    If L keeps adjoints, the sector holding the transpose of idx's first
    index is idx's mirror: the first of the two is listed with mirror = the
    transposes of idx, in idx's order, and the other not at all. Every other
    sector has mirror None. Found on the first call for L, kept while L lives.
    """
    parts = _SECTOR_ENTRIES.get(L)
    if parts is None:
        size = L.dim * L.dim
        sectors = _sectors(size, L.rows, L.cols)
        sector_of = np.empty(size, dtype=np.intp)
        local = np.empty_like(sector_of)
        for i, idx in enumerate(sectors):
            sector_of[idx] = i
            local[idx] = np.arange(len(idx))
        tr = np.arange(size).reshape(L.dim, L.dim).T.ravel()  # (n, m) -> (m, n)
        partner = (sector_of[tr[[idx[0] for idx in sectors]]] if _keeps_adjoints(L, tr)
                   else range(len(sectors)))
        owner = sector_of[L.rows]
        by_sector = np.argsort(owner, kind="stable")
        cuts = np.cumsum(np.bincount(owner, minlength=len(sectors)))[:-1]
        parts = [(idx, local[L.rows[e]], local[L.cols[e]], L.entries[e],
                  tr[idx] if j > i else None)
                 for i, (idx, e, j) in enumerate(zip(sectors, np.split(by_sector, cuts), partner))
                 if j >= i]
        _SECTOR_ENTRIES[L] = parts
    return parts


def _keeps_adjoints(L, tr):
    """Whether every entry of L has its conjugate at the transposed
    position: L's entry at (tr[a], tr[b]) is that at (a, b), conjugated."""
    size = L.dim * L.dim
    keys = L.rows * size + L.cols
    want = tr[L.rows] * size + tr[L.cols]
    order = np.argsort(keys)
    at = order[np.minimum(np.searchsorted(keys[order], want), keys.size - 1)]
    return bool(np.all((keys[at] == want) & (L.entries[at] == L.entries.conj())))


# the padded work one stack may hold, as the width of the single product
# that does as much: S sectors padded to width W stack while
# S W^3 <= STACK_WIDTH^3, so every sector wider than 25 runs alone. Set on
# the oracle_verify batch, where 32 ran quickest of 24 to 64 (CHANGES.md)
STACK_WIDTH = 32


class _Stack(NamedTuple):
    """Sectors that run as one zero-padded (S, width, width) stack."""
    parts: list             # their _sector_entries, those with a mirror first
    width: int              # the widest one's, to which every block is padded
    pos: np.ndarray         # flat positions of their entries in the stack
    entries: np.ndarray     # those entries
    idx: np.ndarray         # their indices in v
    at: np.ndarray          # and the flat positions of those in an (S, width) pad
    mirrored: int           # how many have a mirror
    mirror: np.ndarray      # the mirrors' indices in v, in the order of idx


# generator -> [_Stack], like _SECTOR_ENTRIES
_STACKS = weakref.WeakKeyDictionary()


def _stacks(L):
    """L's sectors as the stacks _blockwise runs, widest first.

    Each stack takes the widest sector not yet placed, of width W, and the
    next narrower ones while S W^3 stays within STACK_WIDTH^3: while a
    product is dispatch-bound, a stack pays numpy's call overhead once for
    S blocks, and once it is not, the sector runs alone. Found on the first
    call for L, kept while L lives.
    """
    stacks = _STACKS.get(L)
    if stacks is None:
        parts = sorted(_sector_entries(L), key=lambda part: -len(part[0]))
        stacks, start = [], 0
        while start < len(parts):
            width = len(parts[start][0])
            members = parts[start:start + max(1, STACK_WIDTH ** 3 // width ** 3)]
            start += len(members)
            members.sort(key=lambda part: part[4] is None)
            # member j's rows start at row j * width of the stacked rows
            first = [j * width for j in range(len(members))]
            stacks.append(_Stack(
                members, width,
                np.concatenate([(f + r) * width + c for f, (_, r, c, *_) in zip(first, members)]),
                np.concatenate([e for *_, e, _ in members]),
                np.concatenate([idx for idx, *_ in members]),
                np.concatenate([f + np.arange(len(idx)) for f, (idx, *_) in zip(first, members)]),
                sum(part[4] is not None for part in members),
                np.concatenate([mirror for *_, mirror in members if mirror is not None]
                               or [np.empty(0, np.intp)]),
            ))
        _STACKS[L] = stacks
    return stacks


def _padded_product(m, x, at):
    """Each matrix of the stack m times its member's share of x, which
    fills the flat positions `at` of a zero (S, width) pad."""
    pad = np.zeros(m.shape[:2], dtype=complex)
    pad.ravel()[at] = x
    return np.matmul(m, pad[..., None]).ravel()[at]


def _blockwise(L, v, matrix):
    """matrix(stack) @ v on each stack of L's sectors (_stacks), and its
    conjugate on the mirrors. A stack is scattered when it is reached, so
    one is dense at a time.

    The zero border is exact: matrix (the exponential, or the RK4 power)
    maps a zero block to an identity block, and couples nothing across the
    border, where a member's share of v is zero.
    """
    out = np.empty_like(v)
    for s in _stacks(L):
        block = np.zeros((len(s.parts), s.width, s.width), dtype=complex)
        block.ravel()[s.pos] = s.entries
        m = matrix(block)
        out[s.idx] = _padded_product(m, v[s.idx], s.at)
        if s.mirrored:
            out[s.mirror] = _padded_product(m[:s.mirrored].conj(), v[s.mirror],
                                            s.at[:s.mirror.size])
    return out


def _taylor_degree(theta):
    """Smallest m whose Taylor tail bound theta^(m+1) / (m+1)! e^theta is at
    most UNIT_ROUNDOFF, for a matrix of 1-norm theta."""
    m, tail = 0, theta * math.exp(theta)
    while tail > UNIT_ROUNDOFF:
        m += 1
        tail *= theta / (m + 1)
    return m


def expm_dense(A):
    """exp(A), or exp of each matrix of an (S, n, n) stack, by scaling and
    squaring with a Taylor polynomial of fixed degree.

    Each matrix is scaled by its own 2^-s to X = A / 2^s with
    theta = ||X||_1 <= 1/2, so a stack scales no member more than it needs
    (scaling a non-normal matrix too far costs accuracy: Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970, 2009). The degree is fixed before
    any product: m = _taylor_degree(theta) for the stack's largest theta
    bounds every member's tail by unit roundoff, since the s squarings
    magnify a truncation error (m <= 14 at theta = 1/2). The polynomial is
    evaluated by Paterson & Stockmeyer (SIAM J. Comput. 2, 60, 1973): the
    powers X ... X^p with p = ceil(sqrt(m)), then Horner in X^p over blocks
    of p coefficients, about 2 sqrt(m) matrix products and no reductions;
    then each member is squared its own s times. A stack with a non-finite
    member is refused: its norm would fix no degree.
    """
    A = np.asarray(A, dtype=complex)
    stack = A if A.ndim == 3 else A[None]
    count, n = stack.shape[:2]
    norms = np.abs(stack).sum(axis=1).max(axis=1) if n else np.zeros(count)
    if not np.isfinite(norms).all():
        bad = norms[~np.isfinite(norms)][0]
        raise ValueError(f"matrix exponential needs a finite matrix; its 1-norm is {bad}")
    squarings = np.array([max(0, int(math.ceil(math.log2(x))) + 1) if x > 0.5 else 0
                          for x in norms.tolist()], dtype=int)
    scale = np.ldexp(1.0, -squarings)
    m = _taylor_degree(float(np.max(norms * scale, initial=0.0)))
    p = math.isqrt(max(m - 1, 0)) + 1
    top = max(0, (m - 1) // p)
    powers = np.empty((p + 1, count, n, n), dtype=complex)
    powers[0] = np.eye(n)
    np.multiply(stack, scale[:, None, None], out=powers[1])
    for i in range(2, p + 1):
        np.matmul(powers[i - 1], powers[1], out=powers[i])
    # block j holds the coefficients 1/k! of degrees k = j p ... j p + p - 1;
    # the top block runs on to m, which may reach its X^p
    coef = np.zeros((top + 1, p + 1))
    for k in range(m + 1):
        j = min(k // p, top)
        coef[j, k - j * p] = 1.0 / math.factorial(k)
    # real coefficients: one real product on the interleaved parts
    blocks = (coef @ powers.reshape(p + 1, -1).view(float)).view(complex)
    blocks = blocks.reshape(top + 1, count, n, n)
    acc = blocks[top]
    for j in range(top - 1, -1, -1):
        acc = acc @ powers[p]
        acc += blocks[j]
    for j in range(int(squarings.max(initial=0))):
        live = squarings > j
        if live.all():
            acc = acc @ acc
        else:
            acc[live] = acc[live] @ acc[live]
    return acc if A.ndim == 3 else acc[0]


def _evolve_inputs(L, rho0, t):
    """rho0 as a complex array, after checking it against L's window and t.

    A generator with a nan or infinite entry is refused, and so is a t at
    which ||L||_1 t overflows: no engine can size its steps or its Taylor
    degree from either.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if not isinstance(L, Liouvillian):
        raise ValueError(f"the generator for a state of shape {rho0.shape} must come from "
                         f"build_liouvillian, not an array of shape {np.shape(L)}")
    if not np.isfinite(L.entries).all():
        raise ValueError("the generator has a nan or infinite entry; its entries must be finite")
    if rho0.shape != (L.dim, L.dim):
        raise ValueError(f"state shape {rho0.shape} does not match the generator's "
                         f"window {L.dim}")
    _check_times(t)
    if not math.isfinite(_norm1(L) * t):
        raise ValueError(f"t = {t:g} is too long for this generator: ||L||_1 t overflows")
    return rho0


def expm_evolve(L, rho0, t):
    """Propagate rho0 by exp(L t) acting on the vectorized state."""
    v = vec(_evolve_inputs(L, rho0, t))
    return unvec(_blockwise(L, v, lambda block: expm_dense(block * t)), L.dim)


# ||L||_1 h of one action substep. Its Taylor terms then fall below unit
# roundoff within about 32 terms, and none exceeds 4^4/4! (about 11) times
# the substep's start in the 1-norm, so the sum loses little to cancellation.
THETA = 4.0

# the most substeps action_evolve runs: its cost grows linearly in t, so a
# longer run is refused before the first substep, not left to run for hours.
# verify --suite pdc --dim 96 needs at most 20 (window 160, t = 0.05)
MAX_SUBSTEPS = 100_000


def _norm1(L):
    """L's 1-norm, its largest column sum of |entries|."""
    return float(np.bincount(L.cols, np.abs(L.entries), minlength=1).max())


def _row_entries(L):
    """L's entries sorted by row, as (rows holding entries, first entry of each,
    cols, entries)."""
    order = np.argsort(L.rows, kind="stable")
    rows = L.rows[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return rows[starts], starts, L.cols[order], L.entries[order]


def _matvec(by_row, v):
    """L v from L's entries sorted by row: one gather, one segmented sum."""
    live, starts, cols, entries = by_row
    out = np.zeros_like(v)
    if entries.size:
        out[live] = np.add.reduceat(entries * v[cols], starts)
    return out


def action_evolve(L, rho0, t):
    """Propagate rho0 by exp(L t) as the action of L's Taylor series.

    exp(L t) v is never formed as a matrix (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488, 2011): t is cut into s = ceil(||L||_1 t / THETA)
    substeps of h = t / s (at most MAX_SUBSTEPS, or t is refused with a
    ValueError), and each substep sums the terms (hL)^k v / k!
    until one falls below UNIT_ROUNDOFF relative to the running sum, or the
    sum turns non-finite. Every term is one matvec over L's nonzero
    entries, so no block is dense.
    """
    v = vec(_evolve_inputs(L, rho0, t))
    steps = math.ceil(_norm1(L) * t / THETA)
    if steps > MAX_SUBSTEPS:
        raise ValueError(f"t = {t:g} is too long for the Taylor action: it needs {steps} "
                         f"substeps, more than {MAX_SUBSTEPS}; use --engine expm")
    by_row = _row_entries(L)
    for _ in range(steps):
        term = v
        for k in range(1, 64):
            term = _matvec(by_row, term) * (t / steps / k)
            v = v + term
            # not <=: a nan or inf sum must end the series, not run it to the cap
            if not np.abs(term).max() > UNIT_ROUNDOFF * np.abs(v).max():
                break
        else:
            warnings.warn("Taylor action series hit its iteration cap")
    return unvec(v, L.dim)


def recommended_steps(L, t):
    """Even step count that puts the RK4 global error near TARGET_ERROR.

    Per-step local error scales like (||L|| h)^5 / 120 and there are
    ||L|| t / (||L|| h) steps, so the global error is about
    (||L|| h)^4 * ||L|| t / 120; solving that for h gives the count, which
    overflows a float from ||L|| t of about 1e245 on and is then refused.
    """
    x = _maxabs(L.entries) * float(t)
    if x <= 0.0:
        return 2
    steps = x / (120.0 * TARGET_ERROR / x) ** 0.25
    if not math.isfinite(steps):
        raise ValueError(f"t = {t:g} is too long for RK4: its step count overflows")
    steps = int(math.ceil(steps))
    steps += steps % 2  # even: --engine rk4 outputs are pinned to these counts
    return max(steps, 2)


def rk4_evolve(L, rho0, t):
    """Propagate rho0 by classical RK4 at recommended_steps(L, t) steps."""
    rho0 = _evolve_inputs(L, rho0, t)
    if t == 0:
        return rho0.copy()
    return _rk4(L, rho0, t, recommended_steps(L, t))


def _rk4(L, rho0, t, steps):
    """`steps` RK4 steps of size t / steps on the vectorized flow.

    For d/dt v = L v one RK4 step is v -> M v with
    M = 1 + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so the steps are
    M**steps applied once, a stack of sectors at a time (_blockwise).
    """
    h = t / steps

    def power(block):
        hL = block * h
        eye = np.eye(block.shape[-1], dtype=complex)
        # Horner form of the degree-4 Taylor step
        m = eye + hL @ (eye + hL @ (eye / 2 + hL @ (eye / 6 + hL / 24)))
        return np.linalg.matrix_power(m, steps)

    return unvec(_blockwise(L, vec(rho0), power), L.dim)


# ---------------------------------------------------------------------------
# Wide-window references


def embed(rho, dim):
    """Zero-pad a density matrix into a larger window."""
    rho = np.asarray(rho, dtype=complex)
    small = rho.shape[0]
    if dim < small:
        raise ValueError("target window smaller than the state")
    out = np.zeros((dim, dim), dtype=complex)
    out[:small, :small] = rho
    return out


def crop(rho, dim):
    return np.asarray(rho, dtype=complex)[:dim, :dim]


# the pads, beyond the state's own window, of the wide windows that
# converged_window_reference climbs
PADS = (16, 24, 32, 48, 64)

# the self-convergence, relative to max(1, |reference|max), at which the
# climb stops
REFERENCE_TARGET = 1e-14


def _wide_evolve(L, rho0, t):
    """exp(L t) rho0 on the engine that suits L's sectors.

    While every sector is at most the window wide, as every Kerr generator's
    are, the dense sector blocks are small and expm_evolve is quickest. If a
    sector is wider, as the pair drive's two of dim^2 / 2 are, L runs on
    action_evolve, which forms no block.
    """
    if max(len(idx) for idx, *_ in _sector_entries(L)) <= L.dim:
        return expm_evolve(L, rho0, t)
    return action_evolve(L, rho0, t)


def converged_window_reference(generator, rho0, t):
    """Exponential of the flow on a window wide enough that the cutoff is converged.

    generator(dim) must return the superoperator (superop.SuperopExpr) on a
    window of that size. The state is embedded at dim + pad for each pad of
    PADS in turn, evolved on the engine _wide_evolve picks and cropped back
    to dim, and each crop is compared with the one below it. The climb stops
    at the first pair whose difference is at most
    REFERENCE_TARGET * max(1, |reference|max), or whose difference is more
    than half the previous pair's (the widening is then at a rounding floor,
    not a cutoff error), or at the top rung. The narrower crop of that pair
    is returned with their difference, as a self-convergence estimate: a
    small one certifies that widening the window further would not move the
    answer, and a large one on the top rung says the ladder ran out.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]

    def evolve(pad):
        big = dim + pad
        return crop(_wide_evolve(build_liouvillian(generator(big)), embed(rho0, big), t), dim)

    narrow, last = evolve(PADS[0]), math.inf
    for pad in PADS[1:]:
        wide = evolve(pad)
        conv = _maxabs(narrow - wide)
        target = REFERENCE_TARGET * max(1.0, _maxabs(narrow))
        if conv <= target or conv > last / 2 or pad == PADS[-1]:
            return narrow, conv
        narrow, last = wide, conv
