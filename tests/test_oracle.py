import gc
import math
import re
import weakref

import mpmath
import numpy as np
import pytest
import scipy.linalg

from fockprop import oracle
from fockprop.oracle import (
    UNIT_ROUNDOFF,
    _matvec,
    _rk4,
    _row_entries,
    _sector_entries,
    _sectors,
    _stacks,
    _taylor_degree,
    action_evolve,
    converged_window_reference,
    crop,
    embed,
    expm_dense,
    expm_evolve,
    recommended_steps,
    rk4_evolve,
)
from fockprop.superop import (
    Liouvillian,
    build_liouvillian,
    kerr_finite_t_generator,
    kerr_zero_t_generator,
    number_damping,
    random_density,
    pdc_generator,
    vec,
)

from helpers import maxabs, seeded_density, vacuum_density


def test_expm_dense_against_scipy():
    # 1-norms from degree 0 (1e-17) and degree 1 (1e-12, 1e-8) up to ten
    # squarings (400); their rounding grows with the norm, and so does the
    # bound past 50. Measured: at most 1.1e-14 up to 50, 5.9e-14 at 400
    rng = np.random.default_rng(42)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    for norm1 in (1e-17, 1e-12, 1e-8, 0.3, 4.0, 50.0, 400.0):
        scaled = a * (norm1 / np.abs(a).sum(axis=0).max())
        ref = scipy.linalg.expm(scaled)
        bound = 1e-13 * max(1.0, norm1 / 50) * max(1.0, maxabs(ref))
        assert maxabs(expm_dense(scaled) - ref) <= bound, norm1


def test_taylor_degree_is_the_smallest_that_bounds_the_tail():
    def tail(theta, m):
        return theta ** (m + 1) / math.factorial(m + 1) * math.exp(theta)

    for theta in [1e-17, 1e-12, 1e-8] + np.linspace(0.0, 0.5, 501)[1:].tolist():
        m = _taylor_degree(theta)
        assert tail(theta, m) <= UNIT_ROUNDOFF
        assert m == 0 or tail(theta, m - 1) > UNIT_ROUNDOFF
    assert (_taylor_degree(0.0), _taylor_degree(1e-17), _taylor_degree(0.5)) == (0, 0, 14)


@pytest.mark.parametrize("model", ["kerr0", "kerrT"])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_expm_dense_against_40_digit_mpmath(model, t):
    # every third sector of window 12 (n - m = 0, ±3, ±6, ±9), 1-norms up to
    # 92; the term-by-term series that summed until a term fell below unit
    # roundoff read up to 2.2e-14 here, the fixed-degree polynomial 1.6e-14
    for idx, block in _dense_blocks(_matrix(model, 12)):
        if len(idx) % 3:
            continue
        a = block * t
        with mpmath.workdps(40):
            ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)
        assert maxabs(expm_dense(a) - ref) <= 2e-14 * max(1.0, maxabs(ref))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_expm_dense_refuses_a_non_finite_matrix(bad):
    # a nan norm fixes no degree and an infinite one no squaring count
    with pytest.raises(ValueError, match="needs a finite matrix"):
        expm_dense(np.array([[bad, 0.0], [0.0, 1.0]]))


def _kerr_blocks(model, dim, t):
    return [block * t for _, block in _dense_blocks(_matrix(model, dim))]


def _stacked(blocks):
    """The blocks zero-padded to the widest, as one stack."""
    width = max(len(b) for b in blocks)
    stack = np.zeros((len(blocks), width, width), dtype=complex)
    for j, b in enumerate(blocks):
        stack[j, :len(b), :len(b)] = b
    return stack


@pytest.mark.parametrize("model", ["kerr0", "kerrT"])
def test_a_stack_scales_each_member_by_its_own_norm(model):
    # the 27 sector blocks of window 14, scaled to 1-norms from 0.1 to 300
    # in shuffled order, so each member needs its own squarings (0 to 10).
    # Padded products round in another order and a member may run at a
    # higher degree than its own; the squarings magnify that rounding about
    # in proportion to the 1-norm (measured: 34 unit roundoffs at 1-norms
    # 25-35, 4 below 1). One squaring count for the whole stack moved
    # members of 1-norm 0.1-14 by 1,000-2,100 and lost as much against scipy
    norms = np.geomspace(0.1, 300.0, 2 * 14 - 1)
    np.random.default_rng(3).shuffle(norms)
    blocks = [b * (x / np.abs(b).sum(axis=0).max())
              for b, x in zip(_kerr_blocks(model, 14, 1.0), norms)]
    out = expm_dense(_stacked(blocks))
    assert out.shape == (len(blocks), 14, 14)
    for member, b, norm1 in zip(out, blocks, norms):
        w = len(b)
        bound = 16 * UNIT_ROUNDOFF * max(1.0, norm1)
        alone = expm_dense(b)
        assert np.all(np.abs(member[:w, :w] - alone) <= bound * np.maximum(1.0, np.abs(alone)))
        ref = scipy.linalg.expm(b)
        assert maxabs(member[:w, :w] - ref) <= maxabs(alone - ref) + bound * max(1.0, maxabs(ref))


def test_a_stack_with_one_non_finite_member_is_refused():
    blocks = _kerr_blocks("kerrT", 6, 0.5)
    stack = _stacked(blocks)
    stack[4, 0, 0] = math.inf
    with pytest.raises(ValueError, match="needs a finite matrix"):
        expm_dense(stack)


@pytest.mark.parametrize("evolve, name", [(expm_evolve, "expm_dense"),
                                          (rk4_evolve, "matrix_power")])
def test_a_padded_member_s_border_is_exactly_the_identity(monkeypatch, evolve, name):
    # window 30 runs its widest sectors alone and pads the rest: the
    # border of each padded member goes in as a zero block (the exponential's
    # generator) or the identity (the RK4 step) and comes out the identity,
    # with exact zeros beside it
    owner = oracle.np.linalg if name == "matrix_power" else oracle
    seen, inner = [], getattr(owner, name)

    def recorded(a, *args):
        out = inner(a, *args)
        seen.append((a.copy(), out))
        return out

    monkeypatch.setattr(owner, name, recorded)
    gen, rho0 = _matrix("kerrT", 30), seeded_density(30, 50)
    evolve(gen, rho0, 0.5)
    stacks = _stacks(gen)
    assert len(seen) == len(stacks) and any(len(s.parts) > 1 for s in stacks)
    padded = 0
    for s, (a, out) in zip(stacks, seen):
        assert a.shape == out.shape == (len(s.parts), s.width, s.width)
        for j, (idx, *_) in enumerate(s.parts):
            w = len(idx)
            padded += w < s.width
            for x in (a[j], out[j]):
                assert not x[w:, :w].any() and not x[:w, w:].any()
            eye = np.eye(s.width - w)
            assert np.array_equal(a[j, w:, w:], eye if name == "matrix_power" else 0 * eye)
            assert np.array_equal(out[j, w:, w:], eye)
    assert padded


def test_expm_dense_trivial_cases():
    assert maxabs(expm_dense(np.zeros((3, 3))) - np.eye(3)) == 0.0
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert maxabs(expm_dense(nil) - np.array([[1.0, 1.0], [0.0, 1.0]])) < 1e-15


def test_expm_evolve_shape_check():
    L = build_liouvillian(kerr_zero_t_generator(4, 1.0, 0.1))
    with pytest.raises(ValueError):
        expm_evolve(L, np.eye(5, dtype=complex), 0.1)
    with pytest.raises(ValueError, match="negative time"):
        expm_evolve(L, vacuum_density(4), -1.0)
    # a 20 x 20 array is no generator of a 4 x 4 state; both sizes are named
    for evolve in (expm_evolve, rk4_evolve):
        with pytest.raises(ValueError, match=r"\(4, 4\).*\(20, 20\)"):
            evolve(np.zeros((20, 20)), np.eye(4), 0.1)


def test_rk4_matches_expm_at_recommended_steps():
    dim = 10
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    rho0 = seeded_density(dim, 20)
    ref = expm_evolve(L, rho0, 0.6)
    out = rk4_evolve(L, rho0, 0.6)
    assert maxabs(out - ref) < 1e-10


def test_rk4_fourth_order_convergence():
    dim = 8
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    rho0 = seeded_density(dim, 22)
    t = 0.4
    ref = expm_evolve(L, rho0, t)
    errs = []
    for steps in (400, 800):
        errs.append(maxabs(_rk4(L, rho0, t, steps) - ref))
    slope = math.log2(errs[0] / errs[1])
    assert abs(slope - 4.0) < 0.3


def test_rk4_input_validation():
    dim = 4
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    rho0 = vacuum_density(dim)
    with pytest.raises(ValueError):
        rk4_evolve(L, rho0, -0.1)
    with pytest.raises(ValueError):
        rk4_evolve(L, np.eye(5, dtype=complex), 0.1)
    assert maxabs(rk4_evolve(L, rho0, 0.0) - rho0) == 0.0


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("evolve", [expm_evolve, rk4_evolve, action_evolve])
def test_dense_engines_refuse_non_finite_times(evolve, t):
    L = build_liouvillian(kerr_zero_t_generator(4, 1.0, 0.1))
    with pytest.raises(ValueError, match="times must be finite"):
        evolve(L, vacuum_density(4), t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("evolve", [expm_evolve, action_evolve, rk4_evolve])
def test_engines_refuse_a_generator_with_a_non_finite_entry(evolve, bad):
    # a nan entry fixes no step count and an infinite one no Taylor degree;
    # the shared gate names the problem before any engine sizes its run
    L = build_liouvillian(kerr_zero_t_generator(4, 1.0, 0.1))
    entries = L.entries.copy()
    entries[3] = bad
    with pytest.raises(ValueError, match="nan or infinite entry"):
        evolve(Liouvillian(L.dim, L.rows, L.cols, entries), vacuum_density(4), 0.5)


def test_recommended_steps_behaviour():
    dim = 10
    L = build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.1))
    long, short = recommended_steps(L, 1.0), recommended_steps(L, 0.1)
    assert long % 2 == 0 and short % 2 == 0
    assert long > short >= 2
    assert recommended_steps(L, 0.0) == 2


def test_embed_and_crop():
    rho = seeded_density(4, 24)
    big = embed(rho, 7)
    assert big.shape == (7, 7)
    assert maxabs(big[4:, :]) == 0.0 and maxabs(big[:, 4:]) == 0.0
    assert maxabs(crop(big, 4) - rho) == 0.0
    with pytest.raises(ValueError):
        embed(rho, 3)


def test_converged_reference_is_exact_for_downward_only_flow():
    # without a raising feed nothing ever leaves the window upward, so
    # widening it cannot change the cropped result
    dim = 10
    rho0 = seeded_density(dim, 25)

    def build(n):
        return kerr_zero_t_generator(n, 1.0, 0.1)

    ref, conv = converged_window_reference(build, rho0, 0.5)
    assert conv < 1e-12
    same = expm_evolve(build_liouvillian(build(dim)), rho0, 0.5)
    assert maxabs(ref - same) < 1e-12


def test_converged_reference_methods_agree():
    dim = 8
    rho0 = seeded_density(dim, 26)

    def build(n):
        return kerr_zero_t_generator(n, 1.0, 0.1)

    # the reference is the exponential; RK4 on the same wide window agrees
    ref, _ = converged_window_reference(build, rho0, 0.3)
    big = dim + oracle.PADS[0]
    wide = build_liouvillian(build(big))
    assert maxabs(ref - crop(rk4_evolve(wide, embed(rho0, big), 0.3), dim)) < 1e-9


# ---------------------------------------------------------------------------
# Sector blocking

GENERATORS = {
    "kerr0": lambda dim: kerr_zero_t_generator(dim, 1.0, 0.1),
    "kerrT": lambda dim: kerr_finite_t_generator(dim, 1.0, 0.1, 0.05, 0.15, -0.1),
    "pdc": lambda dim: pdc_generator(dim, 0.5 + 0.6245j, 1.0),
}


def _matrix(model, dim):
    return build_liouvillian(GENERATORS[model](dim))


def _k_labels(dim):
    # n - m of each entry of vec(rho), column-stacked like superop.vec
    n = np.arange(dim)
    return vec(n[:, None] - n[None, :]).real.astype(int)


def _sectors_of(gen):
    return _sectors(gen.dim * gen.dim, gen.rows, gen.cols)


def _as_sets(sectors):
    return {frozenset(int(i) for i in idx) for idx in sectors}


def _dense_blocks(gen):
    """(idx, block) for every sector of gen, cut from its dense matrix."""
    mat = gen.dense()
    for idx in _sectors_of(gen):
        yield idx, mat[np.ix_(idx, idx)]


def _blocks(gen):
    """(idx, block, mirror) for each sector the engines exponentiate, the
    block scattered from the entries the oracle keeps for it."""
    for idx, r, c, e, mirror in _sector_entries(gen):
        block = np.zeros((len(idx), len(idx)), dtype=complex)
        block[r, c] = e
        yield idx, block, mirror


def _full_expm(mat, rho0, t):
    return expm_dense(mat * t) @ vec(rho0)


def _full_rk4(mat, rho0, t, steps):
    hL = mat * (t / steps)
    eye = np.eye(mat.shape[0], dtype=complex)
    step = eye + hL @ (eye + hL @ (eye / 2 + hL @ (eye / 6 + hL / 24)))
    return np.linalg.matrix_power(step, steps) @ vec(rho0)


@pytest.mark.parametrize("model", ["kerr0", "kerrT", "pdc"])
@pytest.mark.parametrize("dim", [6, 10])
def test_sectors_are_the_conserved_index_sets(model, dim):
    sectors = _sectors_of(_matrix(model, dim))
    flat = np.sort(np.concatenate(sectors))
    assert np.array_equal(flat, np.arange(dim * dim))  # a partition
    k = _k_labels(dim)
    if model == "pdc":
        expected = {frozenset(np.flatnonzero(k % 2 == p).tolist()) for p in (0, 1)}
    else:
        expected = {frozenset(np.flatnonzero(k == kk).tolist())
                    for kk in range(-(dim - 1), dim)}
        assert len(expected) == 2 * dim - 1
    assert _as_sets(sectors) == expected


def test_dense_matrix_is_one_sector():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    sectors = _sectors(20, *np.nonzero(a))
    assert len(sectors) == 1 and np.array_equal(sectors[0], np.arange(20))


@pytest.mark.parametrize("model", ["kerr0", "kerrT", "pdc"])
@pytest.mark.parametrize("dim", [8, 12])
def test_blocked_engines_match_the_full_matrix(model, dim):
    gen = _matrix(model, dim)
    mat = gen.dense()
    rho0 = seeded_density(dim, 40, dim)
    t = 0.3
    out = expm_evolve(gen, rho0, t)
    assert maxabs(vec(out) - _full_expm(mat, rho0, t)) <= 1e-12

    y = rk4_evolve(gen, rho0, t)
    assert maxabs(vec(y) - _full_rk4(mat, rho0, t, recommended_steps(gen, t))) <= 1e-12


def test_blocking_follows_a_planted_cross_sector_entry():
    # the oracle must not assume the closed forms' conserved n - m: a
    # single entry that breaks it must merge two sectors and enter the result
    dim = 6
    gen = _matrix("kerrT", dim)
    k = _k_labels(dim)
    # the row's sector starts after the column's, so only the entry's
    # transpose links the column's sector to it
    row = int(np.flatnonzero(k == -1)[0])
    col = int(np.flatnonzero(k == 2)[0])
    assert row > col
    assert not np.any((gen.rows == row) & (gen.cols == col))
    gen = Liouvillian(dim, np.append(gen.rows, row), np.append(gen.cols, col),
                      np.append(gen.entries, 0.7))
    mat = gen.dense()
    sectors = _sectors_of(gen)
    assert sum(len(idx) for idx in sectors) == dim * dim
    sectors = _as_sets(sectors)
    assert len(sectors) == 2 * dim - 2
    merged = frozenset(np.flatnonzero((k == 2) | (k == -1)).tolist())
    assert merged in sectors

    rho0 = seeded_density(dim, 41)
    t = 0.4
    out = expm_evolve(gen, rho0, t)
    assert maxabs(vec(out) - _full_expm(mat, rho0, t)) <= 1e-12
    assert maxabs(out - expm_evolve(_matrix("kerrT", dim), rho0, t)) > 1e-3
    y = rk4_evolve(gen, rho0, t)
    assert maxabs(vec(y) - _full_rk4(mat, rho0, t, recommended_steps(gen, t))) <= 1e-12


# ---------------------------------------------------------------------------
# Mirrored sectors


def _padded(mat, sets, width):
    """The blocks of mat on the index sets, each zero-padded to width."""
    stack = np.zeros((len(sets), width, width), dtype=complex)
    for j, idx in enumerate(sets):
        stack[j, :len(idx), :len(idx)] = mat[np.ix_(idx, idx)]
    return stack


def _apply_padded(m, v, sets, out):
    """out[idx] = m[j] @ v[idx] for the j-th index set, v zero-padded."""
    x = np.zeros(m.shape[:2], dtype=complex)
    for j, idx in enumerate(sets):
        x[j, :len(idx)] = v[idx]
    y = np.matmul(m, x[..., None])[..., 0]
    for j, idx in enumerate(sets):
        out[idx] = y[j, :len(idx)]


def _per_sector(gen, rho0, matrix):
    """matrix on every sector's own block, mirrors included, cut from the
    dense generator and zero-padded in the stack the engines put it in."""
    v, mat = vec(rho0), gen.dense()
    flat = np.arange(gen.dim * gen.dim)
    tr = flat % gen.dim * gen.dim + flat // gen.dim
    out = np.empty_like(v)
    for s in _stacks(gen):
        own = [idx for idx, *_ in s.parts]
        _apply_padded(matrix(_padded(mat, own, s.width)), v, own, out)
        # every member's transposed block, so the stack's norms are the same
        mirrored = [j for j, (*_, mirror) in enumerate(s.parts) if mirror is not None]
        if mirrored:
            m = matrix(_padded(mat, [tr[idx] for idx in own], s.width))
            _apply_padded(m[mirrored], v, [tr[own[j]] for j in mirrored], out)
    return out


def _per_sector_expm(gen, rho0, t):
    """The exponential with every sector's block exponentiated directly."""
    return _per_sector(gen, rho0, lambda stack: expm_dense(stack * t))


def _per_sector_rk4(gen, rho0, t):
    """RK4 at the recommended steps, with every sector's step formed directly."""
    steps = recommended_steps(gen, t)

    def power(stack):
        hL = stack * (t / steps)
        eye = np.eye(stack.shape[-1], dtype=complex)
        step = eye + hL @ (eye + hL @ (eye / 2 + hL @ (eye / 6 + hL / 24)))
        return np.linalg.matrix_power(step, steps)

    return _per_sector(gen, rho0, power)


def _mirrored(gen):
    return [mirror for *_, mirror in _blocks(gen) if mirror is not None]


@pytest.mark.parametrize("model", ["kerr0", "kerrT"])
@pytest.mark.parametrize("dim", [2, 3, 8, 13, 30])
def test_mirrored_sectors_run_bit_for_bit_as_their_own_blocks(model, dim):
    # each sector n - m = k pairs with -k, k = 0 with none; the mirror's
    # exponential and RK4 step are the conjugates of its partner's, exactly
    gen = _matrix(model, dim)
    assert len(_mirrored(gen)) == dim - 1
    rho0 = random_density(dim, np.random.default_rng([dim, 2]))
    t = 0.6
    assert np.array_equal(vec(expm_evolve(gen, rho0, t)), _per_sector_expm(gen, rho0, t))
    assert np.array_equal(vec(rk4_evolve(gen, rho0, t)), _per_sector_rk4(gen, rho0, t))


@pytest.mark.parametrize("plant", ["new entry", "changed entry"])
def test_a_mirror_whose_entries_differ_runs_on_its_own_block(plant):
    # one entry inside sector n - m = 2, its transpose in sector -2 left
    # alone: the generator no longer keeps adjoints, so no sector pairs
    dim = 6
    gen = _matrix("kerrT", dim)
    k = _k_labels(dim)
    sector = np.flatnonzero(k == 2)
    if plant == "new entry":
        row, col = sector[0], sector[-1]  # the block is tridiagonal: a zero
        assert not np.any((gen.rows == row) & (gen.cols == col))
        gen = Liouvillian(dim, np.append(gen.rows, row), np.append(gen.cols, col),
                          np.append(gen.entries, 0.7))
    else:
        entries = gen.entries.copy()
        entries[np.flatnonzero(np.isin(gen.rows, sector))[0]] *= 1 + 1e-3
        gen = Liouvillian(dim, gen.rows, gen.cols, entries)
    assert len(list(_blocks(gen))) == 2 * dim - 1
    assert _mirrored(gen) == []

    mat = gen.dense()
    rho0 = seeded_density(dim, 43)
    t = 0.4
    assert maxabs(vec(expm_evolve(gen, rho0, t)) - _full_expm(mat, rho0, t)) <= 1e-12
    assert maxabs(vec(rk4_evolve(gen, rho0, t))
                  - _full_rk4(mat, rho0, t, recommended_steps(gen, t))) <= 1e-12


def test_a_planted_pair_that_keeps_adjoints_stays_paired():
    # an entry joining sectors n - m = 2 and -1, with its conjugate at the
    # transposed position joining -2 and 1: the two merged sectors mirror
    # each other, and every Kerr pair stays paired
    dim = 6
    gen = _matrix("kerrT", dim)
    k = _k_labels(dim)
    flat = np.arange(dim * dim)
    tr = flat % dim * dim + flat // dim
    row = int(np.flatnonzero(k == -1)[0])
    col = int(np.flatnonzero(k == 2)[0])
    value = 0.7 + 0.2j
    gen = Liouvillian(dim, np.append(gen.rows, [row, tr[row]]),
                      np.append(gen.cols, [col, tr[col]]),
                      np.append(gen.entries, [value, np.conj(value)]))
    blocks = list(_blocks(gen))
    assert len(blocks) == dim - 1
    assert len(_mirrored(gen)) == dim - 2
    merged = _as_sets([np.flatnonzero((k == 2) | (k == -1)), np.flatnonzero((k == -2) | (k == 1))])
    assert any(_as_sets([idx, mirror]) == merged for idx, _, mirror in blocks if mirror is not None)

    mat = gen.dense()
    rho0 = seeded_density(dim, 46)
    t = 0.4
    assert maxabs(vec(expm_evolve(gen, rho0, t)) - _full_expm(mat, rho0, t)) <= 1e-12
    assert maxabs(vec(rk4_evolve(gen, rho0, t))
                  - _full_rk4(mat, rho0, t, recommended_steps(gen, t))) <= 1e-12


def test_a_sector_whose_transpose_lies_inside_another_runs_unpaired():
    # window 2, column-stacked: rho[0,0], rho[1,0], rho[0,1], rho[1,1]. One
    # entry joins rho[0,1] to rho[0,0], its own mirror; the sector {rho[1,0]}
    # maps into that sector but is not its mirror, so nothing pairs
    gen = Liouvillian(2, np.array([2]), np.array([0]), np.array([0.5 + 0.25j]))
    assert [idx.tolist() for idx in _sectors_of(gen)] == [[0, 2], [1], [3]]
    assert _mirrored(gen) == []
    rho0 = seeded_density(2, 44)
    assert maxabs(vec(expm_evolve(gen, rho0, 0.7)) - _full_expm(gen.dense(), rho0, 0.7)) <= 1e-15


@pytest.mark.parametrize("dim", [4, 9])
def test_the_pair_drive_pairs_no_sector(dim):
    # each parity sector is its own mirror
    gen = _matrix("pdc", dim)
    assert len(list(_blocks(gen))) == 2 and _mirrored(gen) == []


@pytest.mark.parametrize("dim", [5, 12])
def test_a_kerr_exponential_forms_one_block_per_pair(monkeypatch, dim):
    # 2 dim - 1 sectors: k = 0 and dim - 1 pairs, for the exponential and
    # for the RK4 step's power alike; each call takes a stack of them
    calls = []

    def counted(f):
        def call(a, *args):
            calls.append(len(a))
            return f(a, *args)
        return call

    monkeypatch.setattr(oracle, "expm_dense", counted(expm_dense))
    monkeypatch.setattr(oracle.np.linalg, "matrix_power", counted(np.linalg.matrix_power))
    gen, rho0 = _matrix("kerrT", dim), seeded_density(dim, 44)
    expm_evolve(gen, rho0, 0.5)
    assert sum(calls) == dim
    calls.clear()
    rk4_evolve(gen, rho0, 0.5)
    assert sum(calls) == dim


def test_the_pairing_is_dropped_with_its_generator():
    # the sectors, their pairing and their stacks are kept per generator
    # while it lives
    gc.collect()
    before = len(oracle._SECTOR_ENTRIES), len(oracle._STACKS)
    gen = _matrix("kerrT", 7)
    expm_evolve(gen, seeded_density(7, 45), 0.5)
    assert len(oracle._SECTOR_ENTRIES[gen]) == 7
    assert sum(len(s.parts) for s in oracle._STACKS[gen]) == 7
    assert (len(oracle._SECTOR_ENTRIES), len(oracle._STACKS)) == (before[0] + 1, before[1] + 1)
    dead = weakref.ref(gen)
    del gen
    gc.collect()
    assert dead() is None
    assert (len(oracle._SECTOR_ENTRIES), len(oracle._STACKS)) == before


# ---------------------------------------------------------------------------
# The generator's entries


def _kron_sum(expr):
    """The reference: the dense matrices of the terms, summed in term order."""
    dim = expr.dim
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)
    for t in expr.terms:
        mat += t.coeff * np.kron(t.right.T, t.left)
    return mat


@pytest.mark.parametrize("model", ["kerr0", "kerrT", "pdc", "pdc-uncorrected", "kerrT-damped"])
def test_entries_scatter_to_the_dense_sum_bit_for_bit(model):
    for dim in range(4, 13):
        if model == "pdc-uncorrected":
            expr = pdc_generator(dim, 0.3 - 0.2j, 0.7, corrected=False)
        elif model == "kerrT-damped":
            # five real terms meet on the diagonal (two number dampings of
            # two sandwiches each, and the identity), whose sum rounds
            # differently in another order: entries are summed in term order
            expr = GENERATORS["kerrT"](dim) + number_damping(dim, 0.3)
        else:
            expr = GENERATORS[model](dim)
        gen = build_liouvillian(expr)
        dense = _kron_sum(expr)
        assert gen.dense().tobytes() == dense.tobytes()
        assert gen.entries.size == np.count_nonzero(dense)  # no stored zeros
        blocks = list(_blocks(gen))
        runs = [idx for idx, _, _ in blocks] + [m for *_, m in blocks if m is not None]
        assert np.array_equal(np.sort(np.concatenate(runs)), np.arange(dim * dim))
        for idx, block, mirror in blocks:
            assert block.tobytes() == dense[np.ix_(idx, idx)].tobytes()
            if mirror is not None:
                assert np.array_equal(dense[np.ix_(mirror, mirror)], block.conj())


def test_a_cancelled_generator_has_no_entries_and_moves_nothing():
    # with dyadic rates every partial sum is exact, so the negated copy
    # cancels each entry to an exact zero, and exact zeros are dropped
    dim = 6
    expr = kerr_finite_t_generator(dim, 1.0, 0.5, 0.25, 0.75, -0.5)
    gen = build_liouvillian(expr + (-1.0) * expr)
    assert gen.entries.size == 0
    assert [idx.tolist() for idx in _sectors_of(gen)] == [[i] for i in range(dim * dim)]
    rho0 = seeded_density(dim, 42)
    assert np.array_equal(expm_evolve(gen, rho0, 0.7), rho0)
    assert np.array_equal(rk4_evolve(gen, rho0, 0.7), rho0)
    assert np.array_equal(action_evolve(gen, rho0, 0.7), rho0)


# ---------------------------------------------------------------------------
# The Taylor action


@pytest.mark.parametrize("model", ["kerr0", "kerrT", "pdc"])
@pytest.mark.parametrize("dim", [12, 16, 20, 24])
def test_action_matches_the_blocked_exponential(model, dim):
    gen = _matrix(model, dim)
    rho0 = random_density(dim, np.random.default_rng([dim, 1]))
    assert maxabs(action_evolve(gen, rho0, 0.4) - expm_evolve(gen, rho0, 0.4)) <= 1e-13


@pytest.mark.parametrize("model", ["kerr0", "kerrT"])
@pytest.mark.parametrize("dim", [12, 16, 20, 24])
def test_blocked_exponential_matches_scipy_to_rounding(model, dim):
    # the Taylor tail is bounded by unit roundoff before the squarings;
    # stopped at a relative 1e-12, the series sat up to 1.1e-13 from scipy here
    gen = _matrix(model, dim)
    rho0 = random_density(dim, np.random.default_rng([dim, 1]))
    v = vec(rho0)
    ref = np.empty_like(v)
    for idx, block in _dense_blocks(gen):
        ref[idx] = scipy.linalg.expm(block * 0.4) @ v[idx]
    assert maxabs(vec(expm_evolve(gen, rho0, 0.4)) - ref) <= 2e-15


def _planted(dim):
    # kerrT with one cross-sector entry appended, so the rows are unsorted
    gen = _matrix("kerrT", dim)
    return Liouvillian(dim, np.append(gen.rows, 1), np.append(gen.cols, 2 * dim),
                       np.append(gen.entries, 0.7))


@pytest.mark.parametrize("build", [
    lambda dim: build_liouvillian(kerr_zero_t_generator(dim, 1.0, 0.0)),
    _planted,
], ids=["lossless-kerr0", "planted-entry"])
def test_action_matvec_is_the_dense_product(build):
    # the lossless Kerr generator has rows with no entries, which must come
    # out 0; the planted entry sits last, out of row order
    dim = 6
    gen = build(dim)
    assert len(np.unique(gen.rows)) < dim * dim or np.any(np.diff(gen.rows) < 0)
    v = vec(seeded_density(dim, 46)) + 1.0
    assert maxabs(_matvec(_row_entries(gen), v) - gen.dense() @ v) <= 1e-13
    t = 0.5
    ref = scipy.linalg.expm(gen.dense() * t) @ vec(seeded_density(dim, 47))
    assert maxabs(vec(action_evolve(gen, seeded_density(dim, 47), t)) - ref) <= 1e-13


def test_action_refuses_what_the_exponential_refuses():
    L = build_liouvillian(kerr_zero_t_generator(4, 1.0, 0.1))
    rho0 = vacuum_density(4)
    for args in ((L, np.eye(5, dtype=complex), 0.1), (L, rho0, -1.0), (L, rho0, math.nan),
                 (L, rho0, math.inf), (np.zeros((20, 20)), np.eye(4), 0.1)):
        with pytest.raises(ValueError) as refused:
            expm_evolve(*args)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            action_evolve(*args)


def test_action_returns_the_state_at_time_zero():
    gen = _matrix("pdc", 8)
    rho0 = seeded_density(8, 48)
    assert np.array_equal(action_evolve(gen, rho0, 0.0), rho0)


def count_windows(monkeypatch, engine, other):
    """Windows `engine` runs on from here on; `other` may not run at all."""
    calls = []
    chosen = getattr(oracle, engine)

    def counted(L, rho0, t):
        calls.append(L.dim)
        return chosen(L, rho0, t)

    def refuse(L, rho0, t):
        raise AssertionError(f"{other} ran on window {L.dim}")

    monkeypatch.setattr(oracle, engine, counted)
    monkeypatch.setattr(oracle, other, refuse)
    return calls


@pytest.mark.parametrize("model, engine, other", [
    ("kerrT", "expm_evolve", "action_evolve"),
    ("pdc", "action_evolve", "expm_evolve"),
])
def test_reference_engine_follows_the_widest_sector(monkeypatch, model, engine, other):
    # every Kerr sector is at most the window wide, so the reference runs
    # the sector blocks; the pair drive's two parity sectors are wider. The
    # Kerr input is converged on the first pair of rungs (1.5e-15); the pair
    # drive's first pair differs by 2.9e-9, so it climbs to pads 32 and 48
    chosen = getattr(oracle, engine)
    calls = count_windows(monkeypatch, engine, other)
    rho0 = seeded_density(6, 49)
    ref, _ = converged_window_reference(GENERATORS[model], rho0, 0.3)
    windows = {"kerrT": [22, 30], "pdc": [22, 30, 38, 54]}[model]
    assert calls == windows
    # the narrower window of the last pair is the one returned
    wide = build_liouvillian(GENERATORS[model](windows[-2]))
    assert np.array_equal(ref, crop(chosen(wide, embed(rho0, windows[-2]), 0.3), 6))


# near threshold the pair drive carries a full-support state far past the
# first rungs: at window 16 pads 16 and 24 differ by 1.5e-4
def near_threshold(n):
    return pdc_generator(n, 0.95 * np.exp(0.7j), 1.0)


def test_reference_widens_until_it_converges(monkeypatch):
    calls = count_windows(monkeypatch, "action_evolve", "expm_evolve")
    rho0 = random_density(16, np.random.default_rng(1))
    _, conv = converged_window_reference(near_threshold, rho0, 0.3)
    assert calls == [32, 40, 48, 64, 80]
    assert conv <= 1e-15


def test_reference_reports_an_unconverged_top_rung(monkeypatch):
    # at window 32 the same flow is still moving at the top rung, dim + 64;
    # the ladder ends there and its difference is returned, above the target
    calls = count_windows(monkeypatch, "action_evolve", "expm_evolve")
    rho0 = random_density(32, np.random.default_rng(1))
    _, conv = converged_window_reference(near_threshold, rho0, 0.3)
    assert calls == [48, 56, 64, 80, 96]
    assert conv > 100 * oracle.REFERENCE_TARGET
