import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockprop import superop
from fockprop.fock import annihilation
from fockprop.superop import (
    apply,
    build_liouvillian,
    commutator,
    cross_shift_sum,
    damping_shift,
    identity_superop,
    index_difference,
    kerr_finite_t_generator,
    kerr_phase,
    kerr_zero_t_generator,
    lowering_sandwich,
    number_damping,
    pair_sink,
    pair_source,
    pdc_drive,
    pdc_generator,
    raising_sandwich,
    unvec,
    vec,
    verify_commutator_table,
)

from helpers import maxabs, seeded_density


def all_generators(dim):
    return {
        "kerr0": kerr_zero_t_generator(dim, 1.0, 0.1),
        "kerrT": kerr_finite_t_generator(dim, 1.0, 0.1, 0.05, 0.15, -0.1),
        "pdc": pdc_generator(dim, 0.3, 1.0, corrected=True),
    }


def test_vec_unvec_round_trip():
    rho = seeded_density(6, 1)
    assert maxabs(unvec(vec(rho), 6) - rho) == 0.0


def test_vectorization_is_column_stacking():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = seeded_density(4, 2)
    lhs = np.kron(b.T, a) @ vec(rho)
    assert maxabs(unvec(lhs, 4) - a @ rho @ b) < 1e-13


def named_blocks(dim):
    return {
        "number_damping": number_damping(dim, 0.3),
        "damping_shift": damping_shift(dim),
        "kerr_phase": kerr_phase(dim, 0.7),
        "index_difference": index_difference(dim),
        "identity_superop": identity_superop(dim, -2.5),
        "cross_shift_sum": cross_shift_sum(dim),
        "pair_sink": pair_sink(dim),
        "pair_source": pair_source(dim),
        "pdc_drive": pdc_drive(dim, 0.4 - 0.2j),
    }


def test_dense_matrix_agrees_with_direct_application():
    dim = 9
    for name, expr in {**all_generators(dim), **named_blocks(dim)}.items():
        L = build_liouvillian(expr)
        for i in range(4):
            rho = seeded_density(dim, 3, i)
            direct = apply(expr, rho)
            dense = unvec(L.dense() @ vec(rho), dim)
            assert maxabs(direct - dense) < 1e-12, name


def test_number_damping_diagonal_example():
    L = build_liouvillian(number_damping(2, 0.5))
    assert maxabs(L.dense() - np.diag([0.0, -0.5, -0.5, -1.0])) < 1e-15


def test_kerr_phase_weights():
    # element (n, m) carries -i chi (n(n-1) - m(m-1))
    dim = 5
    chi = 0.7
    rho = np.ones((dim, dim), dtype=complex)
    out = apply(kerr_phase(dim, chi), rho)
    for n in range(dim):
        for m in range(dim):
            want = -1j * chi * (n * (n - 1) - m * (m - 1))
            assert abs(out[n, m] - want) < 1e-13


def test_scalar_multiplication_and_addition():
    dim = 6
    expr = lowering_sandwich(dim, 2.0) + number_damping(dim, 0.3)
    rho = seeded_density(dim, 4)
    doubled = 2.0 * expr
    assert maxabs(apply(doubled, rho) - 2.0 * apply(expr, rho)) < 1e-13
    summed = expr + kerr_phase(dim, 1.0)
    want = apply(expr, rho) + apply(kerr_phase(dim, 1.0), rho)
    assert maxabs(apply(summed, rho) - want) < 1e-13


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        apply(lowering_sandwich(4, 1.0), np.eye(5, dtype=complex))
    # a stack's last two axes are the window
    for shape in [(4,), (3, 4, 5), (3, 5, 4), (2, 3, 5, 5)]:
        with pytest.raises(ValueError, match="does not match dim 4"):
            apply(lowering_sandwich(4, 1.0), np.zeros(shape, dtype=complex))
    with pytest.raises(ValueError):
        lowering_sandwich(4, 1.0) + lowering_sandwich(5, 1.0)


@pytest.mark.parametrize("dim", [2, 7, 12, 20, 39])
def test_apply_on_a_stack_is_apply_on_each_slice(dim):
    # every slice of a stack is one gemm per product, as a lone state is,
    # so it reads the same bits; a (2, 3)-stack keeps its leading axes
    rng = np.random.default_rng([dim, 5])
    z = rng.standard_normal((2, 2, 3, dim, dim))
    states = z[0] + 1j * z[1]
    exprs = {**all_generators(dim), "drive": pdc_drive(dim, 0.4 - 0.3j),
             "kerr_phase": kerr_phase(dim, -1.3), "empty": superop.SuperopExpr(dim)}
    for name, expr in exprs.items():
        got = apply(expr, states)
        assert got.shape == states.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], apply(expr, states[idx])), (name, idx)


def _random_density_formula(dim, rng):
    """random_density as its docstring states it, one density per call."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", [1, 3, 12, 16, 48])
def test_a_stacked_draw_is_successive_random_densities(dim):
    # one standard_normal draw of the stack reads the stream as successive
    # single draws do, and leaves the generator where they leave it
    stacked, single = np.random.default_rng([dim, 8]), np.random.default_rng([dim, 8])
    for count in (1, 3, 10):
        got = superop._random_densities(dim, stacked, count)
        want = [_random_density_formula(dim, single) for _ in range(count)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    assert np.array_equal(superop.random_density(dim, stacked), _random_density_formula(dim, single))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    c1=st.floats(min_value=-3.0, max_value=3.0),
    c2=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_apply_is_linear(c1, c2, seed):
    dim = 8
    expr = kerr_finite_t_generator(dim, 1.0, 0.1, 0.05, 0.15, -0.1)
    r1 = seeded_density(dim, 10, seed)
    r2 = seeded_density(dim, 11, seed)
    lhs = apply(expr, c1 * r1 + c2 * r2)
    rhs = c1 * apply(expr, r1) + c2 * apply(expr, r2)
    assert maxabs(lhs - rhs) < 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_generators_preserve_hermiticity(seed):
    dim = 8
    for name, expr in all_generators(dim).items():
        rho = seeded_density(dim, 12, seed)
        out = apply(expr, rho)
        assert maxabs(out - out.conj().T) < 1e-12, name


def test_trace_preserving_generators_kill_the_trace():
    dim = 10
    for name, expr in all_generators(dim).items():
        # the raising feed pushes weight out of the window from the top
        # level, so zero the top row and column before checking
        rho = seeded_density(dim, 13)
        rho[dim - 1, :] = 0.0
        rho[:, dim - 1] = 0.0
        rho = rho / np.trace(rho)
        assert abs(np.trace(apply(expr, rho))) < 1e-10, name


@pytest.mark.parametrize("dim", range(2, 25))
def test_zero_temperature_generator_is_the_finite_one_at_no_upward_rate(dim):
    # kerr_zero_t_generator is kerr_finite_t_generator(dim, chi, gm, 0, gm, 0);
    # its two zero terms add exact zeros, which build_liouvillian drops, so
    # its entries are those of the three terms that remain, to the bit
    chi, gm = 1.0, 0.1
    want = build_liouvillian(kerr_phase(dim, chi) + lowering_sandwich(dim, 2.0 * gm)
                             + number_damping(dim, gm))
    got = build_liouvillian(kerr_zero_t_generator(dim, chi, gm))
    for name in ("rows", "cols", "entries"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_literal_pdc_generator_inflates_trace():
    dim = 10
    expr = pdc_generator(dim, 0.3, 1.0, corrected=False)
    rho = seeded_density(dim, 14)
    rho[dim - 1, :] = 0.0
    rho[:, dim - 1] = 0.0
    rho = rho / np.trace(rho)
    assert np.trace(apply(expr, rho)).real > 0.1


def test_commutator_antisymmetry_and_self_commutator():
    dim = 8
    e1 = lowering_sandwich(dim, 1.0)
    e2 = raising_sandwich(dim, 1.0)
    rho = seeded_density(dim, 15)
    assert maxabs(commutator(e1, e2, rho) + commutator(e2, e1, rho)) < 1e-13
    assert maxabs(commutator(e1, e1, rho)) == 0.0


def test_index_difference_weights():
    # element (n, m) carries n - m, and under damping_shift -(n + m + 1)
    dim = 4
    rho = np.ones((dim, dim), dtype=complex)
    n = np.arange(dim)
    for expr, want in ((index_difference(dim), n[:, None] - n[None, :]),
                       (damping_shift(dim), -(n[:, None] + n[None, :] + 1))):
        assert maxabs(apply(expr, rho) - want) < 1e-15


def test_identity_superop_scales():
    dim = 4
    rho = seeded_density(dim, 16)
    assert maxabs(apply(identity_superop(dim, -2.5), rho) + 2.5 * rho) < 1e-14


def test_drive_is_hamiltonian_commutator():
    dim = 8
    eps = 0.3 + 0.1j
    a = annihilation(dim)
    h = eps * a.conj().T @ a.conj().T + np.conj(eps) * a @ a
    rho = seeded_density(dim, 17)
    want = -1j * (h @ rho - rho @ h)
    assert maxabs(apply(pdc_drive(dim, eps), rho) - want) < 1e-13


def test_commutator_table_all_checks_pass():
    records = verify_commutator_table(12, seed=3)
    checks = [r for r in records if r["kind"] == "check"]
    notes = [r for r in records if r["kind"] == "note"]
    assert len(checks) + len(notes) == len(records)
    assert checks and all(r["passed"] for r in checks)
    assert max(r["residual"] for r in checks) < 1e-10
    # the two rejected-coefficient audits must show a fat residual
    assert len(notes) == 2
    assert all(r["residual"] > 1e-2 for r in notes)
    # every relation names the group it belongs to
    groups = [r["name"].split(": ", 1)[0] for r in records]
    assert (groups.count("paper"), groups.count("Kerr flow"), groups.count("pdc channel")) \
        == (29, 3, 6)


def test_commutator_table_needs_room():
    with pytest.raises(ValueError):
        verify_commutator_table(8)


def _apply_one_at_a_time(expr, rho):
    """apply as a loop over the stack's slices, each term c * (L @ rho @ R)."""
    out = np.zeros_like(rho)
    for i, one in enumerate(rho):
        for t in expr.terms:
            out[i] += t.coeff * (t.left @ one @ t.right)
    return out


# the stacks fock's chunk budget splits the table's samples into, by window
TABLE_STACKS = {10: [10], 12: [10], 20: [10], 48: [7, 3], 64: [4, 4, 2]}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim", list(TABLE_STACKS))
def test_stacked_table_is_the_per_sample_loop(monkeypatch, dim, seed):
    # drawn and evaluated one density at a time, every record must read the
    # bits it reads from the stacks
    parts = superop._chunks(superop.TABLE_SAMPLES, dim * dim)
    assert [len(range(superop.TABLE_SAMPLES)[p]) for p in parts] == TABLE_STACKS[dim]
    stacked = verify_commutator_table(dim, seed=seed)
    monkeypatch.setattr(superop, "_chunks", lambda n, size: [slice(i, i + 1) for i in range(n)])
    monkeypatch.setattr(superop, "apply", _apply_one_at_a_time)
    assert verify_commutator_table(dim, seed=seed) == stacked


def test_commutator_table_fails_one_relation_under_a_planted_kerr_phase_sign():
    records = verify_commutator_table(12, seed=0, fault="tables-kerr-phase-sign")
    failed = [r for r in records if r["passed"] is False]
    assert [r["name"] for r in failed] == [
        "Kerr flow: [kerr_phase(1.0), lowering] = 2i*1.0*index_difference.lowering"]
    assert failed[0]["residual"] > 1.0


def _table_records(monkeypatch, name, fake):
    monkeypatch.setattr(superop, name, fake)
    return verify_commutator_table(12, seed=0)


def _table_verdicts(monkeypatch, name, fake):
    records = _table_records(monkeypatch, name, fake)
    failed = {r["name"] for r in records if r["passed"] is False}
    closures = [r["passed"] for r in records if r["name"].startswith("paper: closure:")]
    return failed, closures


def test_commutator_table_blames_a_wrong_damping_shift(monkeypatch):
    # dropping the +1 breaks exactly the cells whose right side names it
    failed, closures = _table_verdicts(
        monkeypatch, "damping_shift", lambda dim: number_damping(dim, 1.0))
    assert failed == {
        "paper: [pair_sink, pair_source] = 4*damping_shift",
        "paper: [pair_source, pair_sink] = -(4*damping_shift)",
        "paper: [jump_down_scaled, jump_up_scaled] = -16*damping_shift",
        "paper: [jump_up_scaled, jump_down_scaled] = -(-16*damping_shift)",
    }
    assert closures == [True, True]


def test_commutator_table_blames_a_wrong_pair_sink(monkeypatch):
    # a doubled pair_sink breaks every cell it enters linearly, and the
    # closure of the lowering subalgebra it belongs to, not the raising one
    true_sink = superop.pair_sink
    failed, closures = _table_verdicts(
        monkeypatch, "pair_sink", lambda dim: 2.0 * true_sink(dim))
    assert failed == {
        "paper: [pair_sink, cross_shift_sum] = -jump_down_scaled",
        "paper: [cross_shift_sum, pair_sink] = -(-jump_down_scaled)",
        "paper: [pair_sink, pair_source] = 4*damping_shift",
        "paper: [pair_source, pair_sink] = -(4*damping_shift)",
        "paper: [pair_sink, jump_up_scaled] = -8*cross_shift_sum",
        "paper: [jump_up_scaled, pair_sink] = -(-8*cross_shift_sum)",
        "paper: [jump_down_scaled, cross_shift_sum] = -4*pair_sink",
        "paper: [cross_shift_sum, jump_down_scaled] = -(-4*pair_sink)",
        "paper: closure: span{jump_down_scaled, pair_sink, cross_shift_sum}",
    }
    assert closures == [False, True]


def test_commutator_table_blames_a_channel_side_that_does_not_commute(monkeypatch):
    # J+ does not commute with a^2 on the left or a^dag^2 on the right, so
    # planted on the input side it breaks exactly those two relations, by
    # residuals of order one; the output side and the paper's cells stand
    sides = {**superop._CHANNEL_SIDES, "input": ("a^2 rho", "rho adag^2", "J+")}
    records = _table_records(monkeypatch, "_CHANNEL_SIDES", sides)
    failed = {r["name"]: r["residual"] for r in records if r["passed"] is False}
    assert set(failed) == {
        "pdc channel: [a^2 rho, J+] = 0 on the input side",
        "pdc channel: [rho adag^2, J+] = 0 on the input side",
    }
    assert min(failed.values()) > 1.0


def test_random_density_is_exactly_hermitian():
    # G G^dag alone rounds its two triangles apart at most windows, which
    # would keep verify's Kerr states off the flows' hermitian layout
    for dim in range(1, 100):
        rho = superop.random_density(dim, np.random.default_rng([dim, 3]))
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) < 1e-14
