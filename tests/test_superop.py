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
    identity_superop,
    index_difference,
    kerr_finite_t_generator,
    kerr_phase,
    kerr_zero_t_generator,
    lowering_sandwich,
    number_damping,
    pdc_drive,
    pdc_drive_parts,
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


def test_dense_matrix_agrees_with_direct_application():
    dim = 9
    for name, expr in all_generators(dim).items():
        L = build_liouvillian(expr)
        for i in range(4):
            rho = seeded_density(dim, 3, i)
            direct = apply(expr, rho)
            dense = unvec(L @ vec(rho), dim)
            assert maxabs(direct - dense) < 1e-12, name


def test_number_damping_diagonal_example():
    L = build_liouvillian(number_damping(2, 0.5))
    assert maxabs(L - np.diag([0.0, -0.5, -0.5, -1.0])) < 1e-15


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
    with pytest.raises(ValueError):
        lowering_sandwich(4, 1.0) + lowering_sandwich(5, 1.0)


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
    dim = 4
    rho = np.ones((dim, dim), dtype=complex)
    out = apply(index_difference(dim), rho)
    n = np.arange(dim)
    assert maxabs(out - (n[:, None] - n[None, :])) < 1e-15


def test_identity_superop_scales():
    dim = 4
    rho = seeded_density(dim, 16)
    assert maxabs(apply(identity_superop(dim, -2.5), rho) + 2.5 * rho) < 1e-14


def test_drive_parts_sum_to_drive():
    dim = 8
    eps = 0.4 - 0.2j
    parts = pdc_drive_parts(dim, eps)
    assert set(parts) == {"right_raise", "left_lower", "left_raise", "right_lower"}
    whole = build_liouvillian(pdc_drive(dim, eps))
    summed = sum(build_liouvillian(p) for p in parts.values())
    assert maxabs(whole - summed) < 1e-14


def test_drive_is_hamiltonian_commutator():
    dim = 8
    eps = 0.3 + 0.1j
    a = annihilation(dim)
    h = eps * a.conj().T @ a.conj().T + np.conj(eps) * a @ a
    rho = seeded_density(dim, 17)
    want = -1j * (h @ rho - rho @ h)
    assert maxabs(apply(pdc_drive(dim, eps), rho) - want) < 1e-13


def test_commutator_table_all_checks_pass():
    records = verify_commutator_table(12, epsilon=0.3, gamma=1.0, samples=5, seed=3)
    checks = [r for r in records if r["kind"] == "check"]
    notes = [r for r in records if r["kind"] == "note"]
    unver = [r for r in records if r["kind"] == "unverifiable"]
    assert checks and all(r["passed"] for r in checks)
    assert max(r["residual"] for r in checks) < 1e-10
    # the two rejected-coefficient audits must show a fat residual
    assert len(notes) == 2
    assert all(r["residual"] > 1e-2 for r in notes)
    assert len(unver) == 1


def test_commutator_table_needs_room():
    with pytest.raises(ValueError):
        verify_commutator_table(8, epsilon=0.3, gamma=1.0)


def test_commutator_table_refuses_what_it_cannot_check():
    # no samples would pass every check unevaluated; gamma = 0 would divide by zero
    with pytest.raises(ValueError, match="samples"):
        verify_commutator_table(12, epsilon=0.3, gamma=1.0, samples=0)
    with pytest.raises(ValueError, match="gamma"):
        verify_commutator_table(12, epsilon=0.3, gamma=0.0)


def _table_verdicts(monkeypatch, name, fake):
    monkeypatch.setattr(superop, name, fake)
    records = verify_commutator_table(12, epsilon=0.3, gamma=1.0, samples=3, seed=0)
    failed = {r["name"] for r in records if r["passed"] is False}
    closures = [r["passed"] for r in records if r["name"].startswith("closure:")]
    return failed, closures


def test_commutator_table_blames_a_wrong_damping_shift(monkeypatch):
    # dropping the +1 breaks exactly the cells whose right side names it
    failed, closures = _table_verdicts(
        monkeypatch, "damping_shift", lambda dim: number_damping(dim, 1.0))
    assert failed == {
        "[pair_sink, pair_source] = 4*damping_shift",
        "[pair_source, pair_sink] = -(4*damping_shift)",
        "[jump_down_scaled, jump_up_scaled] = -16*damping_shift",
        "[jump_up_scaled, jump_down_scaled] = -(-16*damping_shift)",
    }
    assert closures == [True, True]


def test_commutator_table_blames_a_wrong_pair_sink(monkeypatch):
    # a doubled pair_sink breaks every cell it enters linearly, and the
    # closure of the lowering subalgebra it belongs to, not the raising one
    true_sink = superop.pair_sink
    failed, closures = _table_verdicts(
        monkeypatch, "pair_sink", lambda dim: 2.0 * true_sink(dim))
    assert failed == {
        "[pair_sink, cross_shift_sum] = -jump_down_scaled",
        "[cross_shift_sum, pair_sink] = -(-jump_down_scaled)",
        "[pair_sink, pair_source] = 4*damping_shift",
        "[pair_source, pair_sink] = -(4*damping_shift)",
        "[pair_sink, jump_up_scaled] = -8*cross_shift_sum",
        "[jump_up_scaled, pair_sink] = -(-8*cross_shift_sum)",
        "[jump_down_scaled, cross_shift_sum] = -4*pair_sink",
        "[cross_shift_sum, jump_down_scaled] = -(-4*pair_sink)",
        "closure: span{jump_down_scaled, pair_sink, cross_shift_sum}",
    }
    assert closures == [False, True]
