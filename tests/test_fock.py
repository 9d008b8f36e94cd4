import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockprop import fock
from fockprop.fock import (
    _coherent_amps,
    annihilation,
    cat_state,
    coherent_state,
    creation,
    density_from_ket,
    fidelity_pure,
    husimi_q,
    number_op,
    observables,
)

from helpers import maxabs, seeded_density


def test_ladder_matrix_elements():
    a = annihilation(5)
    for n in range(1, 5):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    assert maxabs(a - np.triu(a, 1)) == 0.0
    assert maxabs(creation(5) - a.conj().T) == 0.0


def test_number_operator_is_ladder_product():
    dim = 7
    a = annihilation(dim)
    assert maxabs(a.conj().T @ a - number_op(dim)) < 1e-14


def test_truncated_ladder_commutator():
    # [a, a^dag] = 1 everywhere except the top level, which picks up the
    # cutoff correction -(dim-1) instead of +1
    dim = 6
    a = annihilation(dim)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(dim, dtype=complex)
    expected[dim - 1, dim - 1] = -(dim - 1)
    assert maxabs(comm - expected) < 1e-14


def test_dimension_must_be_positive():
    with pytest.raises(ValueError):
        annihilation(0)


def test_coherent_amplitudes_match_direct_formula():
    alpha = 0.7 - 0.4j
    amps, deficit = coherent_state(12, alpha)
    raw_norm_sq = 1.0 - deficit
    pref = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(12):
        direct = pref * alpha**n / math.sqrt(math.factorial(n))
        assert abs(amps[n] * math.sqrt(raw_norm_sq) - direct) < 1e-14


def test_coherent_state_is_annihilation_eigenstate_inside_window():
    dim = 30
    alpha = 1.5 + 0.5j
    amps, deficit = coherent_state(dim, alpha)
    assert deficit < 1e-12
    resid = annihilation(dim) @ amps - alpha * amps
    # the eigenrelation fails only at the top edge where the recurrence
    # has no n+1 neighbour
    assert maxabs(resid[: dim - 1]) < 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    re=st.floats(min_value=-2.0, max_value=2.0),
    im=st.floats(min_value=-2.0, max_value=2.0),
)
def test_coherent_state_normalized_with_small_deficit(re, im):
    amps, deficit = coherent_state(25, complex(re, im))
    assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12
    # rounding can push the raw norm a hair past one, hence the slack below
    assert -1e-12 < deficit < 1e-6


def test_coherent_deficit_shrinks_with_window():
    d_small = coherent_state(10, 2.0)[1]
    d_large = coherent_state(25, 2.0)[1]
    assert d_large < d_small


def test_cat_state_parity():
    # phase pi kills the even components, phase 0 the odd ones
    odd, _ = cat_state(20, 1.2, math.pi)
    even, _ = cat_state(20, 1.2, 0.0)
    assert maxabs(odd[0::2]) < 1e-14
    assert maxabs(even[1::2]) < 1e-14
    assert abs(np.sum(np.abs(odd) ** 2) - 1.0) < 1e-12


def test_cat_state_deficit_is_cutoff_only():
    # at a window this large the cutoff loss is negligible even though
    # the two branches overlap appreciably at alpha around 1
    _, deficit = cat_state(30, 1.0, 0.3)
    assert abs(deficit) < 1e-12


def test_odd_cat_at_small_alpha():
    # the ideal norm of an odd cat is about 4 |alpha|^2; computed as
    # 2 + 2 cos(phase) exp(-2|alpha|^2) it cancels to noise, or to 0
    for alpha in (1e-6, 1e-7):
        psi, deficit = cat_state(8, alpha, math.pi)
        assert abs(psi[1]) == pytest.approx(1.0)
        assert abs(deficit) < 1e-12
    with pytest.raises(ValueError):
        cat_state(8, 0.0, math.pi)


def test_vacuum_cat_near_pi_keeps_its_digits():
    # at alpha = 0 the cat is the vacuum for every phase short of pi; written
    # as 2 + 2 cos(phase), its ideal norm cancels to noise or to 0 there
    for delta in (1e-6, 1e-7, 1e-8):
        psi, deficit = cat_state(8, 0.0, math.pi - delta)
        assert abs(psi[0]) == pytest.approx(1.0)
        assert abs(deficit) <= 1e-12


def test_density_from_ket():
    psi = np.array([1.0, 1.0j]) / math.sqrt(2)
    rho = density_from_ket(psi)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert np.array_equal(rho, rho.conj().T)
    assert abs(rho[0, 1] - (-0.5j)) < 1e-15
    # the outer product alone rounds most of these states' two triangles
    # apart; the Kerr flows take their hermitian layout only on exact ones
    for dim in (12, 17, 40, 64, 97, 160):
        for alpha in (2.0, 1.5 - 0.7j, -0.3 + 2.2j):
            rho = density_from_ket(coherent_state(dim, alpha)[0])
            assert np.array_equal(rho, rho.conj().T)
            assert not rho.diagonal().imag.any()


def test_observables_on_known_mixture():
    rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
    obs = observables(rho)
    assert obs["trace"] == pytest.approx(1.0)
    assert obs["purity"] == pytest.approx(0.375)
    assert obs["mean_n"] == pytest.approx(0.75)
    assert [type(obs[k]) for k in ("trace", "purity", "mean_n")] == [complex, float, float]
    # a stack gives each slice's values, bit for bit
    stack = np.stack([seeded_density(12, 40), np.diag([0.5, 0.25, 0.25] + [0.0] * 9),
                      2.5 * seeded_density(12, 41)]).astype(complex)
    batched = observables(stack)
    for i, one in enumerate(stack):
        for key, value in observables(one).items():
            assert batched[key][i] == value


def test_observables_rejects_garbage_purity():
    # tr(rho^2) picks up an imaginary part only when the off-diagonals
    # are not conjugate partners
    bad = np.array([[0.5, 0.2j], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="^purity has imaginary part"):
        observables(bad)
    # on a stack the error names the first bad slice
    good = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="^slice 1: purity") as err:
        observables(np.stack([good, bad, bad]))
    assert err.value.index == 1


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_observables_refuses_a_non_finite_state(entry):
    # one non-finite entry anywhere makes sum_ij rho_ij rho_ji non-finite,
    # whether or not its partner entry is zero
    good = np.diag([0.5, 0.5]).astype(complex)
    bad = good.copy()
    bad[0, 1] = entry
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^slice 2: purity") as err:
        observables(np.stack([good, good, bad]))
    assert err.value.index == 2
    assert "not finite" in str(err.value)


def test_fidelity_pure_values_and_clamp():
    psi = np.array([1.0, 0.0], dtype=complex)
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert fidelity_pure(psi, rho) == pytest.approx(0.7)
    assert type(fidelity_pure(psi, rho)) is float
    # tiny negative real parts clamp to zero
    clamped = np.diag([-1e-14, 1.0]).astype(complex)
    assert fidelity_pure(psi, clamped) == 0.0
    # a stack gives each slice's value, bit for bit
    psi = np.linalg.qr(seeded_density(12, 42))[0][:, 0]
    stack = np.stack([seeded_density(12, 43), 3.0 * seeded_density(12, 44), np.eye(12) / 12])
    batched = fidelity_pure(psi, stack)
    assert batched.shape == (3,)
    for i, one in enumerate(stack):
        assert batched[i] == fidelity_pure(psi, one)


def test_fidelity_pure_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        fidelity_pure(np.ones(3), np.eye(2, dtype=complex))


def test_husimi_vacuum_is_exact_gaussian():
    vac = np.zeros((8, 8), dtype=complex)
    vac[0, 0] = 1.0
    pts = [0.0, 1.0, 2.0j, 1.0 + 1.0j]
    q = husimi_q(vac, pts)
    for val, alpha in zip(q, pts):
        assert abs(val - math.exp(-abs(alpha) ** 2) / math.pi) < 1e-14


def test_husimi_peaks_at_coherent_amplitude():
    amps, _ = coherent_state(25, 1.5)
    rho = density_from_ket(amps)
    q_peak, q_off = husimi_q(rho, [1.5, -1.5])
    assert abs(q_peak - 1.0 / math.pi) < 1e-9
    assert q_off < q_peak * 1e-3


def test_husimi_chunks_match_a_per_point_loop():
    # two full chunks of points and a partial third, in scrambled order
    dim = 40
    rho = seeded_density(dim, 60)
    n = 2 * (fock._CHUNK_ENTRIES // dim) + 7
    rng = np.random.default_rng(61)
    pts = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    got = husimi_q(rho, list(pts))
    want = [np.real(_coherent_amps(dim, a).conj() @ rho @ _coherent_amps(dim, a)) / np.pi
            for a in pts]
    assert got.shape == (n,)
    assert maxabs(got - want) <= 1e-15


def test_husimi_of_no_points_is_empty():
    q = husimi_q(np.eye(5, dtype=complex) / 5.0, [])
    assert q.shape == (0,)
