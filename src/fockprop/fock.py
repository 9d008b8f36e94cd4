"""States, ladder operators, and observables on a truncated Fock space.

Everything works with dense complex arrays. A space of dimension N holds
number states 0..N-1; operators are N x N, density matrices likewise.
Truncation is the caller's responsibility: helpers report how much weight
an ideal (infinite-dimensional) state loses to the cutoff so callers can
pick N large enough for their tolerance.
"""

import numpy as np

__all__ = [
    "annihilation",
    "creation",
    "number_op",
    "coherent_state",
    "cat_state",
    "density_from_ket",
    "observables",
    "fidelity_pure",
    "husimi_q",
]


def annihilation(dim):
    """Annihilation operator: entry (n-1, n) = sqrt(n)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def creation(dim):
    return annihilation(dim).conj().T


def number_op(dim):
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


# complex entries one batched pass may hold: a stack of T states of dim^2
# entries each, or the dim x P coherent amplitudes of P phase-space points.
# On the benchmark's kerr_timeseries batch (2-core VM, one BLAS thread),
# 2^16 ran about 10% faster but raised the peak RSS from 35 to 40 MB, and
# 2^12 kept it at 34 MB but ran 1.7 times slower.
_CHUNK_ENTRIES = 2 ** 14


def _chunks(n, size):
    """Consecutive slices of range(n) of at most _CHUNK_ENTRIES // size items.

    Every slice holds at least one item, so an item larger than the budget
    is taken alone.
    """
    step = max(1, _CHUNK_ENTRIES // size)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _coherent_amps(dim, alpha):
    """Raw truncated coherent amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!).

    No renormalization. The recurrence c_n = c_{n-1} * alpha / sqrt(n)
    avoids overflow in alpha^n and n! separately. alpha may be an array of
    points; the amplitudes then run down the first axis, one column per
    point.
    """
    amps = np.zeros((dim,) + np.shape(alpha), dtype=complex)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return amps


def coherent_state(dim, alpha):
    """Normalized truncated coherent state.

    Returns (amps, deficit) where deficit = 1 - sum |c_n|^2 of the raw
    truncated amplitudes, i.e. the probability weight lost to the cutoff.
    amps is renormalized to unit norm.
    """
    raw = _coherent_amps(dim, alpha)
    norm_sq = float(np.sum(np.abs(raw) ** 2))
    if norm_sq <= 0.0:
        raise ValueError("coherent amplitude underflow, increase dim or reduce alpha")
    return raw / np.sqrt(norm_sq), 1.0 - norm_sq


def cat_state(dim, alpha, phase):
    """Superposition (|alpha> + e^{i phase} |-alpha>) / norm, truncated.

    deficit is measured against the ideal (untruncated) norm
    4 cos^2(phase/2) + 2 cos(phase) expm1(-2|alpha|^2), so it reflects
    cutoff loss only; written so, it stays accurate for odd cats at small
    alpha and near phase = pi. Raises where the two branches cancel down to
    their rounding error, since what is left of the state is noise.
    """
    plus = _coherent_amps(dim, alpha)
    minus = np.exp(1j * phase) * _coherent_amps(dim, -alpha)
    raw = plus + minus
    branches_sq = float(np.sum(np.abs(plus) ** 2 + np.abs(minus) ** 2))
    if branches_sq <= 0.0:
        raise ValueError("cat state has no support on this window")
    norm_sq = float(np.sum(np.abs(raw) ** 2))
    if norm_sq <= np.finfo(float).eps ** 2 * branches_sq:
        raise ValueError("cat state vanishes: its two branches cancel at this alpha and phase")
    ideal_norm_sq = (4.0 * np.cos(0.5 * phase) ** 2
                     + 2.0 * np.cos(phase) * np.expm1(-2.0 * abs(alpha) ** 2))
    return raw / np.sqrt(norm_sq), 1.0 - norm_sq / ideal_norm_sq


def density_from_ket(psi):
    """|psi><psi|, exactly Hermitian: a real diagonal, and entry (n, m) the conjugate of (m, n).

    numpy's complex products may fuse a multiply and an add, so the outer
    product alone can differ from its adjoint in the last bit; their mean
    cannot, and the Kerr flows run an exactly Hermitian state on half the
    skewed window.
    """
    psi = np.asarray(psi, dtype=complex)
    r = np.outer(psi, psi.conj())
    return 0.5 * (r + r.conj().T)


def _refuse(bad, value, message):
    """Raises message.format(entry of value) at the first true entry of bad;
    on a stack the error names that slice (C order) and keeps it as .index."""
    bad = np.flatnonzero(bad)
    if bad.size:
        where = f"slice {bad[0]}: " if np.ndim(value) else ""
        err = ValueError(where + message.format(np.asarray(value).flat[bad[0]]))
        err.index = int(bad[0])
        raise err


def observables(rho):
    """Trace, purity, and mean occupation of a density matrix.

    trace is reported as a complex number so drift off the real axis is
    visible. purity = tr(rho^2), summed as sum_ij rho_ij rho_ji without
    forming rho^2, must come out finite and real; a non-finite value, which
    any non-finite entry of rho gives, or an imaginary part above
    1e-12 max(1, |tr rho|)^2 signals a corrupted input and raises. rho may
    be a (..., dim, dim) stack: each value is then an array over the leading
    axes, and the error names the first failing slice, also as its .index.
    """
    rho = np.asarray(rho, dtype=complex)
    tr = np.trace(rho, axis1=-2, axis2=-1)
    pur = np.einsum("...ij,...ji->...", rho, rho)
    _refuse(~np.isfinite(pur), pur, "purity is {:g}, not finite")
    _refuse(np.abs(pur.imag) > 1e-12 * np.maximum(1.0, np.abs(tr)) ** 2, pur.imag,
            "purity has imaginary part {:g}, not a density matrix")
    mean_n = np.real(np.sum(np.arange(rho.shape[-1]) * rho.diagonal(0, -2, -1), axis=-1))
    obs = {"trace": tr, "purity": pur.real, "mean_n": mean_n}
    return {k: v.item() for k, v in obs.items()} if rho.ndim == 2 else obs


def fidelity_pure(psi, rho):
    """<psi|rho|psi> for a pure target, clamped to [0, (1 + 1e-10) c].

    c = max(1, |tr rho|). Raises on dimension mismatch or if the quadratic
    form has imaginary part above 1e-12 c (rho too far from Hermitian).
    rho may be a (..., dim, dim) stack, for an array over its leading axes;
    the error then names the first failing slice, also as its .index.
    """
    psi = np.asarray(psi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (psi.size, psi.size):
        raise ValueError(f"shape mismatch: state {psi.size}, matrix {rho.shape}")
    val = ((psi.conj()[None, None, :] @ rho) @ psi).reshape(rho.shape[:-2])
    c = np.maximum(1.0, np.abs(np.trace(rho, axis1=-2, axis2=-1)))
    _refuse(np.abs(val.imag) > 1e-12 * c, val.imag, "fidelity has imaginary part {:g}")
    out = np.minimum(np.maximum(val.real, 0.0), (1.0 + 1e-10) * c)
    return out.item() if rho.ndim == 2 else out


def husimi_q(rho, alphas):
    """Q function <alpha|rho|alpha> / pi on a list of phase-space points.

    Uses the raw truncated coherent amplitudes (no renormalization): the
    quadrature of Q over all of phase space is then 1 up to truncation
    error, and values at alpha far outside the window decay to zero
    instead of being inflated by renormalization. The points are taken in
    chunks, each one (dim, P) recurrence and one product with rho.
    """
    rho = np.asarray(rho, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    dim = rho.shape[0]
    out = np.empty(len(alphas), dtype=float)
    for part in _chunks(len(alphas), dim):
        c = _coherent_amps(dim, alphas[part])
        out[part] = np.real(np.sum(c.conj() * (rho @ c), axis=0)) / np.pi
    return out
