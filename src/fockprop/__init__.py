"""Closed-form propagators for damped Kerr and parametric down conversion
master equations on a truncated Fock space, plus a brute-force oracle."""

__version__ = "0.1.0"

from .fock import (
    annihilation,
    creation,
    coherent_state,
    cat_state,
    density_from_ket,
    observables,
    fidelity_pure,
    husimi_q,
)
from .superop import (
    SandwichTerm,
    SuperopExpr,
    apply,
    commutator,
    build_liouvillian,
    vec,
    unvec,
    kerr_zero_t_generator,
    kerr_finite_t_generator,
    pdc_generator,
    verify_commutator_table,
)
from .oracle import action_evolve, expm_dense, expm_evolve, rk4_evolve
from .kerr_zero_t import KerrZeroTParams, propagate_kerr_zero_t
from .kerr_finite_t import KerrFiniteTParams, propagate_kerr_finite_t
from .pdc import PDCParams, propagate_pdc
