"""Exact-arithmetic branching rules and K-type bookkeeping for the
Spin(8)-type dual pairs, with an independent character-theoretic oracle.

``import liedual`` loads no submodule: each public name below is imported
from its module on first access (PEP 562) and then cached here, so a
command line that never reads ``minrep`` or ``theta`` never loads them.
"""

from __future__ import annotations

import importlib

#: Each submodule and the public names it defines.
_MODULE_EXPORTS = {
    "lattice": (
        "BudgetExceededError",
        "GroupSpec",
        "NegativeMultiplicityError",
        "RootSystem",
        "Weight",
        "build_root_system",
        "dominant_conjugate",
        "group",
        "make_weight",
        "weyl_orbit_size",
    ),
    "charalg": (
        "FormalCharacter",
        "InfChar",
        "dimension",
        "infinitesimal_character",
        "tensor_decompose",
        "weight_multiplicities",
    ),
    "branching": (
        "CATALOG",
        "BranchResult",
        "EmbeddingMap",
        "restrict_generic",
    ),
    "rules": (
        "branch_so5_to_so3so2",
        "branch_sp2_to_su2su2",
        "branch_sp4_to_sp2sp2",
        "branch_spin10_halfspin_to_spin8u1",
        "branch_su6_omega3_to_sp2su2u1",
        "branch_su6_omega3_to_sp3",
        "verify_rule",
    ),
    "minrep": (
        "GradedCharacter",
        "MultiplicitySeries",
        "NotCoveredError",
        "dualpair_graded",
        "ktype_multiplicity",
        "minrep_levels",
        "multiplicity_series",
        "sign_first_appearance",
        "so3_invariants",
        "verify_series",
    ),
    "theta": (
        "TorusCharacterData",
        "compare_ps_vs_stabilized",
        "infchar_lift",
        "infchar_symmetric_form",
        "lemma_infchar_consistency",
        "minrep_multiplicity_quasisplit",
        "ps_multiplicity_quasisplit",
        "ps_multiplicity_split",
        "torus_character",
        "verify_table",
    ),
}

#: Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
