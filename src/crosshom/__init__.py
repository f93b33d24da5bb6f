"""Exact-arithmetic toolkit for crossed homomorphisms between Lie algebras.

Verifies and computes with the algebraic structures surrounding a crossed
homomorphism H: g -> h over an action by derivations: induced actions,
semidirect products, Lie-Rinehart algebras and Leibniz pairs with their weak
and admissible representations, the tensor-module (Shen-Larsson) functors on
Witt-type algebras, and the cohomology controlling linear deformations.
All arithmetic is exact over the rationals.

Submodules load on first use (PEP 562): `import crosshom` imports none of
them, and `crosshom.Matrix` or `crosshom.witt` imports only the submodule
that defines it, and what that submodule imports.
"""

import importlib

# The package's names, by the submodule that defines them.
_EXPORTS_BY_SUBMODULE = {
    "errors": (
        "DimensionMismatch",
        "IndexOutOfRange",
        "InvalidPair",
        "InvariantError",
        "MalformedP",
        "NotAction",
        "NotCommuting",
        "NotCrossedHom",
        "NotDerivation",
        "NotNijenhuis",
        "ParseError",
        "SearchSpaceTooLarge",
        "ShapeError",
        "SingularMatrix",
        "ToolkitError",
    ),
    "linalg": ("Matrix", "Rational", "Vector", "invert", "kernel_basis", "kron", "rank"),
    "liealg": (
        "CrossedHom",
        "FinLieAlgebra",
        "LieAction",
        "Setup",
        "abelian",
        "adjoint_action",
        "check_action",
        "check_crossed_hom",
        "check_hom_pair",
        "check_lie_algebra",
        "gl_algebra",
        "heisenberg",
        "induced_action",
        "lie_algebra",
        "semidirect",
        "sl2",
        "solve_crossed_homs_grid",
        "twist_iso_check",
        "two_dim_nonabelian",
        "zero_action",
    ),
    "witt": (
        "FinCommAlgebra",
        "GlLaurent",
        "LaurentPoly",
        "VTensorA",
        "Window",
        "WittElem",
        "canonical_crossed_hom_GW",
        "canonical_crossed_hom_W",
        "crossed_hom_pq",
        "divergence",
        "generalized_witt",
        "generalized_witt_setup",
        "gl_tensor_algebra",
        "hamiltonian_field",
        "s_generator",
        "truncated_polynomial_algebra",
        "verify_witt_crossed_hom",
        "witt_bracket",
    ),
    "rinehart": (
        "AModuleStructure",
        "GlnRep",
        "LeibnizPair",
        "LieRinehart",
        "action_lie_rinehart",
        "adjoint_rep_gl",
        "boxplus_pullback",
        "check_admissible_rep",
        "check_leibniz_pair",
        "check_lie_rinehart",
        "check_module_axiom_window",
        "check_weak_compat_window",
        "check_weak_rep",
        "natural_rep_gl",
        "shen_larsson_apply",
        "tensor_rep",
        "trivial_rep",
        "twisting_pq",
    ),
    "cohomology": (
        "Cochain",
        "CohomologyReport",
        "ce_differential",
        "check_linear_deformation",
        "check_nijenhuis",
        "cochain_map_phi",
        "cohomology_dims",
        "derived_bracket",
        "mc_residual",
        "nijenhuis_grid",
        "plain_differential",
        "sign_relation_check",
        "trivial_deformation_generator",
    ),
}
_SUBMODULE_OF = {name: sub for sub, names in _EXPORTS_BY_SUBMODULE.items() for name in names}
_SUBMODULES = (*_EXPORTS_BY_SUBMODULE, "cli", "formats", "poly", "report")

__all__ = list(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
