"""Biorthogonal polynomial sequences from Gram matrix factorizations.

Quasi-definite Gram matrix in, LDU factorization out, and from there monic
biorthogonal families, spectral matrices, Christoffel-Darboux kernels,
Gauss quadrature, classical-weight closed forms, and Christoffel/Geronimus
spectral transformations, all in exact rational arithmetic. Only the Gauss
quadrature nodes and weights are floats; the CLI's float mode and
plot-data round exact results as they write them.

Every public name below is resolved on its first access, through one name
-> module table and a module __getattr__ (PEP 562): `import opgb` loads no
submodule, and a process imports only the modules its code reaches.
"""

import importlib

_PUBLIC = {
    "biorth": (
        "BiorthFamilies", "SecondKindValues", "SpectralMatrix", "abc_kernel", "build_families",
        "cd_kernel", "eval_poly", "family_from_measure", "heine_oracle", "mixed_cd_kernel",
        "second_kind_values", "spectral_matrix", "three_term_coeffs",
    ),
    "classical": (
        "PearsonData", "classical_eigenvalue", "classical_subdiagonal", "diff_operator_matrix",
        "pearson_data",
    ),
    "errors": (
        "DegenerateDenominator", "DegenerateRecurrence", "InsufficientTruncation", "NonPositive",
        "NotCoprime", "NotHankel", "NotQuasiDefinite", "OpgbError", "PoleAtAtom", "Refusal",
        "SingularBlock", "SingularJetMatrix", "SingularTruncation", "UnsupportedMeasure",
        "ZeroAtRoot", "ZeroDenominator",
    ),
    "gram": (
        "Atom", "BivariateTable", "ClassicalWeight", "DiscreteMeasure", "cauchy_moments",
        "gram_matrix", "moments_classical", "moments_discrete", "parse_measure_spec",
    ),
    "numlin": ("Matrix", "char_poly", "ldu_factorize", "schur_complement"),
    "quad": ("QuadratureRule", "exactness_check", "gauss_rule"),
    "transforms": (
        "GeronimusFreeData", "PolyPerturbation", "christoffel_gram", "christoffel_polys_deg1",
        "christoffel_polys_general", "geronimus_gram", "geronimus_polys_deg1", "jet",
        "linear_spectral", "markov_transform_check",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that defines a public name, and keep the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
