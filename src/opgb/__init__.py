"""Biorthogonal polynomial sequences from Gram matrix factorizations.

Quasi-definite Gram matrix in, LDU factorization out, and from there monic
biorthogonal families, spectral matrices, Christoffel-Darboux kernels,
Gauss quadrature, classical-weight closed forms, and Christoffel/Geronimus
spectral transformations, all in exact rational arithmetic. Only the Gauss
quadrature nodes and weights are floats; the CLI's float mode and
plot-data round exact results as they write them.
"""

from .biorth import (
    BiorthFamilies,
    SecondKindValues,
    SpectralMatrix,
    abc_kernel,
    build_families,
    cd_kernel,
    eval_poly,
    family_from_measure,
    heine_oracle,
    mixed_cd_kernel,
    second_kind_values,
    spectral_matrix,
    three_term_coeffs,
)
from .classical import (
    PearsonData,
    classical_eigenvalue,
    classical_subdiagonal,
    diff_operator_matrix,
    pearson_data,
)
from .errors import (
    DegenerateDenominator,
    DegenerateRecurrence,
    InsufficientTruncation,
    NonPositive,
    NotCoprime,
    NotHankel,
    NotQuasiDefinite,
    OpgbError,
    PoleAtAtom,
    Refusal,
    SingularBlock,
    SingularJetMatrix,
    SingularTruncation,
    UnsupportedMeasure,
    ZeroAtRoot,
    ZeroDenominator,
)
from .gram import (
    Atom,
    BivariateTable,
    ClassicalWeight,
    DiscreteMeasure,
    cauchy_moments,
    gram_matrix,
    moments_classical,
    moments_discrete,
    parse_measure_spec,
)
from .numlin import Matrix, char_poly, ldu_factorize, schur_complement
from .quad import QuadratureRule, exactness_check, gauss_rule
from .transforms import (
    GeronimusFreeData,
    PolyPerturbation,
    christoffel_gram,
    christoffel_polys_deg1,
    christoffel_polys_general,
    geronimus_gram,
    geronimus_polys_deg1,
    jet,
    linear_spectral,
    markov_transform_check,
)

__version__ = "0.1.0"
