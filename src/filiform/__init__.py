"""Exact-arithmetic toolkit for nilpotent and filiform Lie algebras.

All computations run over exact rationals (or the rational-function field
Q(alpha) for one-parameter families): structure constants, Chevalley-
Eilenberg cohomology with its weight bigrading, the classification of
N-graded filiform algebras by iterated central extensions, symplectic and
contact structure detection with certificates, and the spectral sequence of
the weight filtration that decides whether a filtered deformation is
symplectic.
"""

from .catalog import (GuardViolated, NoPrintedForm, build, family_symbolic,
                      form_g8_symplectic, form_g10_symplectic,
                      form_m0_symplectic, form_omega, form_v_symplectic,
                      printed_form)
from .cochain import (CohomologyBlock, Form, NotCocycle, WeightsMissing,
                      betti_numbers, coboundary_space, cohomology,
                      d_squared_zero, differential, is_cohomologous,
                      lambda_basis)
from .extensions import (CenterNotOneDimensional, ExtensionCocycle,
                         GradedIsoClass, NotGradedFiliform, central_extension,
                         classify_graded, enumerate_graded_filiform,
                         family_parameter_match, graded_isomorphic,
                         is_filiform_extension, quotient_by_extension)
from .lie import (AdaptedBasis, AlphaNonzero, Filtration, LieAlgebra,
                  NotFiliform, NotNilpotent, abelian, adapted_basis,
                  adapted_filtration, center, central_filtration,
                  central_series, change_basis, direct_sum, gr_c, gr_l,
                  grading_violations, is_filiform, is_nilpotent, jacobi_check,
                  m0_certificate, nil_index, vergne_class)
from .linalg import Matrix, Subspace, kernel_basis
from .spectral import (FiltrationUndefined, SpectralPage, SurvivalVerdict,
                       build_pages, canonical_block_representative,
                       h3_weight_profile, symplectic_survival)
from .structures import (ContactCertificate, EvenDimension, NotSymplectic,
                         OddDimension, SymplecticCertificate, contact_check,
                         contact_exists, contactize, homogeneous_decomposition,
                         is_symplectic_form, symplectic_catalog_check,
                         symplectic_exists, wedge_power)

__all__ = [
    "AdaptedBasis", "AlphaNonzero", "CenterNotOneDimensional",
    "CohomologyBlock", "ContactCertificate", "EvenDimension",
    "ExtensionCocycle", "Filtration", "FiltrationUndefined", "Form",
    "GradedIsoClass", "GuardViolated", "LieAlgebra", "Matrix",
    "NoPrintedForm", "NotCocycle", "NotFiliform", "NotGradedFiliform",
    "NotNilpotent", "NotSymplectic", "OddDimension", "SpectralPage",
    "Subspace", "SurvivalVerdict", "SymplecticCertificate", "WeightsMissing",
    "abelian", "adapted_basis", "adapted_filtration", "betti_numbers",
    "build", "build_pages", "canonical_block_representative", "center",
    "central_extension", "central_filtration", "central_series",
    "change_basis", "classify_graded", "coboundary_space", "cohomology",
    "contact_check", "contact_exists", "contactize", "d_squared_zero",
    "differential", "direct_sum", "enumerate_graded_filiform",
    "family_parameter_match", "family_symbolic", "form_g10_symplectic",
    "form_g8_symplectic", "form_m0_symplectic", "form_omega",
    "form_v_symplectic", "gr_c", "gr_l", "graded_isomorphic",
    "grading_violations", "h3_weight_profile", "homogeneous_decomposition",
    "is_cohomologous", "is_filiform", "is_filiform_extension",
    "is_nilpotent", "is_symplectic_form", "jacobi_check", "kernel_basis",
    "lambda_basis", "m0_certificate", "nil_index", "printed_form",
    "quotient_by_extension",
    "symplectic_catalog_check", "symplectic_exists", "symplectic_survival",
    "vergne_class", "wedge_power",
]
