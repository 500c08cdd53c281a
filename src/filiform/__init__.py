"""Exact-arithmetic toolkit for nilpotent and filiform Lie algebras.

All computations run over exact rationals (or the rational-function field
Q(alpha) for one-parameter families): structure constants, Chevalley-
Eilenberg cohomology with its weight bigrading, the classification of
N-graded filiform algebras by iterated central extensions, symplectic and
contact structure detection with certificates, and the spectral sequence of
the weight filtration that decides whether a filtered deformation is
symplectic.

The package root exports the names of the README quick start; everything
else is imported from its module (``filiform.lie``, ``filiform.spectral``,
...).
"""

from .catalog import build
from .cochain import cohomology
from .extensions import enumerate_graded_filiform
from .structures import symplectic_exists

__all__ = ["build", "cohomology", "enumerate_graded_filiform", "symplectic_exists"]
