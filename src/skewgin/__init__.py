"""Exact-arithmetic toolkit for quivers with potentials, their dg algebras,
skew group algebras, and Morita-reduced presentations."""

__version__ = "0.1.0"

from .fields import Field, make_field, primitive_root_of_unity
from .quiver import AlgElement, Arrow, GradedQuiver, Path, basis_up_to
from .potential import (Potential, canonicalize, cyclic_derivative,
                        cycle_length_of, degree_of)
from .ginzburg import (GinzburgPresentation, check_d_squared, double_quiver,
                       jacobian_truncation)
from .groups import (FiniteGroup, GroupAlgebra, IdempotentSet,
                     abelian_idempotents, cyclic_group, make_group,
                     validate_idempotent_set)
from .action import (QuiverAction, extend_to_ginzburg, is_potential_invariant,
                     validate_action)
from .crossed import CrossedElement, commutator_basis
from .morita import (MoritaData, build_morita, certify_reduction,
                     check_embedding, check_fullness, embed,
                     morita_dimension_check, orbit_data, transport_potential)
from .weyl import (WeylAlgebra, bounded_exactness, check_sp_equivariance,
                   dual_top_concentration, koszul_differential)

__all__ = [
    "__version__",
    "Field", "make_field", "primitive_root_of_unity",
    "AlgElement", "Arrow", "GradedQuiver", "Path", "basis_up_to",
    "Potential", "canonicalize", "cyclic_derivative", "cycle_length_of", "degree_of",
    "GinzburgPresentation", "check_d_squared", "double_quiver", "jacobian_truncation",
    "FiniteGroup", "GroupAlgebra", "IdempotentSet", "abelian_idempotents",
    "cyclic_group", "make_group", "validate_idempotent_set",
    "QuiverAction", "extend_to_ginzburg", "is_potential_invariant", "validate_action",
    "CrossedElement", "commutator_basis",
    "MoritaData", "build_morita", "certify_reduction", "check_embedding",
    "check_fullness", "embed", "morita_dimension_check", "orbit_data",
    "transport_potential",
    "WeylAlgebra", "bounded_exactness", "check_sp_equivariance",
    "dual_top_concentration", "koszul_differential",
]
