"""Exact-arithmetic toolkit for quivers with potentials, their dg algebras,
skew group algebras, and Morita-reduced presentations."""

import importlib.util
import sys

__version__ = "0.1.0"

# Each library module and the public names it exports.  Every module sits
# in sys.modules from the start but is compiled only when one of its
# attributes is first read, so a command pays only for the modules it uses.
# cli is left out: ``python -m skewgin.cli`` would find it and run it twice.
_EXPORTS = {
    "errors": "", "linalg": "", "document": "",
    "fields": "Field make_field primitive_root_of_unity",
    "quiver": "AlgElement Arrow GradedQuiver Path basis_up_to",
    "potential": "Potential canonicalize cyclic_derivative cycle_length_of degree_of",
    "ginzburg": "GinzburgPresentation check_d_squared double_quiver jacobian_truncation",
    "groups": "FiniteGroup GroupAlgebra IdempotentSet abelian_idempotents cyclic_group "
              "make_group validate_idempotent_set",
    "action": "QuiverAction extend_to_ginzburg is_potential_invariant validate_action",
    "crossed": "CrossedElement commutator_basis",
    "morita": "MoritaData build_morita certify_reduction check_embedding check_fullness "
              "embed morita_dimension_check orbit_data transport_potential",
    "weyl": "WeylAlgebra bounded_exactness check_sp_equivariance dual_top_concentration "
            "koszul_differential",
}
for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module, importlib, sys

_HOME = {attr: name for name, attrs in _EXPORTS.items() for attr in attrs.split()}
__all__ = ["__version__", *_HOME]


def __getattr__(attr):
    """A public name, read from its module (which loads the module)."""
    if attr not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")
    return getattr(globals()[_HOME[attr]], attr)
