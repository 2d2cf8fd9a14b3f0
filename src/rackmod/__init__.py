"""Finite pointed racks, crossed modules over them, and certified pullbacks.

Everything is table-based and exhaustively validated: constructors return
frozen dataclasses whose defining laws have been checked on every tuple of
elements, and the certification entry points (universal properties, hom-set
bijections, conjugation versus pullback) work by full enumeration with
typed, witness-carrying failures.

Racks and groups share one hom type (``Hom``), one crossed-module type
(``XMod``) with one validator (``validate_xmod``), one crossed-module
morphism type (``XModMorphism``), one pullback (``pullback_xmod``) and one
universal-property certificate; each object knows its kind from its
domain, and only the law families are kept apart.
"""

from .errors import (
    AxiomError,
    BijectionFail,
    BoundExceeded,
    ConstructionFail,
    NoIsomorphismFound,
    NotAMorphism,
    ParseError,
    RackAlgebraError,
    ResultNotRack,
    UniquenessFail,
)
from .functors import (
    Presentation,
    as_presentation,
    check_adjunction_bijection,
    check_xmod_adjunction,
    enumerate_homs,
    enumerate_presented_homs,
    evaluate_word,
)
from .groups import (
    FiniteGroup,
    conjugacy_classes,
    cyclic_group,
    symmetric_group_3,
    validate_group,
)
from .isomorphism import (
    all_isomorphisms,
    enumerate_pointed_racks,
    find_isomorphism,
)
from .pullback import (
    FiberProduct,
    PullbackXMod,
    UniversalityCertificate,
    check_conj_preserves_pullback,
    fiber_product,
    fiber_product_xmod,
    mediating_morphism,
    pullback_on_morphisms,
    pullback_xmod,
    verify_universal_property,
)
from .racks import (
    FiniteRack,
    NormalityCheck,
    UnpointedRack,
    adjoin_basepoint,
    conj_hom,
    conj_rack,
    constant_rack_hom,
    core_rack,
    is_normal_subrack,
    kernel,
    product_projections,
    product_rack,
    rack_orbits,
    substructure,
    trivial_rack,
    validate_rack,
    validate_unpointed_rack,
)
from .tables import FiniteStructure, Hom, compose_homs, identity_hom, validate_hom
from .xmod import (
    RackAction,
    XMod,
    XModMorphism,
    compose_xmod_morphisms,
    conj_xmod,
    conj_xmod_morphism,
    conjugation_action,
    enumerate_xmod_morphisms,
    hemi_semidirect,
    identity_xmod,
    identity_xmod_morphism,
    inclusion_xmod,
    trivial_action,
    validate_action,
    validate_xmod,
    validate_xmod_morphism,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
