"""Finite pointed racks, crossed modules over them, and certified pullbacks.

Everything is table-based and exhaustively validated: constructors return
frozen dataclasses whose defining laws have been checked on every tuple of
elements, and the certification entry points (universal properties, hom-set
bijections, conjugation versus pullback) work by full enumeration with
typed, witness-carrying failures.

Racks and groups share one hom type (``Hom``), one crossed-module morphism
type (``XModMorphism``), one pullback result and one universal-property
certificate; the rack- and group-specific names are aliases of these.
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
    AdjunctionReport,
    HomSet,
    Presentation,
    XModAdjunctionReport,
    as_presentation,
    check_adjunction_bijection,
    check_xmod_adjunction,
    enumerate_presented_homs,
    enumerate_rack_homs,
    evaluate_word,
    presentation_to_text,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    compose_group_homs,
    conjugacy_classes,
    cyclic_group,
    identity_group_hom,
    subgroup,
    symmetric_group_3,
    validate_group,
    validate_group_hom,
)
from .isomorphism import (
    all_isomorphisms,
    enumerate_pointed_racks,
    find_isomorphism,
    rack_automorphisms,
)
from .pullback import (
    ConjPreservationReport,
    FiberProduct,
    GroupPullbackXMod,
    GroupUniversalityCertificate,
    PullbackXMod,
    UniversalityCertificate,
    check_conj_preserves_pullback,
    fiber_product,
    fiber_product_xmod,
    group_pullback_xmod,
    mediating_morphism,
    pullback_on_morphisms,
    pullback_xmod,
    verify_group_universal_property,
    verify_universal_property,
)
from .racks import (
    FiniteRack,
    Kernel,
    NormalityCheck,
    RackHom,
    UnpointedRack,
    adjoin_basepoint,
    compose_rack_homs,
    conj_hom,
    conj_rack,
    constant_rack_hom,
    core_rack,
    identity_rack_hom,
    inclusion_rack_hom,
    is_normal_subrack,
    kernel,
    product_projections,
    product_rack,
    rack_orbits,
    restrict_rack,
    trivial_rack,
    validate_rack,
    validate_rack_hom,
    validate_unpointed_rack,
)
from .tables import FiniteStructure, Hom, compose_homs, identity_hom, validate_hom
from .xmod import (
    GroupXMod,
    GroupXModMorphism,
    RackAction,
    RackXMod,
    RackXModMorphism,
    XModMorphism,
    compose_group_xmod_morphisms,
    compose_xmod_morphisms,
    conj_xmod,
    conj_xmod_morphism,
    conjugation_action,
    find_xmod_isomorphism,
    hemi_semidirect,
    identity_group_xmod,
    identity_xmod,
    identity_xmod_morphism,
    inclusion_group_xmod,
    inclusion_xmod,
    trivial_action,
    validate_action,
    validate_group_xmod,
    validate_group_xmod_morphism,
    validate_rack_xmod,
    validate_xmod_morphism,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
