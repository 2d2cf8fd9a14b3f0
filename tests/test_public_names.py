"""One name per public object: racks and groups share their types and
functions under the canonical names, with no rack- or group-side aliases,
the crossed-module law families are bound only in ``rackmod.xmod``, and
the uncalled crossed-module isomorphism search and the law-filing helpers
that ``rackmod.search``'s two builders replaced are gone, and so are the
adjunction report classes, now that both checks return one count, the
presentation text format that nothing wrote or read, and the rack and group
copies of the substructure functions that ``substructure`` and
``inclusion_xmod`` replaced, and the conj-preservation report, now that the
check returns its comparison morphism, and the pullback and fibre-product
records and the error for a cone that is not a morphism, now that a
pullback is its crossed-module morphism, a fibre product its two
projections, and a cone arrives as a validated morphism."""

import pkgutil
from importlib import import_module

import rackmod

REMOVED = (
    "RackHom",
    "GroupHom",
    "validate_rack_hom",
    "validate_group_hom",
    "identity_rack_hom",
    "identity_group_hom",
    "compose_rack_homs",
    "compose_group_homs",
    "RackXMod",
    "GroupXMod",
    "RackXModMorphism",
    "GroupXModMorphism",
    "validate_group_xmod_morphism",
    "compose_group_xmod_morphisms",
    "group_pullback_xmod",
    "GroupPullbackXMod",
    "GroupUniversalityCertificate",
    "verify_group_universal_property",
    "identity_group_xmod",
    "find_xmod_isomorphism",
    "hom_laws",
    "laws_hold",
    "xmod_squares",
    "squares_hold",
    "AdjunctionReport",
    "XModAdjunctionReport",
    "presentation_to_text",
    "restrict_rack",
    "inclusion_rack_hom",
    "subgroup",
    "inclusion_group_xmod",
    "Kernel",
    "ConjPreservationReport",
    "enumerate_rack_homs",
    "HomSet",
    "rack_automorphisms",
    "PullbackXMod",
    "FiberProduct",
    "NotAMorphism",
)
# The two law families of validate_xmod, kept by name in rackmod.xmod alone.
XMOD_LAWS = ("validate_rack_xmod", "validate_group_xmod")


def test_no_public_object_is_bound_under_two_names():
    names: dict[int, list[str]] = {}
    for name in rackmod.__all__:
        names.setdefault(id(getattr(rackmod, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


def test_the_alias_names_are_gone_from_every_module():
    modules = [rackmod] + [
        import_module(f"rackmod.{info.name}") for info in pkgutil.iter_modules(rackmod.__path__)
    ]
    assert len(modules) > 10
    for module in modules:
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__
        if module.__name__ != "rackmod.xmod":
            assert [name for name in XMOD_LAWS if hasattr(module, name)] == [], module.__name__
