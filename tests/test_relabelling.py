"""Counts and verdicts of the exhaustive searches do not depend on how the
elements of their inputs are numbered.

Each input is carried along a permutation that fixes its basepoint, or its
identity, and the search must count the same maps, or pass the same way.
A pruning that depended on the order of the elements would show here at
sizes that the unpruned oracles cannot reach.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from rackmod import (
    XMod,
    check_adjunction_bijection,
    check_xmod_adjunction,
    corpus,
    enumerate_xmod_morphisms,
    identity_xmod_morphism,
    pullback_xmod,
    verify_universal_property,
)

# CATALOG[name]: every catalog rack, group and crossed module, by a name
# that says its kind
CATALOG = {
    f"{kind} {name}": x
    for kind, catalog in (
        ("rack", corpus.racks()),
        ("group", corpus.groups()),
        ("rack-xmod", corpus.rack_xmods()),
        ("group-xmod", corpus.group_xmods()),
    )
    for name, x in catalog.items()
}
RACKS, GROUPS, RACK_XMODS, GROUP_XMODS = (
    sorted(name for name in CATALOG if name.split()[0] == kind)
    for kind in ("rack", "group", "rack-xmod", "group-xmod")
)
REQUESTS = corpus.pullback_instances() + corpus.conj_preservation_instances()


def fixing(x, data):
    """A permutation of the elements of the rack or group x that fixes its
    basepoint or identity."""
    b = x.basepoint
    rest = data.draw(st.permutations([a for a in x.elements() if a != b]))
    return rest[:b] + [b] + rest[b:]


def relabelled(x, data, relabel):
    """The rack, group or crossed module x along permutations that fix
    basepoints."""
    if isinstance(x, XMod):
        return relabel(x, fixing(x.dom, data), fixing(x.cod, data))
    return relabel(x, fixing(x, data))


@cache
def _count(check, x_name, g_name):
    """``check`` of two catalog entries, named in ``CATALOG``, computed once."""
    return check(CATALOG[x_name], CATALOG[g_name])


@cache
def _search_space(name):
    """The search space of the universal property of the request ``name``."""
    _, source, phi = next(request for request in REQUESTS if request[0] == name)
    pb = pullback_xmod(source, phi)
    return verify_universal_property(pb, pb).search_space


def _morphisms(x, y):
    return len(enumerate_xmod_morphisms(x, y))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(RACKS), st.sampled_from(GROUPS), st.data())
def test_the_adjunction_count_is_invariant(relabel, x_name, g_name, data):
    x, g = (relabelled(CATALOG[name], data, relabel) for name in (x_name, g_name))
    assert check_adjunction_bijection(x, g) == _count(check_adjunction_bijection, x_name, g_name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(RACK_XMODS), st.sampled_from(GROUP_XMODS), st.data())
def test_the_xmod_adjunction_count_is_invariant(relabel, x_name, g_name, data):
    x, g = (relabelled(CATALOG[name], data, relabel) for name in (x_name, g_name))
    assert check_xmod_adjunction(x, g) == _count(check_xmod_adjunction, x_name, g_name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([RACK_XMODS, GROUP_XMODS]), st.data())
def test_the_number_of_xmod_morphisms_is_invariant(relabel, catalog, data):
    """Crossed modules of one kind, both of racks or both of groups."""
    names = [data.draw(st.sampled_from(catalog)) for _ in range(2)]
    x, y = (relabelled(CATALOG[name], data, relabel) for name in names)
    assert _morphisms(x, y) == _count(_morphisms, *names)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(REQUESTS), st.data())
def test_the_universal_property_passes_on_relabelled_requests(relabel, instance, data):
    """The crossed module d: P -> R and the hom phi: S -> R share the
    permutation of R, so the pullback is still defined.  The property
    passes, with the identity as the mediating morphism, over as many set
    maps as before relabelling."""
    name, source, phi = instance
    on_r = fixing(source.cod, data)
    pb = pullback_xmod(
        relabel(source, fixing(source.dom, data), on_r), relabel(phi, fixing(phi.dom, data), on_r)
    )
    cert = verify_universal_property(pb, pb)
    assert cert.mediating == identity_xmod_morphism(pb.src), name
    assert cert.search_space == _search_space(name), name
