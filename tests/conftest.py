from itertools import combinations, product

import pytest

from rackmod import (
    FiniteGroup,
    Hom,
    XMod,
    corpus,
    enumerate_pointed_racks,
    enumerate_xmod_morphisms,
    functors,
    identity_hom,
    is_normal_subrack,
    validate_group,
    validate_hom,
    validate_rack,
    validate_xmod,
)


@pytest.fixture(scope="session")
def racks():
    return corpus.racks()


@pytest.fixture(scope="session")
def groups():
    return corpus.groups()


@pytest.fixture(scope="session")
def rack_homs():
    return corpus.rack_homs()


@pytest.fixture(scope="session")
def group_homs():
    return corpus.group_homs()


@pytest.fixture(scope="session")
def rack_xmods():
    return corpus.rack_xmods()


@pytest.fixture(scope="session")
def group_xmods():
    return corpus.group_xmods()


@pytest.fixture(scope="session")
def adjunction_pairs():
    """Every pointed rack of order <= 3 against each of four groups."""
    g = corpus.groups()
    small = [rk for n in (1, 2, 3) for rk in enumerate_pointed_racks(n)]
    return tuple(
        (f"rack{rk.size}.{i}/{gname}", rk, g[gname])
        for i, rk in enumerate(small)
        for gname in ("z2", "z3", "z4", "s3")
    )


@pytest.fixture(scope="session")
def xmod_adjunction_pairs():
    """Every (crossed module of racks, crossed module of groups) pair of the corpus."""
    return tuple(
        (f"{xname}/{gname}", x, g)
        for xname, x in corpus.rack_xmods().items()
        for gname, g in corpus.group_xmods().items()
    )


@pytest.fixture(scope="session")
def preimage_cases():
    """(name, N, R, phi): every corpus rack hom phi: S -> R with every normal
    subrack N of R."""
    cases = []
    for hname, phi in corpus.rack_homs().items():
        r = phi.cod
        for k in range(1, r.size + 1):
            for subset in combinations(r.elements(), k):
                if r.basepoint in subset and is_normal_subrack(subset, r).ok:
                    cases.append((f"{subset}<-{hname}", subset, r, phi))
    return tuple(cases)


@pytest.fixture(scope="session")
def functor_law_cases():
    """(name, m1, m2, phi): every composable pair of base-fixing morphisms
    between corpus crossed modules over one base, of both kinds, from
    ``enumerate_xmod_morphisms``, with every corpus hom phi into the base."""
    cases = []
    for xmods, homs in (
        (corpus.rack_xmods(), corpus.rack_homs()),
        (corpus.group_xmods(), corpus.group_homs()),
    ):
        fixing = {
            (a, b): [
                m for m in enumerate_xmod_morphisms(x, y) if m.f0 == identity_hom(x.cod)
            ]
            for a, x in xmods.items()
            for b, y in xmods.items()
            if x.cod == y.cod
        }
        for (a, b), firsts in fixing.items():
            for (b2, c), seconds in fixing.items():
                if b2 != b:
                    continue
                for (i, m1), (j, m2) in product(enumerate(firsts), enumerate(seconds)):
                    for hname, phi in homs.items():
                        if phi.cod == m1.src.cod:
                            cases.append((f"{a}.{i}->{b}.{j}->{c}<-{hname}", m1, m2, phi))
    return tuple(cases)


def _shared_leaves(check, x, g):
    """What ``check(x, g)`` counts, kept: every leaf that both sides reach, sorted.

    ``check`` is ``check_adjunction_bijection`` or ``check_xmod_adjunction``.
    The check must pass exactly one pair of domain lists, the rack side's
    first, to ``_count_shared_leaves``, which counts without making any
    leaf; the pair is recorded, and here each list is searched by
    ``assignments`` on its own.  Each stream must be strictly increasing.
    A shared leaf is one in both streams, read by element through the
    solving order of x's presentation (a hom), or as (f1, f0) (a
    crossed-module pair).  The count the check returns must be the number
    of shared leaves.
    """
    real = functors._count_shared_leaves
    sides = []

    def recording(rack, presented, *rest):
        sides.append((rack, presented))
        return real(rack, presented, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functors, "_count_shared_leaves", recording)
        count = check(x, g)
    assert len(sides) == 1, "one pair of sides"
    assert len({len(domains) for domains in sides[0]}) == 1, "two sides over one set of variables"
    streams = [list(functors.assignments(domains)) for domains in sides[0]]
    for leaves in streams:
        assert all(a < b for a, b in zip(leaves, leaves[1:])), "a stream out of order"
    rack, presented = streams
    leaves = set(rack) & set(presented)
    if check is functors.check_xmod_adjunction:
        ns = x.cod.size
        shared = sorted((f[ns:], f[:ns]) for f in leaves)
    else:
        var = functors._solving_order(functors._law_letters(x), x.size)
        shared = sorted(tuple(map(f.__getitem__, var)) for f in leaves)
    assert count == len(shared)
    return tuple(shared)


@pytest.fixture(scope="session")
def shared_leaves():
    """``shared_leaves(check, x, g)``: the sorted maps or pairs that an
    adjunction check counts, with its count checked against them."""
    return _shared_leaves


def _relabel(x, perm, cod_perm=None):
    """x carried along permutations: a rack or a group along ``perm``, a hom
    or a crossed module along ``perm`` on its domain and ``cod_perm`` on its
    codomain.  Labels are dropped."""
    inv = [perm.index(i) for i in range(len(perm))]
    if isinstance(x, Hom):
        dom, cod = _relabel(x.dom, perm), _relabel(x.cod, cod_perm)
        return validate_hom(dom, cod, [cod_perm[x.map[a]] for a in inv])
    if isinstance(x, XMod):
        cod_inv = [cod_perm.index(s) for s in range(len(cod_perm))]
        action = [[perm[x.act(r, s)] for s in cod_inv] for r in inv]
        return validate_xmod(_relabel(x.boundary, perm, cod_perm), action)
    table = [[perm[x.table[inv[a]][inv[b]]] for b in range(x.size)] for a in range(x.size)]
    validate = validate_group if isinstance(x, FiniteGroup) else validate_rack
    return validate(table, perm[x.basepoint])


@pytest.fixture(scope="session")
def relabel():
    """``relabel(x, perm, cod_perm=None)``: a rack, group, hom or crossed
    module carried along permutations of its elements."""
    return _relabel
