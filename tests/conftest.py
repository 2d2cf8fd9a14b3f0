import pytest

from rackmod import corpus, functors


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


def _shared_leaves(check, x, g):
    """What ``check(x, g)`` counts, kept: every leaf that both sides reach, sorted.

    ``check`` is ``check_adjunction_bijection`` or ``check_xmod_adjunction``.
    The walk of both sides is recorded as it passes, unchanged; a leaf is
    read by element through the solving order of x's presentation (a hom),
    or as (f1, f0) (a crossed-module pair).  The count the check returns must
    be the number of leaves recorded.
    """
    real = functors._both_sides
    leaves = []

    def recording(*args):
        for f, sides in real(*args):
            if sides == (True, True):
                leaves.append(f)
            yield f, sides

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functors, "_both_sides", recording)
        count = check(x, g)
    if check is functors.check_xmod_adjunction:
        ns = x.cod.size
        shared = sorted((f[ns:], f[:ns]) for f in leaves)
    else:
        var = functors._solving_order(functors.as_presentation(x))
        shared = sorted(tuple(map(f.__getitem__, var)) for f in leaves)
    assert count == len(shared)
    return tuple(shared)


@pytest.fixture(scope="session")
def shared_leaves():
    """``shared_leaves(check, x, g)``: the sorted maps or pairs that an
    adjunction check counts, with its count checked against them."""
    return _shared_leaves
