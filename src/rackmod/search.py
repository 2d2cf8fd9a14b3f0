"""The one backtracking search behind every exhaustive search in rackmod.

A search assigns variables 0, 1, ... in index order, each ranging over its
domain in the order given, and tests every constraint once, as soon as its
last variable is assigned; a partial assignment that fails is abandoned with
all its completions (Golomb and Baumert, "Backtrack Programming", 1965).
Constraints are filed by last variable, so each is tested at exactly one
level, and the assignments that come out are exactly the members of the full
product of the domains that pass every constraint, in that product's order.

A domain may also be a function of the assigned prefix that returns the
values of the full domain, in order, that could pass the constraints of its
level: a value it leaves out would have been rejected there anyway.  Where
one constraint determines a variable from earlier ones, its domain is the
one value that constraint allows, and the search tries that value alone
instead of scanning the whole domain (forward checking: Haralick and
Elliott, "Increasing tree search efficiency for constraint satisfaction
problems", Artificial Intelligence 14, 1980).

Every search for homs, isomorphisms and crossed-module morphisms is built
by the two builders here, which return the (domains, test) pair that
``assignments`` takes: ``hom_search`` files the hom laws of one map and
solves the values they force, and ``morphism_search`` joins a search for f1
and one for f0 and files the squares of the morphism (``xmod_squares``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .tables import _check_endpoints


def assignments(
    domains: Sequence[Sequence | Callable[[list], Sequence]],
    holds: Callable[[int, list], bool],
) -> Iterator[tuple]:
    """Every assignment of the product of ``domains`` that passes ``holds``.

    ``holds(k, assign)`` is called once variable k is set to ``assign[k]``
    and tests exactly the constraints whose last variable is k; it may read
    ``assign[0..k]`` only, the later entries being left over from abandoned
    branches.  A callable entry ``domains[k]`` is called with ``assign`` once
    variables 0..k-1 are set, may read ``assign[0..k-1]`` only, and must
    return, in domain order, every value that could pass ``holds`` at k;
    ``holds`` still tests each value it returns.  With no variables the one
    empty assignment ``()`` is yielded.
    """
    n = len(domains)
    assign: list = [None] * n

    def extend(k: int) -> Iterator[tuple]:
        if k == n:
            yield tuple(assign)
            return
        domain = domains[k]
        for v in domain(assign) if callable(domain) else domain:
            assign[k] = v
            if holds(k, assign):
                yield from extend(k + 1)

    return extend(0)


def hom_search(
    dom, cod, var: Sequence[int], nvars: int, allowed: Sequence[Sequence[int]] | None = None
):
    """The domains, by variable, and per-level test of an ``assignments`` search for dom -> cod.

    dom and cod are both pointed racks or both groups; other endpoints raise
    the ``ValueError`` of ``validate_hom``.  Element a is held by variable
    ``var[a]`` and ranges over ``allowed[a]``, an ascending list, or else
    over all of cod; the basepoint's domain is cod's basepoint, if allowed.
    Each law f(p ◁ q) = f(p) ◁ f(q) is filed under its last variable and
    tested there.  A law filed at var[a] can force f(a): if a = p ◁ q with p
    and q set earlier, f(a) = f(p) ◁ f(q); if a = p with q and p ◁ q set
    earlier, f(a) is the one element whose image under cod's column f(q), a
    bijection, is f(p ◁ q).  The domain is then that value, or no value if
    it is not allowed.  Variables that no element of dom holds get the
    domain None.
    """
    _check_endpoints(dom, cod)
    laws: list[list[tuple[int, int, int]]] = [[] for _ in range(nvars)]
    for p, row in enumerate(dom.table):
        for q, t in enumerate(row):
            law = (var[p], var[q], var[t])
            laws[max(law)].append(law)
    yt = cod.table
    # left_of[c][z] is the b with b ◁ c = z
    left_of = [[0] * cod.size for _ in range(cod.size)]
    for b, row in enumerate(yt):
        for c, z in enumerate(row):
            left_of[c][z] = b

    def domain(a: int):
        values = range(cod.size) if allowed is None else allowed[a]
        k, ok = var[a], set(values)
        if a == dom.basepoint:
            return (cod.basepoint,) if cod.basepoint in ok else ()
        for i, j, l in laws[k]:
            if l == k and i < k and j < k:
                return lambda f: (v,) if (v := yt[f[i]][f[j]]) in ok else ()
        for i, j, l in laws[k]:
            if i == k and j < k and l < k:
                return lambda f: (v,) if (v := left_of[f[j]][f[l]]) in ok else ()
        return values

    def holds(k: int, f: list) -> bool:
        for i, j, l in laws[k]:
            if f[l] != yt[f[i]][f[j]]:
                return False
        return True

    domains: list = [None] * nvars
    for a in range(dom.size):
        domains[var[a]] = domain(a)
    return domains, holds


def morphism_search(x, target, var1: Sequence[int], var0: Sequence[int], top, bottom):
    """The domains and per-level test of an ``assignments`` search for x -> target.

    ``top`` and ``bottom`` are the (domains, test) of searches for f1 and f0
    over the same variables, where ``var1[r]`` holds f1(r) and ``var0[s]``
    holds f0(s); each variable takes its domain from the search that holds
    it.  A level passes when both tests pass and the boundary and action
    squares of ``xmod_squares`` filed there commute in target.
    """
    (tops, test1), (bottoms, test0) = top, bottom
    squares = xmod_squares(x, var1, var0, len(tops))
    d, act = target.boundary.map, target.act

    def holds(k: int, f: list) -> bool:
        return test0(k, f) and test1(k, f) and squares_hold(squares[k], f, d, act)

    return [b if b is not None else t for b, t in zip(bottoms, tops)], holds


def xmod_squares(x, var1: Sequence[int], var0: Sequence[int], nvars: int) -> list:
    """The squares of a morphism (f1, f0) out of crossed module x, filed by last variable.

    ``var1[r]`` holds f1(r) and ``var0[s]`` holds f0(s).  Entry k pairs the
    boundary squares d′(f1(r)) = f0(d(r)), as pairs (var1[r], var0[d(r)]),
    with the action squares f1(r.s) = f1(r).f0(s), as triples
    (var1[r], var0[s], var1[r.s]), whose largest variable is k;
    ``squares_hold`` tests them against a target crossed module.
    """
    filed: list[tuple[list, list]] = [([], []) for _ in range(nvars)]
    for r, d in enumerate(x.boundary.map):
        filed[max(var1[r], var0[d])][0].append((var1[r], var0[d]))
        for s in range(x.cod.size):
            square = (var1[r], var0[s], var1[x.act(r, s)])
            filed[max(square)][1].append(square)
    return filed


def squares_hold(squares, assign, d, act) -> bool:
    """Whether filed squares hold in a target with boundary map d and action act.

    That is, d[assign[i]] == assign[j] for each boundary pair (i, j) and
    assign[l] == act(assign[i], assign[j]) for each action triple (i, j, l).
    """
    boundary, action = squares
    for i, j in boundary:
        if d[assign[i]] != assign[j]:
            return False
    for i, j, l in action:
        if assign[l] != act(assign[i], assign[j]):
            return False
    return True
