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
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence


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


def hom_laws(table, var: Sequence[int], nvars: int) -> list[list[tuple[int, int, int]]]:
    """The laws h(p ◁ q) = h(p) ◁ h(q) of a source table, filed by last variable.

    ``var[x]`` is the variable that holds h(x).  Entry k lists, as triples
    (var[p], var[q], var[p ◁ q]), the laws whose largest variable is k;
    ``laws_hold`` tests them against a target table.
    """
    filed: list[list[tuple[int, int, int]]] = [[] for _ in range(nvars)]
    for p, row in enumerate(table):
        for q, t in enumerate(row):
            law = (var[p], var[q], var[t])
            filed[max(law)].append(law)
    return filed


def laws_hold(laws, assign, table) -> bool:
    """Whether assign[l] == table[assign[i]][assign[j]] for each triple (i, j, l)."""
    for i, j, l in laws:
        if assign[l] != table[assign[i]][assign[j]]:
            return False
    return True


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
