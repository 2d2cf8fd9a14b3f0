"""The one backtracking search behind every exhaustive search in rackmod.

A search assigns variables 0, 1, ... in index order, each ranging over its
domain in the order given, and tests every constraint once, as soon as its
last variable is assigned; a partial assignment that fails is abandoned with
all its completions (Golomb and Baumert, "Backtrack Programming", 1965).
Constraints are filed by last variable, so each is tested at exactly one
level, and the assignments that come out are exactly the members of the full
product of the domains that pass every constraint, in that product's order.
The search is a loop over a stack of one domain iterator per level, not a
chain of recursive generators, so it has no depth limit: any number of
variables can be searched.

A domain may also be a function of the assigned prefix that returns the
values of the full domain, in order, that could pass the constraints of its
level: a value it leaves out would have been rejected there anyway.  Where
one constraint determines a variable from earlier ones, its domain is the
one value that constraint allows, and the search tries that value alone
instead of scanning the whole domain (forward checking: Haralick and
Elliott, "Increasing tree search efficiency for constraint satisfaction
problems", Artificial Intelligence 14, 1980).

Every search for homs between racks or groups, isomorphisms and
crossed-module morphisms is built by the two builders here, which return
the (domains, test) pair that ``assignments`` takes: ``hom_search`` files
the hom laws of one map and solves the values they force, and
``morphism_search`` joins a search for f0 and one for f1, in one layout (f0
first, then f1), and files the boundary and action squares of the
morphism.  Two searches file their own constraints instead:
``functors._presented_hom_search`` files the relators of a presentation,
and ``isomorphism.enumerate_pointed_racks`` files the self-distributivity
triples of a table built column by column.
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
    empty assignment ``()`` is yielded.  When every domain ascends, the
    assignments come out in lexicographic order.

    The search is a loop over a stack of one domain iterator per level, so
    the number of variables is not limited by Python's recursion depth.
    """
    n = len(domains)
    assign: list = [None] * n
    if not n:
        yield ()
        return
    last = n - 1
    # values[k]: the iterator over the values of variable k not yet tried
    values: list = [None] * n
    domain = domains[0]
    values[0] = iter(domain(assign) if callable(domain) else domain)
    k = 0
    while k >= 0:
        for v in values[k]:
            assign[k] = v
            if holds(k, assign):
                break
        else:
            k -= 1
            continue
        if k == last:
            yield tuple(assign)
        else:
            k += 1
            domain = domains[k]
            values[k] = iter(domain(assign) if callable(domain) else domain)


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


def morphism_search(x, target, top, bottom):
    """The domains and per-level test of an ``assignments`` search for x -> target.

    Variables 0..|x.cod|-1 hold f0 and the rest hold f1: f0(s) is variable
    s and f1(r) is variable |x.cod| + r.  ``top`` and ``bottom`` build the
    searches for f1 and f0: each is called as ``(var, nvars)`` and returns
    its (domains, test) over all the variables, and each variable takes its
    domain from the search that holds it.  A level passes when both tests
    pass and the squares filed there commute in target: the boundary square
    d′(f1(r)) = f0(d(r)) at f1(r), and the action square
    f1(r.s) = f1(r).f0(s) at the later of f1(r) and f1(r.s).
    """
    ns = x.cod.size
    n = ns + x.dom.size
    bottoms, test0 = bottom(range(ns), n)
    tops, test1 = top(range(ns, n), n)
    # action[k]: the (f1(r), f0(s), f1(r.s)) variables of the squares filed at k
    action: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for r in x.dom.elements():
        for s in range(ns):
            rs = ns + x.act(r, s)
            action[max(ns + r, rs)].append((ns + r, s, rs))
    dx, d, act = x.boundary.map, target.boundary.map, target.action

    def holds(k: int, f: list) -> bool:
        if not (test0(k, f) and test1(k, f)):
            return False
        if k >= ns and d[f[k]] != f[dx[k - ns]]:
            return False
        for i, j, l in action[k]:
            if f[l] != act[f[i]][f[j]]:
                return False
        return True

    return bottoms[:ns] + tops[ns:], holds
