"""Associated-group presentations and hom-set comparisons.

A finite pointed rack X presents a group on one generator per element, with
one relator y^-1 x^-1 y (x ◁ y) for every ordered pair and one extra relator
killing the basepoint generator.  The presented group is never materialized;
its homs into a finite group G are exactly the generator assignments under
which every relator dies, and those coincide, as assignments, with the
pointed rack homs X -> Conj(G).  The checks here verify that coincidence
literally, as an equality of assignment sets, and return its one count: a
map in both sets is counted, not kept, and only a map that one side alone
finds is turned into a witness.

A relator w = u·x^±1·v dies exactly when x = ((v·u)^-1)^±1, so a relator
whose v·u names at most two generators, as every relator y^-1 x^-1 y (x ◁ y)
of a rack presentation does, is the law f(x) = t[f(a)][f(b)] for a |G|×|G|
table t built from G's ``mul`` and ``inv``: the form of a hom law, and
solved the same way, as a mask (``search.law_domains``).  Other relators,
which only hand-written presentations have, filter the domain of their
last letter through the letter loop that ``evaluate_word`` runs, and
``evaluate_word`` is the tests' oracle for both.

Every hom set here is searched in one solving order, ``_solving_order``,
read off words of generator indices: the basepoint first, then, while one
exists, the lowest generator that some word determines from the generators
already placed, so that a value is solved for as soon as it is determined
instead of being guessed and rejected later (fail-first: Haralick and
Elliott, 1980), and otherwise the generator that can help to solve others
in the most words, so that one that helps to solve nothing is not guessed
near the root (a degree tie-break: Brélaz, 1979).  For a rack or a group
the words are (q, p, q, p ◁ q) for every p and q, plus (basepoint,): the
letters of a rack presentation's relators, which read the same three
elements as the hom law f(p ◁ q) = f(p) ◁ f(q).  So ``enumerate_homs`` and the rack side of both
checks, searched by ``search.hom_search``, solve every variable the order
solves, and the presented side searches in the same order; the
crossed-module check joins each side's two hom searches with
``search.morphism_search``.  Both adjunction checks compare the two sides
node by node, in one ``assignments`` walk over both sides' domains
(``_count_shared_leaves``): each node reads the two sides' masks and goes
on with the values both allow, and the last level counts those values by
popcount, so no map in both sets is built.  A value that one side allows
at a node both reach, and the other does not, is completed by that side's
own search, and each leaf it yields is a map that only that side finds.
Masks are sets, so the comparison does not rest on the order in which a
domain gives its values.  Before that walk, each side is presolved from its
own masks (``_parts``): a read that says an equality, f[k] = f[x],
f[k] = f[y] or f[x] = f[y], merges its variables into one class, and the
classes fall into parts that no other read of either side joins.  Into an
abelian G, Conj G is a trivial rack and every law is such an equality, so
the 12 variables of cs3×cz2 into Z6 become 6 classes in 6 parts.  When both
sides give the same classes and class bases, and each part's two searches
agree at every node of its own walk, the count is the product of the
parts' counts, and a part of one class with no read is one popcount
(component decomposition: Bacchus, Dalmao and Pitassi, FOCS 2003).
Otherwise the whole walk runs, so a failure keeps its side and witness.
Each side is pruned by its own filed laws only, so a map that both sides'
laws wrongly admit is not caught here; the tests check every shared map
against the hom laws and the relators over the corpus instead.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import product

from .errors import BijectionFail
from .groups import FiniteGroup
from .racks import FiniteRack, conj_rack
from .search import (
    Masked,
    _Bits,
    _bits,
    _mask_of,
    _narrowed,
    assignments,
    hom_search,
    law_domains,
    morphism_search,
)
from .tables import _check_endpoints, index_row, validate_hom
from .xmod import XMod, conj_xmod

Word = tuple[int, ...]
"""Letters are nonzero ints: +(i+1) is generator i, -(i+1) its inverse."""


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    pointed_relator: Word


def as_presentation(x: FiniteRack) -> Presentation:
    if not isinstance(x, FiniteRack):
        raise ValueError(f"a presentation needs a pointed rack, got a {type(x).__name__}")
    gens = tuple(x.label(a) if x.labels else f"x{a}" for a in x.elements())
    relators = tuple(
        (-(b + 1), -(a + 1), (b + 1), (x.table[a][b] + 1))
        for a in x.elements()
        for b in x.elements()
    )
    return Presentation(gens, relators, (x.basepoint + 1,))


CompiledWord = tuple[tuple[tuple[int, bool], ...], tuple[int, ...]]
"""A word as its shape and its generators: the shape has one (rank,
inverted) pair per letter, where a letter's rank is the rank of its
generator by first occurrence in the word, and the generators are listed
by rank."""


def _compile_word(word: Word, n: int) -> CompiledWord:
    """word, each of whose letters must name one of n generators, compiled
    in one pass over its letters."""
    rank, shape = {}, []  # generator -> rank; (rank, inverted) per letter
    for letter in word:
        if type(letter) is not int or not 0 < (gen := abs(letter)) <= n:
            raise ValueError(
                f"word {word!r} has the letter {letter!r}; letters are -{n}..-1 and 1..{n}"
            )
        shape.append((rank.setdefault(gen - 1, len(rank)), letter < 0))
    return tuple(shape), tuple(rank)


def _compile_relators(p: Presentation) -> list[CompiledWord]:
    """The relators of p, its pointed relator last, compiled."""
    return [_compile_word(w, len(p.generators)) for w in p.relators + (p.pointed_relator,)]


def _word_evaluator(g: FiniteGroup):
    """The function (words, assignment) -> a value in g, where each word is
    a shape and the index into the assignment of each rank (``CompiledWord``).

    It returns the value of the first word that does not evaluate to the
    identity, or the identity when every word does.  The group's tables
    are bound once, so the relators that a search tests letter by letter,
    and ``evaluate_word``, run the same loop.
    """
    if not isinstance(g, FiniteGroup):
        raise ValueError(f"relators are evaluated in a group, not in a {type(g).__name__}")
    mul, inv, e = g.mul, g.inv, g.identity

    def first_value(words, assignment) -> int:
        for shape, at in words:
            acc = e
            for r, inverted in shape:
                v = assignment[at[r]]
                acc = mul[acc][inv[v] if inverted else v]
            if acc != e:
                return acc
        return e

    return first_value


def evaluate_word(word: Word, assignment, g: FiniteGroup) -> int:
    """The value of word in g when generator i is the element ``assignment[i]``."""
    first_value = _word_evaluator(g)
    row = tuple(assignment)
    compiled = _compile_word(word, len(row))
    return first_value((compiled,), index_row(row, len(row), g.size, "assignment"))


def _law_letters(x) -> list[tuple[int, ...]]:
    """The words (q, p, q, p ◁ q) for every p and q of a rack or a group x,
    then (basepoint,): the letters of the relators of x's presentation."""
    words = [(q, p, q, t) for p, row in enumerate(x.table) for q, t in enumerate(row)]
    return words + [(x.basepoint,)]


def _solving_order(words: Sequence[Sequence[int]], n: int) -> list[int]:
    """``var[i]``, the variable that holds generator i of n in a hom search.

    Each word lists the generator indices of its letters.  Generators are
    placed one at a time: the lowest generator that is the only unplaced
    letter, read once, of some word, since that word then solves for it;
    when there is none, the unplaced generator that is useful in the most
    words, ties going to the lowest.  A word is useful for generator i when
    it reads i and reads some other generator exactly once, since placing i
    can then help to solve that one (the degree tie-break of Brélaz, 1979),
    so a generator useful in no word is placed after every generator that
    can help to solve something.  A word of one letter puts its generator
    first.
    """
    unplaced = [len(w) for w in words]  # letters of each word not yet placed
    reads: list[dict[int, int]] = [{} for _ in range(n)]  # word -> letters of generator i
    for r, word in enumerate(words):
        for i in word:
            reads[i][r] = reads[i].get(r, 0) + 1
    once = [0] * len(words)  # generators that each word reads exactly once
    for seen in reads:
        for r, count in seen.items():
            once[r] += count == 1
    useful = [sum(once[r] > (count == 1) for r, count in seen.items()) for seen in reads]
    free = sorted(range(n), key=lambda i: (-useful[i], i))
    solvable = [word[0] for word in words if len(word) == 1]
    heapify(solvable)
    var: list = [None] * n
    next_free = 0
    for k in range(n):
        while solvable and var[solvable[0]] is not None:
            heappop(solvable)
        if solvable:
            i = heappop(solvable)
        else:
            while var[free[next_free]] is not None:
                next_free += 1
            i = free[next_free]
        var[i] = k
        for r, count in reads[i].items():
            unplaced[r] -= count
            if unplaced[r] == 1:
                heappush(solvable, next(j for j in words[r] if var[j] is None))
    return var


def _relator_law(word, g: FiniteGroup, tables: dict):
    """The relator ``word``, one (variable, inverted) pair per letter, as a
    law f[l] = t[f[i]][f[j]] in g.

    A relator w = u·x^±1·v is the identity exactly when x^±1 = (v·u)^-1, so
    w is the law that sets x to the value of (v·u)^∓1.  That value is a
    table read when v·u names at most two variables: the last letter whose
    v·u does is taken, and t is built from g's ``mul`` and ``inv``, once per
    pattern of signs and repeated variables of v·u, in ``tables``.  None
    when no letter leaves at most two variables.
    """
    mul, inv, e = g.mul, g.inv, g.identity
    for n in range(len(word) - 1, -1, -1):
        x, inverted = word[n]
        vu = word[n + 1 :] + word[:n]
        names = list(dict.fromkeys(i for i, _ in vu))
        if len(names) > 2:
            continue
        i, j = (names * 2 + [x, x])[:2]
        pattern = (tuple((names.index(v), s) for v, s in vu), inverted)
        if pattern not in tables:
            t = [[e] * g.size for _ in range(g.size)]
            for a, row in enumerate(t):
                for b in range(g.size):
                    acc = e
                    for slot, s in pattern[0]:
                        y = (a, b)[slot]
                        acc = mul[acc][inv[y] if s else y]
                    row[b] = acc if inverted else inv[acc]
            tables[pattern] = tuple(map(tuple, t))
        return tables[pattern], i, j, x
    return None


def _presented_hom_search(relators, g: FiniteGroup, var: Sequence[int], nvars: int):
    """The domains, by variable, of an ``assignments`` search for a
    presentation in g, given by its compiled relators (``_compile_relators``).

    Generator i is held by variable ``var[i]`` and ranges over g in index
    order; a relator is filed under its last variable, so the domain there
    keeps only the values under which it dies.  The empty word is the
    identity and constrains nothing, so it is not filed.  A relator that
    solves for one of its letters from at most two other variables
    (``_relator_law``), as every relator of a rack presentation does, is
    filed as a mask by ``search.law_domains``, so the values it allows are
    the only ones tried.  Which law a relator is depends only on its shape,
    the signs of its letters and the rank of each letter's generator by
    first occurrence, and a rack presentation has only a few shapes: each
    shape's law is derived once per call, over the ranks, and each relator
    of that shape reads it at its own variables.  Other relators, which
    only hand-written presentations have, wrap the domain of their last
    variable, which keeps each value under which the letter loop that
    ``evaluate_word`` runs, the tests' oracle for both, gives the identity.
    Variables that no generator holds get the domain None.
    """
    first_value = _word_evaluator(g)
    tables: dict = {}
    by_shape: dict = {}  # shape -> its law over the ranks, or None
    laws = []
    longer: list[list] = [[] for _ in range(nvars)]
    for shape, gens in relators:
        if not shape:
            continue
        if shape not in by_shape:
            by_shape[shape] = _relator_law(shape, g, tables)
        law = by_shape[shape]
        at = [var[i] for i in gens]  # the variable of each rank
        if law is None:
            longer[max(at)].append((shape, at))
        else:
            t, i, j, x = law
            laws.append((t, at[i], at[j], at[x]))
    bases: list = [None] * nvars
    for k in var:
        bases[k] = (1 << g.size) - 1
    domains = law_domains(bases, laws)
    e = g.identity

    def dying(k: int, domain, words: list):
        def values(f: list) -> list:
            head = f[:k]
            return [v for v in domain(f) if first_value(words, head + [v]) == e]

        return values

    return [dying(k, d, longer[k]) if longer[k] else d for k, d in enumerate(domains)]


def _sorted_maps(search, var: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The maps that the ``assignments`` search over the domains ``search``
    finds, read by generator through ``var``, in lexicographic order."""
    return tuple(sorted(tuple(map(f.__getitem__, var)) for f in assignments(search)))


def enumerate_presented_homs(p: Presentation, g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All generator assignments killing every relator, in lexicographic order.

    One ``assignments`` search in the solving order of p's words, sorted.
    """
    relators = _compile_relators(p)
    words = [[gens[r] for r, _ in shape] for shape, gens in relators]
    var = _solving_order(words, len(p.generators))
    return _sorted_maps(_presented_hom_search(relators, g, var, len(var)), var)


def enumerate_homs(dom, cod) -> tuple[tuple[int, ...], ...]:
    """All homs dom -> cod of pointed racks or of groups, in lexicographic order.

    One ``hom_search`` in the solving order of dom's law letters, sorted.
    Other endpoints raise the ``ValueError`` of ``validate_hom`` before the
    letters, which read the basepoint, are taken.
    """
    _check_endpoints(dom, cod)
    var = _solving_order(_law_letters(dom), dom.size)
    return _sorted_maps(hom_search(dom, cod, var, dom.size), var)


def enumerate_homs_bruteforce(dom, cod) -> tuple[tuple[int, ...], ...]:
    """Unpruned cross-check: filter every one of cod.size ** dom.size maps."""
    out = []
    for f in product(range(cod.size), repeat=dom.size):
        if f[dom.basepoint] != cod.basepoint:
            continue
        if all(
            f[dom.table[a][b]] == cod.table[f[a]][f[b]]
            for a in range(dom.size)
            for b in range(dom.size)
        ):
            out.append(f)
    return tuple(out)


def _mask_reader(domain):
    """The function f -> the mask of the values ``domain`` gives at f: a
    ``Masked`` domain's own mask, else the mask of its values."""
    if type(domain) is Masked:
        return domain.mask
    if callable(domain):
        return lambda f: _mask_of(domain(f))
    m = _mask_of(domain)
    return lambda f: m


def _equality(s, diagonal: bool) -> int:
    """Which equality every read (s, x, y) at a level k says, read over
    every entry of s, or over its diagonal only when ``diagonal`` (x == y):
    1 when each entry s[u][v] is 1 << u, so f[k] = f[x]; 2 when it is
    1 << v, so f[k] = f[y]; 3 when it is s[0][0] for u == v and 0
    otherwise, so f[x] = f[y] and f[k] takes a value of s[0][0]; 0 when
    none of these holds."""
    d = s[0][0]
    entries = (lambda u, v: 1 << u, lambda u, v: 1 << v, lambda u, v: d if u == v else 0)
    for shape, entry in enumerate(entries, 1):
        if all(
            m == entry(u, v)
            for u, row in enumerate(s)
            for v, m in enumerate(row)
            if u == v or not diagonal
        ):
            return shape
    return 0


def _merged(root: list[int], pairs) -> list[int]:
    """``root`` with every pair (a, b) of ``pairs`` merged into one class.

    ``root`` is a union-find forest over 0..n-1 in which each class's root
    is its least member, ``list(range(n))`` to begin with; it is returned
    with each member pointing at its root.
    """
    for a, b in pairs:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[max(a, b)] = min(a, b)
    # a root is below its members, so ascending, each member's root is final
    for v in range(len(root)):
        root[v] = root[root[v]]
    return root


def _presolved(domains, shapes: dict):
    """(classes, bases, reads) of one side's ``Masked`` domains, or None when
    a domain is not ``Masked`` or a kept read reads its own class or a
    later one, by least variable, and so cannot be filed at its class.

    The reads that say an equality (``_equality``, decided once per support
    table and diagonal in ``shapes``) merge their variables: ``classes[k]``
    is the least variable of k's class, and ``bases`` maps each class to
    the AND of its members' bases and of the masks the equalities give
    them.  Each other read (s, x, y) at level k is kept as the same read of
    the classes, (K, s, X, Y).  On maps constant on each class, the kept
    reads and the bases allow exactly what all the reads and bases do.
    """
    if any(type(d) is not Masked for d in domains):
        return None
    bases = [d.base for d in domains]
    pairs, kept = [], []
    for k, d in enumerate(domains):
        for s, x, y in d.reads:
            key = (id(s), x == y)
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = _equality(s, x == y)
            if shape == 0:
                kept.append((k, s, x, y))
                continue
            if shape == 3:
                bases[k] &= s[0][0]
            pairs.append(((k, x), (k, y), (x, y))[shape - 1])
    classes = _merged(list(range(len(domains))), pairs)
    reads = [(classes[k], s, classes[x], classes[y]) for k, s, x, y in kept]
    if any(not (x < c and y < c) for c, _, x, y in reads):
        return None
    merged: dict = {}
    for k, c in enumerate(classes):
        merged[c] = merged.get(c, -1) & bases[k]
    return classes, merged, reads


def _parts(rack, presented):
    """The two sides' domains, part by part, or None when the presolve does
    not reduce them to parts that can be compared one by one.

    Each side is presolved from its own domains (``_presolved``), and the
    two must have the same classes and the same class bases.  Two classes
    are in one part when some kept read of either side joins them.  A part
    is searched over its classes, least variable first, each class with its
    base and the kept reads filed at it, which must read earlier classes
    only.  A map of a side is then one map of each part, read on each
    class's members, so each side's number of maps is the product of its
    parts'.  None when a side does not presolve, the classes or their
    bases differ, or one part holds every variable unmerged, which is the
    search the domains already are.
    """
    shapes: dict = {}
    part = list(range(len(rack)))
    sides = []
    for domains in (rack, presented):
        side = _presolved(domains, shapes)
        if side is None or (sides and side[:2] != sides[0][:2]):
            return None
        sides.append(side)
        classes, bases, reads = side
        _merged(part, [(c, z) for c, _, x, y in reads for z in (x, y)])
        if len(bases) == len(classes) and not any(part):
            return None
    members: dict = {}
    for c in sorted(bases):
        members.setdefault(part[c], []).append(c)
    # at[c]: the level of class c in its part's search
    at = {c: i for cs in members.values() for i, c in enumerate(cs)}
    filed = {p: ([[] for _ in cs], [[] for _ in cs]) for p, cs in members.items()}
    for side, (*_, reads) in enumerate(sides):
        for c, s, x, y in reads:
            filed[part[c]][side][at[c]].append((s, at[x], at[y]))
    return [
        tuple([Masked(bases[c], r) for c, r in zip(cs, levels)] for levels in filed[p])
        for p, cs in members.items()
    ]


def _walk(rack, presented) -> tuple[int, list[tuple[list, int, int]]]:
    """(shared, diverged): one ``assignments`` walk over both searches.

    At each node the two domains' masks a and b are read (``_mask_reader``),
    the walk goes on with the values of a & b, and at the last level it
    adds their number to ``shared`` instead, so no shared leaf is built.
    Each node where a != b is noted in ``diverged`` as its prefix and the
    values a & ~b and b & ~a.
    """
    bits = _Bits()
    last = len(rack) - 1
    diverged: list[tuple[list, int, int]] = []
    shared = 0

    def level(k: int, rack_mask, presented_mask):
        def values(f: list):
            nonlocal shared
            a, b = rack_mask(f), presented_mask(f)
            if a != b:
                diverged.append((f[:k], a & ~b, b & ~a))
            if k == last:
                shared += (a & b).bit_count()
                return ()
            return bits[a & b]

        return values

    readers = zip(map(_mask_reader, rack), map(_mask_reader, presented))
    # the last level ends every branch, so the walk yields nothing
    next(assignments([level(k, *masks) for k, masks in enumerate(readers)]), None)
    return shared, diverged


def _count_shared_leaves(rack, presented, key, explain=None) -> int:
    """The number of leaves that both searches yield.

    ``rack`` and ``presented`` are each the domains of an ``assignments``
    search over the same variables, at least one.  First the presolve: when
    both sides reduce to the same parts (``_parts``), each part's two
    searches are walked (``_walk``), and when no walk notes a node where
    the two sides' masks differ, each part's two sides have the same maps,
    so both sides do, and their number is the product of the parts'.  A
    part of one class and no read is counted by the popcount of its base.

    Otherwise, or when some part diverges, the two searches are walked
    whole.  A prefix that both searches reach is a node of that walk, so a
    leaf of one side only has a first value that the other side's domain
    leaves out, at a node of the walk, which notes it: afterwards each such
    value is completed by that side's own search alone, its prefix pinned
    by one-value domains.  A value with no completion yields no leaf.  Only
    the leaves those completions yield, the bad maps of their side, are
    passed to ``key``.  The least bad rack key raises
    ``BijectionFail("rack", ...)``; only then the least bad presented key
    is passed to ``explain``, which may raise a more specific failure, and
    raises ``BijectionFail("presented", ...)``.  Masks are sets, so neither
    the count nor a witness depends on the order in which a domain gives
    its values.
    """
    parts = _parts(rack, presented)
    if parts is not None:
        count = 1
        for part in parts:
            shared, diverged = _walk(*part)
            if diverged:
                break
            count *= shared
        else:
            return count
    shared, diverged = _walk(rack, presented)

    def bad(side: int, domains) -> list:
        """The keys of the leaves of ``domains`` that begin with a value that
        only this side's domain gives at a node of the walk."""
        return [
            key(f)
            for head, *only in diverged
            for v in _bits(only[side])
            for f in assignments([*((u,) for u in head), (v,), *domains[len(head) + 1 :]])
        ]

    bad_rack = bad(0, rack)
    if bad_rack:
        raise BijectionFail("rack", min(bad_rack))
    bad_presented = bad(1, presented)
    if bad_presented:
        m = min(bad_presented)
        if explain is not None:
            explain(m)
        raise BijectionFail("presented", m)
    return shared


def check_adjunction_bijection(x: FiniteRack, g: FiniteGroup) -> int:
    """The number of maps in Hom(X, Conj G), which must coincide with
    Hom(As X, G) as an assignment set.

    The two sides are two searches in the solving order of x's
    presentation, compared node by node in one walk
    (``_count_shared_leaves``).  Each side is pruned by its own filed laws
    only: the rack side by the hom
    laws into Conj G and the basepoint, whose domain is narrowed to Conj
    G's basepoint here whatever ``hom_search`` allows, the presented side
    by the relators.  A map that only one side finds is a bad map of that
    side.  The least bad rack map is raised first; only then the least bad
    presented map, through ``validate_hom`` into Conj G when it breaks a
    rack law.  So a map that both sides' filed laws wrongly admit is not
    caught here.
    """
    cg = conj_rack(g)
    relators = _compile_relators(as_presentation(x))
    var, n = _solving_order(_law_letters(x), x.size), x.size
    rack = hom_search(x, cg, var, n)
    bp = var[x.basepoint]
    rack[bp] = _narrowed(rack[bp], 1 << cg.basepoint, [])
    return _count_shared_leaves(
        rack,
        _presented_hom_search(relators, g, var, n),
        lambda f: tuple(map(f.__getitem__, var)),
        lambda m: validate_hom(x, cg, m),
    )


def check_xmod_adjunction(x: XMod, g: XMod) -> int:
    """The number of crossed-module morphisms x -> Conj(g), which must
    coincide with the presented assignment pairs.

    Each side is a search that sets f0 on x's base and then f1 on its
    carrier.  The rack side files the pointed rack hom laws into Conj(g)
    (``hom_search``), the group side the relators of both presentations in
    g, and ``morphism_search`` joins each side's two searches and files the
    boundary and action squares against that side's target at the last
    coordinate of each, all as masks.  So each side
    reaches exactly the pairs of its two hom sets whose squares commute.
    The two searches are compared node by node in one walk
    (``_count_shared_leaves``), and the two sides must be literally equal: the
    least pair (f1, f0) that only the rack side reaches is raised first,
    then the least that only the group side reaches.
    """
    ns = x.cod.size

    def side(search, target):
        """The domains of search's hom pairs into target whose squares commute."""
        return morphism_search(
            x,
            target,
            lambda *v: search(x.dom, target.dom, *v),
            lambda *v: search(x.cod, target.cod, *v),
        )

    relators = {r: _compile_relators(as_presentation(r)) for r in (x.dom, x.cod)}
    group = side(lambda r, h, *v: _presented_hom_search(relators[r], h, *v), g)
    rack = side(hom_search, conj_xmod(g))
    return _count_shared_leaves(rack, group, lambda f: (f[ns:], f[:ns]))
