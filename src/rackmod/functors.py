"""Associated-group presentations, hom sets and the two adjunction checks.

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

Every hom set here is searched in the one solving order of
``search._solving_order``, read off the letters of x's relators
(``search._law_letters``): ``enumerate_homs`` and the rack side of both
checks by ``search.hom_search``, the presented side by
``_presented_hom_search``, and the crossed-module check joins each side's
two hom searches with ``search.morphism_search``.  Both checks compare the
two sides with ``search._count_shared_leaves``, which counts the maps that
both sides find without building them and turns a map that one side alone
finds into a witness.  Each side is pruned by its own filed laws only, so a
map that both sides' laws wrongly admit is not caught here; the tests check
every shared map against the hom laws and the relators over the corpus
instead.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

from .errors import BijectionFail
from .groups import FiniteGroup
from .racks import FiniteRack, conj_rack
from .search import (
    _count_shared_leaves,
    _law_letters,
    _narrowed,
    _solving_order,
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


def _relator_law(word, g: FiniteGroup):
    """The relator ``word``, one (variable, inverted) pair per letter, as a
    law f[l] = t[f[i]][f[j]] in g.

    A relator w = u·x^±1·v is the identity exactly when x^±1 = (v·u)^-1, so
    w is the law that sets x to the value of (v·u)^∓1.  That value is a
    table read when v·u names at most two variables: the last letter whose
    v·u does is taken, and t is built from g's ``mul`` and ``inv``.  None
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
        slots = [(names.index(v), s) for v, s in vu]
        t = [[e] * g.size for _ in range(g.size)]
        for a, row in enumerate(t):
            for b in range(g.size):
                acc = e
                for slot, s in slots:
                    y = (a, b)[slot]
                    acc = mul[acc][inv[y] if s else y]
                row[b] = acc if inverted else inv[acc]
        return tuple(map(tuple, t)), i, j, x
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
    by_shape: dict = {}  # shape -> its law over the ranks, or None
    laws = []
    longer: list[list] = [[] for _ in range(nvars)]
    for shape, gens in relators:
        if not shape:
            continue
        if shape not in by_shape:
            by_shape[shape] = _relator_law(shape, g)
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
