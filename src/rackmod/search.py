"""The one backtracking search behind every exhaustive search in rackmod.

A search assigns variables 0, 1, ... in index order, each ranging over its
domain in the order given; a partial assignment that no value of the next
level extends is abandoned with all its completions (Golomb and Baumert,
"Backtrack Programming", 1965).  Constraints are filed by last variable, and
each level's domain keeps exactly the values that pass the constraints filed
there, so the assignments that come out are exactly the members of the full
product of the domains that pass every constraint, in that product's order.
The search is a loop over a stack of one domain iterator per level, not a
chain of recursive generators, so it has no depth limit: any number of
variables can be searched.

A level's domain is the only thing that decides the values it tries.  A
domain is a sequence, or a function of the assigned prefix that returns or
yields, in order, exactly the values of the full domain that pass the
constraints of its level.  The laws of the hom, crossed-module morphism and
presented searches have one form, f[l] = t[f[i]][f[j]] for a table t, and a
law filed at level k leaves its variable a set of values that depends only
on the law's other variables, all assigned earlier.  So each such law
becomes one read of a support-mask table built once per table: bit c of
``s[f[x]][f[y]]`` is set when f[k] = c satisfies the law.  A level's domain
is then a ``Masked``: the AND of its base mask (the values allowed at all)
and of the masks its laws read, its set bits taken in ascending order.  A
read that allows every value whatever it reads, and a read that another
law of the level already makes, change no AND and are not filed; two laws
over different tables make the same read when their support tables have
the same rows.  A value that one law forces is a one-bit mask, so every
such value is solved for instead of being guessed and rejected (forward
checking: Haralick and Elliott, "Increasing tree search efficiency for
constraint satisfaction problems", Artificial Intelligence 14, 1980).

Every search for homs between racks or groups, isomorphisms and
crossed-module morphisms is built by the three builders here, which return
the domains that ``assignments`` takes: ``hom_search`` files the hom laws
of one map as masks, ``iso_search`` adds to them one injectivity read per
earlier variable, and ``morphism_search`` joins a search for f0 and one for
f1, in one layout (f0 first, then f1), and files the boundary and action
squares of the morphism as masks too.  Two searches build their own
domains instead: ``functors._presented_hom_search`` files the relators of a
presentation, through ``law_domains`` where it can, and
``isomorphism.enumerate_pointed_racks`` places a table column by column and
keeps the columns that pass the self-distributivity triples first readable
there and that no relabelling fixing the basepoint makes smaller, so that
it yields one table per isomorphism class without calling the isomorphism
search.

Every hom set is searched in one solving order, ``_solving_order``, read
off words of generator indices: the basepoint first, then, while one
exists, the lowest generator that some word determines from the generators
already placed, so that a value is solved for as soon as it is determined
instead of being guessed and rejected later (fail-first: Haralick and
Elliott, 1980), and otherwise the generator that can help to solve others
in the most words, so that one that helps to solve nothing is not guessed
near the root (a degree tie-break: Brélaz, 1979).  For a rack or a group
the words are (q, p, q, p ◁ q) for every p and q, plus (basepoint,)
(``_law_letters``): the letters of a rack presentation's relators, which
read the same three elements as the hom law f(p ◁ q) = f(p) ◁ f(q).  So a
``hom_search`` in that order solves every variable the order solves, and a
presented search in the same order does too.

Two searches over the same variables, such as the two sides of an
adjunction check, are compared node by node in one ``assignments`` walk
over both sides' domains (``_count_shared_leaves``): each node reads the
two sides' masks and goes on with the values both allow, and the last
level counts those values by popcount, so no leaf of both is built.  A
value that one side allows at a node both reach, and the other does not,
is completed by that side's own search, and each leaf it yields is a leaf
that only that side finds.  Masks are sets, so the comparison does not
rest on the order in which a domain gives its values.  Before that walk,
each side is presolved from its own masks (``_parts``): a read that says
an equality, f[k] = f[x], f[k] = f[y] or f[x] = f[y], merges its variables
into one class, and the classes fall into parts that no other read of
either side joins.  Into an abelian G, Conj G is a trivial rack and every
hom law is such an equality, so the 12 variables of cs3×cz2 into Z6 become
6 classes in 6 parts.  When both sides give the same classes and class
bases, and each part's two searches agree at every node of its own walk,
the count is the product of the parts' counts, and a part of one class
with no read is one popcount (component decomposition: Bacchus, Dalmao and
Pitassi, FOCS 2003).  Otherwise the whole walk runs, so a failure keeps
its side and witness.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from heapq import heapify, heappop, heappush

from .errors import BijectionFail
from .tables import _check_endpoints, _merged

Law = tuple[tuple[tuple[int, ...], ...], int, int, int]
"""(t, i, j, l): the law f[l] = t[f[i]][f[j]], t a tuple of rows.  Row
indices of t and its values range over one set of values, shared by
variables i and l, and column indices over the values of variable j."""


class Masked:
    """A domain: the values c, ascending, whose bit 1 << c is set in ``base``
    and in ``s[f[x]][f[y]]`` for every (s, x, y) of ``reads``, f being the
    assigned prefix.  Called with f, it returns those values."""

    __slots__ = ("base", "reads")

    def __init__(self, base: int, reads: Iterable[tuple] = ()):
        self.base = base
        self.reads = tuple(reads)

    def mask(self, f: list) -> int:
        m = self.base
        for s, x, y in self.reads:
            m &= s[f[x]][f[y]]
        return m

    def __call__(self, f: list) -> tuple[int, ...]:
        return _bits(self.mask(f))


def _bits(m: int) -> tuple[int, ...]:
    """The set bits of m, ascending."""
    return tuple(c for c in range(m.bit_length()) if m >> c & 1)


class _Bits(dict):
    """``_bits`` of each mask, computed on first use."""

    def __missing__(self, m: int) -> tuple[int, ...]:
        bits = self[m] = _bits(m)
        return bits


def assignments(domains: Sequence[Sequence | Callable[[list], Iterable]]) -> Iterator[tuple]:
    """Every assignment of the product of ``domains``, each level taking
    only the values its domain gives.

    ``domains[k]`` is a sequence, or a callable that is called with
    ``assign`` once variables 0..k-1 are set, may read ``assign[0..k-1]``
    only, the later entries being left over from abandoned branches, and
    returns or yields, in domain order, exactly the values that variable k
    may take.  A ``Masked`` entry is such a function; the loop reads its
    mask and memoises each mask's bits.  The kernel draws the next value of
    level k only after it has yielded every completion of the current value,
    so a domain that yields may keep state for its current value until it is
    asked for the next.  With no variables the one empty assignment ``()``
    is yielded.  When every domain ascends, the assignments come out in
    lexicographic order.

    The search is a loop over a stack of one domain iterator per level, so
    the number of variables is not limited by Python's recursion depth.
    """
    n = len(domains)
    assign: list = [None] * n
    if not n:
        yield ()
        return
    last = n - 1
    # masked[k]: the mask of a Masked domain k, read here instead of called
    masked = [d.mask if type(d) is Masked else None for d in domains]
    bits = _Bits()
    # values[k]: the iterator over the values of variable k not yet tried
    values: list = [None] * n
    k, opened = 0, True
    while k >= 0:
        if opened:
            mask = masked[k]
            if mask is None:
                domain = domains[k]
                values[k] = iter(domain(assign) if callable(domain) else domain)
            else:
                values[k] = iter(bits[mask(assign)])
        for v in values[k]:
            assign[k] = v
            break
        else:
            k -= 1
            opened = False
            continue
        if k == last:
            yield tuple(assign)
            opened = False
        else:
            k += 1
            opened = True


# _READ_AT[at]: the positions of a law (t, i, j, l), 1 to 3, whose values
# index its support mask, by ``at``, the bits 1, 2 and 4 set when i, j and l
# are the level's variable; with one position left, it is read twice
_READ_AT = (None, (2, 3), (1, 3), (3, 3), (1, 2), (2, 2), (1, 1), ())


def _support(t: Sequence[Sequence[int]], at: int) -> list[list[int]]:
    """The support-mask table of the law f[l] = t[f[i]][f[j]] at the level of
    the positions among (i, j, l) that ``at`` marks (bits 1, 2, 4).

    Entry [u][v] has bit c set when the law holds with c at the marked
    positions and u, v at the positions ``_READ_AT[at]`` names; with every
    position marked, the one entry [0][0].  Each cell (a, b, t[a][b]) whose
    marked positions agree sets its bit once.  A table over n values has n²
    masks of up to n bits, O(n³) bits in all.
    """
    rows, cols = len(t), len(t[0]) if t else 0
    marked = [n for n in range(3) if at >> n & 1]
    p, q, r = marked[0], marked[len(marked) // 2], marked[-1]
    # position 3 of a cell is a constant 0, read where no position is left
    x, y = (n - 1 for n in _READ_AT[at] or (4, 4))
    size = (rows, cols, rows, 1)
    s = [[0] * size[y] for _ in range(size[x])]
    for a, row in enumerate(t):
        for b, z in enumerate(row):
            cell = (a, b, z, 0)
            if cell[p] == cell[q] == cell[r]:
                s[cell[x]][cell[y]] |= 1 << cell[p]
    return s


def _filed_masks(laws: Iterable[Law], nvars: int) -> tuple[list[int], list[list[tuple]]]:
    """(fixed, reads): each law f[l] = t[f[i]][f[j]] filed at its last variable.

    At level k = max(i, j, l) the law allows f[k] the values whose bits are
    set in a mask: ``fixed[k]`` when every position is k (the mask is then a
    constant, and -1 where no such law is filed), otherwise one read
    (s, x, y) of ``reads[k]``, s[f[x]][f[y]] being that mask for the values
    at the other positions.  The tables s are built once for each table t
    and way of placing k among (i, j, l), and freed with the search; a
    table s with the same rows as one built before is that one, so that
    reads of equal tables are the same read.

    A read that cannot narrow a domain is not filed.  Whether a read of s
    can is decided once per table s: a read whose every entry, read only
    on the diagonal when x == y, has every value's bit set allows every
    value, and is dropped.  Every value is the whole range of the marked
    position, the columns of t when only j is marked and its rows
    otherwise, which holds every value its variable takes (``Law``).  A
    read that another at level k already makes is filed once: reads are
    the same when they have the same x, y and rows of s, or, when x == y,
    the same x and the same diagonal of s.
    """
    fixed = [-1] * nvars
    reads: list[list[tuple]] = [[] for _ in range(nvars)]
    # supports[id(t)]: t, kept so that its id is not reused, and by ``at``
    # its table s, whether every entry of s allows every value, s's
    # diagonal, and whether the diagonal does
    supports: dict = {}
    interned: dict = {}  # the rows of each table s built -> the first s with them
    filed: set = set()  # (k, x, y, id(s)), or (k, x, diagonal) when x == y
    last = tables = None
    for law in laws:
        t, i, j, l = law
        if t is not last:
            last, tables = t, supports.setdefault(id(t), (t, [None] * 8))[1]
        k = i if i > j else j
        if l > k:
            k = l
        at = (i == k) | (j == k) << 1 | (l == k) << 2
        if tables[at] is None:
            s = _support(t, at)
            s = interned.setdefault(tuple(map(tuple, s)), s)
            every = (1 << (len(t[0]) if at == 2 else len(t))) - 1
            diagonal = tuple(row[u] for u, row in enumerate(s) if u < len(row))
            tables[at] = (
                s,
                all(m == every for row in s for m in row),
                diagonal,
                all(m == every for m in diagonal),
            )
        s, vacuous, diagonal, vacuous_diagonal = tables[at]
        if at == 7:
            fixed[k] &= s[0][0]
            continue
        p, q = _READ_AT[at]
        x, y = law[p], law[q]
        if x != y:
            key = None if vacuous else (k, x, y, id(s))
        else:
            key = None if vacuous_diagonal else (k, x, diagonal)
        if key is not None and key not in filed:
            filed.add(key)
            reads[k].append((s, x, y))
    return fixed, reads


def law_domains(bases: Sequence[int | None], laws: Iterable[Law]) -> list[Masked | None]:
    """The ``Masked`` domain of each variable under ``laws``.

    ``bases[k]`` is the mask of the values variable k may take at all, or
    None when no variable k is searched, whose domain is then None.  Every
    law is filed by ``_filed_masks`` and must read searched variables only.
    """
    fixed, reads = _filed_masks(laws, len(bases))
    return [None if b is None else Masked(b & fixed[k], reads[k]) for k, b in enumerate(bases)]


def _mask_of(values: Iterable[int]) -> int:
    m = 0
    for v in values:
        m |= 1 << v
    return m


def hom_search(
    dom, cod, var: Sequence[int], nvars: int, allowed: Sequence[Sequence[int]] | None = None
):
    """The domains, by variable, of an ``assignments`` search for dom -> cod.

    dom and cod are both pointed racks or both groups; other endpoints raise
    the ``ValueError`` of ``validate_hom``.  Element a is held by variable
    ``var[a]`` and ranges over ``allowed[a]``, an ascending list, or else
    over all of cod; the basepoint's domain is cod's basepoint, if allowed.
    Each law f(p ◁ q) = f(p) ◁ f(q) is filed under its last variable as a
    mask (``law_domains``), so a value the law forces, f(p ◁ q) from f(p)
    and f(q), or f(p) from f(q) and f(p ◁ q), is the one value tried there.
    Variables that no element of dom holds get the domain None.
    """
    _check_endpoints(dom, cod)
    t = cod.table
    laws = [
        (t, var[p], var[q], var[r])
        for p, row in enumerate(dom.table)
        for q, r in enumerate(row)
    ]
    every = (1 << cod.size) - 1
    bases: list = [None] * nvars
    for a in range(dom.size):
        base = every if allowed is None else _mask_of(allowed[a])
        bases[var[a]] = base & (1 << cod.basepoint) if a == dom.basepoint else base
    return law_domains(bases, laws)


def iso_search(a, b, var: Sequence[int], nvars: int):
    """The domains, by variable, of an ``assignments`` search for the
    pointed isomorphisms a -> b, racks of one size.

    The hom search a -> b (``hom_search``) plus injectivity: that each image
    is new is one more mask read per earlier variable, level k reading
    ``other[f[x]][f[x]]``, every value but f[x], for each earlier level x.
    ``var`` places a's elements at variables 0..nvars-1.
    """
    domains = hom_search(a, b, var, nvars)
    # other[u][u]: the values other than u
    other = [[~(1 << u)] * b.size for u in range(b.size)]
    reads = [(other, x, x) for x in range(nvars)]
    return [_narrowed(d, -1, reads[:k]) for k, d in enumerate(domains)]


def _narrowed(domain, fixed: int, reads: list[tuple]):
    """``domain`` keeping only the values that ``fixed`` and every read allow:
    a ``Masked`` domain with those reads added, or else ``domain`` filtered
    by ``Masked.mask``."""
    if domain is None or (fixed == -1 and not reads):
        return domain
    if type(domain) is Masked:
        return Masked(domain.base & fixed, domain.reads + tuple(reads))
    narrow = Masked(fixed, reads)

    def values(f: list) -> list:
        m = narrow.mask(f)
        return [v for v in (domain(f) if callable(domain) else domain) if m >> v & 1]

    return values


def morphism_search(x, target, top, bottom):
    """The domains of an ``assignments`` search for x -> target.

    Variables 0..|x.cod|-1 hold f0 and the rest hold f1: f0(s) is variable
    s and f1(r) is variable |x.cod| + r.  ``top`` and ``bottom`` build the
    searches for f1 and f0: each is called as ``(var, nvars)`` and returns
    its domains over all the variables, and each variable takes its domain
    from the search that holds it.  The squares are filed as masks on those
    domains: the boundary square d′(f1(r)) = f0(d(r)) at f1(r), and the
    action square f1(r.s) = f1(r).f0(s) at the later of f1(r) and f1(r.s).
    Every builder in the library returns ``Masked`` domains, to which the
    squares' reads are added; any other domain, which only a builder from
    outside the library returns, is kept and filtered by those masks
    (``_narrowed``).
    """
    ns = x.cod.size
    n = ns + x.dom.size
    bottoms = bottom(range(ns), n)
    tops = top(range(ns, n), n)
    act = target.action
    fixed, reads = _filed_masks(
        ((act, ns + r, s, ns + x.act(r, s)) for r in x.dom.elements() for s in range(ns)), n
    )
    # preimage[z][z]: the values c with d′(c) = z
    nz = target.cod.size
    preimage = [[0] * nz for _ in range(nz)]
    for c, z in enumerate(target.boundary.map):
        preimage[z][z] |= 1 << c
    for r, z in enumerate(x.boundary.map):
        reads[ns + r].append((preimage, z, z))
    return [_narrowed(d, fixed[k], reads[k]) for k, d in enumerate(bottoms[:ns] + tops[ns:])]


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
