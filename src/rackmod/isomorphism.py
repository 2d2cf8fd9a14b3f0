"""Basepoint-preserving isomorphism search and small-order rack enumeration.

Both are ``search.assignments`` searches whose domains alone decide the
values tried.  The isomorphism search is a mask search: ``hom_search``
files the hom laws over the invariant-matched candidates, and injectivity
is one more read per earlier variable.  Rack enumeration's column domains
place each candidate column in the table being built and yield it only when
the self-distributivity triples it completes hold.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import permutations, product

from .errors import AxiomError, BoundExceeded
from .racks import FiniteRack, rack_orbits, validate_rack
from .search import _narrowed, assignments, hom_search
from .tables import Hom, _check_endpoints, validate_hom

# The largest order whose enumeration finishes in seconds (order 6: about 2 s;
# order 7 does not finish in practical time).
ENUMERATION_CEILING = 6
BRUTEFORCE_LIMIT = 3


def _cycle_type(perm: list[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def element_invariants(r: FiniteRack) -> tuple[tuple, ...]:
    """Per-element fingerprint preserved by any pointed isomorphism.

    Combines the basepoint flag, the orbit size, idempotency of a ◁ a, and
    the cycle type of the column permutation x -> x ◁ a.
    """
    orbit_size = {}
    for orb in rack_orbits(r):
        for a in orb:
            orbit_size[a] = len(orb)
    out = []
    for a in range(r.size):
        col = [r.table[x][a] for x in range(r.size)]
        out.append((a == r.basepoint, orbit_size[a], r.table[a][a] == a, _cycle_type(col)))
    return tuple(out)


def _candidates(a: FiniteRack, b: FiniteRack, inv_a=None, inv_b=None) -> list[list[int]] | None:
    """For each element of a, the elements of b with its invariants, ascending.

    None when no bijection can match the invariants: the sizes or the
    multisets of invariants differ.  Endpoints that no hom joins raise the
    ``ValueError`` of ``validate_hom`` before any invariant is read.
    ``inv_a`` and ``inv_b``, when given, are the ``element_invariants`` of
    a and b, which are then not recomputed.
    """
    _check_endpoints(a, b)
    if a.size != b.size:
        return None
    inv_a = element_invariants(a) if inv_a is None else inv_a
    inv_b = element_invariants(b) if inv_b is None else inv_b
    if sorted(inv_a) != sorted(inv_b):
        return None
    return [[y for y in range(b.size) if inv_b[y] == inv_a[x]] for x in range(a.size)]


def _iso_maps(
    a: FiniteRack, b: FiniteRack, inv_a=None, inv_b=None, supports=None
) -> Iterator[tuple[int, ...]]:
    """Every pointed isomorphism a -> b as a map tuple, in search order.

    One ``assignments`` search built by ``hom_search`` over the elements of
    a, most constrained first (fewest candidates, ties by lowest index),
    each ranging over its invariant-matched candidates that the hom laws
    allow (``_candidates``, which takes ``inv_a`` and ``inv_b``).  That each
    image is new is a mask too: level k reads ``other[f[x]][f[x]]``, every
    value but f[x], for each earlier level x.  ``supports`` is passed to
    ``hom_search``.
    """
    cands = _candidates(a, b, inv_a, inv_b)
    if cands is None:
        return
    order = sorted(range(a.size), key=lambda x: (len(cands[x]), x))
    var = [order.index(x) for x in range(a.size)]
    domains = hom_search(a, b, var, a.size, cands, supports=supports)
    # other[u][u]: the values other than u
    other = [[~(1 << u)] * b.size for u in range(b.size)]
    reads = [(other, x, x) for x in range(a.size)]
    for img in assignments([_narrowed(d, -1, reads[:k]) for k, d in enumerate(domains)]):
        yield tuple(img[v] for v in var)


def find_isomorphism(
    a: FiniteRack, b: FiniteRack, *, inv_a=None, inv_b=None, supports=None
) -> Hom | None:
    """The first pointed isomorphism in most-constrained search order, if any.

    ``inv_a`` and ``inv_b``, when given, are the ``element_invariants`` of a
    and b, which are then not recomputed; ``supports``, when given, is a
    dict that keeps the search's support tables of b between calls
    (``search.hom_search``).
    """
    m = next(_iso_maps(a, b, inv_a, inv_b, supports), None)
    return None if m is None else validate_hom(a, b, m)


def all_isomorphisms(a: FiniteRack, b: FiniteRack) -> list[Hom]:
    """Every pointed isomorphism, sorted by map tuple."""
    return [validate_hom(a, b, m) for m in sorted(_iso_maps(a, b))]


def enumerate_pointed_racks(n: int) -> list[FiniteRack]:
    """All pointed racks of order n up to pointed isomorphism.

    Representatives carry basepoint 0 and are listed in lexicographic table
    order.  Generation fixes the basepoint row and column and runs one
    ``assignments`` search with a variable per other column: column 1
    first, each column ranging over the permutations of 1..n-1 in
    ``permutations`` order.  The domain of column k places each candidate
    in the table and yields it only when every self-distributivity triple
    (a, b, c) whose reads have just become known, those with
    max(b, c, b ◁ c) = k, holds, so a failing partial table is abandoned
    with all its completions; it relies on the kernel drawing its next
    candidate only after every completion of the current one.  Triples
    with b = c = 0 read only the fixed column 0 and hold in every
    candidate; every other triple is tested at exactly one level.  If
    b ◁ c = k for placed columns b and c, those triples say
    σ_c σ_b = σ_k σ_c for the columns σ, so column k can only be
    σ_c σ_b σ_c⁻¹, and that column is its only candidate.  So the leaves
    reached are exactly the racks among the tables of the full product of
    column permutations, in that product's order.  Each is validated and
    deduplicated, by ``find_isomorphism``, against the representatives
    found before it with the same sorted element invariants, the only ones
    it can be isomorphic to; the invariants of each leaf and each
    representative are computed once, and the support tables of each
    representative built once.
    Orders above ``ENUMERATION_CEILING`` raise ``BoundExceeded`` before
    anything is enumerated.
    """
    if n < 1:
        raise ValueError("rack order must be positive")
    if n > ENUMERATION_CEILING:
        raise BoundExceeded(f"order {n} exceeds the enumeration ceiling {ENUMERATION_CEILING}")
    table = [[0] * n for _ in range(n)]
    for a in range(1, n):
        table[a][0] = a
    perms = list(permutations(range(1, n)))

    def column(k: int):
        """The domain of column k: σ_c σ_b σ_c⁻¹ if b ◁ c = k for some b, c < k,
        else every permutation, each placed as column k of ``table`` and
        yielded when ``triples_hold(k)``.  It reads columns 0..k-1 of
        ``table``, which the domains of the earlier columns have placed."""

        def domain(cols: list):
            candidates = perms
            for c, b in product(range(1, k), repeat=2):
                if table[b][c] == k:
                    back = [0] * n
                    for a, row in enumerate(table):
                        back[row[c]] = a
                    candidates = (tuple(table[table[back[a]][b]][c] for a in range(1, n)),)
                    break
            for col in candidates:
                for a, v in enumerate(col, 1):
                    table[a][k] = v
                if triples_hold(k):
                    yield col

        return domain

    def triples_hold(k: int) -> bool:
        """Whether the triples first readable at column k hold in ``table``."""
        for b in range(k + 1):
            row_b = table[b]
            for c in range(k + 1):
                bc = row_b[c]
                if max(b, c, bc) != k:
                    continue
                for row_a in table:
                    if table[row_a[b]][c] != table[row_a[c]][bc]:
                        return False
        return True

    # classes[sorted invariants]: the representatives found so far, each with
    # its invariants and the support tables of the searches into it
    classes: dict[tuple, list[tuple[FiniteRack, tuple, dict]]] = {}
    for _ in assignments([column(k) for k in range(1, n)]):
        rack = validate_rack(table, 0)
        inv = element_invariants(rack)
        twins = classes.setdefault(tuple(sorted(inv)), [])
        if all(
            find_isomorphism(rack, rep, inv_a=inv, inv_b=rep_inv, supports=supports) is None
            for rep, rep_inv, supports in twins
        ):
            twins.append((rack, inv, {}))
    return sorted((twin[0] for twins in classes.values() for twin in twins), key=lambda r: r.table)


def enumerate_pointed_racks_bruteforce(n: int) -> list[FiniteRack]:
    """Unpruned cross-check: every table and every basepoint, then dedupe.

    Deliberately shares no generation logic with enumerate_pointed_racks;
    kept to tiny orders because the candidate space is n^(n^2) * n.
    """
    if n < 1:
        raise ValueError("rack order must be positive")
    if n > BRUTEFORCE_LIMIT:
        raise BoundExceeded(f"unpruned enumeration is limited to order {BRUTEFORCE_LIMIT}")
    reps: list[FiniteRack] = []
    for flat in product(range(n), repeat=n * n):
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        for bp in range(n):
            try:
                rack = validate_rack(table, bp)
            except AxiomError:
                continue
            if any(find_isomorphism(rack, rep) is not None for rep in reps):
                continue
            reps.append(rack)
    reps.sort(key=lambda r: (r.table, r.basepoint))
    return reps
