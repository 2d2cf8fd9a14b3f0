"""Basepoint-preserving isomorphism search and small-order rack enumeration.

Both are ``search.assignments`` searches whose domains alone decide the
values tried.  The isomorphism search is the hom search: its builder,
``search.iso_search``, files the hom laws (``hom_search``) in the solving
order of every hom-set search (``search._solving_order``), and
injectivity as one more read per earlier variable.  Rack enumeration's
column domains place each candidate column in the table being built and
yield it only when the self-distributivity triples it completes hold and
no relabelling makes the placed columns smaller, so it makes one table per
isomorphism class and no isomorphism search.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from itertools import permutations, product

from .errors import AxiomError, BoundExceeded
from .racks import FiniteRack, validate_rack
from .search import _law_letters, _solving_order, assignments, iso_search
from .tables import Hom, _check_endpoints, validate_hom

# The largest order whose enumeration finishes in seconds (order 7: about 0.9 s
# on a 2-vCPU VM; order 8 is not measured).
ENUMERATION_CEILING = 7
BRUTEFORCE_LIMIT = 3


def _iso_maps(a: FiniteRack, b: FiniteRack) -> Iterator[tuple[int, ...]]:
    """Every pointed isomorphism a -> b as a map tuple, in search order.

    One ``search.iso_search``, the hom search with injectivity, in the
    solving order of a's law letters, ``search._solving_order``, the order
    of every hom-set search.  Racks of different sizes have no isomorphism,
    so no search runs for them.  Endpoints that no hom joins raise the
    ``ValueError`` of ``validate_hom`` before the letters, which read the
    basepoint, are taken.
    """
    _check_endpoints(a, b)
    if a.size != b.size:
        return
    var = _solving_order(_law_letters(a), a.size)
    for img in assignments(iso_search(a, b, var, a.size)):
        yield tuple(img[v] for v in var)


def find_isomorphism(a: FiniteRack, b: FiniteRack) -> Hom | None:
    """The first pointed isomorphism in the solving order, if any: the least
    map when its images are read in the order in which the search assigns
    a's elements.

    Each call builds the support tables of b's search afresh.
    """
    m = next(_iso_maps(a, b), None)
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
    ``permutations`` order, so the leaves come out in the lexicographic
    order of (column 1, ..., column n-1).  The domain of column k places
    each candidate in the table and yields it only when two tests pass.
    First, every self-distributivity triple (a, b, c) whose reads have just
    become known, those with max(b, c, b ◁ c) = k, holds; triples with
    b = c = 0 read only the fixed column 0 and hold in every candidate, and
    every other triple is tested at exactly one level.  If b ◁ c = k for
    placed columns b and c, those triples say σ_c σ_b = σ_k σ_c for the
    columns σ, so column k can only be σ_c σ_b σ_c⁻¹, and that column is
    its only candidate.  Second, no relabelling π fixing 0 makes the
    readable prefix smaller (orderly generation: Read, "Every one a
    winner", Ann. Discrete Math. 2, 1978): column j of the relabelled table
    is π[table[π⁻¹a][π⁻¹j]], readable once π⁻¹(j) ≤ k, and the columns
    j = 1, 2, ... are compared while both j ≤ k and π⁻¹(j) ≤ k; the
    candidate is rejected when the first that differs is smaller in the
    relabelled table.  Every completion keeps those columns, so a rejected
    prefix has no completion that is the column-lex-least of its class.
    Only relabellings with π⁻¹(1) ≤ k compare any column at level k, and
    one that makes the readable prefix larger makes every completion
    larger, so it is not tried again below that column.  A
    failing partial table is abandoned with all its completions; this
    relies on the kernel drawing its next candidate only after every
    completion of the current one.  Relabelling a rack gives a rack, so the
    leaves are exactly the column-lex-least racks of their classes: the
    first leaf of each class in the full product of column permutations.
    Each is checked by ``validate_rack``.
    Orders above ``ENUMERATION_CEILING`` raise ``BoundExceeded`` before
    anything is enumerated.
    """
    if n < 1:
        raise ValueError("rack order must be positive")
    if n > ENUMERATION_CEILING:
        raise BoundExceeded(f"order {n} exceeds the enumeration ceiling {ENUMERATION_CEILING}")
    table = [[a] + [0] * (n - 1) for a in range(n)]
    perms = [(0, *p) for p in permutations(range(1, n))]
    # columns[b]: column b of ``table``, rows 0..n-1, once placed
    columns: list = [tuple(range(n))] + [None] * (n - 1)
    # (π⁻¹, π) for each relabelling π fixing 0, in the order of π⁻¹
    relabellings = sorted((tuple(sorted(range(n), key=p.__getitem__)), p) for p in perms)
    # alive[k]: the relabellings that may still reject a completion of
    # columns 1..k as placed, in the same order
    alive: list = [relabellings] + [None] * (n - 1)

    def column(k: int, cols: list):
        """The domain of column k: σ_c σ_b σ_c⁻¹ if b ◁ c = k for some b, c < k,
        else every permutation, each placed as column k of ``table`` and
        ``columns`` and yielded when ``triples_hold(k)`` and ``least(k)``.
        It reads columns 0..k-1, which the domains of the earlier columns
        have placed."""
        candidates = perms
        for c, b in product(range(1, k), repeat=2):
            if table[b][c] == k:
                back = sorted(range(n), key=columns[c].__getitem__)
                candidates = (tuple(table[table[back[a]][b]][c] for a in range(n)),)
                break
        for col in candidates:
            for a, v in enumerate(col):
                table[a][k] = v
            columns[k] = col
            if triples_hold(k) and least(k):
                yield col

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

    def least(k: int) -> bool:
        """Whether no relabelling of ``alive[k - 1]`` makes columns 1..k smaller
        where it can be read.  If none does, ``alive[k]`` keeps those that do
        not make them larger, in the same order: a relabelling that makes
        the readable columns larger does so in every completion, so it can
        never reject one."""
        kept = []
        for at, (back, pi) in enumerate(alive[k - 1]):
            if back[1] > k:
                kept += alive[k - 1][at:]
                break
            for j in range(1, k + 1):
                if back[j] > k:
                    kept.append((back, pi))
                    break
                col = columns[back[j]]
                moved = tuple([pi[col[x]] for x in back])
                if moved < columns[j]:
                    return False
                if moved > columns[j]:
                    break
            else:
                kept.append((back, pi))
        alive[k] = kept
        return True

    leaves = assignments([partial(column, k) for k in range(1, n)])
    return sorted((validate_rack(table, 0) for _ in leaves), key=lambda r: r.table)


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
