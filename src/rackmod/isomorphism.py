"""Basepoint-preserving isomorphism search and small-order rack enumeration."""

from __future__ import annotations

from itertools import permutations, product

from .errors import AxiomError, BoundExceeded
from .racks import FiniteRack, rack_orbits, validate_rack
from .tables import Hom, validate_hom

DEFAULT_ENUMERATION_BOUND = 4
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


def _iso_maps(a: FiniteRack, b: FiniteRack, first_only: bool) -> list[tuple[int, ...]]:
    if a.size != b.size:
        return []
    inv_a = element_invariants(a)
    inv_b = element_invariants(b)
    if sorted(inv_a) != sorted(inv_b):
        return []
    cands = [
        tuple(y for y in range(b.size) if inv_b[y] == inv_a[x])
        for x in range(a.size)
    ]
    # most constrained element first, ties by lowest index
    order = sorted(range(a.size), key=lambda x: (len(cands[x]), x))
    img = [-1] * a.size
    used = [False] * b.size
    found: list[tuple[int, ...]] = []

    def consistent(x: int) -> bool:
        for y in range(a.size):
            if img[y] < 0:
                continue
            for p, q in ((x, y), (y, x)):
                t = a.table[p][q]
                if img[t] >= 0 and img[t] != b.table[img[p]][img[q]]:
                    return False
        return True

    def extend(k: int) -> bool:
        if k == a.size:
            found.append(tuple(img))
            return first_only
        x = order[k]
        for y in cands[x]:
            if used[y]:
                continue
            img[x] = y
            used[y] = True
            if consistent(x) and extend(k + 1):
                return True
            img[x] = -1
            used[y] = False
        return False

    extend(0)
    return found


def find_isomorphism(a: FiniteRack, b: FiniteRack) -> Hom | None:
    """First pointed isomorphism in the deterministic search order, if any."""
    maps = _iso_maps(a, b, first_only=True)
    if not maps:
        return None
    return validate_hom(a, b, maps[0])


def all_isomorphisms(a: FiniteRack, b: FiniteRack) -> list[Hom]:
    """Every pointed isomorphism, sorted by map tuple."""
    maps = sorted(_iso_maps(a, b, first_only=False))
    return [validate_hom(a, b, m) for m in maps]


def rack_automorphisms(r: FiniteRack) -> list[Hom]:
    return all_isomorphisms(r, r)


def enumerate_pointed_racks(n: int, *, bound: int = DEFAULT_ENUMERATION_BOUND) -> list[FiniteRack]:
    """All pointed racks of order n up to pointed isomorphism.

    Representatives carry basepoint 0 and are listed in lexicographic table
    order.  Generation fixes the basepoint row and column and searches depth
    first over the other columns, one per level: column 1 first, each column
    ranging over the permutations of 1..n-1 in ``permutations`` order.  Once
    column k is placed, every self-distributivity triple (a, b, c) whose
    reads have just become known, those with max(b, c, b ◁ c) = k, is
    tested, and a failing partial table is abandoned with all its
    completions.  Triples with b = c = 0 read only the fixed column 0 and
    hold in every candidate; every other triple is tested at exactly one
    level.  So the leaves reached are exactly the racks among the tables of
    the full product of column permutations, in that product's order, and
    each is validated and deduplicated against the representatives found
    before it.
    """
    if n < 1:
        raise ValueError("rack order must be positive")
    if n > bound:
        raise BoundExceeded(f"order {n} exceeds the enumeration bound {bound}")
    table = [[0] * n for _ in range(n)]
    for a in range(1, n):
        table[a][0] = a
    column_values = list(permutations(range(1, n)))
    reps: list[FiniteRack] = []

    def distributive_through(k: int) -> bool:
        """Self-distributivity on the triples first readable at column k."""
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

    def place(k: int) -> None:
        if k == n:
            rack = validate_rack(table, 0)
            if not any(find_isomorphism(rack, rep) is not None for rep in reps):
                reps.append(rack)
            return
        for col in column_values:
            for a, v in enumerate(col, 1):
                table[a][k] = v
            if distributive_through(k):
                place(k + 1)

    place(1)
    reps.sort(key=lambda r: r.table)
    return reps


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
