"""One substructure core for racks and groups: ``substructure``,
``inclusion_xmod``, ``is_normal_subrack`` and ``kernel`` on every subset of
every corpus rack and group.

The rack outcomes are pinned by a digest taken through the rack-only
functions these replaced (``inclusion_rack_hom`` beside ``inclusion_xmod``
and ``is_normal_subrack``), and the group successes by one taken through
``groups.subgroup`` and ``xmod.inclusion_group_xmod``.
"""

import hashlib
import json

from rackmod import (
    NormalityCheck,
    inclusion_xmod,
    is_normal_subrack,
    kernel,
    substructure,
)
from rackmod.errors import BasepointMissing, NotNormal, RackAlgebraError

RACK_OUTCOMES_SHA256 = "a6f1c7b88d1eb5cbfc7c0c70d32bc5a546b632b9435033a76fc8eed6fe135500"
GROUP_SUCCESSES_SHA256 = "110a9d3a6624b57c7d939ed3f8e70435df799fbf786d07e4cf357c12aa4d81fa"


def _structure(x):
    return [type(x).__name__, x.table, x.basepoint, x.labels]


def _outcome(call):
    """The exception's class, witness and message, or the result's tables and labels."""
    try:
        result = call()
    except (RackAlgebraError, ValueError) as exc:
        return [type(exc).__name__, getattr(exc, "witness", None), str(exc)]
    if hasattr(result, "action"):
        return ["XMod", _structure(result.dom), _structure(result.cod), result.boundary.map,
                result.action]
    if hasattr(result, "map"):
        return ["Hom", _structure(result.dom), _structure(result.cod), result.map]
    return [type(result).__name__, result.ok, result.witness]


def _subsets(n):
    for mask in range(2**n):
        yield [i for i in range(n) if mask >> i & 1]


def _digest(rows):
    return hashlib.sha256(json.dumps(rows, ensure_ascii=False).encode()).hexdigest()


def test_rack_outcomes_on_every_subset_are_pinned(racks):
    rows = []
    for name, r in racks.items():
        for s in _subsets(r.size):
            rows.append([name, s, "xmod", _outcome(lambda: inclusion_xmod(s, r))])
            rows.append([name, s, "inclusion", _outcome(lambda: substructure(r, s))])
            rows.append([name, s, "normal", _outcome(lambda: is_normal_subrack(s, r))])
    assert len(rows) == 3 * 130
    assert _digest(rows) == RACK_OUTCOMES_SHA256


def test_group_successes_on_every_subset_are_pinned(groups):
    rows = []
    for name, g in groups.items():
        for s in _subsets(g.size):
            xm = _outcome(lambda: inclusion_xmod(s, g))
            if xm[0] == "XMod":
                rows.append([name, s, "xmod", xm])
                rows.append([name, s, "inclusion", _outcome(lambda: substructure(g, s))])
    assert len(rows) == 2 * 16
    assert _digest(rows) == GROUP_SUCCESSES_SHA256


def test_group_subsets_fail_in_the_rack_order(groups):
    """Missing identity, then the first conjugate that escapes, then closure."""
    counts = {}
    for g in groups.values():
        for s in _subsets(g.size):
            members = set(s)
            try:
                inclusion_xmod(s, g)
                outcome = "ok"
            except BasepointMissing:
                assert g.identity not in members
                outcome = "basepoint"
            except NotNormal as exc:
                n, b, v = exc.witness
                assert g.identity in members and n in members and v not in members
                assert v == g.conj(n, b)
                outcome = "normal"
            except ValueError as exc:
                assert "not closed at" in str(exc)
                outcome = "closed"
            counts[outcome] = counts.get(outcome, 0) + 1
    assert counts == {"basepoint": 82, "normal": 28, "closed": 38, "ok": 16}


def test_kernels_are_the_normal_preimage_of_the_basepoint(rack_homs, group_homs):
    for name, f in {**rack_homs, **group_homs}.items():
        k = kernel(f)
        assert k.map == tuple(a for a in f.dom.elements() if f.map[a] == f.cod.basepoint), name
        assert k.cod is f.dom and type(k.dom) is type(f.dom), name
        assert inclusion_xmod(k.map, f.dom).boundary == k, name


def test_normality_in_a_group_is_closure_under_conjugation(groups):
    s3 = groups["s3"]
    assert is_normal_subrack([0, 3, 4], s3).ok
    # (23) conjugated by (12) is (13)
    assert is_normal_subrack([0, 1], s3) == NormalityCheck(False, (1, 2, 5))
