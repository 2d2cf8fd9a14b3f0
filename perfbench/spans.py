"""Spans around calls into rackmod's public functions, for the traced run.

``install`` wraps every public module-level function of each layer module
and rebinds the wrapper in every ``rackmod`` namespace that holds the
original (``from .x import f`` copies the name into each importer), and in
module-level dispatch tables such as ``interchange._PARSERS``. Per-element
accessors (methods such as ``op`` and ``act``, and ``evaluate_word``) are
not wrapped. Spans are kept in memory as (parent, name, start, end, ok,
count) tuples and aggregated into per-layer metrics per pass, except
``corpus.catalog_ms``, which ``catalog_ms`` reads from a traced set-up.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import defaultdict
from functools import wraps
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

LAYERS = ("cli", "interchange", "tables", "racks", "groups", "xmod", "isomorphism",
          "functors", "pullback", "corpus")
NOT_WRAPPED = {"functors.evaluate_word"}

class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = FUNCTIONS[name].counter if name in FUNCTIONS else None

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            ok, result = False, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                count = counter(args, result) if ok and counter else None
                spans[sid] = (parent, name, t0, t1, ok, count)

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"rackmod.{layer}"]
            for attr, value in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in NOT_WRAPPED or inspect.isclass(value)
                        or not callable(value) or getattr(value, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(value)] = self.wrap(name, value)
        for modname, mod in list(sys.modules.items()):
            if modname != "rackmod" and not modname.startswith("rackmod."):
                continue
            for attr, value in list(vars(mod).items()):
                new = _rebind(value, wrapped)
                if new is not value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._restore.append((value, key, item))
                            value[key] = wrapped[id(item)]

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def take(self) -> list[tuple]:
        """The spans recorded since the last call.

        A RecursionError can unwind past a wrapper before it records its
        span; such spans stay None and are dropped, and the stack is reset.
        """
        spans = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return spans


def _rebind(value, wrapped):
    """The wrapper for a function, or a tuple rebuilt with wrappers inside."""
    if id(value) in wrapped:
        return wrapped[id(value)]
    if isinstance(value, tuple) and value:
        items = tuple(_rebind(v, wrapped) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


# ------------------------------------------------------------- aggregation

PER_LAYER = [
    ("cli.self_ms", "ms"),
    ("interchange.self_ms", "ms"), ("interchange.load_ms", "ms"), ("interchange.parse_ms", "ms"),
    ("interchange.bytes_read", "bytes"), ("interchange.emit_ms", "ms"),
    ("interchange.bytes_written", "bytes"),
    ("tables.normalize_ms", "ms"),
    ("racks.self_ms", "ms"), ("racks.validate_rack_ms", "ms"), ("racks.validate_rack.calls", "count"),
    ("racks.validate_rack_hom_ms", "ms"), ("racks.validate_rack_hom.calls", "count"),
    ("racks.construct_ms", "ms"),
    ("groups.self_ms", "ms"), ("groups.validate_group_ms", "ms"),
    ("groups.validate_group.calls", "count"), ("groups.validate_group_hom_ms", "ms"),
    ("groups.validate_group_hom.calls", "count"),
    ("xmod.self_ms", "ms"), ("xmod.validate_action_ms", "ms"), ("xmod.validate_action.calls", "count"),
    ("xmod.validate_xmod_ms", "ms"), ("xmod.validate_xmod.calls", "count"),
    ("xmod.validate_morphism_ms", "ms"), ("xmod.validate_morphism.calls", "count"),
    ("xmod.iso_search_ms", "ms"), ("xmod.iso_pairs_tried", "count"), ("xmod.iso_hit_ratio", "ratio"),
    ("isomorphism.self_ms", "ms"), ("isomorphism.iso_ms", "ms"), ("isomorphism.isos_listed", "count"),
    ("isomorphism.enumerate_ms", "ms"), ("isomorphism.find_isomorphism.calls", "count"),
    ("isomorphism.dedup_ratio", "ratio"),
    ("functors.self_ms", "ms"), ("functors.rack_homs_ms", "ms"), ("functors.presented_homs_ms", "ms"),
    ("functors.compare_ms", "ms"), ("functors.homs_found", "count"),
    ("pullback.self_ms", "ms"), ("pullback.universal_search_ms", "ms"), ("pullback.search_space", "count"),
    ("pullback.construct_ms", "ms"), ("pullback.conj_preserves_ms", "ms"),
    ("corpus.self_ms", "ms"), ("corpus.catalog_ms", "ms"),
    ("trace.pass_s", "s"), ("trace.accounted_frac", "ratio"), ("trace.overhead_s", "s"),
]
# Metrics of the traced set-up and of the run as a whole; ``aggregate`` gives the rest.
NOT_PER_PASS = {"corpus.catalog_ms", "trace.pass_s", "trace.accounted_frac", "trace.overhead_s"}
PER_PASS = {name for name, _ in PER_LAYER} - NOT_PER_PASS

# Module self times that partition all time spent under the spans.
MODULE_SELF = ["cli.self_ms", "interchange.self_ms", "tables.normalize_ms", "racks.self_ms",
               "groups.self_ms", "xmod.self_ms", "isomorphism.self_ms", "functors.self_ms",
               "pullback.self_ms", "corpus.self_ms"]
_MODULE_KEY = {"tables": "tables.normalize_ms"}


@dataclass(frozen=True)
class Fn:
    """What a traced function adds beyond its module's self time.

    ``self_ms`` also gets the span's self time, ``calls`` one per call, and
    ``count`` the value of ``counter(args, result)`` for a call that returned.
    """

    self_ms: str | None = None
    calls: str | None = None
    count: str | None = None
    counter: Callable[[tuple, Any], int] | None = None


def _file_size(i):
    return lambda args, res: os.path.getsize(args[i])


def _length(args, res):
    return len(res)


def _hom_count(args, res):
    return res.count


def _search_space(args, res):
    return res.search_space


_RACK = Fn("racks.validate_rack_ms", "racks.validate_rack.calls")
_XMOD = Fn("xmod.validate_xmod_ms", "xmod.validate_xmod.calls")
_MORPHISM = Fn("xmod.validate_morphism_ms", "xmod.validate_morphism.calls")
_ISO = Fn("isomorphism.iso_ms")
_ENUMERATE = Fn("isomorphism.enumerate_ms", counter=_length)
_RACK_HOMS = Fn("functors.rack_homs_ms", count="functors.homs_found", counter=_hom_count)
_COMPARE = Fn("functors.compare_ms")
_UNIVERSAL = Fn("pullback.universal_search_ms", count="pullback.search_space", counter=_search_space)

FUNCTIONS = {
    "interchange.load_document": Fn(count="interchange.bytes_read", counter=_file_size(0)),
    "interchange.write_document": Fn(count="interchange.bytes_written", counter=_file_size(1)),
    "racks.validate_rack": _RACK,
    "racks.validate_unpointed_rack": _RACK,
    "racks.validate_rack_hom": Fn("racks.validate_rack_hom_ms", "racks.validate_rack_hom.calls"),
    "groups.validate_group": Fn("groups.validate_group_ms", "groups.validate_group.calls"),
    "groups.validate_group_hom": Fn("groups.validate_group_hom_ms", "groups.validate_group_hom.calls"),
    "xmod.validate_action": Fn("xmod.validate_action_ms", "xmod.validate_action.calls"),
    "xmod.validate_rack_xmod": _XMOD,
    "xmod.validate_group_xmod": _XMOD,
    "xmod.validate_xmod_morphism": _MORPHISM,
    "xmod.validate_group_xmod_morphism": _MORPHISM,
    "xmod.find_xmod_isomorphism": Fn("xmod.iso_search_ms"),
    "isomorphism.find_isomorphism": Fn("isomorphism.iso_ms", "isomorphism.find_isomorphism.calls"),
    "isomorphism.all_isomorphisms": Fn("isomorphism.iso_ms", count="isomorphism.isos_listed",
                                       counter=_length),
    "isomorphism.rack_automorphisms": _ISO,
    "isomorphism.element_invariants": _ISO,
    "isomorphism.enumerate_pointed_racks": _ENUMERATE,
    "isomorphism.enumerate_pointed_racks_bruteforce": _ENUMERATE,
    "functors.enumerate_rack_homs": _RACK_HOMS,
    "functors.enumerate_rack_homs_bruteforce": Fn("functors.rack_homs_ms"),
    "functors.enumerate_presented_homs": Fn("functors.presented_homs_ms", count="functors.homs_found",
                                            counter=_hom_count),
    "functors.as_presentation": Fn("functors.presented_homs_ms"),
    "functors.check_adjunction_bijection": _COMPARE,
    "functors.check_xmod_adjunction": _COMPARE,
    "pullback.verify_universal_property": _UNIVERSAL,
    "pullback.verify_group_universal_property": _UNIVERSAL,
    "pullback.check_conj_preserves_pullback": Fn("pullback.conj_preserves_ms"),
}


def _interchange_part(fn: str) -> str:
    if fn == "load_document":
        return "interchange.load_ms"
    if fn.startswith("parse_"):
        return "interchange.parse_ms"
    return "interchange.emit_ms"


def aggregate(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one pass: self times in ms, counts, ratios."""
    child_time = defaultdict(float)
    for span in spans:
        if span is not None and span[0] >= 0:
            child_time[span[0]] += span[3] - span[2]
    m = defaultdict(float)
    pairs_tried = iso_hits = dedup_calls = reps = 0
    for sid, span in enumerate(spans):
        if span is None:
            continue
        parent, name, t0, t1, ok, count = span
        self_ms = (t1 - t0 - child_time[sid]) * 1000.0
        layer, fn = name.split(".", 1)
        m[_MODULE_KEY.get(layer, f"{layer}.self_ms")] += self_ms
        if layer == "interchange":
            m[_interchange_part(fn)] += self_ms
        info = FUNCTIONS.get(name)
        if info is None:
            if layer in ("racks", "pullback"):
                m[f"{layer}.construct_ms"] += self_ms
        else:
            if info.self_ms:
                m[info.self_ms] += self_ms
            if info.calls:
                m[info.calls] += 1
            if info.count and count is not None:
                m[info.count] += count
        parent_name = spans[parent][1] if parent >= 0 and spans[parent] else ""
        if parent_name == "xmod.find_xmod_isomorphism" and fn == "validate_xmod_morphism":
            pairs_tried += 1
            iso_hits += ok
        if parent_name.startswith("isomorphism.enumerate_pointed_racks") and fn == "find_isomorphism":
            dedup_calls += 1
        if name == "isomorphism.enumerate_pointed_racks" and count is not None:
            reps += count
    m["xmod.iso_pairs_tried"] = pairs_tried
    m["xmod.iso_hit_ratio"] = iso_hits / pairs_tried if pairs_tried else 0.0
    m["isomorphism.dedup_ratio"] = reps / dedup_calls if dedup_calls else 0.0
    return {name: m.get(name, 0.0) for name, _ in PER_LAYER if name in PER_PASS}


def catalog_ms(spans: list[tuple]) -> float:
    """Time under the outermost ``corpus`` spans, children included: the catalog builds."""
    inside: set[int] = set()
    total = 0.0
    for sid, span in enumerate(spans):
        if span is None or not span[1].startswith("corpus."):
            continue
        inside.add(sid)
        if span[0] not in inside:
            total += span[3] - span[2]
    return total * 1000.0


def write_spans(spans: list[tuple], path: Path) -> None:
    """One JSON object per span; ids are list positions, parent -1 for roots."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for sid, span in enumerate(spans):
            if span is None:
                continue
            parent, name, t0, t1, ok, count = span
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0,
                                 "end": t1, "ok": ok, "count": count}) + "\n")
