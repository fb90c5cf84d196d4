"""Per-layer attribution of a cProfile run.

A layer is a package of ``repro`` (:data:`LAYERS`).  A function's layer
is read from its source file.  Self time of functions outside ``repro``
(stdlib, builtins) is charged to the layer that called them, split by
pstats' per-caller self time and followed up through callers that are
themselves outside ``repro``.  Frames of this benchmark are the
``bench`` layer, so the shares of one profile sum to 1.
"""

from __future__ import annotations

import pkgutil
import pstats
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro

#: Every module directly under ``repro`` -> the layer it reports to.
LAYERS: Dict[str, str] = {
    "sim": "sim", "net": "net", "packets": "packets", "identities": "packets",
    "gsm": "gsm", "gprs": "gprs", "h323": "h323", "pstn": "pstn",
    "core": "core", "errors": "core", "__init__": "core", "__main__": "core",
    "media": "media", "obs": "obs", "serve": "serve", "faults": "faults",
    "analysis": "analysis", "lint": "lint",
}
BENCH = "bench"
LAYER_NAMES: Tuple[str, ...] = tuple(sorted(set(LAYERS.values()))) + (BENCH,)

REPRO_DIR = Path(repro.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent

FuncKey = Tuple[str, int, str]


def unmapped_modules() -> List[str]:
    """Modules under ``repro`` that :data:`LAYERS` does not cover."""
    names = [m.name for m in pkgutil.iter_modules([str(REPRO_DIR)])]
    return sorted(name for name in names if name not in LAYERS)


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` outside repro."""
    if filename.startswith(("~", "<")):
        return None
    path = Path(filename).resolve()
    if path.is_relative_to(BENCH_DIR):
        return BENCH
    if not path.is_relative_to(REPRO_DIR):
        return None
    top = path.relative_to(REPRO_DIR).parts[0].removesuffix(".py")
    if top not in LAYERS:
        raise ValueError(f"repro module {top!r} has no layer in LAYERS")
    return LAYERS[top]


class Attribution:
    """Self time and entry counts per layer for one pstats profile."""

    def __init__(self, stats: pstats.Stats) -> None:
        self._raw: Dict[FuncKey, tuple] = stats.stats  # type: ignore[attr-defined]
        self._layer = {key: layer_of_file(key[0]) for key in self._raw}
        # external function -> {layer: share of its self time}
        self._owners: Dict[FuncKey, Dict[str, float]] = {}
        self.self_time: Dict[str, float] = dict.fromkeys(LAYER_NAMES, 0.0)
        #: layer -> [(self seconds, function label)] including charged
        #: external time, for the top-N report.
        self.functions: Dict[str, List[Tuple[float, str]]] = defaultdict(list)
        self.entries: Dict[str, int] = dict.fromkeys(LAYER_NAMES, 0)
        for key, (_cc, _nc, tt, _ct, callers) in self._raw.items():
            layer = self._layer[key]
            if layer is not None:
                self.self_time[layer] += tt
                self.functions[layer].append((tt, label(key)))
                for caller, edge in callers.items():
                    if self._layer.get(caller) != layer:
                        self.entries[layer] += edge[1]
                continue
            for owner, share in self._owner(key).items():
                self.self_time[owner] += tt * share
                self.functions[owner].append((tt * share, label(key)))

    def _owner(self, key: FuncKey, depth: int = 0) -> Dict[str, float]:
        """How an external function's self time splits across layers."""
        if key in self._owners:
            return self._owners[key]
        self._owners[key] = {BENCH: 1.0}  # breaks call cycles
        callers = self._raw[key][4]
        weights = {c: edge[2] for c, edge in callers.items() if c in self._raw}
        total = sum(weights.values())
        if not weights or depth > 50:
            return self._owners[key]
        if total <= 0:  # no time measured on any edge: split by calls
            weights = {c: float(callers[c][1]) for c in weights}
            total = sum(weights.values()) or 1.0
        split: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            layer = self._layer[caller]
            dist = {layer: 1.0} if layer is not None else self._owner(caller, depth + 1)
            for owner, share in dist.items():
                split[owner] += share * weight / total
        self._owners[key] = dict(split)
        return self._owners[key]

    def shares(self) -> Dict[str, float]:
        total = sum(self.self_time.values()) or 1.0
        return {layer: t / total for layer, t in self.self_time.items()}

    def top(self, n: int = 10) -> Dict[str, List[Tuple[str, float]]]:
        """The *n* functions with the most self time in each layer."""
        return {
            layer: [(name, t) for t, name in sorted(funcs, reverse=True)[:n]]
            for layer, funcs in sorted(self.functions.items())
        }

    def calls(self, func: Callable[..., Any], primitive: bool = False) -> int:
        """Calls of the Python function *func*; with *primitive*, only
        the calls that did not come from *func* itself."""
        code = func.__code__
        entry = self._raw.get((code.co_filename, code.co_firstlineno, code.co_name))
        if entry is None:
            return 0
        return entry[0] if primitive else entry[1]


def label(key: FuncKey) -> str:
    filename, line, func = key
    path = Path(filename)
    if filename.startswith(("~", "<")):
        return func
    try:
        path = path.resolve().relative_to(REPRO_DIR.parent)
    except ValueError:
        path = Path(path.name)
    return f"{path}:{line}({func})"
