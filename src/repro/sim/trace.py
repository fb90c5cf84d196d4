"""Message-sequence tracing.

The paper's "results" are message-flow figures.  Every link-level send in
the simulation is recorded as a :class:`TraceEntry`; integration tests and
benches project the recorded trace onto ``(message, src, dst)`` triples and
compare them against the golden flows transcribed from Figures 4–6
(:mod:`repro.core.flows`).

Recorded ``"msg"`` entries are additionally indexed by message name, so
:meth:`TraceRecorder.first` / :meth:`~TraceRecorder.last` /
:meth:`~TraceRecorder.count` — which scenario drivers call once per
executed event while waiting for a flow step — are O(1) instead of
rescanning the entry list.

Retained history is opt-in per run.  Batch runs, tests and the flow
projections keep every entry (the default).  A long-lived run switches
``Simulator.retain_history`` off: each entry is still built and handed
to every sink (spans, flight recorder), then counted in
:attr:`TraceRecorder.dropped` instead of kept, so memory stays flat in
run length; ``repro serve`` does this unless an exporter (``--trace-out``,
``--timeline-out``) needs the whole run.  Queries and
exporters then raise :class:`~repro.errors.TraceWindowError` rather than
answer from an empty list.  Soak runs can also disable the recorder
(``enabled = False``) or keep a rolling window
(:meth:`TraceRecorder.set_limit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import TraceWindowError


@dataclass(frozen=True)
class TraceEntry:
    """One recorded protocol event.

    Attributes
    ----------
    time:
        Simulated time at which the message was *delivered*.
    kind:
        ``"msg"`` for link-level messages; procedures may record
        ``"note"`` entries for internal milestones (e.g. "PDP context
        created").
    src, dst:
        Node names.
    interface:
        Interface name the message crossed (``Um``, ``Abis``, ``A``,
        ``Gb``, ``Gn``, ``ip``, ...).
    message:
        Message name, e.g. ``"MAP_Update_Location"`` or ``"RAS_RRQ"``.
    info:
        Free-form detail dictionary (call ids, IMSIs, ...).
    """

    time: float
    kind: str
    src: str
    dst: str
    interface: str
    message: str
    info: Dict[str, Any] = field(default_factory=dict, compare=False, hash=False)

    def triple(self) -> Tuple[str, str, str]:
        return (self.message, self.src, self.dst)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for JSONL export; info values that are rich
        objects (IMSI, E164Number, ...) are stringified by the exporter's
        JSON encoder, not here, so in-process consumers keep the
        originals."""
        return {
            "t": self.time,
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "interface": self.interface,
            "message": self.message,
            "info": self.info,
        }


class TraceRecorder:
    """Accumulates :class:`TraceEntry` records in simulation order."""

    #: Message names never recorded — media frames would otherwise swamp
    #: the signalling trace (they are measured through metrics instead).
    DEFAULT_QUIET = frozenset({"TCH_Frame", "RTP", "PCM_Frame"})

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.entries: List[TraceEntry] = []
        self.enabled = True
        #: Keep recorded entries (and the name index).  Off, entries
        #: still reach every sink but are only counted in ``dropped``;
        #: switched with ``Simulator.retain_history``.
        self.retain = True
        self.quiet_names = set(self.DEFAULT_QUIET)
        # message name -> list of "msg"-kind entries bearing that name,
        # in recording order.
        self._msg_index: Dict[str, List[TraceEntry]] = {}
        self._msg_count = 0
        self._limit: Optional[int] = None
        self.dropped = 0
        # Message names that have lost entries to window trimming; point
        # queries about them raise instead of silently answering from a
        # partial window.
        self._evicted_names: set = set()
        #: Subscribers called in order with each recorded entry (after
        #: indexing); the span tracker is the first, appended by the
        #: kernel.  Subscribe by appending.
        self.sinks: List[Callable[[TraceEntry], None]] = []

    def set_limit(self, limit: Optional[int]) -> None:
        """Bound the recorder to roughly *limit* entries (``None`` for
        unbounded).  When the bound is exceeded the oldest half of the
        entries is discarded in one batch — amortised O(1) per record —
        so soak runs keep a window of recent history instead of growing
        without bound.  Windowed traces are for monitoring and metrics;
        golden-flow comparisons need the unbounded mode."""
        if limit is not None and limit < 2:
            raise ValueError(f"trace limit must be >= 2, got {limit!r}")
        self._limit = limit
        if limit is not None and len(self.entries) > limit:
            self._trim(limit)

    @property
    def limit(self) -> Optional[int]:
        return self._limit

    def record(
        self,
        kind: str,
        src: str,
        dst: str,
        interface: str,
        message: str,
        **info: Any,
    ) -> None:
        if not self.enabled or message in self.quiet_names:
            return
        entry = TraceEntry(self._clock(), kind, src, dst, interface, message, info)
        if self.retain:
            self.entries.append(entry)
            if kind == "msg":
                self._msg_count += 1
                bucket = self._msg_index.get(message)
                if bucket is None:
                    bucket = self._msg_index[message] = []
                bucket.append(entry)
            if self._limit is not None and len(self.entries) > self._limit:
                self._trim(self._limit)
        else:
            self.dropped += 1
        for sink in self.sinks:
            sink(entry)

    def _trim(self, limit: int) -> None:
        keep_from = len(self.entries) - limit // 2
        dropped = self.entries[:keep_from]
        del self.entries[:keep_from]
        self.dropped += len(dropped)
        for entry in dropped:
            if entry.kind == "msg":
                self._evicted_names.add(entry.message)
        # Rebuild the index from the surviving window; batch-trimming
        # keeps this amortised O(1) per recorded entry.
        self._msg_index = {}
        self._msg_count = 0
        for entry in self.entries:
            if entry.kind == "msg":
                self._msg_count += 1
                self._msg_index.setdefault(entry.message, []).append(entry)

    def note(self, node: str, text: str, **info: Any) -> None:
        """Record an internal milestone at *node*.  Info keys that would
        shadow the positional fields are suffixed with ``_``."""
        reserved = {"kind", "src", "dst", "interface", "message"}
        safe = {(k + "_" if k in reserved else k): v for k, v in info.items()}
        self.record("note", node, node, "-", text, **safe)

    def clear(self) -> None:
        self.entries.clear()
        self._msg_index.clear()
        self._msg_count = 0
        self.dropped = 0
        # A deliberate clear() resets the eviction bookkeeping too: the
        # caller is starting a fresh measurement window on purpose.
        self._evicted_names.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def messages(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        interface: Optional[str] = None,
        name: Optional[str] = None,
        since: float = 0.0,
    ) -> List[TraceEntry]:
        """Filtered view of recorded ``"msg"`` entries."""
        self.require_history("messages()")
        # A name filter narrows the scan to that message's index bucket.
        pool = self.entries if name is None else self._msg_index.get(name, [])
        out = []
        for e in pool:
            if e.kind != "msg" or e.time < since:
                continue
            if src is not None and e.src != src:
                continue
            if dst is not None and e.dst != dst:
                continue
            if interface is not None and e.interface != interface:
                continue
            out.append(e)
        return out

    def triples(self, **filters: Any) -> List[Tuple[str, str, str]]:
        """``(message, src, dst)`` projection, the golden-flow comparand."""
        return [e.triple() for e in self.messages(**filters)]

    def contains_subsequence(
        self, expected: Iterable[Tuple[str, str, str]], **filters: Any
    ) -> bool:
        """True when *expected* appears in order (not necessarily
        contiguously) within the recorded message triples."""
        actual = self.triples(**filters)
        it = iter(actual)
        return all(any(step == got for got in it) for step in expected)

    def require_history(self, what: str) -> None:
        """Raise :class:`TraceWindowError` when this recorder keeps no
        entries, so *what* (a query or an exporter) cannot answer from
        an empty list as if nothing had happened."""
        if not self.retain:
            raise TraceWindowError(
                f"{what} needs the recorded trace, but this run retains "
                f"no history (retain_history is off; {self.dropped} "
                "entries went to the sinks only).  Set "
                "Simulator.retain_history before the run records."
            )

    def _check_window(self, name: str) -> None:
        """Soak-mode footgun guard: once entries for *name* have been
        evicted by the retention window, or none were kept at all,
        point queries about it would silently under-count (or miss the
        true first occurrence), letting flow assertions pass vacuously.
        Fail loudly instead."""
        self.require_history(f"a query about {name!r}")
        if name in self._evicted_names:
            raise TraceWindowError(
                f"trace entries for {name!r} were evicted by the retention "
                f"window (limit={self._limit!r}, dropped={self.dropped}); "
                "first()/last()/count() would answer from partial history. "
                "Raise the limit, or clear() to start a fresh window."
            )

    def first(self, name: str) -> Optional[TraceEntry]:
        self._check_window(name)
        bucket = self._msg_index.get(name)
        return bucket[0] if bucket else None

    def last(self, name: str) -> Optional[TraceEntry]:
        self._check_window(name)
        bucket = self._msg_index.get(name)
        return bucket[-1] if bucket else None

    def count(self, name: Optional[str] = None) -> int:
        if name is None:
            self.require_history("count()")
            return self._msg_count
        self._check_window(name)
        return len(self._msg_index.get(name, ()))

    def span(self, first_name: str, last_name: str) -> Optional[float]:
        """Elapsed simulated time between the first occurrence of
        *first_name* and the last occurrence of *last_name*."""
        a = self.first(first_name)
        b = self.last(last_name)
        if a is None or b is None:
            return None
        return b.time - a.time
