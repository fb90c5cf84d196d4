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

An entry costs what its readers use.  A message delivered over a
wire-fidelity link is recorded with the bytes the link already made
(:meth:`TraceRecorder.record_wire`); its ``info`` dict is decoded from
them on first read and then kept.  While the sinks run, such an entry
also carries the delivered layers' correlation items, so the span
tracker reads the correlation keys (:meth:`TraceEntry.correlation`)
without the dict.  Entries recorded any other way (wire-off links,
drops, notes) hold their ``info`` dict from the start.

Retained history is opt-in per run.  Batch runs, tests and the flow
projections keep every entry (the default).  A long-lived run switches
``Simulator.retain_history`` off: each entry is handed to every sink
(spans, flight recorder), then counted in :attr:`TraceRecorder.dropped`
instead of kept, so memory stays flat in run length; ``repro serve``
does this unless an exporter (``--trace-out``, ``--timeline-out``) needs
the whole run.  Queries and exporters then raise
:class:`~repro.errors.TraceWindowError` rather than answer from an
empty list.  Soak runs can also disable the recorder (``enabled =
False``) or keep a rolling window (:meth:`TraceRecorder.set_limit`).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import TraceWindowError
from repro.packets.base import Packet, WireSnapshot, merge_correlation

_set = object.__setattr__

#: The positional fields of an entry, in constructor order.
_FIELDS = ("time", "kind", "src", "dst", "interface", "message")
_SLOTS = (*_FIELDS, "_data")


class TraceEntry:
    """One recorded protocol event; immutable.

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
        Free-form detail dictionary (call ids, IMSIs, ...).  An entry
        recorded from delivered bytes builds it on first read, as
        ``Packet.parse(data).trace_info()``, and keeps it.

    One slot, ``_data``, holds the ``info`` dict, or the delivered
    bytes (the whole :data:`~repro.packets.base.WireSnapshot`, with the
    layers' correlation items, while the sinks run).  Equality and
    hashing ignore ``info``; pickling keeps the built dict.
    """

    __slots__ = _SLOTS

    time: float
    kind: str
    src: str
    dst: str
    interface: str
    message: str
    _data: Union[Dict[str, Any], bytes, WireSnapshot]

    def __init__(
        self,
        time: float,
        kind: str,
        src: str,
        dst: str,
        interface: str,
        message: str,
        info: Optional[Dict[str, Any]] = None,
    ) -> None:
        _set(self, "time", time)
        _set(self, "kind", kind)
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "interface", interface)
        _set(self, "message", message)
        _set(self, "_data", {} if info is None else info)

    @property
    def info(self) -> Dict[str, Any]:
        data = self._data
        if isinstance(data, dict):
            return data
        if isinstance(data, tuple):  # the sinks are running
            data = data[0]
        info = Packet.parse(data).trace_info()
        _set(self, "_data", info)
        return info

    def correlation(self) -> Dict[str, Any]:
        """A mapping holding at least the correlation keys of ``info``
        (``imsi``, ``call_ref``, ``ti``, ``alias``, ``invoke_id``).

        While the sinks run, an entry recorded from delivered bytes
        merges them from the layers' correlation items; otherwise this
        is ``info``."""
        data = self._data
        if isinstance(data, tuple):
            return merge_correlation(data[1])
        return self.info

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> Tuple[Any, ...]:
        return (self.time, self.kind, self.src, self.dst, self.interface,
                self.message)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not TraceEntry:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __getstate__(self) -> Tuple[Any, ...]:
        return (*self._key(), self.info)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        for name, value in zip(_SLOTS, state):
            _set(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS)
        return f"TraceEntry({fields}, info={self.info!r})"

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
        self._add(TraceEntry(self._clock(), kind, src, dst, interface, message, info))

    def record_wire(
        self,
        src: str,
        dst: str,
        interface: str,
        message: str,
        snapshot: WireSnapshot,
    ) -> None:
        """Record a ``"msg"`` entry for a message a wire-fidelity link
        delivered, from the :meth:`Packet.wire_copy` *snapshot* of it.
        The entry keeps the bytes and builds its ``info`` on first read;
        the layers' correlation items serve the sinks and are let go
        when they return.  The caller has checked ``enabled`` and
        ``quiet_names``, as it must to name the message."""
        entry = TraceEntry(self._clock(), "msg", src, dst, interface, message)
        _set(entry, "_data", snapshot)
        self._add(entry)
        if entry._data is snapshot:  # no sink read info
            _set(entry, "_data", snapshot[0])

    def _add(self, entry: TraceEntry) -> None:
        """Keep *entry* (when retaining) and hand it to every sink."""
        if self.retain:
            self.entries.append(entry)
            if entry.kind == "msg":
                self._msg_count += 1
                bucket = self._msg_index.get(entry.message)
                if bucket is None:
                    bucket = self._msg_index[entry.message] = []
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
