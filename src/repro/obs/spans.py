"""Correlated procedure spans.

A :class:`Span` marks one protocol procedure — a registration, a call, a
call-setup phase, a talk phase, a release, a handoff — between its
opening and closing simulated instants.  While a span is open it is
registered under its correlation keys (``imsi``, ``call_ref``, ``ti``,
``alias``); every trace entry the recorder sees is matched against the
open keys and attached to the innermost (most recently opened) matching
span.  A run can then be rendered as a per-call tree whose leaves are
exactly the Figures 4-6 flow steps.

Correlation is two-tier:

* **declared keys** — the procedure's own identifiers, registered at
  :meth:`SpanTracker.open` or bound later with :meth:`Span.bind` (a call
  span opens keyed by IMSI at the handset before the VMSC has allocated
  the H.225 call reference; the VMSC binds ``call_ref`` when it does);
* **learned keys** — transaction ids that only the *request* shares with
  the procedure (MAP ``invoke_id``): when a request entry matches a span
  and carries one, the tracker remembers ``(node-pair, invoke_id) ->
  span`` so the response — which carries nothing but the invoke id —
  still lands on the same span.

Spans never mutate trace entries and never schedule events, so enabling
them cannot perturb a seeded run: traces stay byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

#: Correlation fields recognised in trace-entry info dicts, and the
#: order per-field candidates are gathered in (ties resolve to the
#: innermost span by open order, so this order is not a priority).
CORRELATION_FIELDS = ("call_ref", "ti", "imsi", "alias")

#: Transaction-id fields learned from matched requests (scoped to the
#: unordered node pair, because each node draws from its own sequencer).
LEARNED_FIELDS = ("invoke_id",)


class Span:
    """One open-to-close procedure instance."""

    __slots__ = (
        "span_id",
        "name",
        "parent_id",
        "start",
        "end",
        "status",
        "keys",
        "attrs",
        "entries",
        "n_entries",
        "learned",
        "_tracker",
    )

    def __init__(
        self,
        tracker: "SpanTracker",
        span_id: int,
        name: str,
        parent_id: Optional[int],
        start: float,
        keys: Dict[str, str],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracker = tracker
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.keys = keys
        self.attrs = attrs
        #: Attached trace entries, or ``None`` when the tracker does not
        #: retain history (``n_entries`` still counts them).
        self.entries: Optional[List[Any]] = [] if tracker.retain else None
        self.n_entries = 0
        #: Learned-transaction keys registered for this span (``None``
        #: until the first), dropped from the tracker when it closes.
        self.learned: Optional[List[Tuple[str, str, str, str]]] = None

    @property
    def open(self) -> bool:
        return self.end is None

    def bind(self, field: str, value: Any) -> "Span":
        """Add a correlation key after opening (e.g. the VMSC binding the
        allocated ``call_ref`` onto the handset's call span)."""
        if self.open:
            self._tracker._bind(self, field, value)
        return self

    def close(self, status: str = "ok") -> "Span":
        """Close the span; idempotent (later closes keep the first
        status, so error paths may close defensively)."""
        if self.open:
            self._tracker._close(self, status)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span": self.span_id,
            "name": self.name,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "keys": dict(self.keys),
            "attrs": dict(self.attrs),
            "n_entries": self.n_entries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"closed:{self.status}"
        keys = " ".join(f"{k}={v}" for k, v in self.keys.items())
        return f"<Span #{self.span_id} {self.name} [{keys}] {state}>"


class _NullSpan:
    """Returned by a disabled tracker; absorbs bind/close/attrs calls."""

    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: Dict[str, Any] = {}

    open = False
    span_id = -1
    parent_id: Optional[int] = None
    name = "null"
    start = 0.0
    end: Optional[float] = 0.0
    status: Optional[str] = None
    entries: List[Any] = []
    n_entries = 0
    keys: Dict[str, str] = {}

    def bind(self, field: str, value: Any) -> "_NullSpan":
        return self

    def close(self, status: str = "ok") -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class SpanTracker:
    """Registry of open spans and, when it retains history, archive of
    closed ones.

    One tracker hangs off every :class:`~repro.sim.kernel.Simulator` as
    ``sim.spans`` and receives each recorded trace entry as the first of
    ``TraceRecorder.sinks``.  The per-entry cost with no spans open is a
    single dict truthiness check.  With ``retain`` off (switched with
    ``Simulator.retain_history``) a span keeps only a count of its
    entries and leaves ``spans`` when it closes, after its close hooks
    ran, so the tracker holds only the open spans.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.enabled = True
        #: Keep closed spans and each span's entries.
        self.retain = True
        #: Spans in open order: every span ever opened when retaining,
        #: else only the open ones.
        self.spans: List[Span] = []
        #: Spans opened and not yet closed (``len(open_spans())``
        #: without the scan).
        self.open_count = 0
        #: Closed spans let go at close because ``retain`` is off.
        self.dropped = 0
        #: Subscribers called in order with each span as it closes
        #: (after deregistration); the flight recorder appends here.
        self.on_close: List[Callable[[Span], None]] = []
        self._seq = 0
        # (field, str(value)) -> open spans registered under that key,
        # in open order; the innermost match is the last element.
        self._open_by_key: Dict[Tuple[str, str], List[Span]] = {}
        # (node_a, node_b, field, str(value)) -> open span, learned from
        # matched request entries; node pair is sorted.  A span's keys
        # are dropped when it closes.
        self._learned: Dict[Tuple[str, str, str, str], Span] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(
        self,
        name: str,
        keys: Dict[str, Any],
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span registered under *keys* (field -> value).

        When *parent* is not given, the innermost open span already
        registered under any of the same keys becomes the parent — so a
        handset's MT call span nests under the VMSC's call leg, which
        nests under the calling terminal's span, without any node knowing
        about the others.
        """
        if not self.enabled:
            return NULL_SPAN
        norm = {field: str(value) for field, value in keys.items() if value is not None}
        if parent is None:
            parent = self._innermost(norm)
        self._seq += 1
        span = Span(
            tracker=self,
            span_id=self._seq,
            name=name,
            parent_id=parent.span_id if parent is not None else None,
            start=self._clock(),
            keys=norm,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self.open_count += 1
        for field, value in norm.items():
            self._open_by_key.setdefault((field, value), []).append(span)
        return span

    def _bind(self, span: Span, field: str, value: Any) -> None:
        norm = str(value)
        if span.keys.get(field) == norm:
            return
        span.keys[field] = norm
        self._open_by_key.setdefault((field, norm), []).append(span)

    def _close(self, span: Span, status: str) -> None:
        span.end = self._clock()
        span.status = status
        self.open_count -= 1
        for field, value in span.keys.items():
            bucket = self._open_by_key.get((field, value))
            if bucket is None:
                continue
            try:
                bucket.remove(span)
            except ValueError:
                pass
            if not bucket:
                del self._open_by_key[(field, value)]
        if span.learned is not None:
            learned = self._learned
            for key in span.learned:
                # A key relearned by a later span is that span's now.
                if learned.get(key) is span:
                    del learned[key]
            span.learned = None
        if not self.retain:
            self.spans.remove(span)
            self.dropped += 1
        for hook in self.on_close:
            hook(span)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _innermost(self, keys: Dict[str, str]) -> Optional[Span]:
        best: Optional[Span] = None
        for field, value in keys.items():
            bucket = self._open_by_key.get((field, value))
            if bucket:
                candidate = bucket[-1]
                if best is None or candidate.span_id > best.span_id:
                    best = candidate
        return best

    def on_entry(self, entry: Any) -> None:
        """Trace sink: attach *entry* to the innermost open span
        sharing a correlation key, learning transaction ids on the way.

        Reads only the correlation keys (:meth:`TraceEntry.correlation`),
        so an entry recorded from delivered bytes is matched without
        building its ``info`` dict."""
        by_key = self._open_by_key
        if not by_key and not self._learned:
            return
        info = entry.correlation()
        best: Optional[Span] = None
        for field in CORRELATION_FIELDS:
            value = info.get(field)
            if value is None:
                continue
            bucket = by_key.get((field, str(value)))
            if bucket:
                candidate = bucket[-1]
                if best is None or candidate.span_id > best.span_id:
                    best = candidate
        if best is None and self._learned:
            best = self._lookup_learned(entry, info)
        if best is None:
            return
        best.n_entries += 1
        if self.retain:
            best.entries.append(entry)
        for field in LEARNED_FIELDS:
            value = info.get(field)
            if value is not None:
                self._learn(entry, field, value, best)

    def _pair_key(
        self, entry: Any, field: str, value: Any
    ) -> Tuple[str, str, str, str]:
        a, b = entry.src, entry.dst
        if b < a:
            a, b = b, a
        return (a, b, field, str(value))

    def _learn(self, entry: Any, field: str, value: Any, span: Span) -> None:
        key = self._pair_key(entry, field, value)
        if self._learned.get(key) is not span:
            self._learned[key] = span
            if span.learned is None:
                span.learned = [key]
            else:
                span.learned.append(key)

    def _lookup_learned(self, entry: Any, info: Dict[str, Any]) -> Optional[Span]:
        for field in LEARNED_FIELDS:
            value = info.get(field)
            if value is None:
                continue
            span = self._learned.get(self._pair_key(entry, field, value))
            if span is not None:
                return span
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_open(self, field: str, value: Any, name: Optional[str] = None) -> Optional[Span]:
        """Innermost open span registered under ``(field, value)``,
        optionally restricted to spans named *name*."""
        bucket = self._open_by_key.get((field, str(value)))
        if not bucket:
            return None
        for span in reversed(bucket):
            if name is None or span.name == name:
                return span
        return None

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.open]

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def clear(self) -> None:
        """Forget every span.  A span still open is detached: closing it
        later stamps its end but no longer reaches this tracker."""
        for span in self.spans:
            if span.open:
                span._tracker = SpanTracker(self._clock)
        self.spans.clear()
        self.open_count = 0
        self._open_by_key.clear()
        self._learned.clear()
        self.dropped = 0
