"""Per-link latency attribution — where setup time is actually spent.

Figure 3 of the paper strings ten links between the handset and the far
terminal (Um, Abis, A, Gb, Gn, Gi, ip, ...).  The trace records *that* a
message crossed a link; a :class:`HopRecorder` additionally records
*how long the crossing took* — the ingress (transmit) and egress
(delivery) sim-times of every signalling message — as

* a list of :class:`HopSegment` records for the timeline exporter, and
* per ``(link, message)`` latency histograms named
  ``hop.<interface>.<message>`` in the simulation's metrics registry,

so a registration or call-setup procedure can be broken down into a
per-link *waterfall* (:func:`render_waterfall`): which Figure-3 link
each step of the Figure 4-6 flow spends its time on.

The recorder is **off by default** — ``sim.hops`` is ``None`` and the
link hot path pays one attribute load plus a ``None`` check.  When armed
it only reads packet metadata and appends records; it never schedules
events, consumes RNG or records trace entries, so seeded traces stay
byte-identical with it on or off.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: Figure-3 link order, used to sort waterfall rows the way the paper
#: draws the protocol stack (unknown interfaces sort after, by name).
FIGURE3_LINK_ORDER = ("Um", "Abis", "A", "Gb", "Gn", "Gi", "ip", "isup", "pstn")


class HopSegment:
    """One message's crossing of one link."""

    __slots__ = ("src", "dst", "interface", "message", "start", "end")

    def __init__(self, src: str, dst: str, interface: str, message: str,
                 start: float, end: float) -> None:
        self.src = src
        self.dst = dst
        self.interface = interface
        self.message = message
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "interface": self.interface,
            "message": self.message,
            "start": self.start,
            "end": self.end,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Hop {self.message} {self.src}->{self.dst} "
            f"iface={self.interface} {self.start:.6f}..{self.end:.6f}>"
        )


class HopRecorder:
    """Collects :class:`HopSegment` records from the link layer.

    Armed by assigning to ``sim.hops``; :meth:`on_transmit` is invoked by
    :meth:`repro.net.link.Link.transmit` with the send instant and the
    resolved delivery delay.  Media frames (the trace recorder's quiet
    names) are skipped — they would swamp the signalling hops and are
    already measured through metrics.
    """

    def __init__(self, sim: Any, max_segments: int = 100_000) -> None:
        if max_segments < 2:
            raise ValueError(f"max_segments must be >= 2, got {max_segments!r}")
        self.sim = sim
        self.max_segments = max_segments
        #: Recorded hops in transmit order.
        self.segments: List[HopSegment] = []
        #: Hops discarded to honour ``max_segments`` (soak bounding).
        self.dropped = 0
        self.quiet_names = set(sim.trace.quiet_names)
        self._metrics = sim.metrics
        # (interface, message) -> Histogram, resolved once per pair so
        # the armed per-message cost stays a dict hit, not a registry
        # string build + lookup.
        self._hist_cache: Dict[Tuple[str, str], Any] = {}

    def on_transmit(self, src: "Any", dst: "Any", interface: str,
                    packet: Any, delay: float) -> None:
        """Record one link crossing starting now and landing after
        *delay* simulated seconds."""
        message = packet.flow_name()
        if message in self.quiet_names:
            return
        start = self.sim.now
        self.segments.append(
            HopSegment(src.name, dst.name, interface, message,
                       start, start + delay)
        )
        if len(self.segments) > self.max_segments:
            keep_from = len(self.segments) - self.max_segments // 2
            self.dropped += keep_from
            del self.segments[:keep_from]
        hist = self._hist_cache.get((interface, message))
        if hist is None:
            hist = self._hist_cache[(interface, message)] = (
                self._metrics.histogram(f"hop.{interface}.{message}")
            )
        hist.observe(delay)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def by_interface(self) -> Dict[str, List[HopSegment]]:
        """Segments grouped by link interface, recording order kept."""
        out: Dict[str, List[HopSegment]] = {}
        for seg in self.segments:
            out.setdefault(seg.interface, []).append(seg)
        return out

    def index(self) -> Dict[Tuple[str, str, str, float], HopSegment]:
        """``(message, src, dst, delivery_time) -> segment`` — the exact
        identity a ``"msg"`` trace entry carries, used to join hops onto
        span entries.  Later duplicates win, matching trace order."""
        return {
            (seg.message, seg.src, seg.dst, seg.end): seg
            for seg in self.segments
        }


def _link_sort_key(interface: str) -> Tuple[int, str]:
    try:
        return (FIGURE3_LINK_ORDER.index(interface), interface)
    except ValueError:
        return (len(FIGURE3_LINK_ORDER), interface)


def waterfall_rows(span: Any, hops: HopRecorder) -> List[Dict[str, Any]]:
    """Per-link totals for one span, as plain rows.

    Each of the span's ``"msg"`` trace entries is joined to its hop
    segment; rows come back in Figure-3 stack order with the summed
    link time, crossing count, and the share of the span's wall
    (sim-time) duration.
    """
    hops.sim.trace.require_history("the latency waterfall")
    index = hops.index()
    totals: Dict[str, Dict[str, Any]] = {}
    for entry in span.entries:
        if entry.kind != "msg":
            continue
        seg = index.get((entry.message, entry.src, entry.dst, entry.time))
        if seg is None:
            continue
        row = totals.get(seg.interface)
        if row is None:
            row = totals[seg.interface] = {
                "interface": seg.interface, "time": 0.0,
                "hops": 0, "messages": [],
            }
        row["time"] += seg.duration
        row["hops"] += 1
        if seg.message not in row["messages"]:
            row["messages"].append(seg.message)
    span_end = span.end if span.end is not None else hops.sim.now
    span_wall = max(span_end - span.start, 0.0)
    rows = sorted(totals.values(),
                  key=lambda r: _link_sort_key(r["interface"]))
    for row in rows:
        row["share"] = row["time"] / span_wall if span_wall > 0 else 0.0
    return rows


def render_bar(share: float, width: int = 32, offset: float = 0.0) -> str:
    """Fixed-width ASCII bar: ``offset`` share of leading dots, a
    ``share``-wide ``#`` fill (at least one cell when nonzero), dots to
    the end.  The waterfall's bar primitive, reused by the incident
    timeline (:mod:`repro.obs.analyze`)."""
    offset = min(max(offset, 0.0), 1.0)
    share = min(max(share, 0.0), 1.0 - offset)
    lead = int(round(offset * width))
    filled = int(round(share * width))
    if share > 0:
        filled = max(filled, 1)
    filled = min(filled, width - lead)
    return "." * lead + "#" * filled + "." * (width - lead - filled)


def render_waterfall(span: Any, hops: HopRecorder, width: int = 32) -> str:
    """ASCII latency waterfall for one procedure span.

    One bar per Figure-3 link, scaled to the span's sim-time duration::

        registration  #4  0.914s
          Um    ######..........  0.360s  41%  (6 hops)
          Abis  ###.............  0.120s  13%  (6 hops)
          A     ##..............  0.080s   9%  (4 hops)
    """
    rows = waterfall_rows(span, hops)
    span_end = span.end if span.end is not None else hops.sim.now
    wall = max(span_end - span.start, 0.0)
    lines = [f"{span.name}  #{span.span_id}  {wall:.3f}s"]
    if not rows:
        lines.append("  (no link hops attributed)")
        return "\n".join(lines)
    name_w = max(len(r["interface"]) for r in rows)
    for row in rows:
        bar = render_bar(row["share"], width)
        lines.append(
            f"  {row['interface']:<{name_w}}  {bar}  "
            f"{row['time']:.3f}s  {row['share']:4.0%}  ({row['hops']} hops)"
        )
    return "\n".join(lines)
