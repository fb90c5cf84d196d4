"""Declarative SLO rules evaluated over time-series windows.

The paper's claims are budget claims — call setup under a latency
budget, *one* local trunk per tromboned call instead of two
international ones, no PDP-context leaks over a soak.  An
:class:`SloWatchdog` turns each claim into a rule string::

    p95_setup:       p95(calls.setup_delay) <= 0.5
    trunks_per_call: ratio(*.international_seizures, *.calls_connected) <= 1
    pdp_leak:        value(sgsn.pdp_contexts) <= 40
    liveness:        idle(msgs.iface.*) <= 10

and evaluates them against the buckets a
:class:`repro.obs.series.SeriesSampler` closes, entirely in sim time, so
two seeded runs produce the identical violation list.

Rule grammar: ``name: func(glob[, glob]) OP threshold`` where OP is one
of ``<= < >= > ==``; rules are separated by newlines or ``;`` and ``#``
starts a comment.  Globs are :mod:`fnmatch` patterns matched against
sorted metric names, so a rule aggregates whole metric families.

Functions by metric kind:

=============  =========  ====================================================
function       metric     meaning
=============  =========  ====================================================
total          counter    cumulative sum of matched counters
delta          counter    increase within the last closed window
rate           counter    ``delta / window width`` (per sim-second)
idle           counter    sim-seconds since any matched counter last moved
ratio          counter    ``total(a) / total(b)`` (0/0 = 0, n/0 = inf)
value          gauge      sum of current values at the window edge
peak           gauge      max window-edge value seen so far
count mean     histogram  cumulative pooled summary of matched histograms
max p50
p95 p99
win_*          histogram  same, but over the last window only
=============  =========  ====================================================

**Verdict semantics.**  Windowed functions (``delta``, ``rate``,
``idle``, ``win_*``) are checked at every closed bucket and a single
violating window fails the rule — that is the leak/staleness shape.
Cumulative functions are judged once, on the final state — that is the
latency-budget shape (early small-sample wobble does not fail a run
whose converged p95 meets the budget).

**Alert lifecycle.**  A service has no end, so ``repro serve --alert``
rules are instead re-judged at every closed bucket, windowed or not,
and each drives a Prometheus-style lifecycle::

    ok -> pending -> firing -> resolved -> pending -> ...

A rule goes *pending* on its first bad bucket, *firing* after
``for_windows`` consecutive bad buckets, and *resolved* after
``clear_windows`` consecutive good buckets; a pending alert whose value
recovers before firing drops straight back to *ok* (no flap recorded).
Both rule sets live on one :class:`SloWatchdog`, which folds each bucket
once; they keep separate name spaces.  Exit semantics for a drained
service: ``0`` when nothing ever fired, ``2`` when alerts fired but all
resolved, ``1`` when any alert is still firing (or pending) at exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import _merge_histograms

#: Comparison operators, longest first so ``<=`` wins over ``<``.
_OPS = ("<=", ">=", "==", "<", ">")

_COUNTER_FUNCS = frozenset({"total", "delta", "rate", "idle", "ratio"})
_GAUGE_FUNCS = frozenset({"value", "peak"})
_HIST_KEYS = frozenset({"count", "mean", "max", "p50", "p95", "p99"})
#: Functions judged per window (one bad window fails the rule); the
#: rest are judged on the final cumulative state.
_WINDOWED_FUNCS = frozenset({"delta", "rate", "idle"})

#: Per rule, at most this many individual window violations are kept
#: (the count keeps running) — bounded memory over long soaks.
MAX_RECORDED_VIOLATIONS = 50

#: At most this many alert transitions are kept for ``/alerts`` (the
#: count keeps running) — bounded memory over an arbitrarily long service.
MAX_TRANSITIONS = 200


class SloError(ValueError):
    """A rule string that does not parse, or an unknown function."""


@dataclass(frozen=True)
class SloRule:
    """One parsed ``name: func(args) OP threshold`` rule."""

    name: str
    func: str
    args: Tuple[str, ...]
    op: str
    threshold: float
    source: str

    @property
    def windowed(self) -> bool:
        return self.func in _WINDOWED_FUNCS or self.func.startswith("win_")

    def holds(self, value: float) -> bool:
        if self.op == "<=":
            return value <= self.threshold
        if self.op == "<":
            return value < self.threshold
        if self.op == ">=":
            return value >= self.threshold
        if self.op == ">":
            return value > self.threshold
        return value == self.threshold

    def __str__(self) -> str:
        return self.source


def parse_slo_rule(text: str) -> SloRule:
    """Parse one rule string; raises :class:`SloError` with the offending
    text on any grammar problem."""
    source = " ".join(text.split())
    head, sep, body = text.partition(":")
    if not sep or not head.strip():
        raise SloError(f"SLO rule needs a 'name:' prefix: {source!r}")
    name = head.strip()
    for op in _OPS:
        expr, sep, thr_text = body.partition(op)
        if sep:
            break
    else:
        raise SloError(f"SLO rule needs one of {', '.join(_OPS)}: {source!r}")
    expr = expr.strip()
    try:
        threshold = float(thr_text.strip())
    except ValueError:
        raise SloError(
            f"SLO threshold {thr_text.strip()!r} is not a number: {source!r}"
        ) from None
    if not expr.endswith(")") or "(" not in expr:
        raise SloError(f"SLO rule needs func(glob): {source!r}")
    func, _, arg_text = expr[:-1].partition("(")
    func = func.strip()
    args = tuple(a.strip() for a in arg_text.split(",") if a.strip())
    base = func[4:] if func.startswith("win_") else func
    if not (func in _COUNTER_FUNCS or func in _GAUGE_FUNCS
            or base in _HIST_KEYS):
        raise SloError(f"unknown SLO function {func!r}: {source!r}")
    want = 2 if func == "ratio" else 1
    if len(args) != want:
        raise SloError(
            f"SLO function {func!r} takes {want} pattern(s), "
            f"got {len(args)}: {source!r}"
        )
    return SloRule(name=name, func=func, args=args, op=op,
                   threshold=threshold, source=source)


def parse_slo_rules(text: str) -> List[SloRule]:
    """Parse a rule file / CLI string: rules separated by newlines or
    ``;``, blank lines and ``#`` comments ignored."""
    rules: List[SloRule] = []
    for line in text.replace(";", "\n").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rules.append(parse_slo_rule(line))
    names = [r.name for r in rules]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise SloError(f"duplicate SLO rule name(s): {', '.join(dupes)}")
    return rules


@dataclass
class SloResult:
    """Final verdict for one rule."""

    rule: SloRule
    value: float
    ok: bool
    #: Window violations: ``(t, value)`` pairs, oldest first (bounded).
    violations: List[Tuple[float, float]] = field(default_factory=list)
    #: Total violating windows, including ones past the recording bound.
    violation_count: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule.source,
            "name": self.rule.name,
            "ok": self.ok,
            "value": self.value,
            "threshold": self.rule.threshold,
            "op": self.rule.op,
            "violations": [list(v) for v in self.violations],
            "violation_count": self.violation_count,
        }


@dataclass
class Alert:
    """Lifecycle state for one ``--alert`` rule."""

    rule: SloRule
    state: str = "ok"
    value: float = 0.0
    #: Sim time of the last state transition.
    since: float = 0.0
    bad_streak: int = 0
    good_streak: int = 0
    #: Times this alert entered ``firing``.
    fired_count: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.rule.name,
            "rule": self.rule.source,
            "state": self.state,
            "value": self.value,
            "threshold": self.rule.threshold,
            "op": self.rule.op,
            "since": self.since,
            "fired_count": self.fired_count,
        }


class SloWatchdog:
    """Folds series buckets and judges two rule sets against them.

    *rules* get the sticky batch verdict from :meth:`finalize`;
    *alert_rules* step the alert lifecycle at every bucket (module
    docstring).  Subscribe it to a sampler with :meth:`attach` (appends
    to ``sampler.on_bucket``), or replay a finished serialised series
    with :func:`evaluate_series`.  All state advances only on bucket
    boundaries, so evaluation is deterministic for a seeded run.
    """

    def __init__(
        self,
        rules: Sequence[SloRule],
        start: float = 0.0,
        alert_rules: Sequence[SloRule] = (),
        for_windows: int = 2,
        clear_windows: int = 2,
    ) -> None:
        if for_windows < 1 or clear_windows < 1:
            raise ValueError(
                "for_windows and clear_windows must be >= 1, got "
                f"{for_windows!r}/{clear_windows!r}"
            )
        self.rules = list(rules)
        self.start = start
        self.now = start
        self._prev_t = start
        # Cumulative state folded over closed buckets.
        self._counter_totals: Dict[str, int] = {}
        self._counter_last_move: Dict[str, float] = {}
        self._gauge_values: Dict[str, float] = {}
        self._gauge_peaks: Dict[str, float] = {}
        self._hist_cum: Dict[str, Dict[str, float]] = {}
        self._last_bucket: Optional[Dict[str, Any]] = None
        self._last_width = 0.0
        # rule name -> recorded window violations / running count.
        self._violations: Dict[str, List[Tuple[float, float]]] = {
            r.name: [] for r in self.rules
        }
        self._violation_counts: Dict[str, int] = {
            r.name: 0 for r in self.rules
        }
        self.for_windows = for_windows
        self.clear_windows = clear_windows
        #: One lifecycle per alert rule, rule order.
        self.alerts: List[Alert] = [
            Alert(rule=r, since=start) for r in alert_rules
        ]
        #: Bounded alert transition history, oldest first.
        self.transitions: List[Dict[str, Any]] = []
        #: Total transitions, including ones past the recording bound.
        self.transition_count = 0
        #: Subscribers called in order with each transition entry (the
        #: flight recorder appends here).
        self.on_transition: List[Callable[[Dict[str, Any]], None]] = []
        #: Receives one ``[alert]`` line per transition, after the
        #: subscribers (serve mode: stderr).
        self.log: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def attach(self, sampler: Any) -> "SloWatchdog":
        """Subscribe to every bucket *sampler* closes (after the
        subscribers already attached); also aligns the idle clock and the
        alerts' ``since`` to the sampler's start instant."""
        self.start = self.now = self._prev_t = sampler.started_at
        for alert in self.alerts:
            alert.since = sampler.started_at
        sampler.on_bucket.append(self.push)
        return self

    def push(self, bucket: Dict[str, Any]) -> None:
        """Fold one closed bucket into the state, check the windowed
        rules against it and step every alert's lifecycle."""
        t = bucket["t"]
        self._last_width = max(t - self._prev_t, 0.0)
        self._prev_t = t
        self.now = t
        for name, delta in bucket["counters"].items():
            self._counter_totals[name] = (
                self._counter_totals.get(name, 0) + delta
            )
            if delta:
                self._counter_last_move[name] = t
        for name, g in bucket["gauges"].items():
            self._gauge_values[name] = g["value"]
            peak = self._gauge_peaks.get(name, 0.0)
            if g["value"] > peak:
                self._gauge_peaks[name] = g["value"]
        for name, summary in bucket["histograms"].items():
            prev = self._hist_cum.get(name)
            if prev is None:
                self._hist_cum[name] = dict(summary)
            else:
                self._hist_cum[name] = _merge_histograms([prev, summary])
        self._last_bucket = bucket
        for rule in self.rules:
            if not rule.windowed:
                continue
            value = self._evaluate(rule)
            if not rule.holds(value):
                self._violation_counts[rule.name] += 1
                recorded = self._violations[rule.name]
                if len(recorded) < MAX_RECORDED_VIOLATIONS:
                    recorded.append((t, value))
        if self.alerts:
            t = float(t)
            for alert in self.alerts:
                alert.value = self._evaluate(alert.rule)
                if alert.rule.holds(alert.value):
                    self._step_good(alert, t)
                else:
                    self._step_bad(alert, t)

    # ------------------------------------------------------------------
    # Alert lifecycle
    # ------------------------------------------------------------------
    def _step_bad(self, alert: Alert, t: float) -> None:
        alert.good_streak = 0
        alert.bad_streak += 1
        if alert.state in ("ok", "resolved"):
            self._transition(alert, "pending", t)
        if alert.state == "pending" and alert.bad_streak >= self.for_windows:
            alert.fired_count += 1
            self._transition(alert, "firing", t)

    def _step_good(self, alert: Alert, t: float) -> None:
        alert.bad_streak = 0
        if alert.state == "pending":
            # Recovered before the for-window elapsed: not a flap.
            self._transition(alert, "ok", t)
        elif alert.state == "firing":
            alert.good_streak += 1
            if alert.good_streak >= self.clear_windows:
                self._transition(alert, "resolved", t)

    def _transition(self, alert: Alert, to_state: str, t: float) -> None:
        entry = {
            "t": t,
            "alert": alert.rule.name,
            "from": alert.state,
            "to": to_state,
            "value": alert.value,
        }
        alert.state = to_state
        alert.since = t
        self.transition_count += 1
        if len(self.transitions) < MAX_TRANSITIONS:
            self.transitions.append(entry)
        for hook in self.on_transition:
            hook(entry)
        if self.log is not None:
            self.log(
                f"[alert] t={t:.3f} {alert.rule.name}: "
                f"{entry['from']} -> {to_state} (value={alert.value:.6g}, "
                f"rule: {alert.rule.source})"
            )

    def alert_payload(self) -> Dict[str, Any]:
        """Plain data for ``/alerts`` (and the final report)."""
        return {
            "alerts": [a.to_dict() for a in self.alerts],
            "transitions": list(self.transitions),
            "transition_count": self.transition_count,
        }

    @property
    def ever_fired(self) -> bool:
        return any(a.fired_count for a in self.alerts)

    def alert_exit_code(self) -> int:
        """``0`` nothing fired; ``2`` fired but resolved; ``1`` firing
        (or still pending) at exit."""
        if any(a.state in ("firing", "pending") for a in self.alerts):
            return 1
        return 2 if self.ever_fired else 0

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _match(self, names: Any, pattern: str) -> List[str]:
        return [n for n in sorted(names) if fnmatchcase(n, pattern)]

    def _counter_total(self, pattern: str) -> int:
        return sum(
            self._counter_totals[n]
            for n in self._match(self._counter_totals, pattern)
        )

    def _hist_value(self, key: str, pattern: str,
                    pool: Dict[str, Dict[str, float]]) -> float:
        matched = [pool[n] for n in self._match(pool, pattern)]
        if not matched:
            return 0.0
        merged = matched[0] if len(matched) == 1 else _merge_histograms(matched)
        return float(merged[key])

    def _evaluate(self, rule: SloRule) -> float:
        func = rule.func
        pattern = rule.args[0]
        if func == "total":
            return float(self._counter_total(pattern))
        if func == "ratio":
            num = float(self._counter_total(pattern))
            den = float(self._counter_total(rule.args[1]))
            if den == 0.0:
                return 0.0 if num == 0.0 else math.inf
            return num / den
        if func == "delta":
            bucket = self._last_bucket
            if bucket is None:
                return 0.0
            counters = bucket["counters"]
            return float(sum(
                counters[n] for n in self._match(counters, pattern)
            ))
        if func == "rate":
            bucket = self._last_bucket
            if bucket is None or self._last_width <= 0.0:
                return 0.0
            counters = bucket["counters"]
            delta = sum(counters[n] for n in self._match(counters, pattern))
            return delta / self._last_width
        if func == "idle":
            matched = self._match(self._counter_last_move, pattern)
            if not matched:
                return self.now - self.start
            return self.now - max(self._counter_last_move[n] for n in matched)
        if func == "value":
            return float(sum(
                self._gauge_values[n]
                for n in self._match(self._gauge_values, pattern)
            ))
        if func == "peak":
            matched = self._match(self._gauge_peaks, pattern)
            if not matched:
                return 0.0
            return float(max(self._gauge_peaks[n] for n in matched))
        if func.startswith("win_"):
            bucket = self._last_bucket
            pool = bucket["histograms"] if bucket is not None else {}
            return self._hist_value(func[4:], pattern, pool)
        return self._hist_value(func, pattern, self._hist_cum)

    def finalize(self) -> List[SloResult]:
        """Final verdict per rule, in rule order.  Windowed rules fail on
        any recorded window violation; cumulative rules fail on the
        final state."""
        results: List[SloResult] = []
        for rule in self.rules:
            value = self._evaluate(rule)
            count = self._violation_counts[rule.name]
            ok = count == 0 if rule.windowed else rule.holds(value)
            results.append(SloResult(
                rule=rule,
                value=value,
                ok=ok,
                violations=list(self._violations[rule.name]),
                violation_count=count,
            ))
        return results


def evaluate_series(rules: List[SloRule],
                    series: Dict[str, Any]) -> List[SloResult]:
    """Replay a serialised series (single-run or merged) through a fresh
    watchdog and return the final verdicts."""
    dog = SloWatchdog(rules, start=float(series.get("start", 0.0)))
    for bucket in series["buckets"]:
        dog.push(bucket)
    return dog.finalize()


def _fmt(value: float) -> str:
    if value != value or math.isinf(value):  # NaN / inf
        return str(value)
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.6g}"


def render_slo_report(results: List[SloResult], title: str = "SLO") -> str:
    """Human-readable verdict table; stable for a seeded run."""
    failed = sum(1 for r in results if not r.ok)
    lines = [
        f"{title} report: {len(results)} rule(s), "
        + (f"{failed} FAILED" if failed else "all passed")
    ]
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        lines.append(
            f"  {mark}  {r.rule.name}: {r.rule.func}"
            f"({', '.join(r.rule.args)}) {r.rule.op} "
            f"{_fmt(r.rule.threshold)}   value={_fmt(r.value)}"
        )
        if r.violation_count:
            first_t, first_v = r.violations[0]
            lines.append(
                f"        {r.violation_count} violating window(s), "
                f"first at t={_fmt(first_t)} (value={_fmt(first_v)})"
            )
    return "\n".join(lines)
