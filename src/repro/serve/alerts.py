"""Live alert lifecycle over SLO rules.

Batch runs judge SLO rules once, at the end, with sticky-fail
semantics (:meth:`repro.obs.slo.SloWatchdog.finalize`).  A service has
no end: serve mode instead re-judges every rule at each closed series
bucket and drives a Prometheus-style lifecycle per rule::

    ok -> pending -> firing -> resolved -> pending -> ...

A rule goes *pending* on its first bad bucket, *firing* after
``for_windows`` consecutive bad buckets, and *resolved* after
``clear_windows`` consecutive good buckets; a pending alert whose value
recovers before firing drops straight back to *ok* (no flap recorded).
All state advances on sim-time bucket boundaries only, so a seeded run
produces the identical transition log whether it is paced or batch.

Exit semantics for the drained shutdown: ``0`` when nothing ever fired,
``2`` when alerts fired but all resolved, ``1`` when any alert is still
firing (or pending) at exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.slo import SloRule, SloWatchdog

#: At most this many transitions are kept for ``/alerts`` (the counter
#: keeps running) — bounded memory over an arbitrarily long service.
MAX_TRANSITIONS = 200


@dataclass
class Alert:
    """Lifecycle state for one rule."""

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


class AlertManager:
    """Folds series buckets and steps each rule's alert lifecycle.

    Subscribe it to an armed :class:`~repro.obs.series.SeriesSampler`
    with :meth:`attach`; earlier bucket subscribers (the batch SLO
    watchdog) keep running first, so ``--slo`` verdicts and ``--alert``
    lifecycles coexist on one sampler.
    """

    def __init__(
        self,
        rules: List[SloRule],
        for_windows: int = 2,
        clear_windows: int = 2,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if for_windows < 1 or clear_windows < 1:
            raise ValueError(
                "for_windows and clear_windows must be >= 1, got "
                f"{for_windows!r}/{clear_windows!r}"
            )
        self.rules = list(rules)
        self.for_windows = for_windows
        self.clear_windows = clear_windows
        self.log = log
        self.alerts: List[Alert] = [Alert(rule=r) for r in rules]
        #: Bounded transition history, oldest first.
        self.transitions: List[Dict[str, Any]] = []
        #: Total transitions, including ones past the recording bound.
        self.transition_count = 0
        #: Subscribers called in order with each transition entry (the
        #: flight recorder appends here).
        self.on_transition: List[Callable[[Dict[str, Any]], None]] = []
        self._dog: Optional[SloWatchdog] = None

    def attach(self, sampler: Any) -> "AlertManager":
        """Evaluate on every bucket *sampler* closes (after the
        subscribers already attached)."""
        self._dog = SloWatchdog(self.rules, start=sampler.started_at)
        for alert in self.alerts:
            alert.since = sampler.started_at
        sampler.on_bucket.append(self.observe_bucket)
        return self

    def observe_bucket(self, bucket: Dict[str, Any]) -> None:
        """Fold one closed bucket and step every alert's lifecycle."""
        dog = self._dog
        if dog is None:
            self._dog = dog = SloWatchdog(self.rules)
        dog.push(bucket)
        t = float(bucket["t"])
        for alert in self.alerts:
            value = dog.current_value(alert.rule)
            alert.value = value
            if alert.rule.holds(value):
                self._step_good(alert, t)
            else:
                self._step_bad(alert, t)

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

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """Plain data for ``/alerts`` (and the final report)."""
        return {
            "alerts": [a.to_dict() for a in self.alerts],
            "transitions": list(self.transitions),
            "transition_count": self.transition_count,
        }

    @property
    def ever_fired(self) -> bool:
        return any(a.fired_count for a in self.alerts)

    def exit_code(self) -> int:
        """``0`` nothing fired; ``2`` fired but resolved; ``1`` firing
        (or still pending) at exit."""
        if any(a.state in ("firing", "pending") for a in self.alerts):
            return 1
        return 2 if self.ever_fired else 0
