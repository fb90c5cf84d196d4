"""Parallel parameter-sweep runner.

Experiments E8/E9/E11 evaluate the same scenario at many parameter
points (core-latency factor, offered load, call rate ...).  Each point
builds its own :class:`~repro.sim.kernel.Simulator`, so points are fully
independent and embarrassingly parallel.  :func:`run_sweep` fans the
points across a :class:`concurrent.futures.ProcessPoolExecutor` and
merges the results **in input order**, so a parallel sweep returns
byte-identical results to a serial one — determinism is preserved
because every point still runs its own seeded simulator and the merge
never depends on completion order.

Worker functions must be picklable (defined at module top level) and are
called as ``fn(**point.params)``.  The runner never looks inside their
return values: a worker ships whatever must outlive its process (such
as observability artefacts) as plain data in the value it returns.

Example
-------
>>> from repro.sim.sweep import run_sweep, sweep_grid
>>> points = sweep_grid(x=(1, 2), y=("a", "b"))
>>> [p.key for p in points]
[(('x', 1), ('y', 'a')), (('x', 1), ('y', 'b')), (('x', 2), ('y', 'a')), (('x', 2), ('y', 'b'))]

The worker count defaults to the ``REPRO_SWEEP_JOBS`` environment
variable (unset or ``1`` means in-process serial execution, which is
also the fallback whenever a pool cannot be created).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

__all__ = ["SweepError", "SweepPoint", "SweepResult", "resolve_jobs",
           "run_sweep", "sweep_grid"]


class SweepError(SimulationError):
    """A sweep point failed; carries the point for context."""


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep.

    Attributes
    ----------
    key:
        Canonical ``((axis, value), ...)`` identity, in axis order.  The
        deterministic merge key — results are reported in input order
        and tagged with this key regardless of which worker process
        finished first.
    params:
        Keyword arguments passed to the sweep worker.
    """

    key: Tuple[Tuple[str, Any], ...]
    params: Dict[str, Any] = field(compare=False)

    @classmethod
    def from_params(cls, **params: Any) -> "SweepPoint":
        return cls(tuple(sorted(params.items())), dict(params))

    def __repr__(self) -> str:  # pragma: no cover
        inner = ", ".join(f"{k}={v!r}" for k, v in self.key)
        return f"SweepPoint({inner})"


@dataclass(frozen=True)
class SweepResult:
    """A sweep point paired with its worker's return value."""

    point: SweepPoint
    value: Any


def sweep_grid(**axes: Sequence[Any]) -> List[SweepPoint]:
    """Cartesian product of the given axes as :class:`SweepPoint` list.

    Axis order follows keyword order; the last axis varies fastest
    (row-major), so ``sweep_grid(seed=(0, 1), factor=(1.0, 2.0))``
    enumerates seed 0 at both factors before seed 1.
    """
    if not axes:
        return []
    names = list(axes)
    points = []
    for combo in itertools.product(*(axes[name] for name in names)):
        params = dict(zip(names, combo))
        points.append(SweepPoint(tuple(zip(names, combo)), params))
    return points


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Number of worker processes: the explicit argument if given, else
    the ``REPRO_SWEEP_JOBS`` environment variable, else 1 (serial)."""
    if jobs is None:
        raw = os.environ.get("REPRO_SWEEP_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise SweepError(f"REPRO_SWEEP_JOBS={raw!r} is not an integer")
    if jobs < 1:
        raise SweepError(f"jobs must be >= 1, got {jobs!r}")
    return jobs


def run_sweep(
    fn: Callable[..., Any],
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
) -> List[SweepResult]:
    """Evaluate ``fn(**point.params)`` at every point.

    With ``jobs > 1`` the points run on a process pool; results are
    merged in **input order** (not completion order), so callers see the
    same list a serial run produces.  A failing point raises
    :class:`SweepError` naming the point; remaining points are not
    awaited.  Falls back to serial execution when the platform cannot
    fork a pool (e.g. restricted sandboxes).
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(points) <= 1:
        return [_run_point(fn, point) for point in points]

    from concurrent.futures import ProcessPoolExecutor

    try:
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(points)))
    except (OSError, ValueError):  # pragma: no cover - platform dependent
        return [_run_point(fn, point) for point in points]
    with executor:
        futures = [executor.submit(fn, **point.params) for point in points]
        results = []
        for point, future in zip(points, futures):
            try:
                value = future.result()
            except SweepError:
                raise
            except Exception as exc:
                raise SweepError(f"sweep point {point!r} failed: {exc}") from exc
            results.append(SweepResult(point, value))
    return results


def _run_point(fn: Callable[..., Any], point: SweepPoint) -> SweepResult:
    try:
        return SweepResult(point, fn(**point.params))
    except SweepError:
        raise
    except Exception as exc:
        raise SweepError(f"sweep point {point!r} failed: {exc}") from exc
