"""``--profile``: a stdlib cProfile report split by ``repro`` package.

:class:`~repro.obs.session.ObsSession` enables one
:class:`cProfile.Profile` at its first ``watch()`` and disables it in
``finish()``, so the profile covers every way a scenario drives the
simulator — :meth:`~repro.sim.kernel.Simulator.run`, ``step`` and
``run_until_true`` alike.  :func:`render_profile` turns it into two
tables: the self-time share of each ``repro`` package (stdlib and
builtins grouped as ``other``), then the heaviest functions by self
time with their call counts::

    === profile: 0.122 s self time, 141099 calls ===
    package        self s   share
    packets         0.066   54.2%
    other           0.021   17.3%
    net             0.011    9.0%
    ...
    top 15 functions by self time:
        calls   self ms  function
         1148      7.84  repro/packets/base.py:319(_parse_layer)
         1148      6.72  repro/packets/base.py:224(Packet.build)

A function's package is read from its source file, so the report needs
nothing from the profiled code and costs nothing when ``--profile`` is
off.
"""

from __future__ import annotations

import cProfile
from collections import defaultdict
from pathlib import Path
from types import CodeType
from typing import Dict, List, Tuple, Union

#: Package name for everything outside ``repro`` (stdlib, builtins).
OTHER = "other"

_REPRO_DIR = Path(__file__).resolve().parent.parent


def package_of(filename: str) -> str:
    """The ``repro`` package (or top-level module) *filename* belongs
    to, or :data:`OTHER`."""
    if filename.startswith(("~", "<")):
        return OTHER
    path = Path(filename).resolve()
    if not path.is_relative_to(_REPRO_DIR):
        return OTHER
    return path.relative_to(_REPRO_DIR).parts[0].removesuffix(".py")


def _label(code: Union[CodeType, str]) -> Tuple[str, str]:
    """``(package, label)`` for one profiled function; builtins are
    profiled as a description string, not a code object."""
    if isinstance(code, str):
        return OTHER, code
    filename = code.co_filename
    # co_qualname (3.11+) names the class too: Link._deliver.
    name = getattr(code, "co_qualname", code.co_name)
    package = package_of(filename)
    if package != OTHER:
        filename = str(Path(filename).resolve().relative_to(_REPRO_DIR.parent))
    else:
        filename = Path(filename).name
    return package, f"{filename}:{code.co_firstlineno}({name})"


def render_profile(profile: cProfile.Profile, top: int = 15,
                   title: str = "profile") -> str:
    """Package shares plus the *top* functions by self time; ties break
    on the label so equal timings print in a fixed order."""
    by_package: Dict[str, float] = defaultdict(float)
    rows: List[Tuple[float, int, str]] = []
    calls = 0
    for entry in profile.getstats():
        package, label = _label(entry.code)
        by_package[package] += entry.inlinetime
        rows.append((entry.inlinetime, entry.callcount, label))
        calls += entry.callcount
    total = sum(by_package.values())
    lines = [
        f"=== {title}: {total:.3f} s self time, {calls} calls ===",
        f"{'package':<12} {'self s':>8} {'share':>7}",
    ]
    for package, seconds in sorted(by_package.items(),
                                   key=lambda item: (-item[1], item[0])):
        share = 100.0 * seconds / total if total else 0.0
        lines.append(f"{package:<12} {seconds:>8.3f} {share:>6.1f}%")
    lines.append(f"top {top} functions by self time:")
    lines.append(f"{'calls':>9} {'self ms':>9}  function")
    rows.sort(key=lambda row: (-row[0], row[2]))
    for seconds, count, label in rows[:top]:
        lines.append(f"{count:>9} {seconds * 1000:>9.2f}  {label}")
    return "\n".join(lines)
