"""Voice media: receive-side quality bookkeeping and the fluid model.

:mod:`repro.media.rx` holds :class:`RxStats`, the one mouth-to-ear /
jitter / frame-count recorder every voice receiver owns.
:mod:`repro.media.fluid` replaces the event-per-frame voice path with a
per-spurt analytic model that feeds the same recorder; see that module's
docstring for the contract.
"""

from repro.media.fluid import FluidMediaSession, install_fluid
from repro.media.rx import RxStats

__all__ = ["FluidMediaSession", "RxStats", "install_fluid"]
