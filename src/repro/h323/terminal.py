"""An H.323 terminal endpoint.

The called party of Figure 5 and the calling party of Figure 6: a plain
IP host speaking RAS to the gatekeeper and Q.931 call signalling + RTP
media to its peers.  The terminal neither knows nor cares that the far
end is a VMSC acting for a GSM handset — which is the point of the
paper's design.  RAS, the call leg and the G.711 talker are the shared
:class:`~repro.h323.endpoint.H323Endpoint`; the terminal adds its
per-call spans and counters.
"""

from __future__ import annotations

from typing import Union

from repro.errors import CallSetupError
from repro.h323.endpoint import H323Call, H323Endpoint
from repro.identities import E164Number, as_e164


class H323Terminal(H323Endpoint):
    """A standard H.323 terminal."""

    def place_call(self, called: Union[E164Number, str]) -> int:
        """ARQ the gatekeeper, then Q.931 Setup to the resolved address."""
        called = as_e164(called)
        if not self.registered:
            raise CallSetupError(f"{self.name}: not registered with the gatekeeper")
        call = self._place(called)
        self._admit(call)
        return call.call_ref

    def _opened(self, call: H323Call) -> None:
        if call.direction == "out":
            self._open_spans(call, called=str(call.called))
        else:
            self._open_spans(
                call, calling=str(call.calling) if call.calling is not None else None
            )

    def _connected(self, call: H323Call) -> None:
        self.sim.metrics.counter(f"{self.name}.calls_connected").inc()
        super()._connected(call)
