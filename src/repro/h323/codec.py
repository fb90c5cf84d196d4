"""Vocoder models.

The VMSC contains a vocoder bank: "the voice information is translated
into GPRS packets through vocoder and packet control unit" (paper §2).
The model is frame-accurate where the experiments need it — frame
duration, payload sizes and transcoding latency — without doing audio
DSP, which no measurement in the reproduction depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.packets.rtp import PT_G729, PT_GSM, PT_PCMU


@dataclass(frozen=True)
class CodecSpec:
    """A voice codec's timing/size parameters."""

    name: str
    frame_ms: float
    frame_bytes: int
    algorithmic_delay_ms: float
    #: Static RTP payload type (RFC 3551) the codec's frames travel as.
    payload_type: int

    @property
    def bitrate_bps(self) -> float:
        return self.frame_bytes * 8 / (self.frame_ms / 1000.0)


#: GSM 06.10 full rate: 13 kbit/s, 33-byte frames every 20 ms.
GSM_FR = CodecSpec(
    "GSM-FR", frame_ms=20.0, frame_bytes=33, algorithmic_delay_ms=5.0,
    payload_type=PT_GSM,
)

#: G.711 mu-law: 64 kbit/s, 160-byte frames every 20 ms, negligible delay.
G711_ULAW = CodecSpec(
    "G.711u", frame_ms=20.0, frame_bytes=160, algorithmic_delay_ms=0.125,
    payload_type=PT_PCMU,
)

#: G.729: 8 kbit/s, 20-byte frames every 20 ms (two 10 ms subframes).
G729 = CodecSpec(
    "G.729", frame_ms=20.0, frame_bytes=20, algorithmic_delay_ms=15.0,
    payload_type=PT_G729,
)

CODECS = {c.name: c for c in (GSM_FR, G711_ULAW, G729)}


class Vocoder:
    """A transcoding unit between two codecs.

    ``transcode_delay`` is the per-frame latency added by decoding one
    codec and encoding the other (algorithmic delays plus a DSP
    processing allowance).
    """

    def __init__(
        self,
        from_codec: CodecSpec,
        to_codec: CodecSpec,
        processing_ms: float = 2.0,
    ) -> None:
        self.from_codec = from_codec
        self.to_codec = to_codec
        self.processing_ms = processing_ms
        self.frames_transcoded = 0

    @property
    def transcode_delay(self) -> float:
        """Seconds of latency added per frame."""
        return (
            self.from_codec.algorithmic_delay_ms
            + self.to_codec.algorithmic_delay_ms
            + self.processing_ms
        ) / 1000.0

    def transcode(self, payload: bytes) -> bytes:
        """Return a frame of the target codec's size (content synthetic)."""
        self.frames_transcoded += 1
        out_len = self.to_codec.frame_bytes
        if len(payload) >= out_len:
            return payload[:out_len]
        return payload + b"\x00" * (out_len - len(payload))
