"""The layered :class:`Packet` base class.

Packets stack with the ``/`` operator (scapy convention)::

    frame = IPv4(src=a, dst=b) / UDP(sport=1719, dport=1719) / RasRrq(...)

On the wire each layer is ``[wire_id:2][encoded fields][payload...]``.
Wire ids are assigned from a central registry at class-definition time, in
definition order, which is deterministic because the protocol modules are
always imported in package order.  ``parse`` reads the id, finds the class
and decodes fields; any remaining bytes are parsed as the payload.

Codec plan: at class definition each subclass compiles its field tuple
into a plan -- one step per field, except that each run of adjacent
fixed-width integer fields is fused into one ``struct.Struct`` pack or
unpack.  The plan is data, not generated code.  Field validation means
every stored value packs; when a fused unpack meets truncated bytes the
per-field ``Field.decode`` code re-reads that run, so errors keep their
exact type and message.

Link round trip: :meth:`Packet.wire_copy` is what a wire-fidelity link
delivers instead of ``parse(build())``.  A layer a link delivered
keeps its own ``[wire_id][fields]`` slice; ``build`` re-emits it and the
round trip clones it with its values until one of its fields is
assigned.  Any other layer is encoded by its plan and decoded once per
distinct byte string, through a bounded memo.  A decode is a pure
function of its bytes and every decoded value is immutable, so neither
shortcut can be told apart from a re-parse.  The round trip also hands
the link the delivered bytes and each layer's correlation items, which
the memo computes once per distinct layer and received layers carry
with their slice: the trace keeps the bytes, and the span tracker reads
the correlation keys, without building :meth:`Packet.trace_info`.

Tracing: each layer sets ``show_in_flow`` — transport layers (IPv4, UDP,
GTP) set it ``False`` so that :meth:`Packet.flow_name` names the innermost
*signalling* message, which is what the paper's figures display (a Q.931
Setup is still "Q.931 Setup" while tunnelled through GTP).
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from repro.errors import PacketError
from repro.packets.fields import BytesField, Field, OptionalField, UIntField

P = TypeVar("P", bound="Packet")

_WIRE_REGISTRY: Dict[int, Type["Packet"]] = {}
_NEXT_WIRE_ID = [1]

#: struct format codes of the big-endian integer widths a run can fuse.
_UINT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: ``(encode, get, star)``: the step appends ``encode(*get(values))`` for
#: a fused integer run, ``encode(get(values))`` for a single field.
_EncodeStep = Tuple[Callable[..., bytes], Callable[[Dict[str, Any]], Any], bool]
#: ``(run, names, fields)``: *run* is the fused ``struct.Struct`` of an
#: integer run, or ``None`` for a single field (``names``/``fields`` then
#: have one entry).
_DecodeStep = Tuple[Optional[struct.Struct], Tuple[str, ...], Tuple[Field, ...]]
#: One layer's share of the correlation keys of :meth:`Packet.trace_info`:
#: ``(key, value, from_info)`` items, merged by :func:`merge_correlation`.
Correlation = Tuple[Tuple[str, Any, bool], ...]
#: What a link delivered: the packet's bytes and each layer's
#: correlation items, outermost first (:meth:`Packet.wire_copy`).
WireSnapshot = Tuple[bytes, Tuple[Correlation, ...]]


class Packet:
    """Base class for every protocol message.

    Subclasses declare::

        class RasRrq(Packet):
            name = "RAS_RRQ"
            fields = (
                E164Field("alias"),
                IPv4AddressField("transport_address"),
            )
    """

    name: str = "Packet"
    fields: Tuple[Field, ...] = ()
    show_in_flow: bool = True
    wire_id: int = 0

    # Set per subclass by __init_subclass__.
    _field_map: Dict[str, Field]
    _plan: "_Plan"
    _wire_prefix: bytes

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "wire_id" not in cls.__dict__:
            cls.wire_id = _NEXT_WIRE_ID[0]
            _NEXT_WIRE_ID[0] += 1
        if cls.wire_id in _WIRE_REGISTRY:
            raise PacketError(
                f"wire_id {cls.wire_id} already used by "
                f"{_WIRE_REGISTRY[cls.wire_id].__name__}"
            )
        # Intern names once at class definition: every per-message dict
        # lookup (field access, trace merges, metric name formatting)
        # then compares by pointer instead of hashing a fresh string.
        cls.name = sys.intern(cls.name)
        for f in cls.fields:
            f.name = sys.intern(f.name)
        cls._field_map = {f.name: f for f in cls.fields}
        if len(cls._field_map) != len(cls.fields):
            raise PacketError(f"{cls.__name__}: duplicate field names")
        plan = _PLANS.get(cls.fields)
        if plan is None:
            plan = _PLANS[cls.fields] = _Plan(cls.fields)
        cls._plan = plan
        cls._wire_prefix = cls.wire_id.to_bytes(2, "big")
        # Last, so a class rejected above never reaches the registry.
        _WIRE_REGISTRY[cls.wire_id] = cls

    def __init__(self, _payload: Optional["Packet"] = None, **values: Any) -> None:
        # Direct slot writes: __setattr__ dispatch and the unknown-field
        # set difference are measurable per-message costs in soak runs.
        object.__setattr__(self, "payload", _payload)
        field_map = type(self)._field_map
        vals: Dict[str, Any] = {}
        object.__setattr__(self, "_values", vals)
        consumed = 0
        for fname, field in field_map.items():
            if fname in values:
                consumed += 1
                vals[fname] = field.validate(values[fname])
            else:
                default = field.default
                vals[fname] = (
                    field.validate(default) if default is not None else default
                )
        if consumed != len(values):
            unknown = set(values) - set(field_map)
            raise PacketError(
                f"{type(self).__name__}: unknown fields {sorted(unknown)}"
            )

    # ------------------------------------------------------------------
    # Field access
    # ------------------------------------------------------------------
    def __getattr__(self, item: str) -> Any:
        values = self.__dict__.get("_values")
        if values is not None and item in values:
            return values[item]
        raise AttributeError(f"{type(self).__name__} has no field {item!r}")

    def get_field(self, name: str, default: Any = None) -> Any:
        """``self.<name>`` if this layer declares the field, else
        *default*."""
        return self._values.get(name, default)

    @classmethod
    def _trusted(
        cls: Type[P],
        values: Dict[str, Any],
        wire: Optional[bytes],
        corr: Optional[Correlation] = None,
    ) -> P:
        """A *cls* layer holding a copy of *values*, which are already
        valid (decode output, or another layer's stored values), and the
        ``[wire_id][fields]`` slice *wire* they encode to, if known, with
        its correlation items *corr*.  Nothing is validated or encoded."""
        packet = cls.__new__(cls)
        state = packet.__dict__
        state["payload"] = None
        state["_values"] = dict(values)
        if wire is not None:
            state["_wire"] = wire
            if corr is not None:
                state["_corr"] = corr
        return packet

    def __setattr__(self, key: str, value: Any) -> None:
        if key in ("payload", "_values"):
            object.__setattr__(self, key, value)
            return
        field = type(self)._field_map.get(key)
        if field is not None:
            self._values[key] = field.validate(value)
            # The relayed wire slice no longer matches the values.
            state = self.__dict__
            state.pop("_wire", None)
            state.pop("_corr", None)
            return
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Layering
    # ------------------------------------------------------------------
    def __truediv__(self, other: "Packet") -> "Packet":
        """Stack *other* below the innermost layer of ``self``."""
        inner = self
        while inner.payload is not None:
            inner = inner.payload
        inner.payload = other
        return self

    def layers(self) -> Iterator["Packet"]:
        layer: Optional[Packet] = self
        while layer is not None:
            yield layer
            layer = layer.payload

    def get_layer(self, klass: Type[P]) -> Optional[P]:
        for layer in self.layers():
            if isinstance(layer, klass):
                return layer
        return None

    def haslayer(self, klass: Type["Packet"]) -> bool:
        return self.get_layer(klass) is not None

    def innermost(self) -> "Packet":
        layer = self
        while layer.payload is not None:
            layer = layer.payload
        return layer

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def flow_name(self) -> str:
        """The message name shown in message-sequence charts: the
        innermost layer that opts into flow display."""
        shown = None
        for layer in self.layers():
            if layer.show_in_flow:
                shown = layer
        return (shown or self).name

    #: Field names that correlate a message with a procedure (span);
    #: surfaced by :meth:`trace_info` from any layer that declares them,
    #: even when the layer's ``info()`` does not (e.g. MAP messages only
    #: advertise their invoke id, but most carry the IMSI too).
    CORRELATION_FIELDS = ("imsi", "call_ref", "ti", "alias", "invoke_id")

    def trace_info(self) -> Dict[str, Any]:
        """Merged ``info()`` of all layers (inner layers win), plus any
        correlation fields present in the layers' declared fields —
        the span tracker keys on these, so they must not depend on each
        message class remembering to expose them."""
        merged: Dict[str, Any] = {}
        for layer in self.layers():
            for key, stringify in type(layer)._plan.correlation:
                if key not in merged:
                    value = layer.get_field(key)
                    if value is not None:
                        merged[key] = str(value) if stringify else value
            merged.update(layer.info())
        return merged

    def info(self) -> Dict[str, Any]:
        """Per-layer trace detail; subclasses override."""
        return {}

    def _correlation(self) -> Correlation:
        """This layer's share of the correlation keys of
        :meth:`trace_info`: its declared correlation fields, then the
        correlation keys of its ``info()``."""
        items: List[Tuple[str, Any, bool]] = []
        for key, stringify in type(self)._plan.correlation:
            value = self._values[key]
            if value is not None:
                items.append((key, str(value) if stringify else value, False))
        for key, value in self.info().items():
            if key in Packet.CORRELATION_FIELDS:
                items.append((key, value, True))
        return tuple(items)

    # ------------------------------------------------------------------
    # Wire codec
    # ------------------------------------------------------------------
    def build(self) -> bytes:
        """Serialise this layer and its payload chain to bytes."""
        parts: List[bytes] = []
        layer: Optional[Packet] = self
        while layer is not None:
            state = layer.__dict__
            wire = state.get("_wire")
            parts.append(_encode_layer(layer) if wire is None else wire)
            layer = state["payload"]
        return b"".join(parts)

    def wire_copy(self) -> Tuple["Packet", WireSnapshot]:
        """What ``Packet.parse(self.build())`` returns, and a snapshot of
        the delivery: those bytes and the correlation items of each
        layer.  Each distinct layer is decoded once.

        This is the wire-fidelity link's round trip.  A layer that still
        carries its received slice is cloned with its values and
        correlation items, with no scan and no decode.  Any other layer
        is encoded by its plan, as ``build`` does, and the bytes are
        decoded through a bounded memo: a miss decodes them in full,
        checks that the decode consumes exactly those bytes and computes
        the layer's correlation items.  Every copy keeps its slice, so
        the next hop clones it in turn.

        ``merge_correlation`` of the items equals the correlation keys
        of ``trace_info()`` on the copy, so a trace can keep the bytes
        and the span tracker need not build the info dict."""
        copies: List[Packet] = []
        wires: List[bytes] = []
        corrs: List[Correlation] = []
        layer: Optional[Packet] = self
        while layer is not None:
            state = layer.__dict__
            wire = state.get("_wire")
            if wire is None:
                wire = _encode_layer(layer)
                klass, values, corr = _decode_layer(wire)
            else:
                klass, values = type(layer), state["_values"]
                corr = state.get("_corr")
                if corr is None:  # a relay renamed the layer
                    corr = layer._correlation()
            wires.append(wire)
            corrs.append(corr)
            copies.append(klass._trusted(values, wire, corr))
            layer = state["payload"]
        for outer, inner in zip(copies, copies[1:]):
            outer.__dict__["payload"] = inner
        return copies[0], (b"".join(wires), tuple(corrs))

    @classmethod
    def parse(cls, data: bytes) -> "Packet":
        """Parse bytes into a packet chain.

        Called on :class:`Packet` it dispatches purely on the wire id;
        called on a subclass it additionally checks the outer layer type.
        """
        if type(data) is not bytes:
            # Bytes fields decode to slices of *data*: a stored value must
            # not alias a mutable buffer.
            data = bytes(data)
        end = len(data)
        packet, offset = _parse_layer(data, 0)
        layer = packet
        while offset < end:
            inner, offset = _parse_layer(data, offset)
            layer.__dict__["payload"] = inner
            layer = inner
        if cls is not Packet and not isinstance(packet, cls):
            raise PacketError(
                f"expected outer layer {cls.__name__}, got {type(packet).__name__}"
            )
        return packet

    # ------------------------------------------------------------------
    # Comparison / display
    # ------------------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._values == other._values and self.payload == other.payload

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((type(self), tuple(sorted(self._values.items(), key=lambda kv: kv[0], ))))

    def copy(self) -> "Packet":
        # Stored values were validated when set or decoded; a required
        # field still unset raises at build(), as on the original.
        state = self.__dict__
        clone = type(self)._trusted(
            self._values, state.get("_wire"), state.get("_corr")
        )
        if self.payload is not None:
            clone.payload = self.payload.copy()
        return clone

    def show(self) -> str:
        """Multi-line human-readable dump of the layer chain."""
        lines: List[str] = []
        for depth, layer in enumerate(self.layers()):
            pad = "  " * depth
            lines.append(f"{pad}### {layer.name} ###")
            for field in type(layer).fields:
                lines.append(f"{pad}  {field.name} = {layer._values[field.name]!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{f.name}={self._values[f.name]!r}"
            for f in type(self).fields
            if self._values[f.name] is not None
        )
        own = f"{type(self).__name__}({parts})"
        if self.payload is not None:
            return f"{own}/{self.payload!r}"
        return own


def _int_code(field: Field) -> str:
    """The ``struct`` code that can stand in for *field* -- it must be
    coded exactly as :class:`UIntField` codes it -- else ``""``."""
    kind = type(field)
    if (
        isinstance(field, UIntField)
        and kind.encode is UIntField.encode
        and kind.decode is UIntField.decode
    ):
        return _UINT_CODES.get(field.size, "")
    return ""


class _Plan:
    """The compiled codec of one field tuple: one step per field, with
    each run of adjacent fixed-width integer fields merged into one
    struct step.  Shared by every class declaring the same tuple, as
    interface siblings do."""

    __slots__ = ("correlation", "decoders", "defaulted", "encoders", "must_set")

    def __init__(self, fields: Sequence[Field]) -> None:
        #: ``(name, stringify)`` for each CORRELATION_FIELDS entry declared.
        self.correlation = tuple(
            (key, key in ("imsi", "alias"))
            for key in Packet.CORRELATION_FIELDS
            if any(f.name == key for f in fields)
        )
        #: Non-optional fields whose default is ``None``.  Validators
        #: reject ``None``, so only these can still be unset at build.
        self.must_set = tuple(
            f.name for f in fields
            if f.default is None and not isinstance(f, OptionalField)
        )
        #: Fields with a non-``None`` default, which construction puts
        #: in place of an omitted value.
        self.defaulted = tuple(f.name for f in fields if f.default is not None)
        groups: List[List[Field]] = []
        for field in fields:
            if groups and _int_code(field) and _int_code(groups[-1][-1]):
                groups[-1].append(field)
            else:
                groups.append([field])
        encoders: List[_EncodeStep] = []
        decoders: List[_DecodeStep] = []
        for group in groups:
            names = tuple(f.name for f in group)
            codes = "".join(_int_code(f) for f in group)
            if codes:
                run = _STRUCTS.get(codes)
                if run is None:
                    run = _STRUCTS[codes] = struct.Struct(">" + codes)
                encoders.append((run.pack, itemgetter(*names), len(names) > 1))
                decoders.append((run, names, tuple(group)))
            else:
                field = group[0]
                encoders.append((field.encode, itemgetter(field.name), False))
                decoders.append((None, names, (field,)))
        self.encoders: Tuple[_EncodeStep, ...] = tuple(encoders)
        self.decoders: Tuple[_DecodeStep, ...] = tuple(decoders)


#: Plans by field tuple, and fused structs by format, shared between
#: classes (memory: ~150 message classes are defined at import).
_PLANS: Dict[Tuple[Field, ...], _Plan] = {}
_STRUCTS: Dict[str, struct.Struct] = {}


def _encode_layer(layer: Packet) -> bytes:
    """``[wire_id][fields]`` of one layer through its class's plan."""
    klass = type(layer)
    values = layer._values
    plan = klass._plan
    for name in plan.must_set:
        if values[name] is None:
            raise PacketError(f"{klass.__name__}.{name} is unset; cannot build")
    parts = [klass._wire_prefix]
    for encode, get, star in plan.encoders:
        parts.append(encode(*get(values)) if star else encode(get(values)))
    return b"".join(parts)


def _parse_layer(data: bytes, offset: int) -> Tuple[Packet, int]:
    """Parse the layer at *offset* (not its payload); returns it and the
    offset just past its fields."""
    if offset + 2 > len(data):
        raise PacketError("truncated wire id")
    wire_id = int.from_bytes(data[offset : offset + 2], "big")
    klass = _WIRE_REGISTRY.get(wire_id)
    if klass is None:
        raise PacketError(f"unknown wire id {wire_id}")
    offset += 2
    values: Dict[str, Any] = {}
    for run, names, fields in klass._plan.decoders:
        if run is not None:
            try:
                values.update(zip(names, run.unpack_from(data, offset)))
            except struct.error:
                for field in fields:  # raises the truncated field's error
                    offset = field.decode(data, offset)[1]
                raise
            offset += run.size
        else:
            values[names[0]], offset = fields[0].decode(data, offset)
    packet = klass.__new__(klass)
    state = packet.__dict__
    state["payload"] = None
    state["_values"] = values
    return packet, offset


#: Entry bound of the :func:`_decode_layer` memo.  The e2ebench served
#: and lifecycle rounds hit it for 68 % of their fresh layers; an
#: unbounded memo reaches 69 %, so the misses are unique bytes.
_DECODED_LIMIT = 4096


@lru_cache(maxsize=_DECODED_LIMIT)
def _decode_layer(wire: bytes) -> Tuple[Type[Packet], Dict[str, Any], Correlation]:
    """The class and values that *wire*, one whole layer, decodes to,
    and the layer's correlation items.

    Memoised per process: a decode is a pure function of its bytes, so
    what the memo holds never shows in any output.  The values dict is
    shared by every hit, so callers copy it and never mutate it."""
    layer, end = _parse_layer(wire, 0)
    if end != len(wire):
        raise PacketError(
            f"{type(layer).__name__}: decode consumed {end} of "
            f"{len(wire)} encoded bytes"
        )
    return type(layer), layer._values, layer._correlation()


def merge_correlation(layers: Sequence[Correlation]) -> Dict[str, Any]:
    """The correlation keys of ``trace_info()`` from each layer's
    :meth:`Packet._correlation`, outermost first: a declared field
    fills a key no earlier layer set, an ``info()`` item overrides."""
    keys: Dict[str, Any] = {}
    for items in layers:
        for key, value, from_info in items:
            if from_info or key not in keys:
                keys[key] = value
    return keys


class Raw(Packet):
    """Opaque payload bytes (e.g. a vocoder frame inside RTP)."""

    name = "Raw"
    show_in_flow = False
    fields = (BytesField("data", b""),)
