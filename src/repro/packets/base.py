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
per-field ``Field.skip`` code re-scans that run, so errors keep their
exact type and message.

Relayed-slice reuse: a lazily parsed layer keeps its own
``[wire_id][fields]`` slice and ``build`` re-emits it until one of its
fields is assigned; its payload is still built layer by layer.  Every
parse still scans every field boundary.

Tracing: each layer sets ``show_in_flow`` — transport layers (IPv4, UDP,
GTP) set it ``False`` so that :meth:`Packet.flow_name` names the innermost
*signalling* message, which is what the paper's figures display (a Q.931
Setup is still "Q.931 Setup" while tunnelled through GTP).
"""

from __future__ import annotations

import struct
import sys
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
_ScanStep = Tuple[Optional[struct.Struct], Tuple[str, ...], Tuple[Field, ...]]


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
        d = self.__dict__
        values = d.get("_values")
        if values is not None and item in values:
            return values[item]
        lazy = d.get("_lazy")
        if lazy is not None:
            offset = lazy[1].get(item)
            if offset is not None:
                value, _ = type(self)._field_map[item].decode(lazy[0], offset)
                values[item] = value
                return value
        raise AttributeError(f"{type(self).__name__} has no field {item!r}")

    def get_field(self, name: str, default: Any = None) -> Any:
        """``self.<name>`` if this layer declares the field, else
        *default* — the lazy-safe replacement for probing ``_values``
        directly (a lazily parsed layer keeps unread values as wire
        bytes, so ``_values`` alone understates what is present)."""
        values = self._values
        if name in values:
            return values[name]
        lazy = self.__dict__.get("_lazy")
        if lazy is not None and name in lazy[1]:
            return getattr(self, name)
        return default

    def _materialize(self) -> None:
        """Decode every field still pending from a lazy parse.

        Values already read (or assigned) win over the wire bytes, which
        matches eager-parse semantics where assignment overwrites the
        decoded value."""
        lazy = self.__dict__.pop("_lazy", None)
        if lazy is None:
            return
        data, offsets = lazy
        values = self._values
        field_map = type(self)._field_map
        for name, offset in offsets.items():
            if name not in values:
                values[name] = field_map[name].decode(data, offset)[0]

    def __setattr__(self, key: str, value: Any) -> None:
        if key in ("payload", "_values"):
            object.__setattr__(self, key, value)
            return
        field = type(self)._field_map.get(key)
        if field is not None:
            self._values[key] = field.validate(value)
            # The relayed wire slice no longer matches the values.
            self.__dict__.pop("_wire", None)
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

    @classmethod
    def parse(cls, data: bytes, *, lazy: bool = False) -> "Packet":
        """Parse bytes into a packet chain.

        Called on :class:`Packet` it dispatches purely on the wire id;
        called on a subclass it additionally checks the outer layer type.

        With ``lazy=True`` only field *boundaries* are scanned; values
        materialise on first attribute access.  Structural errors
        (unknown wire ids, truncation, bad lengths and presence flags;
        trailing bytes parse as one more layer and fail as one) still
        raise here, but value-level validation is deferred — so
        the lazy path is only for bytes this process built itself (the
        link wire-fidelity round trip), never for untrusted input.
        """
        if type(data) is not bytes:
            # Lazy layers keep *data*: copy a mutable buffer so that later
            # writes to it cannot change values not yet decoded.
            data = bytes(data)
        end = len(data)
        packet, offset = _parse_layer(data, 0, lazy)
        layer = packet
        while offset < end:
            inner, offset = _parse_layer(data, offset, lazy)
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
        if "_lazy" in self.__dict__:
            self._materialize()
        if "_lazy" in other.__dict__:
            other._materialize()
        return self._values == other._values and self.payload == other.payload

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        if "_lazy" in self.__dict__:
            self._materialize()
        return hash((type(self), tuple(sorted(self._values.items(), key=lambda kv: kv[0], ))))

    def copy(self) -> "Packet":
        if "_lazy" in self.__dict__:
            self._materialize()
        clone = type(self)(**dict(self._values))
        if self.payload is not None:
            clone.payload = self.payload.copy()
        return clone

    def show(self) -> str:
        """Multi-line human-readable dump of the layer chain."""
        lines: List[str] = []
        for depth, layer in enumerate(self.layers()):
            if "_lazy" in layer.__dict__:
                layer._materialize()
            pad = "  " * depth
            lines.append(f"{pad}### {layer.name} ###")
            for field in type(layer).fields:
                lines.append(f"{pad}  {field.name} = {layer._values[field.name]!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        if "_lazy" in self.__dict__:
            self._materialize()
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
        and kind.skip is UIntField.skip
    ):
        return _UINT_CODES.get(field.size, "")
    return ""


class _Plan:
    """The compiled codec of one field tuple: one step per field, with
    each run of adjacent fixed-width integer fields merged into one
    struct step.  Shared by every class declaring the same tuple, as
    interface siblings do."""

    __slots__ = ("correlation", "encoders", "must_set", "scan")

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
        groups: List[List[Field]] = []
        for field in fields:
            if groups and _int_code(field) and _int_code(groups[-1][-1]):
                groups[-1].append(field)
            else:
                groups.append([field])
        encoders: List[_EncodeStep] = []
        scan: List[_ScanStep] = []
        for group in groups:
            names = tuple(f.name for f in group)
            codes = "".join(_int_code(f) for f in group)
            if codes:
                run = _STRUCTS.get(codes)
                if run is None:
                    run = _STRUCTS[codes] = struct.Struct(">" + codes)
                encoders.append((run.pack, itemgetter(*names), len(names) > 1))
                scan.append((run, names, tuple(group)))
            else:
                field = group[0]
                encoders.append((field.encode, itemgetter(field.name), False))
                scan.append((None, names, (field,)))
        self.encoders: Tuple[_EncodeStep, ...] = tuple(encoders)
        self.scan: Tuple[_ScanStep, ...] = tuple(scan)


#: Plans by field tuple, and fused structs by format, shared between
#: classes (memory: ~150 message classes are defined at import).
_PLANS: Dict[Tuple[Field, ...], _Plan] = {}
_STRUCTS: Dict[str, struct.Struct] = {}


def _encode_layer(layer: Packet) -> bytes:
    """``[wire_id][fields]`` of one layer through its class's plan."""
    klass = type(layer)
    if "_lazy" in layer.__dict__:
        layer._materialize()
    values = layer._values
    plan = klass._plan
    for name in plan.must_set:
        if values[name] is None:
            raise PacketError(f"{klass.__name__}.{name} is unset; cannot build")
    parts = [klass._wire_prefix]
    for encode, get, star in plan.encoders:
        parts.append(encode(*get(values)) if star else encode(get(values)))
    return b"".join(parts)


def _parse_layer(data: bytes, offset: int, lazy: bool) -> Tuple[Packet, int]:
    """Parse the layer at *offset* (not its payload); returns it and the
    offset just past its fields."""
    if offset + 2 > len(data):
        raise PacketError("truncated wire id")
    wire_id = int.from_bytes(data[offset : offset + 2], "big")
    klass = _WIRE_REGISTRY.get(wire_id)
    if klass is None:
        raise PacketError(f"unknown wire id {wire_id}")
    start = offset
    offset += 2
    values: Dict[str, Any] = {}
    starts: Dict[str, int] = {}
    for run, names, fields in klass._plan.scan:
        if run is not None:
            try:
                values.update(zip(names, run.unpack_from(data, offset)))
            except struct.error:
                for field in fields:  # raises the truncated field's error
                    offset = field.skip(data, offset)
                raise
            offset += run.size
        elif lazy:
            starts[names[0]] = offset
            offset = fields[0].skip(data, offset)
        else:
            values[names[0]], offset = fields[0].decode(data, offset)
    packet = klass.__new__(klass)
    state = packet.__dict__
    state["payload"] = None
    state["_values"] = values
    if lazy:
        if starts:
            state["_lazy"] = (data, starts)
        state["_wire"] = data[start:offset]
    return packet, offset


class Raw(Packet):
    """Opaque payload bytes (e.g. a vocoder frame inside RTP)."""

    name = "Raw"
    show_in_flow = False
    fields = (BytesField("data", b""),)
