"""The versioned, JSON-serializable public protocol.

Every request and response the autotuning service speaks -- and the
in-process :func:`repro.api.tune` facade returns -- is one of the frozen
dataclasses below.  They are the public API: the wire types plus the
three verbs ``tune`` / ``serve`` / ``connect``.

Design rules (enforced by ``tests/test_api_protocol.py``):

- **One codec.**  Each field's annotation names its wire rule (``str``,
  ``int``, ``bool``, ``float``, :data:`Config`, :data:`SearchArgs`,
  :data:`Configs`, :data:`Floats`, :data:`History`, :data:`Parameters`,
  a nested message, or a tuple of them); :class:`Message` encodes and
  decodes every type from that plan.  A field with a default may be
  missing or ``null`` on the wire.  The few semantic rules (positive
  sizes, known modes and states) live in each type's ``_check``.
- **Strict round-trips.**  ``T.from_json(t.to_json()) == t`` for every
  type, including non-finite floats (an unlaunchable variant measures
  ``inf``; strict wire JSON has no ``Infinity`` literal, so non-finite
  floats travel as the strings ``"Infinity"`` / ``"-Infinity"`` /
  ``"NaN"`` in float-typed fields only -- configuration values are never
  float-decoded).
- **Versioning.**  Every document carries ``"v": PROTOCOL_VERSION``
  (``major.minor``).  A parser rejects a missing, malformed, or
  major-incompatible version with :class:`ProtocolError`; a newer minor
  under the same major is accepted (additive evolution).
- **Unknown-field tolerance.**  Parsers read the fields they know and
  ignore the rest, so a newer peer can add fields without breaking an
  older one.
- **Structured errors.**  Failures travel as :class:`ErrorEnvelope`,
  never as bare strings or HTML.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import ClassVar

from repro.autotune.space import Parameter, ParameterSpace

PROTOCOL_VERSION = "1.0"
"""The protocol this build speaks, as ``major.minor``.  Bump the major
for breaking changes (old peers are rejected), the minor for additive
ones (old peers keep working)."""

SESSION_STATES = (
    "pending", "running", "waiting", "done", "failed", "cancelled",
)
"""Session lifecycle: ``pending`` (accepted, not started), ``running``
(strategy active), ``waiting`` (external session awaiting a ``tell``),
then exactly one of ``done`` / ``failed`` / ``cancelled``."""

SESSION_MODES = ("managed", "external")
"""``managed``: the server measures (worker fleet) and the client polls.
``external``: the server only hosts the strategy; the client drives
ask/tell and measures on its own hardware."""


class ProtocolError(ValueError):
    """A document violates the protocol (bad version, missing field,
    wrong type).  Maps to HTTP 400/426 at the transport."""


def parse_version(v) -> tuple[int, int]:
    """``"major.minor"`` -> ``(major, minor)``, or :class:`ProtocolError`."""
    if not isinstance(v, str):
        raise ProtocolError(f"protocol version must be a string, got {v!r}")
    parts = v.split(".")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ProtocolError(f"malformed protocol version {v!r}")
    return int(parts[0]), int(parts[1])


def check_version(v) -> None:
    """Reject a document whose protocol version this build cannot speak.

    Compatibility rule: the major must match ours exactly; any minor
    under that major is accepted.
    """
    if v == PROTOCOL_VERSION:
        return
    if v is None:
        raise ProtocolError(
            "document carries no protocol version ('v' field); "
            f"this build speaks {PROTOCOL_VERSION}"
        )
    major, _minor = parse_version(v)
    ours, _ = parse_version(PROTOCOL_VERSION)
    if major != ours:
        raise ProtocolError(
            f"incompatible protocol version {v!r}; "
            f"this build speaks {PROTOCOL_VERSION}"
        )


# -- wire rules --------------------------------------------------------------
#
# The annotation aliases below name a field's wire rule; at runtime they
# are the plain containers the field holds.

Config = dict
"""One tuning configuration: string keys, JSON-primitive values taken
verbatim (never float-decoded, so a config string like ``"Infinity"``
survives untouched)."""
SearchArgs = dict
"""Strategy constructor kwargs: string keys, primitive or null values."""
Configs = tuple
"""A tuple of :data:`Config`."""
Floats = tuple
"""A tuple of floats; non-finite values travel as strings."""
History = tuple
"""``((config, value), ...)`` in evaluation order."""
Parameters = tuple
"""``((name, (v, v, ...)), ...)`` -- an ordered parameter space."""

_PRIMITIVE = (int, float, str)


def _wrong_type(where: str, v) -> ProtocolError:
    return ProtocolError(f"field {where!r} has wrong type: {v!r}")


def _typed(t: type):
    """Decoder accepting exactly ``t`` (``bool`` is no ``int`` here)."""
    def dec(v, where: str):
        if not isinstance(v, t) or (isinstance(v, bool) and t is not bool):
            raise _wrong_type(where, v)
        return v
    return dec


def _enc_float(x: float):
    """A float as strict-JSON: non-finite values travel as strings."""
    x = float(x)
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if math.isnan(x):
        return "NaN"
    return x


_NONFINITE = {"Infinity": float("inf"), "-Infinity": float("-inf"),
              "NaN": float("nan")}


def _dec_float(v, where: str) -> float:
    if isinstance(v, bool):
        raise ProtocolError(f"{where}: expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str) and v in _NONFINITE:
        return _NONFINITE[v]
    raise ProtocolError(f"{where}: expected a number, got {v!r}")


def _dec_config(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ProtocolError(f"{where}: config is not an object")
    for k, v in doc.items():
        if not isinstance(k, str):
            raise ProtocolError(f"{where}: config key {k!r} is not a string")
        if isinstance(v, bool) or not isinstance(v, _PRIMITIVE):
            raise ProtocolError(
                f"{where}: config value {k}={v!r} is not a JSON primitive"
            )
    return dict(doc)


def _dec_search_args(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise _wrong_type(where, doc)
    for k, v in doc.items():
        if not isinstance(k, str):
            raise ProtocolError(f"{where} key {k!r} is not a string")
        if v is not None and not isinstance(v, (bool, *_PRIMITIVE)):
            raise ProtocolError(
                f"{where} value {k}={v!r} is not a JSON primitive"
            )
    return dict(doc)


def _dec_history_entry(entry, where: str) -> tuple:
    if not (isinstance(entry, list) and len(entry) == 2):
        raise ProtocolError(f"{where}: bad entry {entry!r}")
    return _dec_config(entry[0], where), _dec_float(entry[1], where)


def _dec_parameter(entry, where: str) -> tuple:
    if not (isinstance(entry, list) and len(entry) == 2):
        raise ProtocolError(f"{where}: bad parameter entry {entry!r}")
    name, values = entry
    if not isinstance(name, str) or not name:
        raise ProtocolError(f"{where}: bad parameter name {name!r}")
    if not isinstance(values, list) or not values:
        raise ProtocolError(f"{where}: parameter {name!r} has no value list")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, _PRIMITIVE):
            raise ProtocolError(
                f"{where}: parameter {name!r} value {v!r} is not a "
                "JSON primitive"
            )
    return name, tuple(values)


def _each(dec):
    """Decoder of a JSON list into a tuple, ``dec`` per element."""
    def dec_all(v, where: str) -> tuple:
        if not isinstance(v, list):
            raise _wrong_type(where, v)
        return tuple(dec(x, f"{where}[{i}]") for i, x in enumerate(v))
    return dec_all


_RULES = {
    # name: (encode or None for identity, decode(value, where), the type
    # a wire value of which decodes to itself or None)
    "str": (None, _typed(str), str),
    "int": (None, _typed(int), int),
    "bool": (None, _typed(bool), bool),
    "float": (_enc_float, _dec_float, float),
    "Config": (dict, _dec_config, None),
    "SearchArgs": (dict, _dec_search_args, None),
    "Configs": (lambda cs: [dict(c) for c in cs], _each(_dec_config), None),
    "Floats": (lambda xs: [_enc_float(x) for x in xs], _each(_dec_float),
               None),
    "History": (lambda h: [[dict(c), _enc_float(v)] for c, v in h],
                _each(_dec_history_entry), None),
    "Parameters": (lambda ps: [[n, list(vs)] for n, vs in ps],
                   _each(_dec_parameter), None),
}


def _rule(annotation: str):
    """The :data:`_RULES` entry for a field annotation such as ``"int"``,
    ``"Config | None"``, ``"SpaceSpec | None"`` or
    ``"tuple[MeasurementRecord, ...]"``."""
    name = annotation.removesuffix(" | None")
    if name in _RULES:
        return _RULES[name]
    many = name.startswith("tuple[")
    cls = globals()[name.removeprefix("tuple[").removesuffix(", ...]")]
    enc, dec = (lambda m: m.to_json()), (lambda v, where: cls.from_json(v))
    if many:
        return (lambda ms: [enc(m) for m in ms]), _each(dec), None
    return enc, dec, None


def _plan(cls) -> None:
    """Build a message type's field plan once: ``_encoders`` holds
    ``(name, encode)`` for the fields not sent verbatim, ``_decoders``
    ``(name, decode, verbatim type, required)`` for every field."""
    encoders, decoders = [], []
    for f in dataclasses.fields(cls):
        enc, dec, verbatim = _rule(f.type)
        if enc is not None:
            encoders.append((f.name, enc))
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        decoders.append((f.name, dec, verbatim, required))
    cls._encoders, cls._decoders = tuple(encoders), tuple(decoders)


# -- message base ------------------------------------------------------------

@dataclass(frozen=True)
class Message:
    """Base of every protocol type: ``to_json`` emits a dict carrying
    ``type``, ``v`` and every field in declaration order; ``from_json``
    validates both and parses the known fields, tolerating unknown
    ones."""

    TYPE: ClassVar[str] = ""
    _encoders: ClassVar[tuple] = ()
    _decoders: ClassVar[tuple] = ()

    def _check(self) -> None:
        """Semantic validation after a parse; raise :class:`ProtocolError`."""

    def to_json(self) -> dict:
        # a frozen dataclass's __dict__ holds exactly its fields, in
        # declaration order; re-assigning a key keeps its position
        doc = {"type": self.TYPE, "v": PROTOCOL_VERSION, **self.__dict__}
        for name, enc in self._encoders:
            value = doc[name]
            if value is not None:
                doc[name] = enc(value)
        return doc

    @classmethod
    def from_json(cls, doc) -> "Message":
        if not isinstance(doc, dict):
            raise ProtocolError(
                f"{cls.TYPE or cls.__name__}: document is not a JSON object"
            )
        t = doc.get("type")
        if t is not None and t != cls.TYPE:
            raise ProtocolError(
                f"expected a {cls.TYPE!r} document, got type {t!r}"
            )
        check_version(doc.get("v"))
        kwargs = {}
        for name, dec, verbatim, required in cls._decoders:
            value = doc.get(name)
            if value is not None:
                kwargs[name] = (value if type(value) is verbatim
                                else dec(value, name))
            elif required:
                # an explicit null in a field with a default means "use
                # the default" (to_json emits None for unset optionals)
                raise ProtocolError(f"missing required field {name!r}")
        message = cls(**kwargs)
        message._check()
        return message


# -- the types ---------------------------------------------------------------

@dataclass(frozen=True)
class SpaceSpec(Message):
    """A serializable :class:`~repro.autotune.space.ParameterSpace`:
    ordered ``(name, values)`` pairs."""

    TYPE: ClassVar[str] = "space"

    parameters: Parameters
    """``((name, (v, v, ...)), ...)`` -- tuples, so instances compare
    and round-trip exactly."""

    @classmethod
    def from_space(cls, space: ParameterSpace) -> "SpaceSpec":
        return cls(parameters=tuple(
            (p.name, tuple(p.values)) for p in space.parameters
        ))

    def to_space(self) -> ParameterSpace:
        return ParameterSpace([
            Parameter(name, tuple(values))
            for name, values in self.parameters
        ])


@dataclass(frozen=True)
class TuneRequest(Message):
    """Submit one tuning session: kernel, GPU, size, strategy, budget,
    and (optionally) an explicit space."""

    TYPE: ClassVar[str] = "tune-request"

    kernel: str
    gpu: str
    size: int
    search: str = "exhaustive"
    budget: int | None = None
    use_rule: bool = False
    mode: str = "managed"
    space: SpaceSpec | None = None
    search_args: SearchArgs = field(default_factory=dict)
    """Strategy constructor kwargs (``seed``, ``population``, ...);
    values must be JSON primitives so requests stay serializable."""
    tenant: str = "default"

    def _check(self) -> None:
        if self.size <= 0:
            raise ProtocolError(f"size must be positive, got {self.size}")
        if self.mode not in SESSION_MODES:
            raise ProtocolError(f"mode {self.mode!r} not in {SESSION_MODES}")
        if self.budget is not None and self.budget <= 0:
            raise ProtocolError(
                f"budget must be positive, got {self.budget}"
            )


@dataclass(frozen=True)
class MeasurementRecord(Message):
    """One measured variant on the wire (the serializable face of
    :class:`~repro.autotune.measure.VariantMeasurement`)."""

    TYPE: ClassVar[str] = "measurement"

    config: Config
    size: int
    seconds: float
    occupancy: float
    regs_per_thread: int
    reg_instructions: float
    key: str | None = None
    """The content digest of this measurement's point
    (:func:`repro.engine.cache.measurement_key`: the SHA-256 of the text
    the store's row address holds), when known."""

    @classmethod
    def from_measurement(cls, m, key: str | None = None):
        return cls(
            config=dict(m.config), size=m.size, seconds=m.seconds,
            occupancy=m.occupancy, regs_per_thread=m.regs_per_thread,
            reg_instructions=m.reg_instructions, key=key,
        )

    def to_measurement(self):
        from repro.autotune.measure import VariantMeasurement

        return VariantMeasurement(
            config=dict(self.config), size=self.size, seconds=self.seconds,
            occupancy=self.occupancy, regs_per_thread=self.regs_per_thread,
            reg_instructions=self.reg_instructions,
        )


@dataclass(frozen=True)
class AskBatch(Message):
    """One proposal batch from a session's strategy: the configurations
    that need fresh evaluations."""

    TYPE: ClassVar[str] = "ask-batch"

    session_id: str
    round: int
    configs: Configs
    """Tuple of configuration dicts (tuple, so instances compare)."""
    remaining: int | None = None
    """Budget left after this batch (``None`` = unlimited)."""
    done: bool = False
    """True when the strategy has finished; ``configs`` is then empty."""


@dataclass(frozen=True)
class TellResult(Message):
    """The objective values answering one :class:`AskBatch`, in batch
    order (``inf`` = unlaunchable)."""

    TYPE: ClassVar[str] = "tell-result"

    session_id: str
    round: int
    values: Floats


@dataclass(frozen=True)
class ErrorEnvelope(Message):
    """A structured failure: a stable machine-readable ``code`` plus a
    human message (and optional detail)."""

    TYPE: ClassVar[str] = "error"

    code: str
    message: str
    detail: str | None = None


@dataclass(frozen=True)
class SessionStatus(Message):
    """A poll of one session: lifecycle state plus progress so far."""

    TYPE: ClassVar[str] = "session-status"

    session_id: str
    state: str
    kernel: str
    gpu: str
    size: int
    search: str
    mode: str = "managed"
    rounds: int = 0
    evaluations: int = 0
    best_value: float | None = None
    best_config: Config | None = None
    error: ErrorEnvelope | None = None

    def _check(self) -> None:
        if self.state not in SESSION_STATES:
            raise ProtocolError(
                f"state {self.state!r} not in {SESSION_STATES}"
            )


@dataclass(frozen=True)
class SessionResult(Message):
    """A finished session's outcome: the serializable face of
    :class:`~repro.autotune.search.base.SearchResult` plus every
    measurement, in evaluation order.

    A server-side session and an in-process :func:`repro.api.tune` of the
    same request produce *identical* payloads (asserted in
    ``tests/test_service.py``), modulo ``session_id``.
    """

    TYPE: ClassVar[str] = "session-result"

    session_id: str
    best_config: Config
    best_value: float
    evaluations: int
    space_size: int
    full_space_size: int
    history: History = ()
    """``((config, value), ...)`` in evaluation order."""
    measurements: tuple[MeasurementRecord, ...] = ()
    """:class:`MeasurementRecord` per evaluation (empty for external
    sessions, where the client measured)."""

    @classmethod
    def from_search(cls, session_id: str, sr, measurements=()):
        return cls(
            session_id=session_id,
            best_config=dict(sr.best_config),
            best_value=float(sr.best_value),
            evaluations=sr.evaluations,
            space_size=sr.space_size,
            full_space_size=sr.full_space_size,
            history=tuple((dict(c), float(v)) for c, v in sr.history),
            measurements=tuple(
                MeasurementRecord.from_measurement(m) for m in measurements
            ),
        )

    @property
    def space_reduction(self) -> float:
        if self.full_space_size == 0:
            return 0.0
        return 1.0 - self.space_size / self.full_space_size


@dataclass(frozen=True)
class StoreStats(Message):
    """The shared measurement store's counters plus the fleet's lifetime
    totals (what the warm-pass CI assertion reads)."""

    TYPE: ClassVar[str] = "store-stats"

    entries: int = 0
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    evicted: int = 0
    measured: int = 0
    """Fresh measurements over the fleet's lifetime."""
    served_from_cache: int = 0
    """Engine-level cache hits over the fleet's lifetime."""
    sessions: int = 0
    max_entries: int | None = None
    schema_version: int = 0


@dataclass(frozen=True)
class ServerInfo(Message):
    """The handshake document: what the server speaks and holds."""

    TYPE: ClassVar[str] = "server-info"

    protocol: str
    server: str = "repro-service/1"
    sessions: int = 0
    store_entries: int = 0

    def _check(self) -> None:
        # the handshake's payload version is the compatibility contract
        check_version(self.protocol)


MESSAGE_TYPES = {
    cls.TYPE: cls
    for cls in (
        SpaceSpec, TuneRequest, MeasurementRecord, AskBatch, TellResult,
        ErrorEnvelope, SessionStatus, SessionResult, StoreStats, ServerInfo,
    )
}
for _cls in MESSAGE_TYPES.values():
    _plan(_cls)


def parse_message(doc) -> Message:
    """Dispatch a document to its type's parser by the ``type`` field."""
    if not isinstance(doc, dict):
        raise ProtocolError("message document is not a JSON object")
    t = doc.get("type")
    if t not in MESSAGE_TYPES:
        raise ProtocolError(
            f"unknown message type {t!r}; known: {sorted(MESSAGE_TYPES)}"
        )
    return MESSAGE_TYPES[t].from_json(doc)
