"""Message types and codecs of the coordinator/worker wire protocol.

Every frame type is one row of :data:`FRAMES`, the normative reference:
one JSON and one pickle interpreter encode and decode the ``json`` /
``pickle`` rows; the ``struct`` rows' hand-written codec tails follow
the headers their rows hold.  ``docs/architecture.md`` renders the rows
and carries the conversation and the version history.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple
from typing import Union

import numpy as np

from repro.codec import CodecError, WeightCodec, codec_for_id, get_codec
from repro.config import TrainingConfig, parse_endpoint  # noqa: F401 (re-exported)
from repro.nn.model import Sequential
from repro.rng import PCG64_ROW, pack_pcg64, pcg64_row, pcg64_state, unpack_pcg64

#: Bump on any wire-incompatible change: the handshake REJECTs a peer of
#: another version by name (history: ``docs/architecture.md``).
PROTOCOL_VERSION = 10

#: Largest payload a connection accepts until HELLO/WELCOME has succeeded
#: (both peers): the receiver allocates at the header's announcement, so
#: a stranger's first header must not reserve ``max_frame_payload``.
HANDSHAKE_MAX_PAYLOAD = 4096

#: Cap on the weight count a BROADCAST/UPDATE header may claim, checked before allocating.
MAX_WEIGHT_COUNT = (1 << 30) // 8

#: What a BIND_EVAL array may be: its dtype by code (1-based, little-endian
#: on the wire), at most this many dimensions and this many bytes.
ARRAY_DTYPES = tuple(np.dtype(d) for d in ("<f8", "<f4", "<i8", "<i4", "u1", "?"))
MAX_ARRAY_NDIM = 8
MAX_ARRAY_BYTES = 1 << 30


class MsgType(IntEnum):
    """Frame type byte of every protocol message."""

    HELLO = 1
    WELCOME = 2
    REJECT = 3
    ASSIGN = 4
    BROADCAST = 5
    TRAIN = 6
    UPDATE = 7
    TRAINFAIL = 8
    PING = 9
    PONG = 10
    SHUTDOWN = 11
    BYE = 12
    EVAL = 13
    EVAL_RESULT = 14
    BIND_EVAL = 15
    EVAL_MODEL = 16
    EVAL_MODEL_RESULT = 17
    TELEMETRY = 18
    ASSIGN_SHARD = 19


def frame_name(type_byte: int) -> str:
    """A frame type byte's :class:`MsgType` name, or the number itself
    for a byte no member claims (the label per-frame-type tallies use)."""
    try:
        return MsgType(type_byte).name
    except ValueError:
        return str(type_byte)


class ProtocolError(RuntimeError):
    """A peer sent something the protocol does not allow."""


def model_signature(model: Sequential) -> str:
    """Architecture fingerprint checked across the coordinator/worker pair:
    input shape, layer classes, parameter names and shapes, and the total
    count -- never the weight values, which change every round."""
    desc = {
        "input_shape": list(model.input_shape),
        "layers": [
            [
                type(layer).__name__,
                {name: list(layer.params[name].shape) for name in sorted(layer.params)},
            ]
            for layer in model.layers
        ],
        "num_params": model.num_params(),
    }
    blob = json.dumps(desc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# --- field kinds -------------------------------------------------------
class _Kind(NamedTuple):
    """``cast`` is the encoder's coercion (numpy ints encode), ``valid``
    the decoder's exact type test (a bool is not an int, a float is not
    an int, a str is not a number), ``read`` shapes the decoded value."""

    cast: Callable[[Any], Any]
    valid: Callable[[Any], bool]
    read: Callable[[Any], Any] = lambda value: value


def _or_none(of: type) -> _Kind:
    return _Kind(lambda v: None if v is None else of(v), lambda v: v is None or type(v) is of)


def _ints(value: Any) -> bool:
    return type(value) is list and all(type(x) is int for x in value)


def _list_of(kind: _Kind) -> _Kind:
    return _Kind(
        lambda v: [kind.cast(x) for x in v],
        lambda v: type(v) is list and all(kind.valid(x) for x in v),
    )


def _mapping(value: Any) -> dict:
    if not isinstance(value, Mapping):
        raise ValueError(f"expected a mapping, got {type(value).__name__}")
    return dict(value)


# --- PCG64 states: four checked ints, never a pickle ------------------
# A client's train-RNG position on the wire: TRAIN carries it as JSON
# ints, UPDATE as the ``repro.rng.PCG64_ROW`` struct; both are checked
# before numpy sees a value.


def _pcg64_problem(row: Sequence[Any]) -> Optional[str]:
    """What is wrong with a ``(state, inc, has_uint32, uinteger)`` row, if anything."""
    if len(row) != 4 or not all(type(v) is int for v in row):
        return f"a PCG64 row is 4 ints, got {list(row)!r}"
    state, inc, has_uint32, uinteger = row
    if not (0 <= state < 1 << 128 and 0 <= inc < 1 << 128 and inc & 1):
        return "PCG64 state and inc must lie in [0, 2**128), inc odd"
    if has_uint32 not in (0, 1) or not 0 <= uinteger < 1 << 32:
        return "PCG64 has_uint32 must be 0 or 1, uinteger in [0, 2**32)"
    return None


def _checked_pcg64(payload: bytes, offset: int, what: str) -> Dict[str, Any]:
    row = unpack_pcg64(payload, offset)
    problem = _pcg64_problem(row)
    if problem:
        raise ProtocolError(f"malformed {what} payload: {problem}")
    return pcg64_state(row)


def _rng_rows(value: Any) -> bool:
    """TRAIN's ``rng``: ``[client, *PCG64 row]`` rows, one per client at most."""
    return (
        type(value) is list
        and all(
            type(r) is list and len(r) == 5 and type(r[0]) is int and not _pcg64_problem(r[1:])
            for r in value
        )
        and len({r[0] for r in value}) == len(value)
    )


_DICT = _Kind(_mapping, lambda v: type(v) is dict)
#: The closed set of field kinds; the last three travel in pickle rows only.
_KINDS: Dict[str, _Kind] = {
    "int": _Kind(int, lambda v: type(v) is int),
    "str": _Kind(str, lambda v: type(v) is str),
    "float?": _or_none(float),
    "int?": _or_none(int),
    "str?": _or_none(str),
    "[int]": _Kind(lambda v: [int(x) for x in v], _ints),
    "[float?]": _list_of(_or_none(float)),
    "[str?]": _list_of(_or_none(str)),
    "[[int, int]]": _Kind(
        lambda v: [[int(a), int(b)] for a, b in v],
        lambda v: type(v) is list and all(_ints(p) and len(p) == 2 for p in v),
        lambda v: [(a, b) for a, b in v],
    ),
    "[[int, PCG64 row]]": _Kind(
        lambda v: [[int(cid), *pcg64_row(state)] for cid, state in v],
        _rng_rows,
        lambda v: [(r[0], pcg64_state(r[1:])) for r in v],
    ),
    "JSON object": _DICT,
    "bytes": _Kind(bytes, lambda v: type(v) is bytes),
    "dict": _DICT,
    "any": _Kind(lambda v: v, lambda v: True),
}


# --- the frame table ---------------------------------------------------
@dataclass(frozen=True)
class FrameSpec:
    """One frame type.  ``layout`` is ``empty``, ``json`` / ``pickle`` (an
    object of the ``(name, kind)`` ``fields``, in order) or ``struct`` (a
    big-endian header of ``(name, struct code)`` ``fields``, then the
    ``(name, encoding)`` ``tail``).  ``check``, the cross-field rule,
    holds on both sides."""

    type: MsgType
    direction: str
    layout: str
    fields: Tuple[Tuple[str, str], ...]
    purpose: str
    tail: Tuple[Tuple[str, str], ...] = ()
    check: Optional[Callable[[Dict[str, Any]], Optional[str]]] = None

    @property
    def header(self) -> struct.Struct:
        return struct.Struct("!" + "".join(code for _, code in self.fields))


def _one_of(a: str, b: str) -> Callable[[Dict[str, Any]], Optional[str]]:
    return lambda v: (
        f"exactly one of {a} / {b} must be given" if (v[a] is None) == (v[b] is None) else None
    )


def _eval_results(v: Dict[str, Any]) -> Optional[str]:
    """EVAL_RESULT's rule: parallel lists, one accuracy or error per client."""
    ids, accs, errors = v["client_ids"], v["accuracies"], v["errors"]
    if not len(ids) == len(accs) == len(errors):
        return f"list lengths differ: {len(ids)} / {len(accs)} / {len(errors)}"
    for cid, acc, err in zip(ids, accs, errors):
        if (acc is None) == (err is None):
            return f"client {cid}: exactly one of accuracy / error must be given"
    return None


def _train_rng(v: Dict[str, Any]) -> Optional[str]:
    """TRAIN's rule: an RNG state only for a client the order trains."""
    jobs = {job[0] for job in v["jobs"]}
    return next(
        (f"an RNG state for client {row[0]}, which has no job" for row in v["rng"]
         if row[0] not in jobs),
        None,
    )


_CONFIG = (("training", "any"), ("signature", "str"), ("model", "any"))

#: Every frame type of protocol v10, in type-byte order.
# fmt: off
FRAMES: Tuple[FrameSpec, ...] = (
    FrameSpec(
        MsgType.HELLO, "w→c", "json",
        (("version", "int"), ("capacity", "int"), ("pid", "int")),
        "opens a connection; every connection registers a new worker",
        check=lambda v: None if v["capacity"] >= 1 else (
            f"capacity must be >= 1, got {v['capacity']}")),
    FrameSpec(
        MsgType.WELCOME, "c→w", "json",
        (("version", "int"), ("worker_id", "int"), ("model_signature", "str"),
         ("num_params", "int")),
        "accepts a worker: its id and the model it commits to"),
    FrameSpec(
        MsgType.REJECT, "c↔w", "json", (("reason", "str"),),
        "refuses a peer, or a frame it cannot serve, and closes the connection"),
    FrameSpec(
        MsgType.ASSIGN, "c→w", "pickle", (("clients", "dict"),) + _CONFIG,
        "ships every pickled client (data and RNG state); hand-built dict pools only"),
    FrameSpec(
        MsgType.BROADCAST, "c→w", "struct",
        (("seq", "I"), ("num_params", "Q"), ("codec_id", "B"), ("baseline_seq", "I")),
        "weights for cohort `seq`; `codec_id` 0 is the alias of retained seq `baseline_seq`",
        tail=(("weights", "codec"),)),
    FrameSpec(
        MsgType.TRAIN, "c→w", "json",
        (("seq", "int"), ("round_idx", "int"), ("jobs", "[[int, int]]"),
         ("rng", "[[int, PCG64 row]]")),
        "train `(client, epochs)` jobs on the weights of BROADCAST `seq`, each from its "
        "ledger RNG state in `rng` (none: the stream's first position)",
        check=_train_rng),
    FrameSpec(
        MsgType.UPDATE, "w→c", "struct",
        (("seq", "I"), ("client_id", "I"), ("num_samples", "Q"), ("codec_id", "B"),
         ("baseline_seq", "I"), ("has_rng", "B")),
        "one trained client's weights, with its advanced RNG state",
        tail=(("rng_state", "PCG64 row if `has_rng`"), ("weights", "codec"))),
    FrameSpec(
        MsgType.TRAINFAIL, "w→c", "json",
        (("seq", "int"), ("client_id", "int"), ("traceback", "str")),
        "one client's training failed, with its traceback"),
    FrameSpec(MsgType.PING, "c→w", "empty", (), "liveness probe, answered by a worker thread"),
    FrameSpec(MsgType.PONG, "w→c", "empty", (), "answers PING"),
    FrameSpec(MsgType.SHUTDOWN, "c→w", "empty", (), "teardown; read on until BYE"),
    FrameSpec(MsgType.BYE, "w→c", "empty", (), "the worker's last frame"),
    FrameSpec(
        MsgType.EVAL, "c→w", "json", (("seq", "int"), ("clients", "[int]")),
        "evaluate these clients' holdouts on the weights of BROADCAST `seq`"),
    FrameSpec(
        MsgType.EVAL_RESULT, "w→c", "json",
        (("seq", "int"), ("client_ids", "[int]"), ("accuracies", "[float?]"),
         ("errors", "[str?]")),
        "one EVAL order's answer: per client its holdout accuracy, or its traceback",
        check=_eval_results),
    FrameSpec(
        MsgType.BIND_EVAL, "c→w", "struct",
        (("x_dtype", "H"), ("x_ndim", "H"), ("y_dtype", "H"), ("y_ndim", "H")),
        "the server-held eval set, shipped once per worker; dtypes from a fixed list",
        tail=(("shapes", "u64 per dimension"), ("x", "raw"), ("y", "raw"))),
    FrameSpec(
        MsgType.EVAL_MODEL, "c→w", "json", (("seq", "int"), ("shards", "[[int, int]]")),
        "evaluate BROADCAST `seq` on `[start, end)` row ranges of the resident eval set",
        check=lambda v: next((f"shard bounds invalid: [{a}, {b})"
                              for a, b in v["shards"] if not 0 <= a < b), None)),
    FrameSpec(
        MsgType.EVAL_MODEL_RESULT, "w→c", "json",
        (("seq", "int"), ("start", "int"), ("end", "int"), ("correct", "int?"),
         ("error", "str?")),
        "one shard's correct-prediction count, or its traceback",
        check=_one_of("correct", "error")),
    FrameSpec(
        MsgType.TELEMETRY, "w→c", "json", (("worker_id", "int"), ("summary", "JSON object")),
        "the worker's metrics summary, once before BYE; unknown keys are kept"),
    FrameSpec(
        MsgType.ASSIGN_SHARD, "c→w", "pickle", (("shard", "bytes"),) + _CONFIG,
        "ships the population store's columns (a PSH1 blob)"),
)
# fmt: on

_SPEC: Dict[MsgType, FrameSpec] = {spec.type: spec for spec in FRAMES}


def _fields_out(msg_type: MsgType, values: Sequence[Any]) -> Dict[str, Any]:
    """A row's payload object from its field values, cast and checked."""
    spec = _SPEC[msg_type]
    obj: Dict[str, Any] = {}
    for (name, kind), value in zip(spec.fields, values):
        obj[name] = _KINDS[kind].cast(value)
    problem = spec.check and spec.check(obj)
    if problem:
        raise ValueError(problem)
    return obj


def _fields_in(msg_type: MsgType, obj: Any) -> Dict[str, Any]:
    """A row's fields from a decoded payload object, type-checked exactly."""
    spec = _SPEC[msg_type]
    what = f"malformed {msg_type.name} payload"
    if type(obj) is not dict:
        raise ProtocolError(f"{what}: {type(obj).__name__}, not an object")
    missing = [name for name, _ in spec.fields if name not in obj]
    if missing:
        raise ProtocolError(f"{what}: missing keys {missing}")
    out: Dict[str, Any] = {}
    for name, kind in spec.fields:
        how, value = _KINDS[kind], obj[name]
        if not how.valid(value):
            raise ProtocolError(f"{what}: {name} is {type(value).__name__}, not {kind}")
        out[name] = how.read(value)
    problem = spec.check and spec.check(out)
    if problem:
        raise ProtocolError(f"{what}: {problem}")
    return out


def _encode_json(msg_type: MsgType, *values: Any) -> bytes:
    return json.dumps(_fields_out(msg_type, values)).encode("utf-8")


def _decode_json(msg_type: MsgType, payload: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed {msg_type.name} payload: {exc}") from exc
    return _fields_in(msg_type, obj)


def _encode_pickle(msg_type: MsgType, *values: Any) -> bytes:
    return pickle.dumps(_fields_out(msg_type, values), protocol=pickle.HIGHEST_PROTOCOL)


def _decode_pickle(msg_type: MsgType, payload: bytes) -> Dict[str, Any]:
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"malformed {msg_type.name} payload: {exc}") from exc
    return _fields_in(msg_type, obj)


# --- JSON and pickle entry points: one call into the table each -------
def encode_hello(version: int, capacity: int, pid: int) -> bytes:
    return _encode_json(MsgType.HELLO, version, capacity, pid)


def decode_hello(payload: bytes) -> Dict[str, Any]:
    return _decode_json(MsgType.HELLO, payload)


def encode_welcome(version: int, worker_id: int, model_sig: str, num_params: int) -> bytes:
    return _encode_json(MsgType.WELCOME, version, worker_id, model_sig, num_params)


def decode_welcome(payload: bytes) -> Dict[str, Any]:
    return _decode_json(MsgType.WELCOME, payload)


def encode_reject(reason: str) -> bytes:
    return _encode_json(MsgType.REJECT, reason)


def decode_reject(payload: bytes) -> str:
    return _decode_json(MsgType.REJECT, payload)["reason"]


def encode_train(
    seq: int, round_idx: int, jobs: Sequence[Tuple[int, int]],
    rng: Sequence[Tuple[int, Mapping[str, Any]]] = (),
) -> bytes:
    """``rng`` holds ``(client, PCG64 state)`` for each job whose client
    the ledger has a position for."""
    return _encode_json(MsgType.TRAIN, seq, round_idx, jobs, rng)


def decode_train(
    payload: bytes,
) -> Tuple[int, int, List[Tuple[int, int]], List[Tuple[int, Dict[str, Any]]]]:
    return tuple(_decode_json(MsgType.TRAIN, payload).values())


def encode_trainfail(seq: int, client_id: int, tb: str) -> bytes:
    return _encode_json(MsgType.TRAINFAIL, seq, client_id, tb)


def decode_trainfail(payload: bytes) -> Tuple[int, int, str]:
    return tuple(_decode_json(MsgType.TRAINFAIL, payload).values())


def encode_eval(seq: int, client_ids: Sequence[int]) -> bytes:
    return _encode_json(MsgType.EVAL, seq, client_ids)


def decode_eval(payload: bytes) -> Tuple[int, List[int]]:
    return tuple(_decode_json(MsgType.EVAL, payload).values())


def encode_eval_result(
    seq: int,
    client_ids: Sequence[int],
    accuracies: Sequence[Optional[float]],
    errors: Sequence[Optional[str]],
) -> bytes:
    """A float's repr round-trips binary64, so each accuracy arrives bit-identical."""
    return _encode_json(MsgType.EVAL_RESULT, seq, client_ids, accuracies, errors)


def decode_eval_result(
    payload: bytes,
) -> Tuple[int, List[int], List[Optional[float]], List[Optional[str]]]:
    return tuple(_decode_json(MsgType.EVAL_RESULT, payload).values())


def encode_eval_model(seq: int, shards: Sequence[Tuple[int, int]]) -> bytes:
    return _encode_json(MsgType.EVAL_MODEL, seq, shards)


def decode_eval_model(payload: bytes) -> Tuple[int, List[Tuple[int, int]]]:
    return tuple(_decode_json(MsgType.EVAL_MODEL, payload).values())


def encode_eval_model_result(
    seq: int, start: int, end: int, correct: Optional[int] = None, error: Optional[str] = None
) -> bytes:
    """Counts travel, so the coordinator sums shards and divides once, as serial does."""
    return _encode_json(MsgType.EVAL_MODEL_RESULT, seq, start, end, correct, error)


def decode_eval_model_result(payload: bytes) -> Tuple[int, int, int, Optional[int], Optional[str]]:
    return tuple(_decode_json(MsgType.EVAL_MODEL_RESULT, payload).values())


def encode_telemetry(worker_id: int, summary: Mapping[str, Any]) -> bytes:
    return _encode_json(MsgType.TELEMETRY, worker_id, summary)


def decode_telemetry(payload: bytes) -> Tuple[int, Dict[str, Any]]:
    return tuple(_decode_json(MsgType.TELEMETRY, payload).values())


def encode_assign(
    clients: Dict[int, Any], training: TrainingConfig, signature: str, model: Any = None
) -> bytes:
    """Each client carries its data and current RNG state."""
    return _encode_pickle(MsgType.ASSIGN, clients, training, signature, model)


def decode_assign(payload: bytes) -> Dict[str, Any]:
    return _decode_pickle(MsgType.ASSIGN, payload)


def encode_assign_shard(
    shard_blob: bytes, training: TrainingConfig, signature: str, model: Any = None
) -> bytes:
    """``shard_blob`` is a :func:`repro.serialization.shard_to_bytes` payload."""
    return _encode_pickle(MsgType.ASSIGN_SHARD, shard_blob, training, signature, model)


def decode_assign_shard(payload: bytes) -> Dict[str, Any]:
    return _decode_pickle(MsgType.ASSIGN_SHARD, payload)


# --- BIND_EVAL: two arrays as raw buffers -----------------------------
_BIND_EVAL_HEADER = _SPEC[MsgType.BIND_EVAL].header


def _wire_array(a: np.ndarray) -> Tuple[np.ndarray, int]:
    """``a`` as the contiguous little-endian array the wire carries, and
    its dtype code."""
    a = np.ascontiguousarray(a)
    wire = a.dtype if a.dtype.byteorder == "|" else a.dtype.newbyteorder("<")
    if wire not in ARRAY_DTYPES:
        raise ValueError(f"BIND_EVAL cannot carry dtype {a.dtype}")
    if not 1 <= a.ndim <= MAX_ARRAY_NDIM:
        raise ValueError(f"BIND_EVAL cannot carry a {a.ndim}-dimensional array")
    return a.astype(wire, copy=False), ARRAY_DTYPES.index(wire) + 1


def encode_bind_eval(x: np.ndarray, y: np.ndarray) -> bytes:
    """The header, every dimension of ``x`` then ``y`` as u64, then the
    two arrays' bytes: no pickle, one copy of the data."""
    (x, x_code), (y, y_code) = _wire_array(x), _wire_array(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"x holds {x.shape[0]} rows but y holds {y.shape[0]}")
    header = _BIND_EVAL_HEADER.pack(x_code, x.ndim, y_code, y.ndim)
    shapes = struct.pack(f"!{x.ndim + y.ndim}Q", *x.shape, *y.shape)
    return b"".join((header, shapes, x.reshape(-1).view(np.uint8), y.reshape(-1).view(np.uint8)))


def decode_bind_eval(payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_bind_eval`: read-only views of the frame's
    own buffer.  Every dtype code, rank and byte size is checked against
    the allowlist, the caps and the tail before any array exists."""
    header = _unpack(_BIND_EVAL_HEADER, payload, "BIND_EVAL")
    codes, ranks = header[0::2], header[1::2]
    for code, rank in zip(codes, ranks):
        if not 1 <= code <= len(ARRAY_DTYPES):
            raise ProtocolError(f"BIND_EVAL names unknown dtype code {code}")
        if not 1 <= rank <= MAX_ARRAY_NDIM:
            raise ProtocolError(f"BIND_EVAL array rank {rank} outside 1..{MAX_ARRAY_NDIM}")
    dims = struct.Struct(f"!{sum(ranks)}Q")
    offset = _BIND_EVAL_HEADER.size + dims.size
    if len(payload) < offset:
        raise ProtocolError("truncated BIND_EVAL shapes")
    flat = dims.unpack_from(payload, _BIND_EVAL_HEADER.size)
    shapes = (flat[: ranks[0]], flat[ranks[0] :])
    if shapes[0][0] != shapes[1][0]:
        raise ProtocolError(f"BIND_EVAL x holds {shapes[0][0]} rows but y holds {shapes[1][0]}")
    dtypes = [ARRAY_DTYPES[code - 1] for code in codes]
    sizes = [math.prod(shape) * dtype.itemsize for shape, dtype in zip(shapes, dtypes)]
    if max(sizes) > MAX_ARRAY_BYTES:
        raise ProtocolError(f"BIND_EVAL array claims {max(sizes)} bytes, over {MAX_ARRAY_BYTES}")
    if offset + sum(sizes) != len(payload):
        raise ProtocolError(
            f"BIND_EVAL shapes describe {offset + sum(sizes)} bytes but the frame holds "
            f"{len(payload)}"
        )
    arrays = []
    for shape, dtype, size in zip(shapes, dtypes, sizes):
        a = np.frombuffer(payload, dtype, math.prod(shape), offset).reshape(shape)
        a.setflags(write=False)
        arrays.append(a)
        offset += size
    return arrays[0], arrays[1]


# --- BROADCAST / UPDATE: the binary hot path ---------------------------
_BROADCAST_HEADER = _SPEC[MsgType.BROADCAST].header
_UPDATE_HEADER = _SPEC[MsgType.UPDATE].header
#: No codec has id 0, so it marks the header-only alias BROADCAST (v7).
_ALIAS_CODEC_ID = 0
_RAW = get_codec("raw")


def _resolve_codec(codec: Union[str, WeightCodec, None]) -> WeightCodec:
    return _RAW if codec is None else get_codec(codec) if isinstance(codec, str) else codec


def _unpack(header: struct.Struct, payload: bytes, what: str) -> tuple:
    if len(payload) < header.size:
        raise ProtocolError(f"truncated {what} payload")
    return header.unpack_from(payload)


def _check_count(count: int, what: str) -> None:
    if count > MAX_WEIGHT_COUNT:
        raise ProtocolError(
            f"{what} claims {count} weight values, over the "
            f"{MAX_WEIGHT_COUNT}-value limit (corrupt frame?)"
        )


def _retained(baselines: Optional[Mapping[int, np.ndarray]], seq: int, what: str) -> np.ndarray:
    if baselines is None or seq not in baselines:
        have = sorted(baselines) if baselines else []
        raise ProtocolError(f"{what} seq {seq} but the retained BROADCASTs are {have}")
    return baselines[seq]


def _lookup_baseline(
    codec: WeightCodec, baseline_seq: int, baselines: Optional[Mapping[int, np.ndarray]], what: str
) -> Optional[np.ndarray]:
    if not codec.requires_baseline:
        return None
    if baseline_seq == 0:
        raise ProtocolError(f"{what} uses the {codec.name} codec but names no baseline seq")
    return _retained(baselines, baseline_seq, f"{what} references baseline")


def encode_broadcast(
    seq: int,
    flat_weights: np.ndarray,
    codec: Union[str, WeightCodec, None] = None,
    baseline: Optional[np.ndarray] = None,
    baseline_seq: int = 0,
) -> bytes:
    """Weights for cohort ``seq`` through a weight codec (default ``raw``).
    A ``delta`` frame names the ``baseline_seq`` of the retained
    BROADCAST ``baseline`` is; the decoder looks the same seq up."""
    codec = _resolve_codec(codec)
    arr = np.ascontiguousarray(np.asarray(flat_weights, dtype=np.float64))
    blob = codec.encode(arr, baseline=baseline)
    return _BROADCAST_HEADER.pack(int(seq), arr.size, codec.codec_id, int(baseline_seq)) + blob


def encode_broadcast_alias(seq: int, num_params: int, alias_of: int) -> bytes:
    """Header-only BROADCAST: cohort ``seq`` uses the vector the receiver
    retains under ``alias_of``, which the sender knows is bit-identical."""
    return _BROADCAST_HEADER.pack(int(seq), int(num_params), _ALIAS_CODEC_ID, int(alias_of))


def broadcast_is_alias(payload: bytes) -> bool:
    """Whether a BROADCAST frame is the alias form, from the header alone."""
    return _unpack(_BROADCAST_HEADER, payload, "BROADCAST")[2] == _ALIAS_CODEC_ID


def decode_broadcast(
    payload: bytes, baselines: Optional[Mapping[int, np.ndarray]] = None
) -> Tuple[int, np.ndarray]:
    """Inverse of both BROADCAST encoders.  ``baselines`` maps retained
    seqs to their vectors; an alias resolves to the retained array
    itself, not a copy (retained vectors are never written)."""
    seq, count, codec_id, baseline_seq = _unpack(_BROADCAST_HEADER, payload, "BROADCAST")
    _check_count(count, "BROADCAST")
    if codec_id == _ALIAS_CODEC_ID:
        extra = len(payload) - _BROADCAST_HEADER.size
        if extra:
            raise ProtocolError(f"alias BROADCAST carries a {extra}-byte payload")
        weights = _retained(baselines, baseline_seq, "alias BROADCAST names")
        if weights.size != count:
            raise ProtocolError(
                f"alias BROADCAST claims {count} weight values but the "
                f"retained seq {baseline_seq} holds {weights.size}"
            )
        return int(seq), weights
    try:
        codec = codec_for_id(codec_id)
    except ValueError as exc:
        raise ProtocolError(f"BROADCAST: {exc}") from exc
    baseline = _lookup_baseline(codec, baseline_seq, baselines, "BROADCAST")
    try:
        # A view, not a slice: the codec reads the frame's own buffer.
        tail = memoryview(payload)[_BROADCAST_HEADER.size :]
        weights = codec.decode(tail, count, baseline=baseline)
    except (CodecError, ValueError) as exc:
        raise ProtocolError(f"malformed BROADCAST payload: {exc}") from exc
    return int(seq), weights


def encode_update(
    seq: int,
    client_id: int,
    num_samples: int,
    rng_state: Optional[dict],
    flat_weights: np.ndarray,
    codec: Union[str, WeightCodec, None] = None,
    baseline: Optional[np.ndarray] = None,
    baseline_seq: int = 0,
) -> bytes:
    """One trained client's result.  A ``delta`` update's natural baseline
    is the BROADCAST it trained from (``baseline_seq == seq``)."""
    codec = _resolve_codec(codec)
    arr = np.ascontiguousarray(np.asarray(flat_weights, dtype=np.float64))
    row = b"" if rng_state is None else pack_pcg64(rng_state)
    ids = (int(seq), int(client_id), int(num_samples), codec.codec_id, int(baseline_seq))
    return _UPDATE_HEADER.pack(*ids, int(bool(row))) + row + codec.encode(arr, baseline=baseline)


def update_seq(payload: bytes) -> int:
    """An UPDATE's cohort seq from the header alone, so a stale update is
    told apart before its (maybe evicted) baseline is needed."""
    return int(_unpack(_UPDATE_HEADER, payload, "UPDATE")[0])


def decode_update(
    payload: bytes,
    baselines: Optional[Mapping[int, np.ndarray]] = None,
    expected_size: int = -1,
) -> Tuple[int, int, int, Optional[dict], np.ndarray]:
    """Inverse of :func:`encode_update`; ``expected_size`` is the model's
    parameter count, which any codec but ``raw`` needs."""
    header = _unpack(_UPDATE_HEADER, payload, "UPDATE")
    seq, client_id, num_samples, codec_id, baseline_seq, has_rng = header
    rng_state = None
    rng_end = _UPDATE_HEADER.size
    if has_rng not in (0, 1):
        raise ProtocolError(f"malformed UPDATE payload: has_rng is {has_rng}, not 0 or 1")
    if has_rng:
        rng_end += PCG64_ROW.size
        if len(payload) < rng_end:
            raise ProtocolError("truncated UPDATE rng-state row")
        rng_state = _checked_pcg64(payload, _UPDATE_HEADER.size, "UPDATE")
    try:
        codec = codec_for_id(codec_id)
    except ValueError as exc:
        raise ProtocolError(f"UPDATE: {exc}") from exc
    baseline = _lookup_baseline(codec, baseline_seq, baselines, "UPDATE")
    if expected_size < 0 and codec is not _RAW:
        raise ProtocolError(f"UPDATE: the {codec.name} codec needs an expected weight count")
    count = expected_size if expected_size >= 0 else (len(payload) - rng_end) // 8
    _check_count(count, "UPDATE")
    try:
        weights = codec.decode(memoryview(payload)[rng_end:], count, baseline=baseline)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed UPDATE payload: {exc}") from exc
    return int(seq), int(client_id), int(num_samples), rng_state, weights
