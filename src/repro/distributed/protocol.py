"""Message types and codecs of the coordinator/worker wire protocol.

One protocol message = one frame (:mod:`repro.distributed.transport`).
The conversation:

.. code-block:: text

    worker                        coordinator
      | -- HELLO {version, capacity, pid,    |   handshake; `resume` only
      |           resume?} ----------------->|   on a reconnect attempt
      |<-- WELCOME {version, worker_id,      |
      |            model_signature,          |
      |            num_params,               |
      |            session_token} -----------|   (or REJECT {reason})
      |<-- ASSIGN {clients, model, training, |   pinning: the worker now
      |           signature} ----------------|   owns these clients
      |                                      |
      |<-- BROADCAST {seq, codec,            |   per round; weights travel
      |       baseline_seq, weights} --------|   through a repro.codec
      |    (or header-only alias: codec 0,   |   weight-transport codec, or
      |       baseline_seq = retained seq)   |   name a vector already held
      |<-- TRAIN {seq, round, jobs} ---------|
      | -- UPDATE {seq, cid, n, codec,       |   one per client, carries
      |       baseline_seq, rng, w} -------->|   the advanced RNG state
      | -- TRAINFAIL {seq, cid, tb} -------->|
      |                                      |
      |<-- BIND_EVAL {x, y} -----------------|   ship-once: the server-held
      |                                      |   eval set becomes resident
      |                                      |   in every worker (v3)
      |<-- EVAL {seq, clients} --------------|   batched holdout eval
      | -- EVAL_RESULT {seq, cid,            |   against the matching
      |      accuracy | error} ------------->|   BROADCAST; one per client
      |                                      |
      |<-- EVAL_MODEL {seq, shards} ---------|   sharded pass over the
      | -- EVAL_MODEL_RESULT {seq, a, b,     |   resident eval set; one
      |      correct | error} -------------->|   result per [a, b) shard
      |                                      |
      |<-- PING -----------------------------|   liveness (answered by a
      | -- PONG ---------------------------->|   dedicated worker thread)
      |<-- SHUTDOWN -------------------------|   clean teardown
      | -- TELEMETRY {worker_id, summary} -->|   compact per-worker metrics
      | -- BYE ----------------------------->|   summary, then goodbye (v5)

Versioning and safety checks:

* ``HELLO.version`` must equal :data:`PROTOCOL_VERSION` or the
  coordinator answers ``REJECT`` and drops the connection -- a worker
  from a different release can never silently join.  The REJECT reason
  names both peers ("worker speaks v2, coordinator requires v3") and the
  worker logs it before exiting.
* ``WELCOME.model_signature`` commits the coordinator to one
  architecture; the worker recomputes the signature of the model it
  receives in ``ASSIGN`` and refuses to train on a mismatch.

Version history (every entry is a wire-incompatible break: it bumps
:data:`PROTOCOL_VERSION` and the handshake REJECTs older peers):

* **v1 -> v2**: added EVAL / EVAL_RESULT (batched holdout evaluation).
  A v1 worker would silently ignore-or-choke on an EVAL frame.
* **v2 -> v3**: added BIND_EVAL / EVAL_MODEL / EVAL_MODEL_RESULT for
  worker-sharded global evaluation, and workers began retaining the
  *last few* BROADCASTs keyed by ``seq`` instead of only the latest
  (introduced for the round pipeline, cut in PR 16, which interleaved an
  eval broadcast with the next round's training broadcast on one
  connection; delta baselines and redispatch races still rely on the
  retention).  **Ship-once invariant**: BIND_EVAL carries the full
  server-held eval set and is
  sent exactly once per worker -- right after ASSIGN at start-up, or
  immediately if the server binds eval data after registration; every
  later EVAL_MODEL names only ``[start, end)`` shard bounds over that
  resident copy, so a round's sharded evaluation costs one weight
  broadcast plus a few bytes of bounds, never a dataset re-ship.  A v2
  worker would choke on BIND_EVAL and assumes single-broadcast
  semantics, so v2 peers are REJECTed at the handshake.
* **v3 -> v4**: the weight-transport hot path became codec-pluggable and
  connections became resumable.

  - BROADCAST and UPDATE headers now carry a ``codec_id`` plus a
    ``baseline_seq`` (0 = none), so weight vectors may travel through
    any registered :class:`repro.codec.WeightCodec`: ``raw`` (the v3
    format's payload, still the default), ``delta`` (lossless
    ULP-XOR-delta against the retained BROADCAST named by
    ``baseline_seq``) or ``quantized`` (lossy float16, opt-in).  The
    weights evaluation uses travel through the same BROADCAST frames, so
    EVAL / EVAL_MODEL orders inherit the codec via the ``seq`` they
    reference.  A v3 peer would misparse the widened headers.
  - WELCOME gained a per-worker ``session_token``; HELLO gained an
    optional ``resume`` object (``{worker_id, token}``).  A worker whose
    TCP connection drops may reconnect and present its token within the
    coordinator's grace window: the coordinator re-pins its clients,
    replays their authoritative RNG state via a fresh ASSIGN, resyncs
    weights with a **raw** BROADCAST (delta baselines never survive a
    reconnect) and re-dispatches the round's outstanding jobs, instead
    of permanently retiring the worker.  Expired or unknown resume
    attempts are REJECTed and fall back to the v3 retire path.
* **v4 -> v5**: added the TELEMETRY frame -- observability joined the
  wire contract.  The frame-by-frame obligations:

  ============  =====================================================
  frame         v5 contract
  ============  =====================================================
  TELEMETRY     worker -> coordinator, JSON ``{worker_id, summary}``.
                Sent exactly once, after SHUTDOWN is received and
                *before* BYE, so the coordinator's close() -- which
                already waits for BYE -- collects every summary
                without a new synchronization point.  ``summary`` is
                a flat JSON object of counters/durations the worker
                accumulated (frames and bytes by type, train/eval
                requests served, codec encode/decode seconds, busy
                seconds, reconnects); unknown keys must be preserved
                by the coordinator, so the summary can grow without
                another version bump.
  SHUTDOWN      unchanged on the wire; now additionally promises the
                coordinator will keep reading until BYE (it always
                did), which is what makes the TELEMETRY reply safe.
  all others    byte-identical to v4.
  ============  =====================================================

  A v4 worker never sends TELEMETRY and a v4 coordinator would treat
  it as an unknown frame mid-teardown, so the handshake REJECTs the
  mismatch with the established stale-worker message ("worker speaks
  v4, coordinator requires v5").
* **v5 -> v6**: added ASSIGN_SHARD -- population-scale federations ship
  *store shards*, not clients.

  ============  =====================================================
  frame         v6 contract
  ============  =====================================================
  ASSIGN_SHARD  coordinator -> worker; replaces ASSIGN when the bound
                pool is a lazy
                :class:`~repro.simcluster.population.PopulationStore`.
                Carries one compact column slice
                (:func:`repro.serialization.shard_to_bytes`: raw numpy
                buffers + ``SeedAddress`` coordinates + authoritative
                RNG snapshots -- never pickled ``SimClient`` graphs)
                plus the training config / signature / optional model
                shell, sent **once at pin time**.  The worker rebuilds
                a local store shard and materialises clients lazily
                under its own bounded LRU; per-round TRAIN / EVAL
                frames keep referencing client ids only, so the
                steady-state wire cost is O(cohort) regardless of
                population size.  On worker loss the retire-and-re-pin
                path re-deals only the dead worker's id range as fresh
                ASSIGN_SHARD frames whose snapshots restore every
                advanced RNG stream (bit-identity under SIGKILL, same
                guarantee ASSIGN re-ships gave eager pools).
  ASSIGN        unchanged; still used for eager (materialised) pools.
  all others    byte-identical to v5.
  ============  =====================================================

  A v5 worker would choke on the unknown ASSIGN_SHARD frame, so the
  handshake REJECTs the mismatch naming both versions ("worker speaks
  v5, coordinator requires v6").
* **v6 -> v7**: the delta codec pays for itself -- its payload and the
  BROADCAST frame both changed shape.

  ============  =====================================================
  frame         v7 contract
  ============  =====================================================
  BROADCAST     gains a header-only **alias** form: ``codec_id`` 0
                (never a registered codec) with ``baseline_seq``
                naming a BROADCAST the worker still retains and *no
                payload*.  The worker files the retained vector under
                the new ``seq`` as well -- no bytes, no codec call on
                either side.  The coordinator sends it, whatever the
                configured codec (``raw`` included), when the vector
                is bit-identical to the newest one the worker holds:
                every round's training broadcast after the global
                evaluation shipped the same weights a moment earlier.
                An alias naming an evicted or unknown seq is a
                :class:`ProtocolError` naming the retained seqs.
  BROADCAST,    a ``delta`` payload is now *plane-wise*: an 8-entry
  UPDATE        ``(mode, length)`` table, then one body per byte plane
                of the zigzag ULP distances -- elided when all zero,
                stored when near-uniform, deflated only when
                structured (:class:`repro.codec.DeltaCodec` has the
                layout).  It replaces the v4 "byte-shuffle everything,
                zlib everything" payload; there is no second format
                and no compression-level option any more
                (``TrainingConfig.codec_level`` is gone from the
                pickled ASSIGN config as well).
  all others    byte-identical to v6.
  ============  =====================================================

  A v6 worker would feed the plane table to zlib and has no alias
  form, so the handshake REJECTs the mismatch naming both versions
  ("worker speaks v6, coordinator requires v7").

Control messages are JSON (small, debuggable); client shipping uses
pickle (the payload *is* Python objects: datasets, RNG streams); weight
vectors travel through the :mod:`repro.codec` weight-transport codecs
(default ``raw``: little-endian float64 via
:func:`repro.serialization.flat_weights_to_bytes` -- bit-exact, no
pickle overhead on the per-round hot path).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from enum import IntEnum
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codec import CodecError, WeightCodec, codec_for_id, get_codec

# parse_endpoint is canonically defined next to TrainingConfig (which
# validates its endpoint field with it) and re-exported here.
from repro.config import TrainingConfig, parse_endpoint
from repro.nn.model import Sequential

__all__ = [
    "PROTOCOL_VERSION",
    "HANDSHAKE_MAX_PAYLOAD",
    "MsgType",
    "ProtocolError",
    "model_signature",
    "parse_endpoint",
    "encode_hello",
    "decode_hello",
    "encode_welcome",
    "decode_welcome",
    "encode_reject",
    "decode_reject",
    "encode_assign",
    "decode_assign",
    "encode_assign_shard",
    "decode_assign_shard",
    "encode_broadcast",
    "encode_broadcast_alias",
    "broadcast_is_alias",
    "decode_broadcast",
    "encode_train",
    "decode_train",
    "encode_update",
    "decode_update",
    "update_seq",
    "encode_trainfail",
    "decode_trainfail",
    "encode_eval",
    "decode_eval",
    "encode_eval_result",
    "decode_eval_result",
    "encode_bind_eval",
    "decode_bind_eval",
    "encode_eval_model",
    "decode_eval_model",
    "encode_eval_model_result",
    "decode_eval_model_result",
    "encode_telemetry",
    "decode_telemetry",
]

#: Bump on any wire-incompatible change; checked in the handshake.
#: See the version history in the module docstring: v2 added EVAL /
#: EVAL_RESULT; v3 added BIND_EVAL / EVAL_MODEL / EVAL_MODEL_RESULT and
#: multi-broadcast retention for round pipelining; v4 added codec id +
#: baseline seq to the BROADCAST/UPDATE headers (pluggable raw / delta /
#: quantized weight transport) and session tokens for worker
#: reconnect-and-resume; v5 added the worker's end-of-session TELEMETRY
#: summary frame; v6 added ASSIGN_SHARD (population store shards ship
#: as column slices, O(cohort) steady-state wire cost); v7 made the
#: delta payload plane-wise (stored/deflate per byte plane, no level
#: option) and added the header-only alias BROADCAST.  Older peers are
#: REJECTed at the handshake with a reason naming both versions.
PROTOCOL_VERSION = 7

#: Largest payload a connection accepts until HELLO/WELCOME has
#: succeeded (both peers).  The receiver allocates a frame's buffer when
#: its header announces the length, so a stranger's first header -- a
#: port scanner's garbage reads as an arbitrary u32 -- must not be able
#: to reserve ``max_frame_payload`` (1 GiB by default).  HELLO, WELCOME
#: and a handshake REJECT are each well under 1 KiB.
HANDSHAKE_MAX_PAYLOAD = 4096

#: Hard cap on the parameter count a BROADCAST/UPDATE header may claim.
#: Guards the decode path the same way the transport's frame-payload
#: limit guards the framing layer: an absurd ``num_params`` is rejected
#: with :class:`ProtocolError` before any allocation is attempted.
#: Configurable (module attribute) for deployments with bigger models.
MAX_WEIGHT_COUNT = (1 << 30) // 8


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


class ProtocolError(RuntimeError):
    """A peer sent something the protocol does not allow."""


# ----------------------------------------------------------------------
# endpoint + signature helpers
# ----------------------------------------------------------------------
def model_signature(model: Sequential) -> str:
    """Architecture fingerprint checked across the coordinator/worker pair.

    Covers input shape, the ordered layer classes, every parameter
    tensor's name and shape, and the total parameter count -- everything
    that determines whether a flat weight vector from one process means
    the same thing in another.  Weight *values* are deliberately
    excluded: they change every round.
    """
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


# ----------------------------------------------------------------------
# JSON control messages
# ----------------------------------------------------------------------
def _decode_json(payload: bytes, required: Sequence[str], what: str) -> Dict[str, Any]:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed {what} payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"{what} payload must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ProtocolError(f"{what} payload missing keys {missing}")
    return obj


def encode_hello(
    version: int,
    capacity: int,
    pid: int,
    resume: Optional[Tuple[int, str]] = None,
) -> bytes:
    """The worker's opening frame.

    ``resume`` (v4) is ``(worker_id, session_token)`` when the worker is
    reconnecting after a dropped connection: the coordinator resumes the
    session in place of registering a fresh worker.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    obj: Dict[str, Any] = {
        "version": int(version),
        "capacity": int(capacity),
        "pid": int(pid),
    }
    if resume is not None:
        worker_id, token = resume
        obj["resume"] = {"worker_id": int(worker_id), "token": str(token)}
    return json.dumps(obj).encode("utf-8")


def decode_hello(payload: bytes) -> Dict[str, Any]:
    obj = _decode_json(payload, ("version", "capacity", "pid"), "HELLO")
    out: Dict[str, Any] = {k: int(obj[k]) for k in ("version", "capacity", "pid")}
    if out["capacity"] < 1:
        raise ProtocolError(f"HELLO capacity must be >= 1, got {out['capacity']}")
    resume = obj.get("resume")
    if resume is not None:
        if not isinstance(resume, dict) or not {"worker_id", "token"} <= set(
            resume
        ):
            raise ProtocolError(
                "HELLO resume must carry {worker_id, token}"
            )
        out["resume"] = {
            "worker_id": int(resume["worker_id"]),
            "token": str(resume["token"]),
        }
    return out


def encode_welcome(
    version: int,
    worker_id: int,
    model_sig: str,
    num_params: int,
    session_token: str = "",
) -> bytes:
    """The coordinator's acceptance; ``session_token`` (v4) is the secret
    the worker must present to resume after a dropped connection."""
    return json.dumps(
        {
            "version": int(version),
            "worker_id": int(worker_id),
            "model_signature": str(model_sig),
            "num_params": int(num_params),
            "session_token": str(session_token),
        }
    ).encode("utf-8")


def decode_welcome(payload: bytes) -> Dict[str, Any]:
    obj = _decode_json(
        payload, ("version", "worker_id", "model_signature", "num_params"), "WELCOME"
    )
    return {
        "version": int(obj["version"]),
        "worker_id": int(obj["worker_id"]),
        "model_signature": str(obj["model_signature"]),
        "num_params": int(obj["num_params"]),
        "session_token": str(obj.get("session_token", "")),
    }


def encode_reject(reason: str) -> bytes:
    return json.dumps({"reason": str(reason)}).encode("utf-8")


def decode_reject(payload: bytes) -> str:
    return str(_decode_json(payload, ("reason",), "REJECT")["reason"])


def encode_train(seq: int, round_idx: int, jobs: Sequence[Tuple[int, int]]) -> bytes:
    return json.dumps(
        {
            "seq": int(seq),
            "round_idx": int(round_idx),
            "jobs": [[int(cid), int(epochs)] for cid, epochs in jobs],
        }
    ).encode("utf-8")


def decode_train(payload: bytes) -> Tuple[int, int, List[Tuple[int, int]]]:
    obj = _decode_json(payload, ("seq", "round_idx", "jobs"), "TRAIN")
    jobs = [(int(cid), int(epochs)) for cid, epochs in obj["jobs"]]
    return int(obj["seq"]), int(obj["round_idx"]), jobs


def encode_trainfail(seq: int, client_id: int, tb: str) -> bytes:
    return json.dumps(
        {"seq": int(seq), "client_id": int(client_id), "traceback": str(tb)}
    ).encode("utf-8")


def decode_trainfail(payload: bytes) -> Tuple[int, int, str]:
    obj = _decode_json(payload, ("seq", "client_id", "traceback"), "TRAINFAIL")
    return int(obj["seq"]), int(obj["client_id"]), str(obj["traceback"])


def encode_eval(seq: int, client_ids: Sequence[int]) -> bytes:
    return json.dumps(
        {"seq": int(seq), "clients": [int(cid) for cid in client_ids]}
    ).encode("utf-8")


def decode_eval(payload: bytes) -> Tuple[int, List[int]]:
    obj = _decode_json(payload, ("seq", "clients"), "EVAL")
    return int(obj["seq"]), [int(cid) for cid in obj["clients"]]


def encode_eval_result(
    seq: int, client_id: int, accuracy: Optional[float], error: Optional[str] = None
) -> bytes:
    """One client's holdout accuracy -- or its failure traceback.

    Exactly one of ``accuracy`` / ``error`` must be set.  The accuracy
    travels as a JSON number: Python's float repr round-trips binary64
    exactly, so the coordinator reads back the bit-identical value the
    worker computed.
    """
    if (accuracy is None) == (error is None):
        raise ValueError("exactly one of accuracy / error must be given")
    return json.dumps(
        {
            "seq": int(seq),
            "client_id": int(client_id),
            "accuracy": None if accuracy is None else float(accuracy),
            "error": None if error is None else str(error),
        }
    ).encode("utf-8")


def decode_eval_result(
    payload: bytes,
) -> Tuple[int, int, Optional[float], Optional[str]]:
    obj = _decode_json(
        payload, ("seq", "client_id", "accuracy", "error"), "EVAL_RESULT"
    )
    accuracy = obj["accuracy"]
    error = obj["error"]
    if (accuracy is None) == (error is None):
        raise ProtocolError(
            "EVAL_RESULT must carry exactly one of accuracy / error"
        )
    return (
        int(obj["seq"]),
        int(obj["client_id"]),
        None if accuracy is None else float(accuracy),
        None if error is None else str(error),
    )


def encode_eval_model(seq: int, shards: Sequence[Tuple[int, int]]) -> bytes:
    """Sharded evaluation order over the worker's resident eval set.

    Each ``(start, end)`` pair names a half-open row range of the
    BIND_EVAL dataset; the worker answers one EVAL_MODEL_RESULT per
    shard.  Only bounds travel -- the data already lives in the worker
    (the ship-once invariant).
    """
    return json.dumps(
        {"seq": int(seq), "shards": [[int(a), int(b)] for a, b in shards]}
    ).encode("utf-8")


def decode_eval_model(payload: bytes) -> Tuple[int, List[Tuple[int, int]]]:
    obj = _decode_json(payload, ("seq", "shards"), "EVAL_MODEL")
    shards = [(int(a), int(b)) for a, b in obj["shards"]]
    for a, b in shards:
        if not 0 <= a < b:
            raise ProtocolError(f"EVAL_MODEL shard bounds invalid: [{a}, {b})")
    return int(obj["seq"]), shards


def encode_eval_model_result(
    seq: int,
    start: int,
    end: int,
    correct: Optional[int] = None,
    error: Optional[str] = None,
) -> bytes:
    """One shard's correct-prediction count -- or its failure traceback.

    Counts (not accuracies) travel so the coordinator can sum shards and
    divide once, reproducing the serial ``float(correct / n)`` bit-exactly.
    """
    if (correct is None) == (error is None):
        raise ValueError("exactly one of correct / error must be given")
    return json.dumps(
        {
            "seq": int(seq),
            "start": int(start),
            "end": int(end),
            "correct": None if correct is None else int(correct),
            "error": None if error is None else str(error),
        }
    ).encode("utf-8")


def decode_eval_model_result(
    payload: bytes,
) -> Tuple[int, int, int, Optional[int], Optional[str]]:
    obj = _decode_json(
        payload, ("seq", "start", "end", "correct", "error"), "EVAL_MODEL_RESULT"
    )
    correct = obj["correct"]
    error = obj["error"]
    if (correct is None) == (error is None):
        raise ProtocolError(
            "EVAL_MODEL_RESULT must carry exactly one of correct / error"
        )
    return (
        int(obj["seq"]),
        int(obj["start"]),
        int(obj["end"]),
        None if correct is None else int(correct),
        None if error is None else str(error),
    )


# ----------------------------------------------------------------------
# TELEMETRY: the worker's end-of-session metrics summary (v5)
# ----------------------------------------------------------------------
def encode_telemetry(worker_id: int, summary: Mapping[str, Any]) -> bytes:
    """The worker's compact telemetry summary, sent once before BYE.

    ``summary`` is a flat JSON object (frames/bytes by type, requests
    served, codec seconds, busy seconds, reconnects -- see
    ``repro.distributed.worker``); coordinators must preserve keys they
    do not recognise, so the summary can grow without a version bump.
    """
    if not isinstance(summary, Mapping):
        raise ValueError(
            f"telemetry summary must be a mapping, got {type(summary).__name__}"
        )
    return json.dumps(
        {"worker_id": int(worker_id), "summary": dict(summary)}
    ).encode("utf-8")


def decode_telemetry(payload: bytes) -> Tuple[int, Dict[str, Any]]:
    obj = _decode_json(payload, ("worker_id", "summary"), "TELEMETRY")
    summary = obj["summary"]
    if not isinstance(summary, dict):
        raise ProtocolError("TELEMETRY summary must be a JSON object")
    return int(obj["worker_id"]), summary


# ----------------------------------------------------------------------
# BIND_EVAL: the ship-once eval dataset
# ----------------------------------------------------------------------
def encode_bind_eval(x: np.ndarray, y: np.ndarray) -> bytes:
    """Ship the server-held eval set to a worker, exactly once.

    Pickle, like ASSIGN: this frame travels once per worker per
    federation, so codec simplicity beats squeezing bytes.  The per-round
    hot path (BROADCAST / EVAL_MODEL) never re-ships the data.
    """
    return pickle.dumps(
        {"x": np.ascontiguousarray(x), "y": np.ascontiguousarray(y)},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_bind_eval(payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"malformed BIND_EVAL payload: {exc}") from exc
    if not isinstance(obj, dict) or not {"x", "y"} <= set(obj):
        raise ProtocolError("BIND_EVAL payload missing required keys")
    return obj["x"], obj["y"]


# ----------------------------------------------------------------------
# ASSIGN: pickled client shipment
# ----------------------------------------------------------------------
def encode_assign(
    clients: Dict[int, Any],
    training: TrainingConfig,
    signature: str,
    model: Optional[Sequential] = None,
) -> bytes:
    """Ship pinned clients (and, on first assignment, the model shell).

    The pickled client objects carry their private datasets *and* the
    current state of their RNG streams -- which is exactly what makes
    mid-round reassignment after a worker loss bit-identical: the
    coordinator's pool is kept in sync by every UPDATE, so a reshipped
    client resumes precisely where the serial schedule says it should.
    """
    return pickle.dumps(
        {
            "clients": dict(clients),
            "training": training,
            "signature": str(signature),
            "model": model,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_assign(payload: bytes) -> Dict[str, Any]:
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"malformed ASSIGN payload: {exc}") from exc
    if not isinstance(obj, dict) or not {
        "clients",
        "training",
        "signature",
        "model",
    } <= set(obj):
        raise ProtocolError("ASSIGN payload missing required keys")
    return obj


# ----------------------------------------------------------------------
# ASSIGN_SHARD: population store slices, no client pickles (v6)
# ----------------------------------------------------------------------
def encode_assign_shard(
    shard_blob: bytes,
    training: TrainingConfig,
    signature: str,
    model: Optional[Sequential] = None,
) -> bytes:
    """Ship a population store slice (and, at start-up, the model shell).

    ``shard_blob`` is a :func:`repro.serialization.shard_to_bytes`
    payload: raw column buffers, seed-address coordinates, and the
    authoritative RNG snapshots of any member whose streams have
    advanced.  That last part is what makes a re-deal after worker loss
    bit-identical -- the coordinator's store ledger absorbs every
    UPDATE's shipped-back ``_train_rng`` state, so the slice it re-deals
    resumes each client exactly where the serial schedule says.
    """
    return pickle.dumps(
        {
            "shard": bytes(shard_blob),
            "training": training,
            "signature": str(signature),
            "model": model,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_assign_shard(payload: bytes) -> Dict[str, Any]:
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"malformed ASSIGN_SHARD payload: {exc}") from exc
    if not isinstance(obj, dict) or not {
        "shard",
        "training",
        "signature",
        "model",
    } <= set(obj):
        raise ProtocolError("ASSIGN_SHARD payload missing required keys")
    return obj


# ----------------------------------------------------------------------
# BROADCAST / UPDATE: the binary hot path (codec-pluggable since v4)
# ----------------------------------------------------------------------
# (seq, num_params, codec_id, baseline_seq); baseline_seq 0 = none
# (cohort seqs start at 1).
_BROADCAST_HEADER = struct.Struct("!IQBI")
# (seq, client_id, num_samples, rng_len, codec_id, baseline_seq)
_UPDATE_HEADER = struct.Struct("!IIQIBI")

#: ``codec_id`` of the header-only alias BROADCAST (v7): no registered
#: codec can take 0, so the id doubles as the frame-form discriminator.
_ALIAS_CODEC_ID = 0

_RAW = get_codec("raw")


def _resolve_codec(codec: Union[str, WeightCodec, None]) -> WeightCodec:
    if codec is None:
        return _RAW
    if isinstance(codec, str):
        return get_codec(codec)
    return codec


def _check_count(count: int, what: str) -> None:
    if count > MAX_WEIGHT_COUNT:
        raise ProtocolError(
            f"{what} claims {count} weight values, over the "
            f"{MAX_WEIGHT_COUNT}-value limit (corrupt frame?)"
        )


def _lookup_baseline(
    codec: WeightCodec,
    baseline_seq: int,
    baselines: Optional[Mapping[int, np.ndarray]],
    what: str,
) -> Optional[np.ndarray]:
    """The retained-BROADCAST baseline a delta frame references."""
    if not codec.requires_baseline:
        return None
    if baseline_seq == 0:
        raise ProtocolError(
            f"{what} uses the {codec.name} codec but names no baseline seq"
        )
    if baselines is None or baseline_seq not in baselines:
        have = sorted(baselines) if baselines else []
        raise ProtocolError(
            f"{what} references baseline seq {baseline_seq} but the "
            f"retained baselines are {have}"
        )
    return baselines[baseline_seq]


def encode_broadcast(
    seq: int,
    flat_weights: np.ndarray,
    codec: Union[str, WeightCodec, None] = None,
    baseline: Optional[np.ndarray] = None,
    baseline_seq: int = 0,
) -> bytes:
    """Weights for cohort ``seq``, encoded through a weight codec.

    ``codec`` defaults to ``raw`` (bit-exact, always decodable).  A
    baseline-requiring codec (``delta``) must be given the ``baseline``
    vector and the ``baseline_seq`` of the retained BROADCAST it was
    taken from -- the decoder looks the same seq up on its side.
    """
    codec = _resolve_codec(codec)
    arr = np.ascontiguousarray(np.asarray(flat_weights, dtype=np.float64))
    blob = codec.encode(arr, baseline=baseline)
    return (
        _BROADCAST_HEADER.pack(
            int(seq), arr.size, codec.codec_id, int(baseline_seq)
        )
        + blob
    )


def encode_broadcast_alias(seq: int, num_params: int, alias_of: int) -> bytes:
    """Header-only BROADCAST: cohort ``seq`` trains/evaluates on the very
    vector the receiver retains under ``alias_of`` (v7).

    No payload and no codec call on either side; the sender must know
    the two vectors are bit-identical and that ``alias_of`` is still
    retained (the coordinator's per-worker mirror answers both).
    """
    return _BROADCAST_HEADER.pack(
        int(seq), int(num_params), _ALIAS_CODEC_ID, int(alias_of)
    )


def broadcast_is_alias(payload: bytes) -> bool:
    """Whether a BROADCAST frame is the alias form, from the header alone."""
    if len(payload) < _BROADCAST_HEADER.size:
        raise ProtocolError("truncated BROADCAST payload")
    return _BROADCAST_HEADER.unpack_from(payload)[2] == _ALIAS_CODEC_ID


def decode_broadcast(
    payload: bytes,
    baselines: Optional[Mapping[int, np.ndarray]] = None,
) -> Tuple[int, np.ndarray]:
    """Inverse of :func:`encode_broadcast` / :func:`encode_broadcast_alias`.

    ``baselines`` maps retained BROADCAST seqs to their weight vectors
    (what a worker keeps); it is consulted for codecs that need a
    baseline and for the alias form, and a missing seq raises
    :class:`ProtocolError` naming the seqs actually retained.  An alias
    resolves to the *retained array itself*, not a copy: retained
    vectors are never written.
    """
    if len(payload) < _BROADCAST_HEADER.size:
        raise ProtocolError("truncated BROADCAST payload")
    seq, count, codec_id, baseline_seq = _BROADCAST_HEADER.unpack_from(payload)
    _check_count(count, "BROADCAST")
    if codec_id == _ALIAS_CODEC_ID:
        if len(payload) != _BROADCAST_HEADER.size:
            raise ProtocolError(
                f"alias BROADCAST carries a "
                f"{len(payload) - _BROADCAST_HEADER.size}-byte payload"
            )
        if baselines is None or baseline_seq not in baselines:
            have = sorted(baselines) if baselines else []
            raise ProtocolError(
                f"alias BROADCAST names seq {baseline_seq} but the "
                f"retained BROADCASTs are {have}"
            )
        weights = baselines[baseline_seq]
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
        weights = codec.decode(
            memoryview(payload)[_BROADCAST_HEADER.size :],
            count,
            baseline=baseline,
        )
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
    """One trained client's result, weights encoded through a codec.

    For the ``delta`` codec the natural baseline is the BROADCAST the
    client trained from (``baseline_seq == seq``): both peers hold it by
    construction, even on the very first round.
    """
    codec = _resolve_codec(codec)
    arr = np.ascontiguousarray(np.asarray(flat_weights, dtype=np.float64))
    rng_blob = pickle.dumps(rng_state, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        _UPDATE_HEADER.pack(
            int(seq),
            int(client_id),
            int(num_samples),
            len(rng_blob),
            codec.codec_id,
            int(baseline_seq),
        )
        + rng_blob
        + codec.encode(arr, baseline=baseline)
    )


def update_seq(payload: bytes) -> int:
    """The cohort seq an UPDATE frame belongs to, from the header alone.

    Lets the coordinator tell a *stale* update (whose delta baseline may
    already have been evicted) from a live one before attempting the
    full decode.
    """
    if len(payload) < _UPDATE_HEADER.size:
        raise ProtocolError("truncated UPDATE payload")
    return int(_UPDATE_HEADER.unpack_from(payload)[0])


def decode_update(
    payload: bytes,
    baselines: Optional[Mapping[int, np.ndarray]] = None,
    expected_size: int = -1,
) -> Tuple[int, int, int, Optional[dict], np.ndarray]:
    """Inverse of :func:`encode_update` (same baseline contract as
    :func:`decode_broadcast`); ``expected_size`` guards the weight count
    when the caller knows the model's parameter count."""
    if len(payload) < _UPDATE_HEADER.size:
        raise ProtocolError("truncated UPDATE payload")
    seq, client_id, num_samples, rng_len, codec_id, baseline_seq = (
        _UPDATE_HEADER.unpack_from(payload)
    )
    rng_end = _UPDATE_HEADER.size + rng_len
    if len(payload) < rng_end:
        raise ProtocolError("truncated UPDATE rng-state blob")
    try:
        codec = codec_for_id(codec_id)
    except ValueError as exc:
        raise ProtocolError(f"UPDATE: {exc}") from exc
    baseline = _lookup_baseline(codec, baseline_seq, baselines, "UPDATE")
    if expected_size >= 0:
        count = expected_size
    else:
        remaining = len(payload) - rng_end
        if codec is not _RAW:
            raise ProtocolError(
                f"UPDATE with the {codec.name} codec needs an explicit "
                "expected weight count"
            )
        count = remaining // 8
    _check_count(count, "UPDATE")
    try:
        view = memoryview(payload)
        rng_state = pickle.loads(view[_UPDATE_HEADER.size : rng_end])
        weights = codec.decode(view[rng_end:], count, baseline=baseline)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed UPDATE payload: {exc}") from exc
    return int(seq), int(client_id), int(num_samples), rng_state, weights
