"""Persistence: model checkpoints and training-history export.

A downstream user of the library needs to checkpoint global models
between FL sessions and archive run histories for later analysis; this
module provides both with plain, dependency-free formats:

* model weights -> ``.npz`` (one array per parameter tensor, order
  preserved via zero-padded keys),
* :class:`~repro.fl.history.TrainingHistory` -> JSON (and back),
* flat weight vectors -> raw little-endian float64 bytes (the ``raw``
  wire codec of :mod:`repro.distributed` -- bit-exact both ways, so a
  weight vector broadcast over TCP is *identical* to one passed by
  reference in-process),
* :class:`~repro.simcluster.population.PopulationShard` -> compact
  bytes (the ``ASSIGN_SHARD`` payload): a JSON header describing the
  column layout, the raw contiguous column buffers, and a pickled tail
  for the dataset provider / models / RNG snapshots.  The point of the
  format is what it does **not** contain -- no per-client
  :class:`~repro.simcluster.client.SimClient` pickles, so shipping a
  100k-client slice costs a handful of numpy buffers, not 100k object
  graphs.

The raw byte pair below is the *identity* codec of the pluggable
weight-transport layer in :mod:`repro.codec` (``raw`` / ``delta`` /
``quantized``); the frame headers that name a codec id and a baseline
sequence number live in :mod:`repro.distributed.protocol`.
"""

from __future__ import annotations

import json
import pickle
import struct
from pathlib import Path
from typing import Union

import numpy as np

# The raw byte pair physically lives in repro.codec (a leaf module the
# config layer may import without cycles) and is re-exported here, its
# historical home, so existing imports keep working.
from repro.codec import flat_weights_from_bytes, flat_weights_to_bytes
from repro.fl.history import RoundRecord, TrainingHistory
from repro.nn.model import Sequential
from repro.simcluster.population import PopulationShard, SeedAddress

__all__ = [
    "save_weights",
    "load_weights",
    "flat_weights_to_bytes",
    "flat_weights_from_bytes",
    "shard_to_bytes",
    "shard_from_bytes",
    "history_to_dict",
    "history_from_dict",
    "save_history",
    "load_history",
]

PathLike = Union[str, Path]


def save_weights(model: Sequential, path: PathLike) -> Path:
    """Save a model's parameter tensors to ``path`` (``.npz``)."""
    path = Path(path)
    weights = model.get_weights()
    width = len(str(max(len(weights) - 1, 0)))
    arrays = {f"param_{i:0{width}d}": w for i, w in enumerate(weights)}
    np.savez(path, **arrays)
    # np.savez appends .npz when missing; normalise the reported path
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_weights(model: Sequential, path: PathLike) -> Sequential:
    """Load ``.npz`` weights into ``model`` (shape-checked); returns it."""
    with np.load(Path(path)) as data:
        weights = [data[k] for k in sorted(data.files)]
    model.set_weights(weights)
    return model


# ---------------------------------------------------------------------------
# population shard codec (the ASSIGN_SHARD wire payload)
# ---------------------------------------------------------------------------

_SHARD_MAGIC = b"PSH1"
_SHARD_COLUMNS = (
    "client_ids",
    "num_samples",
    "cpu_fraction",
    "bandwidth_mbps",
    "group",
)


def shard_to_bytes(shard: PopulationShard) -> bytes:
    """Serialise a :class:`PopulationShard` to its compact wire form.

    Layout: ``PSH1`` magic, a length-prefixed JSON header (column dtypes
    and row count, holdout parameters, cache size, seed-address
    coordinates), the five raw contiguous column buffers in declared
    order, then a pickled tail holding the dataset provider, the
    latency/comm models, and the authoritative RNG snapshots.  Columns
    dominate the size: ~40 bytes/client regardless of dataset size.
    """
    cols = [
        np.ascontiguousarray(getattr(shard, name)) for name in _SHARD_COLUMNS
    ]
    header = {
        "columns": [
            [name, str(col.dtype), int(col.shape[0])]
            for name, col in zip(_SHARD_COLUMNS, cols)
        ],
        "holdout_fraction": shard.holdout_fraction,
        "min_holdout": shard.min_holdout,
        "cache_size": shard.cache_size,
        "seed_address": {
            "entropy": shard.seed_address.entropy,
            "spawn_key": list(shard.seed_address.spawn_key),
            "pool_size": shard.seed_address.pool_size,
            "base": shard.seed_address.base,
        },
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tail = pickle.dumps(
        {
            "dataset_for": shard.dataset_for,
            "latency_model": shard.latency_model,
            "comm_model": shard.comm_model,
            "rng_states": shard.rng_states,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    parts = [_SHARD_MAGIC, struct.pack("!I", len(header_bytes)), header_bytes]
    parts.extend(col.tobytes() for col in cols)
    parts.append(tail)
    return b"".join(parts)


def shard_from_bytes(payload: bytes) -> PopulationShard:
    """Inverse of :func:`shard_to_bytes` (any bytes-like ``payload``).

    Every part is read through one view of ``payload``: the pickled tail
    is most of the blob (the dataset provider), and slicing it out would
    copy it.
    """
    view = memoryview(payload)
    if view[:4] != _SHARD_MAGIC:
        raise ValueError("not a population-shard payload (bad magic)")
    (header_len,) = struct.unpack_from("!I", view, 4)
    offset = 8
    header = json.loads(bytes(view[offset : offset + header_len]))
    offset += header_len
    columns = {}
    for name, dtype_str, count in header["columns"]:
        dtype = np.dtype(dtype_str)
        end = offset + count * dtype.itemsize
        # .copy(): frombuffer views are read-only; the rebuilt store
        # owns its columns.
        columns[name] = np.frombuffer(
            view, dtype=dtype, count=count, offset=offset
        ).copy()
        offset = end
    missing = set(_SHARD_COLUMNS) - set(columns)
    if missing:
        raise ValueError(f"shard payload missing columns: {sorted(missing)}")
    tail = pickle.loads(view[offset:])
    addr = header["seed_address"]
    return PopulationShard(
        client_ids=columns["client_ids"],
        num_samples=columns["num_samples"],
        cpu_fraction=columns["cpu_fraction"],
        bandwidth_mbps=columns["bandwidth_mbps"],
        group=columns["group"],
        holdout_fraction=float(header["holdout_fraction"]),
        min_holdout=int(header["min_holdout"]),
        seed_address=SeedAddress(
            entropy=addr["entropy"],
            spawn_key=tuple(int(k) for k in addr["spawn_key"]),
            pool_size=int(addr["pool_size"]),
            base=int(addr["base"]),
        ),
        latency_model=tail["latency_model"],
        comm_model=tail["comm_model"],
        dataset_for=tail["dataset_for"],
        rng_states=tail["rng_states"],
        cache_size=int(header["cache_size"]),
    )


def history_to_dict(history: TrainingHistory) -> dict:
    """JSON-safe representation of a training history."""
    return {
        "records": [
            {
                "round_idx": r.round_idx,
                "round_latency": r.round_latency,
                "sim_time": r.sim_time,
                "accuracy": r.accuracy,
                "selected": list(r.selected),
                "tier": r.tier,
                "dropped": list(r.dropped),
                "tier_accuracies": (
                    None
                    if r.tier_accuracies is None
                    else {str(k): v for k, v in r.tier_accuracies.items()}
                ),
            }
            for r in history.records
        ]
    }


def history_from_dict(payload: dict) -> TrainingHistory:
    """Inverse of :func:`history_to_dict`."""
    if "records" not in payload:
        raise KeyError("payload has no 'records' key")
    history = TrainingHistory()
    for rec in payload["records"]:
        history.append(
            RoundRecord(
                round_idx=int(rec["round_idx"]),
                round_latency=float(rec["round_latency"]),
                sim_time=float(rec["sim_time"]),
                accuracy=(
                    None if rec.get("accuracy") is None else float(rec["accuracy"])
                ),
                selected=tuple(int(c) for c in rec["selected"]),
                tier=None if rec.get("tier") is None else int(rec["tier"]),
                dropped=tuple(int(c) for c in rec.get("dropped", ())),
                tier_accuracies=(
                    None
                    if rec.get("tier_accuracies") is None
                    else {int(k): float(v) for k, v in rec["tier_accuracies"].items()}
                ),
            )
        )
    return history


def save_history(history: TrainingHistory, path: PathLike) -> Path:
    """Write a history to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(history_to_dict(history), indent=2), encoding="utf-8")
    return path


def load_history(path: PathLike) -> TrainingHistory:
    """Read a history written by :func:`save_history`."""
    return history_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
