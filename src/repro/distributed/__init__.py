"""Multi-node client execution over TCP behind the ``ClientExecutor`` contract.

This package turns the reproduction from a parallel simulator into the
skeleton of an FL *service*: a coordinator (the
:class:`~repro.distributed.coordinator.DistributedExecutor`, plugged
into any FL server exactly like the in-process backends) drives worker
agent processes (:class:`~repro.distributed.worker.WorkerAgent`,
``python -m repro.cli worker --connect host:port``) over a
length-prefixed binary protocol
(:mod:`~repro.distributed.protocol` / :mod:`~repro.distributed.transport`).

The determinism contract over the network
-----------------------------------------
The distributed backend promises the same thing the ``process``
backend promises: **bit-identical training to the serial schedule**.
Three mechanisms carry that promise across machine boundaries:

1. *Exact weights on the wire.*  Flat weight vectors travel through a
   lossless :mod:`repro.codec` weight codec -- ``raw`` little-endian
   float64 (:mod:`repro.serialization`) by default, or ``delta``
   (ULP-delta against the retained last broadcast, bit-identical by
   construction, ~30% fewer steady-state bytes on a converging run);
   no text round-trip, no precision loss, so a broadcast weight vector
   is bit-equal to one passed by reference.  The ``quantized`` codec
   (float16) deliberately steps outside this contract: lossy, opt-in
   via ``TrainingConfig(codec="quantized")``, never the default.
2. *Pinned RNG streams.*  Every client is pinned to one worker
   (capacity-weighted round-robin over sorted client ids), so its
   training RNG stream advances in exactly one address space, in the
   order the coordinator dispatches -- the same invariant
   :class:`repro.execution.process.ProcessExecutor` maintains.  Each
   UPDATE ships the advanced RNG state back, keeping the coordinator's
   client pool the single source of truth.
3. *State-replaying failover.*  When a worker dies mid-round, its
   clients are re-shipped to survivors *with their current RNG state*
   and its unfinished jobs re-dispatched.  A client's state only
   advances once its update has been merged, so replayed work resumes
   at exactly the stream position the serial schedule prescribes and
   the final global weights stay bit-identical (enforced by the
   worker-kill test in ``tests/distributed``).  With
   ``reconnect_grace > 0`` a dropped *connection* gets a second chance
   first: the worker re-dials with its session token, the coordinator
   replays the authoritative RNG state over the new connection, resyncs
   weights with a raw broadcast and re-dispatches the outstanding jobs
   -- same bit-identity argument, no retirement (enforced by the
   connection-drop tests in ``tests/distributed/test_reconnect.py``).

Updates are returned in request order -- never completion order -- so
FedAvg summation order is preserved; a versioned handshake plus a model
architecture signature refuse mismatched peers before any training
happens; heartbeats distinguish busy workers from dead ones.
"""

from repro.distributed.coordinator import DistributedExecutor
from repro.distributed.launch import spawn_local_workers, terminate_workers
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    MsgType,
    ProtocolError,
    model_signature,
    parse_endpoint,
)
from repro.distributed.worker import WorkerAgent

__all__ = [
    "DistributedExecutor",
    "WorkerAgent",
    "spawn_local_workers",
    "terminate_workers",
    "PROTOCOL_VERSION",
    "MsgType",
    "ProtocolError",
    "model_signature",
    "parse_endpoint",
]
