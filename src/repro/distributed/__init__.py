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
   is bit-equal to one passed by reference.
2. *RNG state in every job.*  Every worker holds the whole population
   and every batch is dealt over the live workers by cost, so a client
   may train on any worker in any round.  Each TRAIN job carries the
   client's training-RNG state from the coordinator's ledger, the
   worker sets the client's stream from it before training, and each
   UPDATE ships the advanced state back into the ledger -- the single
   source of truth.  The local ``process`` pool
   (:class:`~repro.distributed.launch.ProcessExecutor`) is this same
   coordinator over forked socketpair workers.
3. *State-carrying failover.*  When a worker dies mid-round, its
   unfinished jobs are re-dealt over the survivors.  A client's ledger
   state only advances once its update has been merged, so replayed
   work starts at exactly the stream position the serial schedule
   prescribes and the final global weights stay bit-identical
   (enforced by the worker-kill test in ``tests/distributed``).  A
   dropped *connection* is the same loss: the worker is retired at
   once, and its agent dials again and joins as a new worker from a
   clean session -- any agent may join a running federation -- so the
   same bit-identity argument holds (enforced by the rejoin tests in
   ``tests/distributed/test_reconnect.py``).

Updates are returned in request order -- never completion order -- so
FedAvg summation order is preserved; a versioned handshake plus a model
architecture signature refuse mismatched peers before any training
happens; heartbeats distinguish busy workers from dead ones.
"""

from repro.distributed.coordinator import DistributedExecutor
from repro.distributed.launch import ProcessExecutor, spawn_local_workers, terminate_workers
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
    "ProcessExecutor",
    "WorkerAgent",
    "spawn_local_workers",
    "terminate_workers",
    "PROTOCOL_VERSION",
    "MsgType",
    "ProtocolError",
    "model_signature",
    "parse_endpoint",
]
