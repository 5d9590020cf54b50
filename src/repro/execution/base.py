"""The client-training executor contract.

The FL servers in :mod:`repro.fl` delegate the *real* work of a round --
running every selected client's local gradient-descent pass -- to a
:class:`ClientExecutor`.  Three backends implement the contract -- the
in-server pass and one pool coordinator over two pipes:

* :class:`repro.execution.serial.SerialExecutor` -- the seed behaviour:
  clients train one after another inside the server's own model shell.
* :class:`repro.distributed.coordinator.DistributedExecutor` -- worker
  agents over TCP (versioned protocol, retire-and-rejoin); every
  batch is dealt over the workers by cost, and every train job carries
  its client's training-RNG state, so a client trains the same on any
  worker.
* :class:`repro.distributed.launch.ProcessExecutor` -- the same
  coordinator over local worker processes it forks, one socketpair
  each.

Determinism contract
--------------------
``train_cohort`` must return one :class:`ClientUpdate` per request, in
**request order** -- never in completion order.  The server builds the
request list deterministically (from the cohort the selector and the
latency model produced), so the FedAvg summation order -- and therefore
the global weights -- are bit-identical across the three backends
(serial/process/distributed).  The equivalence test in
``tests/execution/test_executors.py`` enforces this.  A synchronous
round passes a :class:`~repro.fl.aggregator.FedAvgAccumulator`, and the
backend adds each vector to it in that same order instead of returning
it (:func:`fold`); ``tests/execution/test_fold.py`` checks the folded
mean against the returned vectors on every backend.

One exception: a ``Dropout`` layer's mask stream lives in the
*workspace*, not in the client.  The serial pass draws every client's
masks from the one bound model shell; each ``process`` / ``distributed``
worker advances its own copy of that shell, so worker 1's first client
re-draws the masks serial gave its first client instead of continuing
the stream.  A model with an active ``Dropout`` (both paper CNNs in
:mod:`repro.nn.zoo`) therefore trains deterministically on every
backend but **not** bit-identically across them; the contract above
holds for models whose ``Dropout`` layers are absent or at rate 0, which
is what every equivalence test uses.  The strict ``xfail``
``test_dropout_model_process_vs_serial`` in
``tests/execution/test_executors.py`` pins the divergence until the mask
stream moves into the client (ROADMAP open item 3).

Batched evaluation
------------------
The cohort, not the client, is the unit of evaluation work.
:meth:`ClientExecutor.evaluate_cohort` takes a batch of
:class:`EvalRequest` and returns every requested client's holdout
accuracy, keyed by client id in request order.  The contract: **an
evaluation loads the model once per worker and replies once per worker;
accuracies are per client and bit-identical to**
:meth:`SimClient.evaluate <repro.simcluster.client.SimClient.evaluate>`.
Every backend runs the one per-client loop in :func:`evaluate_holdouts`
-- serial over the whole cohort in the bound model shell,
a pool worker over its dealt share of the cohort (one EVAL frame in,
one EVAL_RESULT frame back) -- so a
holdout is scored by the same kernels on the same batch shapes
everywhere; per-client evaluation is pure (no RNG advances, no state
mutates), and ``tests/execution/test_eval_executors.py`` enforces the
bit-identity all the same.  A per-client failure (an empty holdout) is
captured, every other client is still scored, and the call then raises
:class:`ExecutorError` naming the failed clients.  Server-held
datasets (the global test set) go through :meth:`ClientExecutor.
evaluate_model`; backends whose workers hold local model replicas may
shard that pass, provided the result stays bit-identical to one serial
``Sequential.evaluate`` call.  :meth:`ClientExecutor.bind_eval_data`
ships a server-held eval set to the workers **once** (a BIND_EVAL frame
per pool worker), so
later ``evaluate_model`` calls on those exact arrays can shard across
workers instead of evaluating in the server process.

Weight-transport codecs
-----------------------
``TrainingConfig.codec`` names the :mod:`repro.codec` codec weight
vectors travel through wherever they cross a *machine* boundary; the
bound codec is exposed to backends as :attr:`ClientExecutor.codec`.
Only the two pools encode (their BROADCAST / UPDATE frames); serial
passes arrays by reference.  Both codecs (``raw``, ``delta``) are
lossless, so a pool stays inside the determinism contract above
whichever one a run names.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import telemetry
from repro.config import TrainingConfig
from repro.nn.model import EVAL_BATCH, Sequential
from repro.simcluster.client import ClientUpdate, SimClient

if TYPE_CHECKING:  # repro.fl imports this package: no runtime import back
    from repro.fl.aggregator import FedAvgAccumulator

__all__ = [
    "TrainRequest",
    "EvalRequest",
    "ClientExecutor",
    "ExecutorError",
    "order_updates",
    "fold",
    "EVAL_BATCH",
    "eval_shard_bounds",
    "train_client",
    "evaluate_holdouts",
    "count_correct",
]

def eval_shard_bounds(
    n: int, shards_wanted: int
) -> Optional[List[Tuple[int, int]]]:
    """Cut ``[0, n)`` into at most ``shards_wanted`` eval shards.

    Boundaries fall on multiples of :data:`EVAL_BATCH`, so each sample's
    logits come from exactly the forward batch the serial pass would have
    placed it in and per-shard correct-counts sum exactly.  Returns
    ``None`` when sharding is pointless (fewer than two batches, or fewer
    than two shards requested) -- callers then take the serial path.
    Both sharding backends (process, distributed) use this one
    function, so shard boundaries are identical everywhere.
    """
    num_batches = -(-n // EVAL_BATCH)  # ceil
    if num_batches < 2 or shards_wanted < 2:
        return None
    shards = min(shards_wanted, num_batches)
    batches_per_shard = -(-num_batches // shards)
    bounds = [
        (
            s * batches_per_shard * EVAL_BATCH,
            min(n, (s + 1) * batches_per_shard * EVAL_BATCH),
        )
        for s in range(shards)
    ]
    return [(a, b) for a, b in bounds if a < b]


def train_client(
    client: SimClient,
    workspace: Sequential,
    global_flat: np.ndarray,
    factory: Callable,
    training: TrainingConfig,
    epochs: int,
) -> Tuple[np.ndarray, int, Optional[dict]]:
    """One client's local pass in ``workspace``, from ``global_flat``.

    The only :meth:`SimClient.train` call site under ``repro.execution``
    and ``repro.distributed`` (its evaluation twins are
    :func:`evaluate_holdouts` and :func:`count_correct`).  Returns
    ``(weights, num_train_samples, train_rng_state)``.  The state is the
    client's advanced shuffle-stream position (``None`` for a client
    without one): a pool worker ships it home with the update so the
    parent pool stays the single source of truth, the client's next job
    carries it to whichever worker runs it, and the same clients can
    later be reused with any backend.
    """
    weights = client.train(
        workspace,
        global_flat,
        factory,
        batch_size=training.batch_size,
        epochs=epochs,
        prox_mu=training.prox_mu,
    )
    rng = getattr(client, "_train_rng", None)
    state = rng.bit_generator.state if rng is not None else None
    return weights, client.num_train_samples, state


def evaluate_holdouts(
    workspace: Sequential,
    clients: Mapping[int, SimClient],
    client_ids: Iterable[int],
    flat_weights: np.ndarray,
) -> Tuple[Dict[int, float], Dict[int, str]]:
    """Score ``flat_weights`` on each listed client's holdout: one load.

    The only per-client holdout-evaluation loop in the package; every
    backend calls it on whatever share of a cohort one workspace serves.
    ``flat_weights`` is copied into ``workspace`` **once**, then each
    holdout is scored by :meth:`SimClient.score_holdout` -- the second
    half of :meth:`SimClient.evaluate`, so every accuracy is the float
    the one-client form returns.  Returns ``(accuracies, failures)``,
    both keyed by client id in ``client_ids`` order: a client that
    cannot be scored (empty holdout, failed materialisation) lands in
    ``failures`` with its traceback and the rest are still scored; a
    failed load fails every client alike.
    """
    accuracies: Dict[int, float] = {}
    failures: Dict[int, str] = {}
    try:
        workspace.set_flat_weights(flat_weights)
    except Exception:
        tb = traceback.format_exc()
        return accuracies, {cid: tb for cid in client_ids}
    for cid in client_ids:
        try:
            accuracies[cid] = clients[cid].score_holdout(workspace)
        except Exception:
            failures[cid] = traceback.format_exc()
    return accuracies, failures


def count_correct(
    workspace: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    bounds: Iterable[Tuple[int, int]],
    flat_weights: np.ndarray,
) -> List[int]:
    """Correct predictions of ``flat_weights`` on each ``[a, b)`` shard of
    ``(x, y)``: one load, one count per bound.

    The server-held-dataset twin of :func:`evaluate_holdouts` and the
    only shard-scoring loop in the package: both pools' workers run it,
    through :func:`repro.execution.pool.count_shards`, on shards
    :func:`eval_shard_bounds` cut.
    Raises whatever the load or a forward pass raises; one worker's
    shards share a model and a dataset, so they fail together.
    """
    workspace.set_flat_weights(flat_weights)
    return [
        int(np.count_nonzero(workspace.predict(x[a:b], batch_size=EVAL_BATCH) == y[a:b]))
        for a, b in bounds
    ]


class ExecutorError(RuntimeError):
    """A backend failed to produce an update for a requested client."""


@dataclass(frozen=True)
class TrainRequest:
    """One client's work order for a round."""

    client_id: int
    epochs: int = 1

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")


@dataclass(frozen=True)
class EvalRequest:
    """One client's holdout-evaluation order.

    Requesting a client whose holdout is empty is an error surfaced as
    :class:`ExecutorError` -- servers filter (and log) those *before*
    batching, so the denominator policy lives in one place.
    """

    client_id: int


def fold(
    update: ClientUpdate, accumulator: Optional[FedAvgAccumulator]
) -> ClientUpdate:
    """Add ``update``'s vector to ``accumulator`` and drop it from the
    update, which keeps its scalars; without an accumulator, ``update``
    as it is.  Callers pass updates in request order."""
    if accumulator is not None:
        accumulator.add(update.flat_weights, update.num_samples)
        update.flat_weights = None
    return update


def order_updates(
    updates: Sequence[ClientUpdate], requests: Sequence[TrainRequest]
) -> List[ClientUpdate]:
    """Reorder completion-ordered ``updates`` into request order.

    The deterministic-merge guarantee of the execution layer: whatever
    order workers finish in, the server always aggregates in the order it
    asked for.  Raises :class:`ExecutorError` on missing or duplicate
    client updates.
    """
    by_id: Dict[int, ClientUpdate] = {}
    for u in updates:
        if u.client_id in by_id:
            raise ExecutorError(f"duplicate update for client {u.client_id}")
        by_id[u.client_id] = u
    missing = [r.client_id for r in requests if r.client_id not in by_id]
    if missing:
        raise ExecutorError(f"no update produced for clients {missing}")
    extra = set(by_id) - {r.client_id for r in requests}
    if extra:
        raise ExecutorError(f"updates for clients never requested: {sorted(extra)}")
    return [by_id[r.client_id] for r in requests]


class ClientExecutor:
    """Pluggable backend that trains a cohort of clients.

    Lifecycle: the server calls :meth:`bind` once with its client pool,
    model and training config, then :meth:`train_cohort` every round, and
    finally :meth:`close`.  Backends allocate their worker resources
    lazily on the first cohort, so constructing an executor is free.
    Every operation defaults to the in-server serial pass behind the
    ``_train_cohort`` / ``_evaluate_cohort`` / ``_eval_shard_workers`` +
    ``_count_sharded`` hooks.  The two worker pools override them once,
    in :class:`repro.distributed.coordinator.PoolExecutor`, and differ
    only in how their workers connect (forked socketpairs, TCP).
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self._clients: Optional[Mapping[int, SimClient]] = None
        # The mapping object the caller originally bound: dict pools are
        # stored as a defensive dict copy, so rebinding the same object
        # needs this reference to be recognised in O(1) instead of via an
        # O(population) dict comparison.
        self._bound_source: Optional[Mapping[int, SimClient]] = None
        self._model: Optional[Sequential] = None
        self._training: Optional[TrainingConfig] = None
        self._eval_data: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._closed = False

    # ------------------------------------------------------------------
    def bind(
        self,
        clients: Mapping[int, SimClient],
        model: Sequential,
        training: TrainingConfig,
    ) -> None:
        """Attach the server's client pool, model shell and hyperparameters.

        Idempotent for the same pool; rebinding to a *different* pool is an
        error whether or not workers have started -- one executor instance
        serves one federation (sharing it across servers would train the
        wrong clients' data).

        A mapping that declares itself ``lazy`` (the population store, a
        worker's shard pool) is held **by reference** instead of being
        copied into a dict: copying would materialise the whole population,
        which is exactly what the store exists to avoid.  Lazy rebinds
        compare by identity for the same reason.  Backends that look
        clients up per cohort (serial) therefore stay
        O(cohort); the process and distributed backends ship *store
        shards* to their workers (columns + seed coordinates, rebuilt
        and materialised lazily on the worker side), so they too stay
        O(cohort) per round and O(shard) per worker.
        """
        lazy = bool(getattr(clients, "lazy", False))
        if self._clients is not None:
            if clients is self._clients or clients is self._bound_source:
                # Identity short-circuit: the common re-bind (a server
                # re-using its executor) must never pay the O(population)
                # enumeration below just to learn the pool is unchanged.
                same_pool = True
            elif lazy or getattr(self._clients, "lazy", False):
                same_pool = False  # distinct lazy views never match
            else:
                same_pool = dict(clients) == self._clients
            if not same_pool or model is not self._model:
                raise ExecutorError(
                    f"{self.name} executor is already bound to a different "
                    "client pool; create a fresh executor instead"
                )
            self._training = training
            return
        self._clients = clients if lazy else dict(clients)
        self._bound_source = clients
        self._model = model
        self._training = training

    def _require_bound(self) -> Mapping[int, SimClient]:
        if self._closed:
            raise ExecutorError(f"{self.name} executor used after close()")
        if self._clients is None or self._model is None or self._training is None:
            raise ExecutorError(f"{self.name} executor used before bind()")
        return self._clients

    def _check_requests(
        self, requests: Sequence[Union[TrainRequest, EvalRequest]]
    ) -> None:
        """Bound / known / no-duplicates precondition shared by every backend."""
        clients = self._require_bound()
        unknown = [r.client_id for r in requests if r.client_id not in clients]
        if unknown:
            raise ExecutorError(f"requests for unknown clients: {unknown}")
        ids = [r.client_id for r in requests]
        if len(set(ids)) != len(ids):
            dupes = sorted({c for c in ids if ids.count(c) > 1})
            raise ExecutorError(f"duplicate clients in cohort: {dupes}")

    def _ensure_started(self) -> None:
        """Allocate worker resources on the first cohort (backend hook)."""

    @property
    def codec(self):
        """The bound :class:`repro.codec.WeightCodec` weight vectors use
        on machine-boundary transports (``TrainingConfig.codec``).

        Serial ignores it (see the module docstring); both
        pools encode every BROADCAST/UPDATE through it.
        ``raw`` until the executor is bound.
        """
        from repro.codec import get_codec

        if self._training is None:
            return get_codec("raw")
        return get_codec(self._training.codec)

    # ------------------------------------------------------------------
    def train_cohort(
        self,
        round_idx: int,
        requests: Sequence[TrainRequest],
        global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]] = None,
        accumulator: Optional[FedAvgAccumulator] = None,
    ) -> List[ClientUpdate]:
        """Train every requested client from ``global_weights``.

        Returns updates in request order (see module docstring).
        ``latencies`` optionally stamps each update with the simulated
        response latency the server already measured.  With an
        ``accumulator``, each update's vector is added to it in request
        order as soon as it is next in order, and the returned updates
        carry ``flat_weights=None``: the serial pass adds each client
        before it trains the next, a pool once its reorder buffer holds
        the whole cohort.

        The one cohort entry path: precondition check, empty-cohort
        return, lazy start and the ``executor.train_cohort`` span happen
        here; backends with workers implement :meth:`_train_cohort`.
        """
        self._check_requests(requests)
        if not requests:
            return []
        self._ensure_started()
        with telemetry.span(
            "executor.train_cohort",
            backend=self.name,
            round=round_idx,
            clients=len(requests),
        ):
            return self._train_cohort(
                round_idx, requests, global_weights, latencies, accumulator
            )

    def _train_cohort(
        self,
        round_idx: int,
        requests: Sequence[TrainRequest],
        global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]],
        accumulator: Optional[FedAvgAccumulator],
    ) -> List[ClientUpdate]:
        """Backend hook: train a checked, non-empty cohort.  Default: the
        serial schedule -- one client after another in the bound model
        shell, the reference every backend with workers is tested against
        (each pass timed as ``executor.client_train_s``).  With an
        ``accumulator`` a client's vector is folded before the next
        client trains, so the pass holds the sum and one vector."""
        factory = self._training.optimizer_factory(round_idx)
        collect = telemetry.enabled()
        # Materialise the whole cohort before the first pass, so the train
        # loop finds every client resident: building each one between two
        # passes measured slower on the 10^5-client store.
        for req in requests:
            self._clients[req.client_id]
        updates = []
        for req in requests:
            t0 = time.perf_counter() if collect else 0.0
            w, num_samples, _ = train_client(
                self._clients[req.client_id],
                self._model,
                global_weights,
                factory,
                self._training,
                req.epochs,
            )
            if collect:
                telemetry.observe(
                    "executor.client_train_s",
                    time.perf_counter() - t0,
                    backend=self.name,
                )
            updates.append(fold(self._stamp(req.client_id, w, num_samples, latencies), accumulator))
            del w  # once folded, the next client trains beside the sum alone
        return updates

    def evaluate_cohort(
        self,
        requests: Sequence[EvalRequest],
        flat_weights: np.ndarray,
    ) -> Dict[int, float]:
        """Evaluate ``flat_weights`` on every requested client's holdout.

        Returns ``{client_id: accuracy}`` with keys inserted in request
        order.  Evaluation is pure (no client state advances), so the
        result is bit-identical across every backend; a per-client
        failure (e.g. an empty holdout) raises :class:`ExecutorError`
        naming the client, after every other client was scored.

        Same entry path as :meth:`train_cohort`, under the
        ``executor.eval_cohort`` span; backends with worker replicas
        implement :meth:`_evaluate_cohort`.
        """
        self._check_requests(requests)
        if not requests:
            return {}
        self._ensure_started()
        with telemetry.span("executor.eval_cohort", backend=self.name, clients=len(requests)):
            return self._evaluate_cohort(requests, flat_weights)

    def _evaluate_cohort(
        self, requests: Sequence[EvalRequest], flat_weights: np.ndarray
    ) -> Dict[int, float]:
        """Backend hook; default: the whole cohort in the calling process
        on the bound model shell (serial), through the same
        :func:`evaluate_holdouts` every worker runs over its share."""
        ids = [req.client_id for req in requests]
        accuracies, failures = evaluate_holdouts(self._model, self._clients, ids, flat_weights)
        self._raise_failures(
            "client evaluation failed", [f"client {cid}:\n{tb}" for cid, tb in failures.items()]
        )
        return accuracies

    @staticmethod
    def _raise_failures(what: str, failures: Sequence[str]) -> None:
        """The assemble step's error path: every captured per-client /
        per-shard failure in one :class:`ExecutorError` (no-op when none)."""
        if failures:
            raise ExecutorError(f"{what}:\n" + "\n".join(failures))

    def evaluate_model(
        self, flat_weights: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> float:
        """Accuracy of ``flat_weights`` on a server-held dataset.

        Default: one serial pass in the calling process on the bound
        model shell (exactly the pre-executor behaviour).  A backend
        holding local replicas names how many may share the pass
        (:meth:`_eval_shard_workers`); the dataset is then cut by
        :func:`eval_shard_bounds`, the backend counts correct
        predictions per shard (:meth:`_count_sharded`) and the sum is
        divided once, which stays bit-identical to the serial result.
        The process and distributed backends shard only over data
        previously shipped via :meth:`bind_eval_data` (anything else
        never leaves the server).
        """
        self._require_bound()
        n = int(x.shape[0])
        bounds = eval_shard_bounds(n, self._eval_shard_workers(x, y))
        if bounds is None:
            with telemetry.span("executor.eval_model", backend=self.name, samples=n):
                self._model.set_flat_weights(flat_weights)
                return self._model.evaluate(x, y)
        with telemetry.span(
            "executor.eval_model", backend=self.name, samples=n, shards=len(bounds)
        ):
            correct = self._count_sharded(flat_weights, x, y, bounds)
        # Same float as `np.mean(preds == y)` over the full pass: the
        # boolean sum is exact in float64 and the division identical.
        return float(correct / n)

    def _eval_shard_workers(self, x: np.ndarray, y: np.ndarray) -> int:
        """Backend hook: how many workers can share a pass over ``(x, y)``
        (fewer than two: the serial pass)."""
        return 0

    def _count_sharded(
        self, flat_weights: np.ndarray, x: np.ndarray, y: np.ndarray, bounds: List[Tuple[int, int]]
    ) -> int:
        """Backend hook: total correct predictions over ``bounds``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def bind_eval_data(self, x: np.ndarray, y: np.ndarray) -> None:
        """Ship a server-held evaluation dataset to the backend **once**.

        After binding, :meth:`evaluate_model` calls that pass these exact
        arrays (identity, not equality -- recognising the bound set must
        cost nothing) may shard the pass across workers.  The default
        just remembers the arrays; a pool coordinator ships one
        BIND_EVAL frame per worker.  Re-binding the
        *same* arrays is a no-op; re-binding different data after workers
        already hold a copy is an error on those backends (ship-once is
        the invariant that makes the per-round sharding free).
        """
        self._eval_data = (x, y)

    def _bound_eval_data_matches(self, x: np.ndarray, y: np.ndarray) -> bool:
        return (
            self._eval_data is not None
            and self._eval_data[0] is x
            and self._eval_data[1] is y
        )

    def close(self) -> None:
        """Release worker resources; the executor is unusable afterwards.

        Subclasses must call ``super().close()`` so later ``train_cohort``
        calls raise instead of silently restarting workers.
        """
        self._closed = True

    # ------------------------------------------------------------------
    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _stamp(
        self,
        client_id: int,
        flat_weights: np.ndarray,
        num_samples: int,
        latencies: Optional[Mapping[int, float]],
    ) -> ClientUpdate:
        latency = (
            float(latencies[client_id])
            if latencies and client_id in latencies
            else 0.0
        )
        return ClientUpdate(
            client_id=client_id,
            flat_weights=flat_weights,
            num_samples=num_samples,
            latency=latency,
        )
