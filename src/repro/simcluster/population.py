"""Columnar population store: a million clients without a million objects.

One Python :class:`SimClient` per client -- its own dataset split, RNG
pair, and resource spec -- caps honest experiments at ~10^3 clients and
makes every round cost O(population) even when the cohort is 20.
:class:`PopulationStore` keeps all
*metadata* (sample counts, holdout bounds, resource-spec fields, tier
membership, TiFL credits, availability) as numpy structure-of-arrays and
creates the heavy object only on demand:

``materialize(client_id)`` builds that client's :class:`SimClient`
**bit-identically** to a ``spawn(rng, N)`` construction loop (the
reference ``tests/simcluster/test_population.py`` keeps).  The trick is
SeedSequence
spawn-key addressing: ``spawn(parent, N)[cid]`` hands client ``cid`` the
child sequence ``SeedSequence(entropy, spawn_key=parent_key + (base +
cid,))``, and NumPy derives that child *arithmetically* -- it does not
consume parent draws.  :class:`SeedAddress` records ``(entropy,
spawn_key, pool_size, base)`` once at store construction and
reconstructs any client's seed on demand, so the store never allocates
N generators up front.  The rebuilt client re-draws its holdout split
from stream position zero, exactly as a first construction does.

Materialised clients live in a bounded LRU so steady-state memory is
O(cohort), not O(population).  Eviction snapshots the private RNG
states (``_train_rng``, and ``_latency_rng`` once it has been drawn);
re-materialisation rebuilds the client fresh -- one gather per split
from the provider's ``(pool, indices)``, the holdout re-drawn identically
-- and restores the snapshots, so stream *positions* survive: a client
trained in round 3, evicted, and re-selected in round 90 shuffles its
data exactly as if it had stayed resident.  The state ledger is
O(touched clients) entries of one ``bytes`` object each (a 37-byte
:data:`~repro.rng.PCG64_ROW` per stream), never whole clients.

Availability lives in a boolean column driven by
:class:`DiurnalSchedule` events on the event-queue
:class:`~repro.simcluster.clock.SimulatedClock`: clients are bucketed
into phase groups and each on/off window boundary flips one bucket with
a single vectorised assignment, so advancing a round touches the cohort
plus due events only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.data.datasets import Dataset
from repro.rng import PCG64_ROW, make_rng, pack_pcg64, pcg64_state, unpack_pcg64
from repro.simcluster.client import SimClient
from repro.simcluster.latency import LatencyModel
from repro.simcluster.network import CommModel
from repro.simcluster.resources import ResourceSpec

__all__ = [
    "SeedAddress",
    "PopulationStore",
    "PopulationShard",
    "DiurnalSchedule",
]

# ``cid -> (pool, indices)``: a client's local data is rows ``indices``
# (int64) of a read-only ``Dataset`` all clients share -- one pool per
# recipe per process.  Nobody builds that subset: a materialised client
# keeps both its holdout and its train split as rows of the pool.
DatasetProvider = Callable[[int], Tuple[Dataset, np.ndarray]]

# Default LRU capacity: generous for any realistic cohort (paper cohorts
# are tens of clients) while keeping resident memory O(cohort).
DEFAULT_CACHE_SIZE = 256

RngStates = Tuple[Optional[dict], Optional[dict]]

# A ledger entry is the train stream's PCG64 row, then the latency
# stream's when it has been drawn.  An unadvanced train slot beside a
# recorded latency one is the all-zero row, which no PCG64 state packs to.
_NO_ROW = bytes(PCG64_ROW.size)


def _pack_states(train: Optional[dict], latency: Optional[dict]) -> bytes:
    head = _NO_ROW if train is None else pack_pcg64(train)
    return head if latency is None else head + pack_pcg64(latency)


def _unpack_states(entry: bytes) -> RngStates:
    size = PCG64_ROW.size
    train = None if entry.startswith(_NO_ROW) else pcg64_state(unpack_pcg64(entry))
    latency = pcg64_state(unpack_pcg64(entry, size)) if len(entry) > size else None
    return train, latency


@dataclass(frozen=True)
class SeedAddress:
    """Addressable per-client seed: the lazy twin of ``spawn(rng, N)``.

    ``child(i)`` returns the exact :class:`numpy.random.SeedSequence`
    that ``spawn(parent, N)[i]`` would have produced at capture time.
    Value draws from the parent (e.g. the resource-shuffle permutation)
    do not advance its spawn counter, so capture order relative to them
    is immaterial -- only prior ``spawn`` calls matter, and ``base``
    records them.

    ``entropy`` is an ``int``, or a tuple of ints for a sequence seeded
    from a list or array (``SeedSequence`` accepts both), so an address
    is hashable whatever seed it was captured from.
    """

    entropy: Union[int, Tuple[int, ...]]
    spawn_key: Tuple[int, ...]
    pool_size: int
    base: int

    def __post_init__(self) -> None:
        e = self.entropy
        entropy = int(e) if np.ndim(e) == 0 else tuple(int(x) for x in np.ravel(e))
        object.__setattr__(self, "entropy", entropy)

    @classmethod
    def capture(cls, rng: np.random.Generator) -> "SeedAddress":
        """Record ``rng``'s seed coordinates in place of spawning children."""
        ss = rng.bit_generator.seed_seq  # type: ignore[attr-defined]
        return cls(
            entropy=ss.entropy,
            spawn_key=tuple(int(k) for k in ss.spawn_key),
            pool_size=int(ss.pool_size),
            base=int(ss.n_children_spawned),
        )

    def sequence(self) -> np.random.SeedSequence:
        """The captured seed sequence itself, spawn counter included."""
        return np.random.SeedSequence(
            entropy=self.entropy,
            spawn_key=self.spawn_key,
            pool_size=self.pool_size,
            n_children_spawned=self.base,
        )

    def child(self, index: int) -> np.random.SeedSequence:
        """The seed sequence ``spawn(parent, N)[index]`` would yield."""
        return np.random.SeedSequence(
            entropy=self.entropy,
            spawn_key=self.spawn_key + (self.base + int(index),),
            pool_size=self.pool_size,
        )


def _holdout_sizes(
    num_samples: np.ndarray, holdout_fraction: float, min_holdout: int
) -> np.ndarray:
    """Vectorised twin of the :class:`SimClient` holdout arithmetic.

    Mirrors ``max(min_holdout, int(round(n * fraction)))`` then
    ``min(. , n - 1)`` (0 when ``n <= 1``); NumPy's ``round`` and
    Python's ``round`` both round half to even, so the columns agree
    with the constructor bit for bit.
    """
    n = np.asarray(num_samples, dtype=np.int64)
    hs = np.maximum(
        int(min_holdout),
        np.round(n * float(holdout_fraction)).astype(np.int64),
    )
    return np.where(n > 1, np.minimum(hs, n - 1), 0)


class PopulationStore(Mapping):
    """Structure-of-arrays client store with lazy materialisation.

    The store is itself the lazy ``Mapping[int, SimClient]`` servers and
    executors hold: ``store[cid]`` materialises on demand, while
    membership, length and iteration come straight off the columns.  The
    ``lazy`` marker tells :meth:`repro.execution.base.ClientExecutor.bind`
    to hold it by reference instead of ``dict()``-ing the population.
    """

    lazy = True
    # Mapping's value equality would materialise both populations.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        num_samples: Sequence[int],
        cpu_fraction: Sequence[float],
        bandwidth_mbps: Sequence[float],
        group: Sequence[int],
        dataset_for: DatasetProvider,
        latency_model: LatencyModel,
        comm_model: Optional[CommModel] = None,
        holdout_fraction: float = 0.2,
        min_holdout: int = 1,
        seed_address: Optional[SeedAddress] = None,
        seed_rng: Optional[np.random.Generator] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        client_ids: Optional[Sequence[int]] = None,
    ) -> None:
        if seed_address is None:
            if seed_rng is None:
                raise ValueError("provide seed_address or seed_rng")
            seed_address = SeedAddress.capture(make_rng(seed_rng))
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")

        self.num_samples = np.ascontiguousarray(num_samples, dtype=np.int64)
        n = int(self.num_samples.shape[0])
        if n == 0:
            raise ValueError("population store cannot be empty")
        if np.any(self.num_samples <= 0):
            raise ValueError("every client needs at least one sample")
        self.cpu_fraction = np.ascontiguousarray(cpu_fraction, dtype=np.float64)
        self.bandwidth_mbps = np.ascontiguousarray(
            bandwidth_mbps, dtype=np.float64
        )
        self.group = np.ascontiguousarray(group, dtype=np.int64)
        for name in ("cpu_fraction", "bandwidth_mbps", "group"):
            col = getattr(self, name)
            if col.shape != (n,):
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, expected ({n},)"
                )
        # Global client ids, one per row.  The full-population store uses
        # the trivial identity (row == id, kept implicit so hot paths stay
        # index-free); a *shard* rebuilt on a worker carries the global
        # ids of its slice, so materialised clients keep their federation
        # identity (seed address, dataset split) regardless of row order.
        if client_ids is None:
            self.client_ids = np.arange(n, dtype=np.int64)
            self._row_of: Optional[Dict[int, int]] = None
        else:
            self.client_ids = np.ascontiguousarray(client_ids, dtype=np.int64)
            if self.client_ids.shape != (n,):
                raise ValueError(
                    f"column 'client_ids' has shape {self.client_ids.shape}, "
                    f"expected ({n},)"
                )
            self._row_of = {
                int(cid): row for row, cid in enumerate(self.client_ids)
            }
            if len(self._row_of) != n:
                raise ValueError("client_ids must be unique")
        self.holdout_size = _holdout_sizes(
            self.num_samples, holdout_fraction, min_holdout
        )
        self.num_train_samples = self.num_samples - self.holdout_size
        # TiFL columns: tier membership (-1 = unassigned) and scheduler
        # credits, written back by the server after profiling/tiering.
        self.tier = np.full(n, -1, dtype=np.int64)
        self.credits = np.zeros(n, dtype=np.float64)
        # Written only by _set_available, which drops the memoised id list.
        self._available = np.ones(n, dtype=bool)
        self._available_ids: Optional[np.ndarray] = None
        self.availability_scans = 0  # O(population) scans of the column so far

        self.holdout_fraction = float(holdout_fraction)
        self.min_holdout = int(min_holdout)
        self.latency_model = latency_model
        self.comm_model = comm_model or CommModel()
        self.seed_address = seed_address
        self._dataset_for = dataset_for
        self._cache_size = int(cache_size)
        self._cache: "OrderedDict[int, SimClient]" = OrderedDict()
        # Evicted clients' stream positions, packed by _pack_states.
        self._saved_states: Dict[int, bytes] = {}
        self._materialize_count = 0
        self._phase_index: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # sizes & specs
    # ------------------------------------------------------------------
    @property
    def num_clients(self) -> int:
        return int(self.num_samples.shape[0])

    def __len__(self) -> int:
        return self.num_clients

    def __iter__(self) -> Iterator[int]:
        return iter(self.client_ids.tolist())

    def __contains__(self, client_id: object) -> bool:
        if not isinstance(client_id, (int, np.integer)):
            return False
        if self._row_of is None:
            return 0 <= client_id < self.num_clients
        return int(client_id) in self._row_of

    def __getitem__(self, client_id: int) -> SimClient:
        if not isinstance(client_id, (int, np.integer)):
            raise KeyError(client_id)
        return self.materialize(client_id)

    @property
    def cache_size(self) -> int:
        return self._cache_size

    @property
    def resident(self) -> int:
        """How many clients are currently materialised."""
        return len(self._cache)

    @property
    def materialize_count(self) -> int:
        """Total (re-)constructions -- cache hits excluded."""
        return self._materialize_count

    def _row(self, client_id: int) -> int:
        """Column row of a *global* client id (KeyError when foreign)."""
        cid = int(client_id)
        if self._row_of is None:
            if not 0 <= cid < self.num_clients:
                raise KeyError(f"client {cid} is not in this population")
            return cid
        row = self._row_of.get(cid)
        if row is None:
            raise KeyError(f"client {cid} is not in this population")
        return row

    def _rows(self, client_ids: Iterable[int]) -> np.ndarray:
        """Column rows of *global* client ids (KeyError when foreign)."""
        # An id array skips fromiter's per-element walk: the profiler's
        # column draws pass the whole population, and the walk showed in
        # scale_1e5's setup_s (docs/benchmarks.md).
        if isinstance(client_ids, np.ndarray):
            ids = client_ids.astype(np.int64, copy=False)
        else:
            ids = np.fromiter(client_ids, dtype=np.int64)
        if self._row_of is not None:
            return np.array([self._row(cid) for cid in ids], dtype=np.int64)
        if ids.size and not 0 <= ids.min() <= ids.max() < self.num_clients:
            raise KeyError("client ids outside this population")
        return ids

    def spec_of(self, client_id: int) -> ResourceSpec:
        """Rebuild the frozen :class:`ResourceSpec` from the columns."""
        row = self._row(client_id)
        return ResourceSpec(
            cpu_fraction=float(self.cpu_fraction[row]),
            bandwidth_mbps=float(self.bandwidth_mbps[row]),
            group=int(self.group[row]),
        )

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def materialize(self, client_id: int) -> SimClient:
        """The :class:`SimClient` for ``client_id``, built on first touch.

        Bit-identical to a ``spawn(rng, N)`` loop: the client receives the
        generator seeded by :meth:`SeedAddress.child`, re-draws its
        holdout permutation from position zero, and -- if it was evicted
        earlier -- has both private RNG streams restored to where they
        left off.
        """
        cid = int(client_id)
        cached = self._cache.get(cid)
        if cached is not None:
            self._cache.move_to_end(cid)
            return cached
        self._row(cid)  # membership check (KeyError on foreign ids)
        pool, indices = self._dataset_for(cid)
        client = SimClient(
            cid,
            pool,
            self.spec_of(cid),
            self.latency_model,
            self.comm_model,
            holdout_fraction=self.holdout_fraction,
            min_holdout=self.min_holdout,
            rng=self.seed_address.child(cid),
            indices=indices,
        )
        self._materialize_count += 1
        saved = self._saved_states.pop(cid, None)
        if saved is not None:
            # Entries may be partial: None = that stream never advanced
            # and stays at zero.
            client.restore_rng_states(*_unpack_states(saved))
        self._cache[cid] = client
        while len(self._cache) > self._cache_size:
            old_cid, old = self._cache.popitem(last=False)
            self._saved_states[old_cid] = _pack_states(*old.rng_states())
        return client

    def evict_all(self) -> None:
        """Flush the cache, snapshotting every resident RNG state."""
        while self._cache:
            cid, client = self._cache.popitem(last=False)
            self._saved_states[cid] = _pack_states(*client.rng_states())

    # ------------------------------------------------------------------
    # RNG-state ledger (authoritative stream positions, no clients)
    # ------------------------------------------------------------------
    def rng_state_of(self, client_id: int) -> RngStates:
        """Authoritative ``(train, latency)`` RNG states for a client.

        Resident clients answer from their live generators, evicted ones
        from the eviction ledger; ``None`` in either slot means that
        stream is still at position zero, which :meth:`materialize`
        reproduces from the seed address alone (never-touched: both).
        """
        cid = int(client_id)
        client = self._cache.get(cid)
        if client is not None:
            return client.rng_states()
        saved = self._saved_states.get(cid)
        return (None, None) if saved is None else _unpack_states(saved)

    def restore_rng_state(
        self,
        client_id: int,
        train_state: Optional[dict] = None,
        latency_state: Optional[dict] = None,
    ) -> None:
        """Record authoritative RNG stream positions for a client.

        This is how a coordinator absorbs the ``_train_rng`` state a
        remote worker ships back after training **without materialising
        the client**: resident clients get their live generators set,
        everyone else gets a (possibly partial) ledger entry merged --
        ``None`` leaves that stream's recorded position untouched.
        """
        cid = int(client_id)
        self._row(cid)  # membership check
        client = self._cache.get(cid)
        if client is not None:
            client.restore_rng_states(train_state, latency_state)
            return
        prev_train, prev_latency = self.rng_state_of(cid)
        train_state = prev_train if train_state is None else train_state
        latency_state = prev_latency if latency_state is None else latency_state
        if train_state is not None or latency_state is not None:
            self._saved_states[cid] = _pack_states(train_state, latency_state)

    # ------------------------------------------------------------------
    # sharding (worker-side population slices)
    # ------------------------------------------------------------------
    def shard(self, client_ids: Iterable[int]) -> "PopulationShard":
        """A self-contained column slice for the given *global* ids.

        The slice carries everything a worker needs to rebuild a local
        store via :meth:`from_columns` -- numpy column slices, the
        :class:`SeedAddress` and the dataset provider -- and nothing
        per-client beyond that: **no** :class:`SimClient` is
        materialised or pickled, and no RNG position travels (a pool
        worker's train job carries its client's).  Ids are sorted so a
        shard is deterministic regardless of source order.
        """
        ids = np.sort(np.asarray(list(client_ids), dtype=np.int64))
        if ids.size == 0:
            raise ValueError("a shard needs at least one client id")
        rows = self._rows(ids)
        return PopulationShard(
            client_ids=ids,
            num_samples=self.num_samples[rows],
            cpu_fraction=self.cpu_fraction[rows],
            bandwidth_mbps=self.bandwidth_mbps[rows],
            group=self.group[rows],
            holdout_fraction=self.holdout_fraction,
            min_holdout=self.min_holdout,
            seed_address=self.seed_address,
            latency_model=self.latency_model,
            comm_model=self.comm_model,
            dataset_for=self._dataset_for,
            cache_size=self._cache_size,
        )

    @classmethod
    def from_columns(
        cls, shard: "PopulationShard", cache_size: Optional[int] = None
    ) -> "PopulationStore":
        """Rebuild a worker-local store from a shipped column slice.

        Clients materialise lazily under the worker's own bounded LRU,
        bit-identical to the coordinator's cold clients: same seed
        address, same dataset provider, every stream at position zero.
        """
        return cls(
            num_samples=shard.num_samples,
            cpu_fraction=shard.cpu_fraction,
            bandwidth_mbps=shard.bandwidth_mbps,
            group=shard.group,
            dataset_for=shard.dataset_for,
            latency_model=shard.latency_model,
            comm_model=shard.comm_model,
            holdout_fraction=shard.holdout_fraction,
            min_holdout=shard.min_holdout,
            seed_address=shard.seed_address,
            cache_size=(
                cache_size if cache_size is not None else shard.cache_size
            ),
            client_ids=shard.client_ids,
        )

    # ------------------------------------------------------------------
    # availability
    # ------------------------------------------------------------------
    def available_ids(
        self, excluded: Optional[Iterable[int]] = None
    ) -> np.ndarray:
        """Ascending int64 ids of available, non-excluded clients.

        The ascending order is part of the contract: selector draws
        over this pool depend on it.  With nothing excluded the column
        is scanned once per *change* and the same **read-only** array is
        handed out until the next one, so a caller holding a reference may
        read ``result is previous`` as "nothing changed".
        """
        if excluded:
            mask = self._available.copy()
            mask[self._rows(excluded)] = False
            return self._ids_where(mask)
        if self._available_ids is None:
            self._available_ids = self._ids_where(self._available)
            self._available_ids.flags.writeable = False
        return self._available_ids

    def _ids_where(self, mask: np.ndarray) -> np.ndarray:
        self.availability_scans += 1
        on = np.flatnonzero(mask)
        return on if self._row_of is None else self.client_ids[on]

    def _set_available(self, rows: np.ndarray, value) -> None:
        """The one write to the availability column."""
        self._available[rows] = value
        self._available_ids = None

    def set_available(self, client_ids: Sequence[int], value: bool) -> None:
        self._set_available(self._rows(client_ids), bool(value))

    def availability_fraction(self) -> float:
        return float(np.mean(self._available))

    # ------------------------------------------------------------------
    # tiering
    # ------------------------------------------------------------------
    def set_tier_assignment(self, assignment) -> None:
        """Write a :class:`~repro.tifl.tiering.TierAssignment`'s ``ids`` /
        ``tier`` columns into the column (untiered clients read -1)."""
        self.tier.fill(-1)
        self.tier[self._rows(assignment.ids)] = assignment.tier

    # ------------------------------------------------------------------
    # availability churn
    # ------------------------------------------------------------------
    def attach_diurnal(self, clock, schedule: "DiurnalSchedule") -> None:
        """Drive the availability column from a diurnal on/off schedule.

        Clients are bucketed into ``schedule.num_phases`` staggered phase
        groups (``cid % num_phases``).  Each group is *on* for
        ``duty_cycle * period`` seconds starting at its phase offset.
        The initial column reflects ``clock.now``; one clock event per
        window edge flips a whole bucket with a single vectorised
        assignment and reschedules itself one period later, so churn
        costs O(due events), never O(population) scans.
        """
        schedule.validate()
        phase = self.client_ids % schedule.num_phases
        order = np.argsort(phase, kind="stable")
        bounds = np.searchsorted(phase[order], np.arange(schedule.num_phases + 1))
        self._phase_index = [
            order[bounds[p] : bounds[p + 1]]
            for p in range(schedule.num_phases)
        ]
        period = schedule.period
        on_len = schedule.duty_cycle * period
        spacing = period / schedule.num_phases
        now = clock.now

        def _edge(p: int, value: bool):
            def fire(clk) -> None:
                self._set_available(self._phase_index[p], value)
                clk.schedule(clk.now + period, fire)

            return fire

        for p in range(schedule.num_phases):
            on_start = p * spacing
            tau = (now - on_start) % period
            self._set_available(self._phase_index[p], tau < on_len)
            if on_len >= period:  # duty_cycle == 1: always on, no events
                continue
            next_on = now + ((on_start - now) % period or period)
            next_off = now + ((on_start + on_len - now) % period or period)
            clock.schedule(next_on, _edge(p, True))
            clock.schedule(next_off, _edge(p, False))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PopulationStore(n={self.num_clients}, resident={self.resident}, "
            f"cache={self._cache_size})"
        )


@dataclass
class PopulationShard:
    """A worker's column slice of a :class:`PopulationStore`.

    Produced by :meth:`PopulationStore.shard`, consumed by
    :meth:`PopulationStore.from_columns`; the wire form is
    :func:`repro.serialization.shard_to_bytes` (raw column buffers +
    seed coordinates -- never pickled :class:`SimClient` objects).
    """

    client_ids: np.ndarray
    num_samples: np.ndarray
    cpu_fraction: np.ndarray
    bandwidth_mbps: np.ndarray
    group: np.ndarray
    holdout_fraction: float
    min_holdout: int
    seed_address: SeedAddress
    latency_model: LatencyModel
    comm_model: CommModel
    dataset_for: DatasetProvider
    cache_size: int


@dataclass(frozen=True)
class DiurnalSchedule:
    """Piecewise on/off availability: phase-staggered duty-cycle windows."""

    period: float = 86400.0
    duty_cycle: float = 0.5
    num_phases: int = 24

    def validate(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(
                f"duty_cycle must be in (0, 1], got {self.duty_cycle}"
            )
        if self.num_phases < 1:
            raise ValueError(
                f"num_phases must be >= 1, got {self.num_phases}"
            )
