"""Client latency profiling (Section 4.2).

All available clients run ``sync_rounds`` profiling tasks.  In each
profiling round the aggregator waits ``Tmax`` seconds: a client that
responds within the deadline has its accumulated response time ``RT_i``
incremented by the actual latency, a client that times out is charged
``Tmax``.  After ``sync_rounds`` rounds, clients with
``RT_i >= sync_rounds * Tmax`` -- i.e. clients that *never* responded in
time -- are flagged as dropouts and excluded from training.  The remaining
clients' mean profiled latency feeds the tiering algorithm.

Profiling can be re-run periodically ("for systems with changing
computation and communication performance over time"); the TiFL server
exposes :meth:`~repro.tifl.server.TiFLServer.reprofile` for exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.simcluster.faults import FaultInjector
from repro.simcluster.latency import CohortLatencySampler
from repro.simcluster.population import PopulationStore

__all__ = ["ProfilingResult", "profile_clients"]


@dataclass(eq=False)
class ProfilingResult:
    """Outcome of one profiling campaign, held as aligned columns.

    Attributes
    ----------
    client_ids / mean_latencies:
        The responsive clients' ids (int64, in profiling order) and each
        one's mean observed response latency in seconds (float64);
        timed-out rounds contribute ``Tmax``.
    dropouts:
        Ascending int64 ids of the clients excluded for timing out in
        every profiling round.
    profiling_time:
        Simulated wall-clock cost of the campaign
        (``sync_rounds * min(max observed, Tmax)`` -- each profiling round
        waits for the slowest responder or the deadline).
    """

    client_ids: np.ndarray
    mean_latencies: np.ndarray
    dropouts: np.ndarray
    sync_rounds: int
    tmax: float
    profiling_time: float


def profile_clients(
    clients: PopulationStore,
    num_params: int,
    sync_rounds: int = 5,
    tmax: Optional[float] = None,
    epochs: int = 1,
    fault: Optional[FaultInjector] = None,
    latency_sampler: Optional[CohortLatencySampler] = None,
    round_offset: int = 0,
    client_ids: Optional[Sequence[int]] = None,
) -> ProfilingResult:
    """Run the Section 4.2 profiling campaign over ``clients``.

    Parameters
    ----------
    clients:
        The columnar
        :class:`~repro.simcluster.population.PopulationStore`.  With the
        v2 cohort stream the whole campaign is vectorised off the
        metadata columns
        (:meth:`~repro.simcluster.latency.CohortLatencySampler.sample_cohort`)
        and never materialises a single client; with the v1 per-client
        stream, clients are materialised on demand (O(N); the store's
        RNG-state ledger keeps the draws exact when N exceeds the cache).
        Either way the campaign is held as one C-contiguous
        ``(clients, rounds)`` matrix, capped and charged in place, and
        reduced row-wise.  The layout is part of the numerics: a
        row-wise mean over it sums
        each row exactly as that client's own 1-D ``.mean()`` would,
        while the transposed ``(rounds, clients)`` / ``axis=0`` form
        does not from 8 rounds up (pairwise summation) -- pinned in
        ``tests/tifl/test_profiler.py``.
    num_params:
        Model size, for the communication component of the latency.
    tmax:
        Per-round response deadline.  ``None`` (default) means *no*
        deadline: every finite response counts, and only clients that
        never respond at all (infinite latency, e.g. injected dropouts)
        are excluded.  A finite ``tmax`` reproduces the paper's exact
        rule: timed-out rounds are charged ``Tmax`` and a client timing
        out in every round is a dropout.  Keeping the default deadline
        off matters for fidelity -- the slowest CPU group is *slow*, not
        unresponsive, and must stay in the training pool.
    fault:
        Optional injector; clients it makes unresponsive (inf latency)
        end up excluded.
    latency_sampler:
        Optional v2 cohort latency stream
        (:class:`~repro.simcluster.latency.CohortLatencySampler`).  When
        given, each profiling round's latencies come from one vectorised
        population draw addressed as round ``-1 - r`` (the same negative
        round indices the per-client path uses), instead of per-client
        ``_latency_rng`` streams.
    round_offset:
        Profiling rounds already consumed by earlier campaigns.  Rounds
        are addressed ``-1 - round_offset - r`` so a re-profiling
        campaign never re-addresses (and, under the cohort stream,
        never re-draws) an earlier campaign's noise.
    client_ids:
        Profile these ids instead of the whole population
        (re-profiling passes the non-excluded ids); each id once.
    """
    ids = (
        clients.client_ids
        if client_ids is None
        else np.array(client_ids, dtype=np.int64)
    )
    if ids.size == 0:
        raise ValueError("cannot profile an empty client pool")
    if client_ids is not None and np.unique(ids).size != ids.size:
        # A repeated id would draw that client's latency stream twice per
        # round and keep only one of the rows.
        raise ValueError("client_ids must not repeat an id")
    if sync_rounds <= 0:
        raise ValueError(f"sync_rounds must be positive, got {sync_rounds}")
    if tmax is not None and tmax <= 0:
        raise ValueError(f"tmax must be positive, got {tmax}")

    deadline = float("inf") if tmax is None else float(tmax)
    observed = np.empty((ids.size, sync_rounds), dtype=np.float64)
    for r in range(sync_rounds):
        round_idx = -1 - int(round_offset) - r
        if latency_sampler is not None:
            _, observed[:, r] = latency_sampler.sample_cohort(
                clients,
                ids,
                num_params,
                epochs=epochs,
                round_idx=round_idx,
                fault=fault,
            )
        else:
            # v1 per-client streams live on the materialised objects; the
            # LRU's state ledger keeps every stream's position exact even
            # when N exceeds the cache.
            observed[:, r] = [
                clients.materialize(cid).response_latency(
                    num_params, epochs=epochs, round_idx=round_idx, fault=fault
                )
                for cid in ids.tolist()
            ]
    # One matrix throughout: capped at the deadline, then charged, in place.
    np.minimum(observed, deadline, out=observed)
    finite = np.isfinite(observed)
    # Each profiling round waits for its slowest responder.
    profiling_time = 0.0
    for r in range(sync_rounds):
        responded = observed[finite[:, r], r]
        if responded.size:
            profiling_time += float(responded.max())

    # Dropout rule (Sec. 4.2): a client is excluded when every profiling
    # round hit the deadline -- i.e. its accumulated RT equals
    # sync_rounds * Tmax -- and kept when some round beat it.  With no
    # deadline that degenerates to "produced a finite response once".
    kept = (finite & (observed < deadline)).any(axis=1)
    # Timed-out rounds contribute Tmax to the mean, per the paper.
    np.copyto(observed, deadline, where=~finite)
    means = observed.mean(axis=1)
    if deadline == float("inf"):
        # With no deadline a round without a response has nothing to
        # charge and leaves the mean: those rows (rare -- dropouts and
        # faulted clients) are averaged one by one over what is left.
        for i in np.flatnonzero(kept & ~finite.all(axis=1)):
            means[i] = observed[i][finite[i]].mean()
    if not kept.any():
        raise RuntimeError("every client was classified as a dropout")
    return ProfilingResult(
        client_ids=ids[kept],
        mean_latencies=means[kept],
        dropouts=np.sort(ids[~kept]),
        sync_rounds=sync_rounds,
        tmax=deadline,
        profiling_time=profiling_time,
    )
