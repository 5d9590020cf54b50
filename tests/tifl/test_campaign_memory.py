"""The profiling campaign's high-water mark per profiled client.

``profile_clients`` holds one C-contiguous ``(clients, rounds)`` float64
matrix and caps and charges it in place: at 10^4 clients x 5 rounds its
``tracemalloc`` peak is ~89 B per client (the matrix is 40 B of it,
one cohort draw's temporaries most of the rest).  A second and third
matrix beside it (``capped``, ``charged``) took it to ~165 B.
"""

import gc
import tracemalloc

from repro.experiments.scenarios import build_population_scenario
from repro.simcluster.latency import CohortLatencySampler
from repro.tifl.profiler import profile_clients


def test_campaign_holds_one_matrix():
    n = 10_000
    scn = build_population_scenario(num_clients=n, clients_per_round=10, seed=41)
    sampler = CohortLatencySampler(seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = profile_clients(
            scn.clients, scn.model.num_params(), sync_rounds=5, latency_sampler=sampler
        )
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result.client_ids.size + result.dropouts.size == n
    assert peak / n <= 110
