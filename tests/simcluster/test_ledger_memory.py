"""What the population store's eviction ledger retains per client.

A 10^5-client store materialises and evicts 20 000 distinct clients
through its LRU; each leaves one ledger entry: the client id's key and
one ``bytes`` object holding a 37-byte PCG64 row per drawn stream
(~130 B in all under ``tracemalloc``).  Nested ``bit_generator.state``
dicts per client retained ~670 B.  The gate sits well below that.
"""

import gc
import tracemalloc

from repro.experiments.scenarios import build_population_scenario


def test_evicted_clients_leave_packed_rows():
    n, evicted = 100_000, 20_000
    store = build_population_scenario(num_clients=n, clients_per_round=10, seed=41).clients
    ids = range(0, n, n // evicted)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for cid in ids:
            store.materialize(cid)
        store.evict_all()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert store.resident == 0 and len(store._saved_states) == evicted
    assert retained / evicted <= 250
