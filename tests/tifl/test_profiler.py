"""Tests for the Section 4.2 profiler."""

import numpy as np
import pytest

from repro.simcluster.faults import SlowdownInjector
from repro.tifl.profiler import profile_clients
from tests.conftest import DropoutInjector, make_test_population


def make_pool(cpus, noise=0.0, seed=0):
    return make_test_population(
        len(cpus), cpus=cpus, seed=seed, noise_sigma=noise
    )


class TestBasicProfiling:
    def test_all_clients_profiled(self):
        clients = make_pool([4.0, 1.0, 0.25])
        result = profile_clients(clients, num_params=100, sync_rounds=3)
        assert sorted(result.mean_latencies) == [0, 1, 2]
        assert result.dropouts == []

    def test_latency_ordering_follows_cpu(self):
        clients = make_pool([4.0, 1.0, 0.25])
        result = profile_clients(clients, num_params=100, sync_rounds=3)
        lats = [result.mean_latencies[i] for i in range(3)]
        assert lats[0] < lats[1] < lats[2]

    def test_mean_matches_expectation_no_noise(self):
        clients = make_pool([2.0])
        result = profile_clients(clients, num_params=100, sync_rounds=4)
        expected = clients[0].mean_response_latency(100)
        np.testing.assert_allclose(result.mean_latencies[0], expected, rtol=1e-9)

    def test_profiling_time_accumulates_slowest(self):
        clients = make_pool([4.0, 0.25])
        result = profile_clients(clients, num_params=100, sync_rounds=3)
        slow = clients[1].mean_response_latency(100)
        np.testing.assert_allclose(result.profiling_time, 3 * slow, rtol=1e-9)

    def test_raw_latencies_recorded(self):
        clients = make_pool([1.0, 1.0])
        result = profile_clients(clients, num_params=100, sync_rounds=5)
        assert all(len(v) == 5 for v in result.raw_latencies.values())

    def test_invalid_args(self):
        clients = make_pool([1.0])
        with pytest.raises(ValueError):
            profile_clients(clients, 100, client_ids=[])
        with pytest.raises(ValueError):
            profile_clients(clients, 100, sync_rounds=0)
        with pytest.raises(ValueError):
            profile_clients(clients, 100, tmax=-1.0)


class TestDropoutExclusion:
    def test_unresponsive_client_excluded(self):
        clients = make_pool([1.0, 1.0, 1.0])
        fault = DropoutInjector(always_drop={1})
        result = profile_clients(clients, num_params=100, fault=fault)
        assert result.dropouts == [1]
        assert 1 not in result.mean_latencies

    def test_intermittent_dropout_kept(self):
        """A client that responds in at least one round stays in the pool."""
        clients = make_pool([1.0, 1.0])
        fault = DropoutInjector(drop_prob=0.4, rng=0)
        result = profile_clients(
            clients, num_params=100, sync_rounds=20, fault=fault
        )
        # with p=0.4 over 20 rounds, all-dropout probability is ~1e-8
        assert result.dropouts == []

    def test_all_dropouts_raise(self):
        clients = make_pool([1.0, 1.0])
        fault = DropoutInjector(always_drop={0, 1})
        with pytest.raises(RuntimeError, match="dropout"):
            profile_clients(clients, num_params=100, fault=fault)


class TestFiniteTmax:
    def test_slow_client_charged_tmax(self):
        """With a finite deadline, slow responses are charged Tmax."""
        clients = make_pool([4.0, 0.01])  # client 1 latency ~ 24s
        slow_lat = clients[1].mean_response_latency(100)
        tmax = slow_lat / 2
        fast_lat = clients[0].mean_response_latency(100)
        assert fast_lat < tmax  # sanity: fast client meets the deadline
        result = profile_clients(clients, num_params=100, tmax=tmax, sync_rounds=3)
        # client 1 timed out every round -> dropout (paper's rule)
        assert result.dropouts == [1]

    def test_paper_rule_partial_timeouts(self):
        """Timed-out rounds contribute Tmax to a surviving client's mean."""
        clients = make_pool([1.0, 1.0], noise=0.0)
        base = clients[0].mean_response_latency(100)
        fault = SlowdownInjector(factor=10.0, slow_clients={1}, start_round=0)
        # Deadline between normal and slowed latency; client 1 is slowed in
        # every *training* round but profiling uses round_idx < 0, so the
        # start_round=0 gate keeps profiling rounds unaffected.
        result = profile_clients(
            clients, num_params=100, tmax=base * 2, sync_rounds=3, fault=fault
        )
        assert result.dropouts == []

    def test_profiling_time_capped_by_tmax(self):
        clients = make_pool([4.0, 0.01])
        result = profile_clients(clients, num_params=100, tmax=1.0, sync_rounds=2)
        assert result.profiling_time <= 2.0 + 1e-9


class TestDeterminism:
    def test_same_seed_same_profile(self):
        a = profile_clients(make_pool([1.0, 0.5], noise=0.1, seed=3), 100)
        b = profile_clients(make_pool([1.0, 0.5], noise=0.1, seed=3), 100)
        assert a.mean_latencies == b.mean_latencies


# ----------------------------------------------------------------------
# the columnar campaign against the per-client loop it replaced
# ----------------------------------------------------------------------
def reference_profile(observed_rounds, deadline):
    """The Sec. 4.2 rules one client at a time: ``observed_rounds`` is a
    list of ``{client_id: latency}`` dicts, one per profiling round.
    Returns ``(mean_latencies, dropouts, profiling_time, raw)``."""
    raw = {cid: [] for cid in observed_rounds[0]}
    profiling_time = 0.0
    for observed in observed_rounds:
        for cid, lat in observed.items():
            raw[cid].append(min(lat, deadline))
        finite = [
            min(v, deadline) for v in observed.values() if np.isfinite(min(v, deadline))
        ]
        if finite:
            profiling_time += max(finite)
    dropouts, means = [], {}
    for cid, lats in raw.items():
        arr = np.asarray(lats, dtype=np.float64)
        finite_mask = np.isfinite(arr)
        if (~finite_mask | (arr >= deadline)).all():
            dropouts.append(cid)
            continue
        charged = np.where(finite_mask, np.minimum(arr, deadline), deadline)
        means[cid] = float(charged[np.isfinite(charged)].mean())
    return means, sorted(dropouts), profiling_time, raw


class TestColumnarCampaign:
    FAULTS = {
        "none": lambda: None,
        "always_drop": lambda: DropoutInjector(always_drop={3, 17}),
        "intermittent": lambda: DropoutInjector(drop_prob=0.4, rng=5),
        "slowdown": lambda: SlowdownInjector(
            factor=6.0, slow_clients={1, 5, 30}, start_round=-20
        ),
    }

    @pytest.mark.parametrize("stream", ["per-client", "cohort"])
    @pytest.mark.parametrize("tmax", [None, 0.62])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_matches_the_per_client_loop(self, stream, tmax, fault):
        from repro.simcluster.latency import CohortLatencySampler

        cpus = [4.0, 2.0, 1.0, 0.5] * 10
        ids = np.arange(39, 0, -2)  # a reordered subset: key order must follow it
        sampler = CohortLatencySampler(seed=8) if stream == "cohort" else None
        sync_rounds = 9  # past 8, where a column-wise sum would reassociate

        def campaign_inputs():
            return make_pool(cpus, noise=0.3, seed=2), self.FAULTS[fault]()

        pool, inj = campaign_inputs()
        result = profile_clients(
            pool, 100, sync_rounds=sync_rounds, tmax=tmax, fault=inj,
            latency_sampler=sampler, round_offset=4, client_ids=ids,
        )  # fmt: skip

        pool, inj = campaign_inputs()
        rounds = []
        for r in range(sync_rounds):
            kw = dict(epochs=1, round_idx=-1 - 4 - r, fault=inj)
            if sampler is not None:
                got, lats = sampler.sample_population_columns(pool, 100, client_ids=ids, **kw)
                rounds.append(dict(zip(got.tolist(), lats.tolist())))
            else:
                rounds.append(
                    {int(c): pool.materialize(int(c)).response_latency(100, **kw) for c in ids}
                )
        deadline = float("inf") if tmax is None else tmax
        means, dropouts, profiling_time, raw = reference_profile(rounds, deadline)

        assert list(result.mean_latencies.items()) == list(means.items())
        assert result.dropouts == dropouts
        assert result.profiling_time == profiling_time
        assert list(result.raw_latencies.items()) == list(raw.items())
        assert {type(k) for k in result.mean_latencies} == {int}
        assert {type(v) for v in result.mean_latencies.values()} == {float}
        assert {type(v) for lats in result.raw_latencies.values() for v in lats} == {float}
        assert all(type(c) is int for c in result.dropouts)
        if fault == "intermittent" and tmax is None:
            # the per-row fallback ran: some kept client missed a round
            assert any(np.inf in result.raw_latencies[c] for c in means)
        if fault == "slowdown" and tmax is not None:
            assert dropouts == [1, 5]  # timed out in every round

    def test_row_wise_mean_is_each_rows_own_mean(self, rng):
        """The layout rule ``profile_clients`` relies on: over a
        C-contiguous ``(clients, rounds)`` matrix ``mean(axis=1)`` sums
        every row as its own 1-D ``.mean()`` does; the transposed
        ``(rounds, clients)`` / ``axis=0`` form reassociates."""
        column_form_differs = []
        for rounds in range(1, 258):
            m = rng.lognormal(size=(64, rounds))
            own = [np.asarray(row.tolist()).mean() for row in m]
            np.testing.assert_array_equal(m.mean(axis=1), own)
            if not np.array_equal(np.ascontiguousarray(m.T).mean(axis=0), own):
                column_form_differs.append(rounds)
        assert column_form_differs and min(column_form_differs) >= 8
