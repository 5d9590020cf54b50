"""Tests for the v2 cohort latency stream (CohortLatencySampler).

The load-bearing guarantees:

* within v2, the vectorised cohort draw is bit-identical to a scalar
  two-block loop over the same round stream (homogeneous or not);
* draws are addressable -- a pure function of (seed, round, cohort
  order) -- so rounds replay identically in any sampling order;
* v2 is a *versioned break* from v1: the same federation seeded the
  same way samples different latencies, and the golden-value test pins
  v2's draws so any accidental change to the stream design fails loudly;
* the FL servers and the TiFL profiler route through the sampler
  deterministically, faults included.
"""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.nn import build_mlp
from repro.simcluster.client import SimClient
from repro.simcluster.faults import DropoutInjector
from repro.simcluster.latency import (
    CohortLatencySampler,
    LatencyModel,
    resolve_latency_stream,
)
from repro.simcluster.network import CommModel
from repro.simcluster.resources import ResourceSpec
from repro.tifl.profiler import profile_clients
from tests.conftest import make_test_population, make_tiny_dataset

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)


def make_noisy_client(cid, seed=0, sigma=0.05, jitter=0.02, cpu=1.0, n=30):
    data = make_tiny_dataset(n=n, seed=seed + 1000 * cid)
    return SimClient(
        client_id=cid,
        data=data,
        spec=ResourceSpec(cpu_fraction=cpu, group=0),
        latency_model=LatencyModel(noise_sigma=sigma),
        comm_model=CommModel(jitter_sigma=jitter),
        holdout_fraction=0.2,
        rng=seed + cid,
    )


def make_cohort(n=5, **kwargs):
    return [make_noisy_client(cid, **kwargs) for cid in range(n)]


class TestStreamAddressing:
    def test_same_round_same_draws(self):
        cohort = make_cohort()
        sampler = CohortLatencySampler(seed=42)
        a = sampler.sample_cohort(cohort, 1000, epochs=1, round_idx=3)
        b = sampler.sample_cohort(cohort, 1000, epochs=1, round_idx=3)
        assert a == b

    def test_different_rounds_different_draws(self):
        cohort = make_cohort()
        sampler = CohortLatencySampler(seed=42)
        a = sampler.sample_cohort(cohort, 1000, epochs=1, round_idx=0)
        b = sampler.sample_cohort(cohort, 1000, epochs=1, round_idx=1)
        assert a != b

    def test_sampling_order_is_irrelevant(self):
        """Round draws are addressable, not history-dependent."""
        cohort = make_cohort()
        s1 = CohortLatencySampler(seed=7)
        s2 = CohortLatencySampler(seed=7)
        forward = [
            s1.sample_cohort(cohort, 500, epochs=1, round_idx=r) for r in range(4)
        ]
        backward = [
            s2.sample_cohort(cohort, 500, epochs=1, round_idx=r)
            for r in reversed(range(4))
        ]
        assert forward == list(reversed(backward))

    def test_profiler_rounds_use_distinct_domain(self):
        """Training round r and profiling round -1-r must not collide."""
        sampler = CohortLatencySampler(seed=0)
        cohort = make_cohort()
        train0 = sampler.sample_cohort(cohort, 500, epochs=1, round_idx=0)
        prof0 = sampler.sample_cohort(cohort, 500, epochs=1, round_idx=-1)
        assert train0 != prof0

    def test_empty_cohort(self):
        assert CohortLatencySampler().sample_cohort([], 100) == {}


class TestVectorisedScalarEquivalence:
    def _scalar_two_block(self, sampler, cohort, num_params, round_idx):
        """The scalar reference: same stream, same two-block draw order."""
        rng = sampler.stream_for(round_idx)
        compute = [
            c.latency_model.sample_compute(
                c.num_train_samples, c.spec, epochs=1, rng=rng
            )
            for c in cohort
        ]
        comm = [
            c.comm_model.sample_round_trip(num_params, c.spec, rng=rng)
            for c in cohort
        ]
        return {
            c.client_id: comp + cm for c, comp, cm in zip(cohort, compute, comm)
        }

    def test_homogeneous_cohort_matches_scalar_loop(self):
        cohort = make_cohort(n=7)
        sampler = CohortLatencySampler(seed=11)
        vectorised = sampler.sample_cohort(cohort, 2000, epochs=1, round_idx=5)
        scalar = self._scalar_two_block(sampler, cohort, 2000, 5)
        assert vectorised == scalar

    def test_heterogeneous_cohort_matches_scalar_loop(self):
        """Mixed latency models fall back to scalar draws on the same
        stream in the same two-block order."""
        cohort = make_cohort(n=4)
        odd = make_noisy_client(99, sigma=0.2, jitter=0.1, cpu=0.5)
        cohort.append(odd)
        sampler = CohortLatencySampler(seed=13)
        vectorised = sampler.sample_cohort(cohort, 800, epochs=1, round_idx=2)
        scalar = self._scalar_two_block(sampler, cohort, 800, 2)
        assert vectorised == scalar

    def test_epochs_mapping_respected(self):
        cohort = make_cohort(n=3)
        sampler = CohortLatencySampler(seed=3)
        eps = {c.client_id: 1 + c.client_id for c in cohort}
        varied = sampler.sample_cohort(cohort, 100, epochs=eps, round_idx=0)
        flat = sampler.sample_cohort(cohort, 100, epochs=1, round_idx=0)
        # client 0 trains 1 epoch in both; the others train longer
        assert varied[0] == flat[0]
        assert varied[1] > flat[1] and varied[2] > flat[2]


class TestVersioning:
    def test_v2_draws_are_pinned(self):
        """Golden values: any change to the v2 stream design (draw order,
        addressing, noise composition) must be a deliberate, versioned
        decision -- this test failing is the tripwire."""
        cohort = make_cohort(n=3)
        sampler = CohortLatencySampler(seed=123)
        got = sampler.sample_cohort(cohort, 1000, epochs=1, round_idx=0)
        expected = {
            0: 0.6574361694025254,
            1: 0.6928042842875741,
            2: 0.6230916016601966,
        }
        assert set(got) == set(expected)
        for cid, val in expected.items():
            assert got[cid] == val, (
                f"v2 latency stream drifted for client {cid}: {got[cid]!r}"
            )

    def test_v2_differs_from_v1(self):
        """The versioned break: same clients, same seeds, different draws."""
        cohort = make_cohort(n=4, seed=5)
        v1 = {
            c.client_id: c.response_latency(1000, epochs=1, round_idx=0)
            for c in cohort
        }
        fresh = make_cohort(n=4, seed=5)  # v1 above advanced the streams
        v2 = CohortLatencySampler(seed=5).sample_cohort(
            fresh, 1000, epochs=1, round_idx=0
        )
        assert set(v1) == set(v2)
        assert all(v1[cid] != v2[cid] for cid in v1)

    def test_resolve_latency_stream(self):
        assert resolve_latency_stream(None) is None
        assert resolve_latency_stream("per-client") is None
        ready = CohortLatencySampler(seed=9)
        assert resolve_latency_stream(ready) is ready
        built = resolve_latency_stream("cohort", rng=0)
        assert isinstance(built, CohortLatencySampler)
        # deterministic given the rng seed
        assert built.seed == resolve_latency_stream("cohort", rng=0).seed
        with pytest.raises(ValueError, match="latency_stream"):
            resolve_latency_stream("per-cohort")


class TestFaultsAndServers:
    def test_fault_applied_per_client(self):
        cohort = make_cohort(n=3)
        fault = DropoutInjector(always_drop={1}, rng=0)
        sampler = CohortLatencySampler(seed=1)
        lats = sampler.sample_cohort(
            cohort, 100, epochs=1, round_idx=0, fault=fault
        )
        assert not np.isfinite(lats[1])
        assert np.isfinite(lats[0]) and np.isfinite(lats[2])

    def test_fl_server_cohort_stream_is_deterministic(self):
        def run():
            clients = make_test_population(6, seed=7)
            model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
            with FLServer(
                clients=clients,
                model=model,
                selector=RandomSelector(3, rng=7),
                test_data=make_tiny_dataset(n=30, seed=999),
                training=TRAIN,
                rng=7,
                latency_stream="cohort",
            ) as server:
                history = server.run(3)
                return (
                    server.global_weights.copy(),
                    [r.round_latency for r in history.records],
                )

        w1, lat1 = run()
        w2, lat2 = run()
        assert np.array_equal(w1, w2)
        assert lat1 == lat2

    def test_zero_noise_latencies_identical_across_versions(self):
        """With noise_sigma = jitter = 0 there is nothing to draw, so the
        two stream versions agree exactly -- the versioned break is
        *only* about noise draw order, never the deterministic part."""

        def run(stream):
            clients = make_test_population(6, seed=7)
            model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
            with FLServer(
                clients=clients,
                model=model,
                selector=RandomSelector(3, rng=7),
                test_data=make_tiny_dataset(n=30, seed=999),
                training=TRAIN,
                rng=7,
                latency_stream=stream,
            ) as server:
                history = server.run(2)
                return [r.round_latency for r in history.records]

        # deterministic clients (noise 0) -> identical latencies even
        # across stream versions; noisy clients -> different draws.
        assert run(None) == run("cohort")

    def test_profiler_through_sampler_deterministic(self):
        clients = make_test_population(6, noise_sigma=0.05)
        sampler = CohortLatencySampler(seed=21)
        a = profile_clients(clients, num_params=500, sync_rounds=3,
                            latency_sampler=sampler)
        b = profile_clients(clients, num_params=500, sync_rounds=3,
                            latency_sampler=sampler)
        assert a.mean_latencies == b.mean_latencies
        # v1 would have advanced per-client streams between campaigns;
        # the round-addressed sampler replays identically by design.

    def test_profiler_round_offset_changes_draws(self):
        clients = make_test_population(4, noise_sigma=0.05)
        sampler = CohortLatencySampler(seed=21)
        first = profile_clients(clients, num_params=500, sync_rounds=2,
                                latency_sampler=sampler)
        second = profile_clients(clients, num_params=500, sync_rounds=2,
                                 latency_sampler=sampler, round_offset=2)
        assert first.mean_latencies != second.mean_latencies

    def test_v1_reprofile_keeps_profiler_round_window(self):
        """Regression: under the default v1 stream, every re-profiling
        campaign must keep the seed's round labels (-1..-sync_rounds) --
        round-windowed fault injectors are calibrated against them.  The
        campaign offset exists only for the round-addressed v2 stream."""
        from repro.simcluster.faults import SlowdownInjector
        from repro.tifl.server import TiFLServer

        clients = make_test_population(
            8, cpus=[1.0 / (1 + i) for i in range(8)], seed=3
        )
        # windowed exactly to the profiler's labels for sync_rounds=2
        fault = SlowdownInjector(factor=100.0, slow_clients={0}, start_round=-2)
        with TiFLServer(
            clients=clients,
            model=build_mlp((4, 4, 1), 3, hidden=(6,), rng=3),
            test_data=make_tiny_dataset(n=20, seed=997),
            clients_per_round=2,
            policy="uniform",
            num_tiers=2,
            sync_rounds=2,
            training=TRAIN,
            fault=fault,
            rng=5,
        ) as server:
            slowest = server.assignment.num_tiers - 1
            assert server.assignment.tier_of(0) == slowest
            new_asg = server.reprofile()
            # an offset campaign would label rounds -3/-4, dodge the
            # injector's window, and wrongly promote client 0 back
            assert new_asg.tier_of(0) == new_asg.num_tiers - 1

    def test_profiler_sampler_dropouts(self):
        clients = make_test_population(3, noise_sigma=0.05)
        fault = DropoutInjector(always_drop={2}, rng=0)
        sampler = CohortLatencySampler(seed=2)
        result = profile_clients(
            clients, num_params=500, sync_rounds=2,
            latency_sampler=sampler, fault=fault,
        )
        assert result.dropouts == [2]


class TestPopulationColumns:
    @pytest.mark.parametrize("with_fault", [False, True])
    def test_columns_dict_and_materialised_cohort_agree(self, with_fault):
        """One population draw in its three forms: aligned columns, the
        ``{id: latency}`` dict over them, and ``sample_cohort`` over the
        same clients materialised -- same order, same bits."""
        store = make_test_population(8, cpus=[1.0, 0.5] * 4, noise_sigma=0.2)
        ids = np.array([6, 1, 3, 0])
        sampler = CohortLatencySampler(seed=13)

        def fault():
            return DropoutInjector(always_drop={3}, drop_prob=0.3, rng=4) if with_fault else None

        kw = dict(epochs={6: 1, 1: 2, 3: 1, 0: 3}, round_idx=-2)
        got_ids, latencies = sampler.sample_population_columns(
            store, 500, fault=fault(), client_ids=ids, **kw
        )
        np.testing.assert_array_equal(got_ids, ids)
        assert latencies.dtype == np.float64 and latencies.shape == ids.shape
        as_dict = sampler.sample_population(store, 500, fault=fault(), client_ids=ids, **kw)
        assert list(as_dict.items()) == list(zip(ids.tolist(), latencies.tolist()))
        cohort = [store.materialize(int(c)) for c in ids]
        assert as_dict == sampler.sample_cohort(cohort, 500, fault=fault(), **kw)
        assert list(as_dict) == [c.client_id for c in cohort]
        if with_fault:
            assert as_dict[3] == float("inf")

    def test_empty_selection(self):
        store = make_test_population(2)
        ids, latencies = CohortLatencySampler(seed=1).sample_population_columns(
            store, 10, client_ids=np.empty(0, dtype=np.int64)
        )
        assert ids.size == 0 and latencies.size == 0
        assert CohortLatencySampler(seed=1).sample_population(store, 10, client_ids=[]) == {}
