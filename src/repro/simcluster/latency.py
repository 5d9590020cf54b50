"""Client compute-latency model.

Figure 1(a) of the paper shows two regularities the model must reproduce:

1. with fixed CPU, per-round training time grows **near-linearly** in the
   number of local samples;
2. with fixed data, training time scales **inversely** with the CPU
   fraction.

We therefore model one local epoch as::

    compute = base_overhead + samples * cost_per_sample / cpu_fraction

and multiply by a log-normal noise factor (real response latencies are
right-skewed).  ``cost_per_sample`` is a model-complexity knob: harnesses
set it from the parameter count of the trained network so that, e.g., the
CIFAR-10 CNN is slower than the MNIST CNN at equal CPU.

Latency RNG streams (versioned)
-------------------------------
Two stream designs coexist; the difference is load-bearing for
reproducibility, so the switch is explicit and versioned:

* **v1, "per-client" (the seed behaviour, default).**  Every
  :class:`~repro.simcluster.client.SimClient` owns a private
  ``_latency_rng`` (seeded at construction, built when first drawn); each
  ``response_latency`` call draws compute noise then comm jitter from
  that stream.  Draw positions depend on how often *that client* has
  been asked, so a whole cohort costs one Python-level RNG round-trip
  per client per component.
* **v2, "cohort" (:class:`CohortLatencySampler`).**  One deterministic
  stream per ``(seed, round)`` coordinate, addressed via
  ``SeedSequence`` spawn keys; the whole cohort's compute noise is one
  vectorised :meth:`LatencyModel.sample_compute_cohort` call and its
  comm jitter one
  :meth:`~repro.simcluster.network.CommModel.sample_round_trip_cohort`
  call, both over a population store's columns.  Draws depend only on
  ``(seed, round, cohort order)`` -- never on history -- so rounds can
  be sampled in any order or replayed.

v2 is **not** bit-compatible with v1: v1 interleaves per-client streams
(compute:sub:`i`, comm:sub:`i` from client *i*'s generator) while v2
draws one cohort-wide compute block then one comm block from a
round-addressed stream.  Switching a federation from v1 to v2 therefore
changes every sampled latency, which changes straggler order, cohort
keep-sets and the simulated clock.  That is why servers default to v1
and v2 is opt-in via ``latency_stream="cohort"``; within each version
the draws are pinned by regression tests
(``tests/simcluster/test_latency_stream.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.rng import RngLike, make_rng
from repro.simcluster.resources import ResourceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (population -> latency)
    from repro.simcluster.faults import FaultInjector
    from repro.simcluster.population import PopulationStore

__all__ = [
    "LatencyModel",
    "CohortLatencySampler",
    "resolve_latency_stream",
    "LATENCY_STREAM_VERSIONS",
]

#: Recognised ``latency_stream`` specs: v1 per-client (seed behaviour)
#: and v2 cohort-level (see module docstring).
LATENCY_STREAM_VERSIONS = ("per-client", "cohort")


@dataclass(frozen=True)
class LatencyModel:
    """Stochastic compute-latency generator.

    Attributes
    ----------
    cost_per_sample:
        Seconds of single-CPU compute per training sample per local epoch.
    base_overhead:
        Fixed per-round client overhead (framework startup, serialisation).
    noise_sigma:
        Sigma of the multiplicative log-normal noise (0 = deterministic).
    """

    cost_per_sample: float = 0.005
    base_overhead: float = 0.5
    noise_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.cost_per_sample <= 0:
            raise ValueError(
                f"cost_per_sample must be positive, got {self.cost_per_sample}"
            )
        if self.base_overhead < 0:
            raise ValueError(
                f"base_overhead must be non-negative, got {self.base_overhead}"
            )
        if self.noise_sigma < 0:
            raise ValueError(
                f"noise_sigma must be non-negative, got {self.noise_sigma}"
            )

    def mean_compute(
        self, num_samples: int, spec: ResourceSpec, epochs: int = 1
    ) -> float:
        """Expected compute seconds for ``epochs`` local epochs."""
        if num_samples < 0:
            raise ValueError(f"num_samples must be non-negative, got {num_samples}")
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        work = self.base_overhead + (
            epochs * num_samples * self.cost_per_sample / spec.cpu_fraction
        )
        # log-normal(mu=0, sigma) has mean exp(sigma^2 / 2)
        return work * float(np.exp(self.noise_sigma**2 / 2.0))

    def sample_compute(
        self,
        num_samples: int,
        spec: ResourceSpec,
        epochs: int = 1,
        rng: RngLike = None,
    ) -> float:
        """Draw one noisy compute latency."""
        if num_samples < 0:
            raise ValueError(f"num_samples must be non-negative, got {num_samples}")
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        work = self.base_overhead + (
            epochs * num_samples * self.cost_per_sample / spec.cpu_fraction
        )
        if self.noise_sigma == 0.0:
            return work
        factor = float(np.exp(make_rng(rng).normal(0.0, self.noise_sigma)))
        return work * factor

    def sample_compute_cohort(
        self,
        num_samples: Union[Sequence[int], np.ndarray],
        cpu_fractions: Union[Sequence[float], np.ndarray],
        epochs: Union[int, Sequence[int], np.ndarray] = 1,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Draw a whole cohort's compute latencies in one vectorised pass.

        Takes the ``num_samples`` and ``cpu_fraction`` columns (the
        population store's structure-of-arrays layout).  Equivalent to
        calling :meth:`sample_compute` once per client with the *same*
        generator: numpy's ``Generator.normal`` fills an array from the
        bitstream positions the scalar calls would consume, so the draws
        are **bit-identical** to the loop (pinned by a regression test).

        ``epochs`` may be a scalar or one value per client.  Returns an
        array of shape ``(len(num_samples),)``.
        """
        ns = np.asarray(num_samples, dtype=np.float64)
        if ns.ndim != 1:
            raise ValueError(f"num_samples must be 1-D, got shape {ns.shape}")
        if np.any(ns < 0):
            raise ValueError("num_samples must be non-negative")
        cpu = np.asarray(cpu_fractions, dtype=np.float64)
        if cpu.shape != ns.shape:
            raise ValueError(
                f"cpu_fractions shape {cpu.shape} != num_samples shape {ns.shape}"
            )
        eps = np.broadcast_to(np.asarray(epochs, dtype=np.float64), ns.shape)
        if np.any(eps <= 0):
            raise ValueError("epochs must be positive")
        # Same association order as the scalar path:
        # ((epochs * samples) * cost) / cpu, then + base_overhead.
        work = self.base_overhead + (eps * ns * self.cost_per_sample / cpu)
        if self.noise_sigma == 0.0 or ns.size == 0:
            return work
        factors = np.exp(
            make_rng(rng).normal(0.0, self.noise_sigma, size=ns.size)
        )
        return work * factors


class CohortLatencySampler:
    """The v2 cohort-level latency stream (see module docstring).

    One sampler = one federation's latency randomness.  Each round gets
    its own child stream addressed by ``(seed, domain, index)`` spawn
    keys -- training rounds live in domain 0, the profiler's negative
    round indices in domain 1 -- so draws are a pure function of the
    round coordinate and the cohort order, never of sampling history.

    Within a round the draw order is fixed: one compute-noise block for
    the whole cohort (cohort order), then one comm-jitter block, each a
    single vectorised NumPy call over the store's columns.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CohortLatencySampler(seed={self.seed})"

    def stream_for(self, round_idx: int) -> np.random.Generator:
        """The round's dedicated generator (idempotent: fresh each call)."""
        if round_idx >= 0:
            key = (0, int(round_idx))
        else:
            # The profiler addresses its campaigns as round -1, -2, ...;
            # spawn keys must be non-negative, so negatives get domain 1.
            key = (1, -1 - int(round_idx))
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        )

    def sample_cohort(
        self,
        store: "PopulationStore",
        client_ids: Union[Sequence[int], np.ndarray],
        num_params: int,
        epochs: Union[int, Mapping[int, int]] = 1,
        round_idx: int = 0,
        fault: Optional["FaultInjector"] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the full response latency of every client in the cohort.

        Reads the store's columns and builds no client: the store holds
        one latency and one comm model for the whole population.
        ``client_ids`` orders the cohort; ids are *global*, reaching the
        columns through the store's rows, so a shard store reads its own
        clients and an id it does not hold raises ``KeyError``.
        ``epochs`` is a scalar or a ``{client_id: epochs}`` mapping, and
        ``fault`` is applied per client.  Returns ``(ids, latencies)`` as
        two aligned arrays.
        """
        ids = np.asarray(client_ids, dtype=np.int64)
        if ids.size == 0:
            return ids, np.empty(0, dtype=np.float64)
        rows = store._rows(ids)
        rng = self.stream_for(round_idx)
        if isinstance(epochs, Mapping):
            eps = np.asarray(
                [int(epochs[int(c)]) for c in ids], dtype=np.float64
            )
        else:
            eps = int(epochs)
        compute = store.latency_model.sample_compute_cohort(
            store.num_train_samples[rows],
            store.cpu_fraction[rows],
            epochs=eps,
            rng=rng,
        )
        comm = store.comm_model.sample_round_trip_cohort(
            num_params, store.bandwidth_mbps[rows], rng=rng
        )
        total = compute + comm
        if fault is not None:
            total = np.asarray(
                [
                    fault.apply(cid, round_idx, latency)
                    for cid, latency in zip(ids.tolist(), total.tolist())
                ],
                dtype=np.float64,
            )
        return ids, total


def resolve_latency_stream(
    spec: Union[str, CohortLatencySampler, None],
    rng: RngLike = None,
) -> Optional[CohortLatencySampler]:
    """Resolve a ``latency_stream`` spec to a sampler (or ``None`` = v1).

    ``None`` / ``"per-client"`` keep the seed-compatible v1 per-client
    streams.  ``"cohort"`` builds a :class:`CohortLatencySampler` whose
    seed is drawn deterministically from ``rng``; pass a ready sampler
    instance to control the seed directly.
    """
    if spec is None or spec == "per-client":
        return None
    if isinstance(spec, CohortLatencySampler):
        return spec
    if spec == "cohort":
        return CohortLatencySampler(seed=int(make_rng(rng).integers(0, 2**63)))
    raise ValueError(
        f"unknown latency_stream {spec!r}; expected one of "
        f"{LATENCY_STREAM_VERSIONS} or a CohortLatencySampler instance"
    )
