"""The six frozen benchmark workloads and how each federation is built.

Importing this module imports nothing from ``repro`` -- the child
process takes its ``t0`` before the first ``numpy``/``repro`` import, so
every builder below imports lazily.  Builders go through the scenario
*module* (``scenarios.build_scenario``), never a by-value import, so the
traced child's wrappers see the calls.

The constants are frozen: changing any of them changes what every
committed baseline means, so that is a PR of its own (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

#: The ``run_seconds`` BENCHMARK.json declares.  ``rounds`` below are
#: sized so each measured section lasts about this long on the 2-core
#: box the benchmark was defined on (in its slower state, see README.md);
#: ``--seconds`` scales them linearly.
RUN_SECONDS = 8
#: Worker processes of the multi-process workloads (= ``nproc`` here).
WORKERS = 2
#: Rounds 0..PREFIX_ROUNDS are what a serial reference child replays for
#: the bit-identity check of the parallel workloads.
PREFIX_ROUNDS = 10
#: Prefix of the child's result line on stdout.
RESULT_MARKER = "PERF_RESULT "
#: Final global accuracy every full-length run must reach.
MIN_FINAL_ACCURACY = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Measured rounds *per federation* at ``RUN_SECONDS``.
    rounds: int
    #: One federation per label, run back to back in one child.
    federations: Tuple[str, ...]
    #: ``serial | process | distributed``.
    executor: str
    #: Replayed on the serial executor and compared bit for bit.
    reference: bool
    build: Callable[[str, int, int], "Federation"]

    def rounds_for(self, seconds: float) -> int:
        """Fixed work for a ``--seconds`` budget (never below 3 rounds)."""
        return max(3, round(self.rounds * seconds / RUN_SECONDS))


@dataclass
class Federation:
    """What a builder hands the child: constructor arguments, not a
    server -- the child builds executor and server itself so the traced
    run can wrap the executor class first."""

    scenario: object
    make_server: Callable[[object], object]
    #: The columnar store of population scenarios (``None`` when eager).
    store: Optional[object] = None


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _policy_server(scn, label: str, seed: int, total_rounds: int, **kwargs):
    """``vanilla`` -> FLServer + RandomSelector; anything else is a TiFL
    policy name.  RNG derivation mirrors ``repro.experiments.run_policy``
    so a workload is the run the ``compare`` CLI would make."""
    from repro.fl.selection import RandomSelector
    from repro.fl.server import FLServer
    from repro.rng import derive
    from repro.tifl.server import TiFLServer

    if label == "vanilla":
        return lambda executor: FLServer(
            clients=scn.clients,
            model=scn.model,
            selector=RandomSelector(scn.clients_per_round, rng=derive(seed, 101)),
            test_data=scn.test_data,
            training=scn.training,
            rng=derive(seed, 202),
            executor=executor,
            **kwargs,
        )
    return lambda executor: TiFLServer(
        clients=scn.clients,
        model=scn.model,
        test_data=scn.test_data,
        clients_per_round=scn.clients_per_round,
        policy=label,
        policy_family="mnist" if scn.config.dataset == "mnist" else "cifar",
        total_rounds=total_rounds,
        training=scn.training,
        rng=derive(seed, 303),
        executor=executor,
        **kwargs,
    )


def _build_compare(label: str, seed: int, total_rounds: int):
    from repro.experiments import scenarios

    cfg = scenarios.ScenarioConfig(
        dataset="cifar10",
        num_clients=50,
        clients_per_round=5,
        data_distribution="noniid",
        shape=(16, 16, 3),
        train_size=6000,
        test_size=1024,
        model="mlp",
        mlp_hidden=(128,),
    )
    scn = scenarios.build_scenario(cfg, seed=seed)
    return Federation(scn, _policy_server(scn, label, seed, total_rounds))


def _build_cnn(label: str, seed: int, total_rounds: int):
    from repro.experiments import scenarios

    cfg = scenarios.ScenarioConfig(
        dataset="mnist",
        num_clients=50,
        clients_per_round=3,
        data_distribution="noniid",
        shape=(12, 12, 1),
        train_size=1500,
        test_size=128,
        model="mnist_cnn",
    )
    scn = scenarios.build_scenario(cfg, seed=seed)
    return Federation(scn, _policy_server(scn, label, seed, total_rounds))


def _build_tiers(label: str, seed: int, total_rounds: int):
    from repro.experiments import scenarios

    scn = scenarios.build_population_scenario(
        num_clients=200,
        clients_per_round=8,
        pool_size=8192,
        samples_range=(64, 128),
        shape=(16, 16, 3),
        test_size=2048,
        model="mlp",
        seed=seed,
    )
    make = _policy_server(scn, label, seed, total_rounds, latency_stream="cohort")
    return Federation(scn, make, store=scn.population)


def _build_scale(label: str, seed: int, total_rounds: int):
    from repro.experiments import scenarios
    from repro.simcluster.clock import SimulatedClock
    from repro.simcluster.population import DiurnalSchedule

    scn = scenarios.build_population_scenario(
        num_clients=100_000, clients_per_round=20, seed=seed
    )
    # Window edges every 600/48 = 12.5 simulated seconds: one fires about
    # every 15 rounds, so the event clock and the availability column
    # churn inside the measured section.
    clock = SimulatedClock()
    scn.population.attach_diurnal(
        clock, DiurnalSchedule(period=600.0, duty_cycle=0.5, num_phases=24)
    )
    make = _policy_server(
        scn, label, seed, total_rounds, latency_stream="cohort", clock=clock
    )
    return Federation(scn, make, store=scn.population)


def _build_loopback(codec: str):
    def build(label: str, seed: int, total_rounds: int):
        from repro.config import PAPER_SYNTHETIC_TRAINING
        from repro.experiments import scenarios

        scn = scenarios.build_population_scenario(
            num_clients=2000,
            clients_per_round=4,
            pool_size=8192,
            samples_range=(32, 64),
            shape=(16, 16, 3),
            test_size=2048,
            model="mlp",
            training=PAPER_SYNTHETIC_TRAINING.with_(codec=codec),
            seed=seed,
        )
        make = _policy_server(
            scn, label, seed, total_rounds, latency_stream="cohort"
        )
        return Federation(scn, make, store=scn.population)

    return build


WORKLOADS: List[Workload] = [
    Workload(
        name="compare_serial",
        why="paper-shape vanilla/uniform/adaptive comparison on the serial "
        "executor: dense nn kernels + optimizer dominate, transport idle",
        rounds=34,
        federations=("vanilla", "uniform", "adaptive"),
        executor="serial",
        reference=False,
        build=_build_compare,
    ),
    Workload(
        name="cnn_serial",
        why="the paper's MNIST CNN on serial: conv/pool/im2col/dropout path "
        "instead of GEMM-only, so a dense-kernel gain that costs conv shows",
        rounds=100,
        federations=("uniform",),
        executor="serial",
        reference=False,
        build=_build_cnn,
    ),
    Workload(
        name="tiers_process",
        why="2-worker process pool with eval beside train: adaptive policy "
        "evaluates all 200 holdouts every round; the store fits its LRU",
        rounds=100,
        federations=("adaptive",),
        executor="process",
        reference=True,
        build=_build_tiers,
    ),
    Workload(
        name="scale_1e5",
        why="10^5-client store as a cache-miss workload with diurnal churn: "
        "materialise/evict, available_ids, event clock; GEMMs negligible",
        rounds=800,
        federations=("uniform",),
        executor="serial",
        reference=False,
        build=_build_scale,
    ),
    Workload(
        name="loopback_raw",
        why="2 TCP workers on 127.0.0.1 with the raw codec: framing and "
        "byte-bound broadcast/update traffic; set-up ships store shards",
        rounds=250,
        federations=("uniform",),
        executor="distributed",
        reference=True,
        build=_build_loopback("raw"),
    ),
    Workload(
        name="loopback_delta",
        why="same transport and scenario as loopback_raw with the delta "
        "codec: CPU-bound ULP-delta+zlib instead of byte-bound memcpy",
        rounds=100,
        federations=("uniform",),
        executor="distributed",
        reference=True,
        build=_build_loopback("delta"),
    ),
]

BY_NAME = {w.name: w for w in WORKLOADS}
