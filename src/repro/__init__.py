"""repro -- a reproduction of *TiFL: A Tier-based Federated Learning System*
(Chai et al., HPDC 2020).

The package is layered bottom-up (see DESIGN.md):

* :mod:`repro.nn` -- numpy neural-network substrate (layers, optimizers,
  the paper's model architectures),
* :mod:`repro.data` -- synthetic datasets and federated partitioners
  (IID, non-IID(k), shards, quantity skew, LEAF-style FEMNIST),
* :mod:`repro.simcluster` -- the simulated heterogeneous testbed
  (CPU-fraction resources, latency/communication models, clients),
* :mod:`repro.fl` -- conventional FedAvg federated learning (Alg. 1),
  baselines, and differential-privacy bookkeeping,
* :mod:`repro.tifl` -- TiFL itself: profiling, tiering, static policies
  (Table 1), adaptive tier selection (Alg. 2), the Eq. 6 estimator,
* :mod:`repro.experiments` -- scenario builders and runners that
  regenerate every table and figure of the paper,
* :mod:`repro.distributed` -- multi-node client execution over TCP
  behind the same executor contract (coordinator + worker agents).

Quickstart::

    from repro.experiments import ScenarioConfig, run_policy

    cfg = ScenarioConfig(dataset="cifar10", resource_profile="heterogeneous")
    result = run_policy(cfg, policy="uniform", rounds=50, seed=7)
    print(result.history.summary())
"""

from repro.config import (
    PAPER_FEMNIST_TRAINING,
    PAPER_SYNTHETIC_TRAINING,
    TrainingConfig,
)
from repro.execution import (
    ClientExecutor,
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)
from repro.fl import FLServer, RandomSelector, TrainingHistory, fedavg
from repro.tifl import (
    AdaptiveTierPolicy,
    StaticTierPolicy,
    TiFLServer,
    build_tiers,
    estimate_training_time,
    mape,
    profile_clients,
)

__version__ = "1.0.0"

_LAZY_DISTRIBUTED = ("DistributedExecutor", "WorkerAgent")


def __getattr__(name: str):
    # The networking stack loads only when actually asked for, so plain
    # `import repro` stays cheap for in-process users (the same reason
    # repro.execution.create_executor imports the backend lazily, and
    # repro.tifl.planner imports scipy inside the functions that solve).
    # tests/test_import_set.py holds both.
    if name in _LAZY_DISTRIBUTED:
        import repro.distributed

        return getattr(repro.distributed, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "TrainingConfig",
    "PAPER_SYNTHETIC_TRAINING",
    "PAPER_FEMNIST_TRAINING",
    "ClientExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "DistributedExecutor",
    "WorkerAgent",
    "create_executor",
    "fedavg",
    "FLServer",
    "RandomSelector",
    "TrainingHistory",
    "TiFLServer",
    "StaticTierPolicy",
    "AdaptiveTierPolicy",
    "profile_clients",
    "build_tiers",
    "estimate_training_time",
    "mape",
    "__version__",
]
