"""``repro.simcluster`` -- the simulated heterogeneous FL testbed.

The paper deploys 50 clients on a CPU cluster, pinning 4/2/1/0.5/0.1 CPUs
to client groups to create resource heterogeneity; round latency is then
the max over the selected clients (paper Eq. 1).  This subpackage replaces
the physical cluster with a calibrated latency simulator:

* :mod:`resources` -- CPU-fraction specs and group assignment,
* :mod:`latency` -- compute-latency model (linear in samples, inverse in
  CPU fraction, log-normal noise),
* :mod:`network` -- weight-transfer communication model,
* :mod:`clock` -- the simulated wall clock,
* :mod:`client` -- :class:`SimClient`: local data + real numpy training +
  simulated response latency,
* :mod:`population` -- :class:`PopulationStore`: the canonical population
  container -- columnar (structure-of-arrays) client metadata with lazy,
  LRU-bounded :class:`SimClient` materialisation for million-client runs,
* :mod:`faults` -- dropout / slowdown injection for robustness tests.

Training *accuracy* is real (actual gradient descent on the local data);
only the *passage of time* is simulated.
"""

from repro.simcluster.client import ClientUpdate, SimClient
from repro.simcluster.clock import SimulatedClock
from repro.simcluster.faults import DropoutInjector, FaultInjector, SlowdownInjector
from repro.simcluster.latency import LatencyModel
from repro.simcluster.network import CommModel
from repro.simcluster.population import (
    DiurnalSchedule,
    PopulationStore,
    SeedAddress,
)
from repro.simcluster.resources import (
    CIFAR_CPU_GROUPS,
    CASE_STUDY_CPU_GROUPS,
    MNIST_CPU_GROUPS,
    ResourceSpec,
    assign_resource_groups,
)

__all__ = [
    "ResourceSpec",
    "assign_resource_groups",
    "MNIST_CPU_GROUPS",
    "CIFAR_CPU_GROUPS",
    "CASE_STUDY_CPU_GROUPS",
    "LatencyModel",
    "CommModel",
    "SimulatedClock",
    "SimClient",
    "ClientUpdate",
    "PopulationStore",
    "DiurnalSchedule",
    "SeedAddress",
    "FaultInjector",
    "DropoutInjector",
    "SlowdownInjector",
]
