"""FedProx baseline (Li et al., discussed in the paper's Related Work).

FedProx modifies FedAvg in two ways:

1. every client minimises the *proximal* local objective
   ``F_c(w) + mu/2 ||w - w_global||^2`` (implemented in
   :func:`repro.nn.losses.proximal_penalty` and threaded through
   :meth:`Sequential.train_step`), and
2. stragglers submit *partial work* -- fewer local epochs -- instead of
   being dropped.

The paper criticises (2) for introducing bias on heavily heterogeneous
populations; having the baseline available lets users reproduce that
comparison.  :func:`make_fedprox_server` wires both pieces into a standard
:class:`~repro.fl.server.FLServer`.
"""

from __future__ import annotations

from repro.config import TrainingConfig
from repro.data.datasets import Dataset
from repro.fl.selection import ClientSelector
from repro.fl.server import FLServer
from repro.nn.model import Sequential
from repro.rng import RngLike
from repro.simcluster.population import PopulationStore

__all__ = ["make_fedprox_server", "partial_work_epochs"]


def partial_work_epochs(
    clients: PopulationStore,
    num_params: int,
    full_epochs: int,
    straggler_quantile: float = 0.5,
):
    """Build an ``epochs_for`` callable implementing FedProx partial work.

    Clients whose *expected* response latency is above the
    ``straggler_quantile`` of the pool run a single local epoch; the rest
    run ``full_epochs``.  (With the paper's 1-epoch default this is a
    no-op -- partial work only matters for multi-epoch configurations.)
    """
    if not 0.0 < straggler_quantile < 1.0:
        raise ValueError(
            f"straggler_quantile must be in (0, 1), got {straggler_quantile}"
        )
    if full_epochs <= 0:
        raise ValueError(f"full_epochs must be positive, got {full_epochs}")
    import numpy as np

    # A small-N baseline: walking the store materialises every client.
    means = {
        cid: clients[cid].mean_response_latency(num_params, epochs=full_epochs)
        for cid in clients
    }
    threshold = float(np.quantile(list(means.values()), straggler_quantile))

    def epochs_for(client_id: int, round_idx: int) -> int:
        return 1 if means.get(client_id, 0.0) > threshold else full_epochs

    return epochs_for


def make_fedprox_server(
    clients: PopulationStore,
    model: Sequential,
    selector: ClientSelector,
    test_data: Dataset,
    training: TrainingConfig,
    mu: float = 0.01,
    partial_work: bool = True,
    straggler_quantile: float = 0.5,
    rng: RngLike = None,
    **server_kwargs,
) -> FLServer:
    """Construct an :class:`FLServer` configured as FedProx."""
    if mu < 0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    prox_training = training.with_(prox_mu=mu)
    epochs_for = None
    if partial_work and training.epochs > 1:
        epochs_for = partial_work_epochs(
            clients, model.num_params(), training.epochs, straggler_quantile
        )
    return FLServer(
        clients=clients,
        model=model,
        selector=selector,
        test_data=test_data,
        training=prox_training,
        epochs_for=epochs_for,
        rng=rng,
        **server_kwargs,
    )
