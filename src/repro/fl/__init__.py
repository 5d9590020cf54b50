"""``repro.fl`` -- the conventional federated-learning substrate.

Implements the "vanilla" cross-device FL system the paper builds on and
compares against (Alg. 1 / Bonawitz et al.'s architecture): weighted
FedAvg aggregation (optionally behind secure-aggregation masks), random
client selection, the synchronous round loop, training history, baseline
straggler mitigations (over-selection with discard; FedProx through
``TrainingConfig.prox_mu``), and the Section 4.6 differential-privacy
bookkeeping.
"""

from repro.fl.aggregator import fedavg
from repro.fl.async_server import AsyncFLServer, polynomial_staleness_discount
from repro.fl.engine import RoundContext
from repro.fl.secure_agg import PairwiseMasker, SecureAggregator
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.privacy import (
    PrivacyGuarantee,
    amplify_by_sampling,
    tier_sampling_rates,
    tiered_guarantee,
    uniform_guarantee,
)
from repro.fl.selection import (
    ClientSelector,
    OverSelector,
    RandomSelector,
    SelectionPlan,
)
from repro.fl.server import FLServer

__all__ = [
    "fedavg",
    "ClientSelector",
    "RandomSelector",
    "OverSelector",
    "SelectionPlan",
    "FLServer",
    "RoundContext",
    "RoundRecord",
    "TrainingHistory",
    "PrivacyGuarantee",
    "amplify_by_sampling",
    "uniform_guarantee",
    "tier_sampling_rates",
    "tiered_guarantee",
    "SecureAggregator",
    "PairwiseMasker",
    "AsyncFLServer",
    "polynomial_staleness_discount",
]
