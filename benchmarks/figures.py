"""TiFL's evaluation as one registry of frozen figure entries.

Each :class:`Figure` is one result shape the paper reports (Fig. 1's case
study, Figs. 3-9, Table 2's Eq. 6 check, four ablations): its claim in one
sentence, its runs, its rendering and the assertions that check it.
:func:`run_figure` runs one, writes its artifact with
:func:`~repro.experiments.save_artifact` and checks it; ``bench_paper.py``
calls it once per entry.  Every federation is synthetic and scaled 1:10
from the paper, so each assertion is a *shape* (an ordering or a ratio),
not the paper's absolute number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Optional, Tuple

import numpy as np

from repro.config import PAPER_SYNTHETIC_TRAINING, TrainingConfig
from repro.experiments import save_artifact
from repro.experiments.analysis import auc_accuracy_over_time, rounds_to_accuracy
from repro.experiments.analysis import selection_fairness, tier_utilisation, time_to_accuracy
from repro.experiments.figures import accuracy_curves, accuracy_time_curves, mean_curves, time_bars
from repro.experiments.runner import ExperimentResult, run_policies, run_policy
from repro.experiments.scenarios import ScenarioConfig, build_leaf_scenario, build_scenario
from repro.experiments.tables import format_table, series_preview, speedup_table
from repro.fl.async_server import AsyncFLServer
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.rng import derive
from repro.simcluster import CASE_STUDY_CPU_GROUPS, LatencyModel, ResourceSpec
from repro.simcluster.faults import SlowdownInjector
from repro.tifl.estimator import estimate_training_time, mape
from repro.tifl.server import TiFLServer


@dataclass(frozen=True)
class Run:
    """One :func:`~repro.experiments.run_policy` call; the fields are its
    parameters, ``server_kwargs`` as ``(name, value)`` pairs."""

    cfg: ScenarioConfig
    policy: str
    rounds: int
    seed: int
    eval_every: int = 1
    num_tiers: int = 5
    adaptive_interval: int = 10
    server_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __call__(self) -> ExperimentResult:
        return run_policy(**{**vars(self), "server_kwargs": dict(self.server_kwargs)})


@dataclass(frozen=True)
class Figure:
    """One paper claim.  ``cells`` are ``(key, Run)`` pairs; ``run``, a
    plain function, replaces them for an entry that is no ``run_policy``
    grid.  ``render`` and ``check`` take what the runs returned."""

    name: str
    artifact: str
    claim: str
    render: Callable[[Any], str]
    check: Callable[[Any], None]
    cells: Tuple[Tuple[Hashable, Run], ...] = ()
    run: Optional[Callable[[], Any]] = None


def run_figure(figure: Figure) -> None:
    """Run ``figure``, save its artifact, then assert its claims."""
    if figure.run is not None:
        results = figure.run()
    else:
        results = {key: run() for key, run in figure.cells}
    save_artifact(figure.artifact, figure.render(results))
    figure.check(results)


# -- the federations ------------------------------------------------------
STATIC = ("vanilla", "slow", "uniform", "random", "fast")
#: CIFAR10-like, 50 clients, |C| = 5, the paper's five CPU groups (4 down
#: to 0.1 CPUs), IID.
CIFAR = ScenarioConfig(
    dataset="cifar10", num_clients=50, clients_per_round=5, train_size=2500, test_size=400
)
#: The compute/overhead ratio widened so the CPU spread dominates round
#: time, as on the paper's testbed.
HETEROGENEOUS = replace(CIFAR, difficulty=0.7, base_overhead=0.1, cost_per_sample=0.02)
#: 2 CPUs per client: the data-heterogeneity studies.
HOMOGENEOUS = replace(CIFAR, resource_profile="homogeneous", difficulty=0.7)
#: The ablations' federation.
ABLATION = replace(CIFAR, test_size=300, base_overhead=0.1, cost_per_sample=0.02)


def noniid(cfg: ScenarioConfig, classes: Optional[int]) -> ScenarioConfig:
    """``cfg`` with ``classes`` classes per client (``None``: IID)."""
    if classes is None:
        return replace(cfg, data_distribution="iid")
    return replace(cfg, data_distribution="noniid", noniid_classes=classes)


def accuracy_lines(results, width: int = 8) -> list:
    """One preview of accuracy over rounds per run in ``results``."""
    return [
        series_preview(rr, aa, label=f"{name:{width}s}")
        for name, (rr, aa) in accuracy_curves(results).items()
    ]


def time_and_accuracy(results, time_title: str, accuracy_title: str) -> list:
    """The time-bar table, then accuracy over rounds (Figs. 3, 5, 6, 9)."""
    times = speedup_table(time_bars(results), title=time_title)
    return [times, "", accuracy_title, *accuracy_lines(results), ""]


def served(scn) -> dict:
    """The server arguments a hand-built server takes from ``scn``."""
    return dict(clients=scn.clients, model=scn.model, test_data=scn.test_data)


# -- Fig. 1: the Sec. 3.3 case study --------------------------------------
#: Paper data sizes 500..5000, scaled 1:10.
DATA_SIZES = (50, 100, 200, 500)


def fig1a_grid():
    """Mean per-round training time for every (CPU group, data size) cell."""
    model = LatencyModel(cost_per_sample=0.01, base_overhead=0.2, noise_sigma=0.05)
    rng = np.random.default_rng(7)
    grid = {}
    for cpu in CASE_STUDY_CPU_GROUPS:
        spec = ResourceSpec(cpu_fraction=cpu)
        for n in DATA_SIZES:
            draws = [model.sample_compute(n, spec, rng=rng) for _ in range(40)]
            grid[(cpu, n)] = float(np.mean(draws))
    return grid


def fig1a_render(grid) -> str:
    rows = [
        [f"{cpu:.2f}"] + [grid[(cpu, n)] for n in DATA_SIZES] for cpu in CASE_STUDY_CPU_GROUPS
    ]
    headers = ["CPU"] + [f"{n} points" for n in DATA_SIZES]
    return format_table(headers, rows, title="Fig 1(a): avg training time per round [s]")


def fig1a_check(grid) -> None:
    # near-linear growth in data size (x10 data => ~x10 compute-dominated time)
    for cpu in CASE_STUDY_CPU_GROUPS:
        times = [grid[(cpu, n)] for n in DATA_SIZES]
        assert all(b > a for a, b in zip(times, times[1:]))
    # inverse scaling in CPU at fixed data
    for n in DATA_SIZES:
        col = [grid[(cpu, n)] for cpu in CASE_STUDY_CPU_GROUPS]
        assert all(b > a for a, b in zip(col, col[1:]))
    # the largest-data / weakest-CPU cell dominated by compute: ratio check
    assert grid[(0.2, 500)] / grid[(4.0, 500)] > 8.0


def fig1b_render(curves) -> str:
    lines = ["Fig 1(b): vanilla FL accuracy under non-IID class skew"]
    lines += accuracy_lines(curves, width=12)
    lines.append("")
    finals = [[name, r.final_accuracy] for name, r in curves.items()]
    lines.append(format_table(["distribution", "final accuracy"], finals))
    return "\n".join(lines)


def fig1b_check(curves) -> None:
    finals = {name: r.final_accuracy for name, r in curves.items()}
    # monotone degradation with stronger non-IID skew (paper: -6%/-8%/-18%)
    assert finals["IID"] >= finals["non-IID(5)"]
    assert finals["non-IID(10)"] >= finals["non-IID(2)"]
    assert finals["non-IID(5)"] >= finals["non-IID(2)"]
    assert finals["IID"] - finals["non-IID(2)"] > 0.03


# -- Figs. 3 and 6: every static policy on CIFAR10 -------------------------
def policy_columns(results, title: str) -> str:
    """Panels (a)-(f): time bars, accuracy over rounds and over time."""
    lines = time_and_accuracy(
        results, f"{title}: training time for 80 rounds", f"{title}: accuracy over rounds"
    )
    lines.append(f"{title}: accuracy over wall-clock time")
    for p, (tt, aa) in accuracy_time_curves(results).items():
        lines.append(series_preview(tt, aa, label=f"{p:8s}"))
    lines.append("")
    # panels (e)/(f) as time-to-accuracy, for a target every policy reaches
    target = 0.9 * min(r.final_accuracy for r in results.values())
    headers = ["policy", "final accuracy", f"rounds to {target:.3f}", f"time to {target:.3f} [s]"]
    rows = []
    for p, r in results.items():
        h = r.history
        row = [p, r.final_accuracy, rounds_to_accuracy(h, target), time_to_accuracy(h, target)]
        rows.append(row)
    lines.append(format_table(headers, rows))
    return "\n".join(lines)


def fig3_resource_check(results) -> None:
    times = time_bars(results)
    # panel (a): strict time ordering
    assert times["fast"] < times["random"] < times["uniform"] < times["vanilla"]
    assert times["vanilla"] < times["slow"]
    # paper: fast ~11x over vanilla; order statistics (E[max of 5] vs mean)
    # bound uniform's speedup at ~3.4x; Table 2 gives slow/uniform = 3.56
    assert times["vanilla"] / times["fast"] > 8.0
    assert times["vanilla"] / times["uniform"] > 2.0
    assert times["slow"] / times["uniform"] > 2.5  # Table 2 analogue: 3.56
    # panel (c): with IID data the accuracy gap across policies stays small
    accs = [r.final_accuracy for r in results.values()]
    assert max(accs) - min(accs) < 0.15
    # panel (e): under a tight wall-clock budget TiFL reaches higher accuracy
    budget = times["fast"] * 1.5
    assert results["fast"].history.accuracy_at_time(budget) >= (
        results["vanilla"].history.accuracy_at_time(budget)
    )
    # ... because it fits several times more rounds into that budget
    assert results["fast"].history.rounds_within_time(budget) > 2 * (
        results["vanilla"].history.rounds_within_time(budget)
    )


def fig3_quantity_check(results) -> None:
    times = time_bars(results)
    # quantity skew alone creates the straggler effect (paper: ~3x speedup)
    assert times["fast"] < times["uniform"] < times["slow"]
    assert times["slow"] / times["fast"] > 1.8
    assert times["vanilla"] / times["fast"] > 1.5
    # panel (d): fast trains on 10% of the data and visibly loses accuracy
    assert results["fast"].final_accuracy < results["uniform"].final_accuracy
    # slow holds 30% of the data: decent accuracy despite worst time (paper)
    assert results["slow"].final_accuracy > results["fast"].final_accuracy


def fig6_noniid_check(results) -> None:
    times = time_bars(results)
    # timing mirrors the resource-heterogeneity-only case (paper)
    assert times["fast"] < times["random"] < times["uniform"] < times["vanilla"]
    assert times["vanilla"] < times["slow"]
    assert times["vanilla"] / times["fast"] > 8.0
    # equal quantities: tier bias costs some accuracy but not a collapse
    assert results["uniform"].final_accuracy > results["fast"].final_accuracy - 0.10


def fig6_combined_check(results) -> None:
    times = time_bars(results)
    # timing unchanged: TiFL corrects the data-amount effect too (paper)
    assert times["fast"] < times["uniform"] < times["slow"]
    # accuracy: fast degrades a lot more -- quantity skew amplifies the
    # class bias (paper Sec. 5.2.4); uniform is the best static policy
    assert results["fast"].final_accuracy < results["uniform"].final_accuracy
    assert (
        results["uniform"].final_accuracy
        >= max(results["fast"], results["slow"], key=lambda r: r.final_accuracy).final_accuracy
        - 0.05
    )
    # uniform tracks vanilla closely (both unbiased)
    assert abs(results["uniform"].final_accuracy - results["vanilla"].final_accuracy) < 0.12


# -- Fig. 4: every static policy across non-IID levels ---------------------
LEVELS = {"IID": None, "non-IID(10)": 10, "non-IID(5)": 5, "non-IID(2)": 2}


def fig4_render(results) -> str:
    rows = [[p] + [results[(p, d)].final_accuracy for d in LEVELS] for p in STATIC]
    title = "Fig 4: final accuracy after 60 rounds, fixed 2-CPU clients"
    return format_table(["policy"] + list(LEVELS), rows, title=title)


def fig4_check(results) -> None:
    table = {key: r.final_accuracy for key, r in results.items()}
    for policy in STATIC:
        # stronger non-IID skew hurts every policy (allow tiny crossings
        # between adjacent levels, but the end-to-end gap must be clear)
        assert table[(policy, "IID")] > table[(policy, "non-IID(2)")], policy
        assert table[(policy, "non-IID(10)")] >= table[(policy, "non-IID(2)")] - 0.02
    # unbiased policies are the most resilient at non-IID(2) (paper text)
    biased_floor = min(table[("fast", "non-IID(2)")], table[("slow", "non-IID(2)")])
    assert table[("uniform", "non-IID(2)")] >= biased_floor - 0.02
    assert table[("vanilla", "non-IID(2)")] >= biased_floor - 0.02


# -- Fig. 5: MNIST / FMNIST and the fast1/fast2/fast3 sweep ---------------
FIG5_POLICIES = ("vanilla", "uniform", "fast1", "fast2", "fast3")


def fig5_render(results, dataset: str) -> str:
    lines = time_and_accuracy(
        results,
        f"Fig 5 ({dataset}): training time for 70 rounds",
        f"Fig 5 ({dataset}): accuracy over rounds",
    )
    # how evenly each policy spreads participation over the pool (Jain's
    # index of every client's selection count; starved clients count as 0)
    rows = [[p, r.final_accuracy, selection_fairness(r.history, 50)] for p, r in results.items()]
    lines.append(format_table(["policy", "final accuracy", "selection fairness"], rows))
    return "\n".join(lines)


def fig5_check(results) -> None:
    times = time_bars(results)
    # the fast sweep monotonically reduces training time ...
    assert times["fast3"] <= times["fast2"] <= times["fast1"] * 1.05
    assert times["fast1"] < times["vanilla"]
    assert times["uniform"] < times["vanilla"]
    # ... while accuracy stays near vanilla for all but fast3
    vanilla_acc = results["vanilla"].final_accuracy
    for p in ("uniform", "fast1", "fast2"):
        assert results[p].final_accuracy > vanilla_acc - 0.12, p
    # fast3 ignores tier 5 entirely: it must not beat the unbiased policies
    assert 4 not in results["fast3"].history.tier_selection_counts()
    assert results["fast3"].final_accuracy <= (
        max(results["uniform"].final_accuracy, vanilla_acc) + 0.02
    )


def fig5(dataset: str) -> Figure:
    quantity = dict(data_distribution="quantity", difficulty=0.55, cost_per_sample=0.01)
    cfg = replace(HETEROGENEOUS, dataset=dataset, **quantity)
    return Figure(
        name=f"fig5_{dataset}",
        artifact=f"fig5_{dataset}",
        claim=f"On {dataset.upper()} with resource and quantity skew, starving the "
        "slowest tier harder (fast1 -> fast3) buys more speedup at little accuracy "
        "cost, except fast3, which never selects tier 5 (Sec. 5.2.4).",
        cells=tuple((p, Run(cfg, p, rounds=70, seed=29)) for p in FIG5_POLICIES),
        render=lambda results: fig5_render(results, dataset),
        check=fig5_check,
    )


# -- Fig. 7: adaptive across the three combined settings ------------------
ADAPTIVE_VS = ("vanilla", "uniform", "adaptive")
CASES = {"Class": "noniid", "Amount": "quantity", "Combine": "quantity_noniid"}


def fig7_render(results) -> str:
    headers = ["case"] + list(ADAPTIVE_VS)
    times = [[c] + [results[(c, p)].total_time for p in ADAPTIVE_VS] for c in CASES]
    accs = [[c] + [results[(c, p)].final_accuracy for p in ADAPTIVE_VS] for c in CASES]
    return "\n\n".join(
        [
            format_table(headers, times, title="Fig 7(a): training time for 80 rounds [s]"),
            format_table(headers, accs, title="Fig 7(b): accuracy at round 80"),
        ]
    )


def fig7_check(results) -> None:
    for case in CASES:
        vanilla = results[(case, "vanilla")]
        uniform = results[(case, "uniform")]
        adaptive = results[(case, "adaptive")]
        # adaptive is much faster than vanilla (paper: ~2x for Combine)
        assert adaptive.total_time < 0.75 * vanilla.total_time, case
        # and lands in uniform's time neighbourhood or better
        assert adaptive.total_time < uniform.total_time * 1.35, case
        # accuracy comparable to the unbiased policies
        assert adaptive.final_accuracy > vanilla.final_accuracy - 0.10, case
        assert adaptive.final_accuracy > uniform.final_accuracy - 0.10, case


# -- Fig. 8: adaptive across non-IID levels, fixed resources --------------
CLASSES = (2, 5, 10)


def fig8_render(results) -> str:
    lines = []
    for k in CLASSES:
        lines.append(f"Fig 8: {k}-class per client, accuracy over rounds")
        lines += accuracy_lines({p: results[(k, p)] for p in ADAPTIVE_VS})
        lines.append("")
    rows = [[f"{k}-class"] + [results[(k, p)].final_accuracy for p in ADAPTIVE_VS] for k in CLASSES]
    title = "Fig 8: final accuracy at round 70"
    lines.append(format_table(["setting"] + list(ADAPTIVE_VS), rows, title=title))
    return "\n".join(lines)


def fig8_check(results) -> None:
    for k in CLASSES:
        best = max(results[(k, p)].final_accuracy for p in ADAPTIVE_VS)
        adaptive = results[(k, "adaptive")].final_accuracy
        # adaptive competitive at every non-IID level (paper: it outperforms
        # vanilla and uniform; here parity-or-better within a tolerance)
        assert adaptive > best - 0.06, f"k={k}"
    # stronger skew degrades every policy
    for p in ADAPTIVE_VS:
        assert results[(10, p)].final_accuracy > results[(2, p)].final_accuracy - 0.02, p


# -- Fig. 9: LEAF / FEMNIST, 182 writer-clients ----------------------------
#: The paper uses SGD(0.004) on the real FEMNIST CNN; the scaled-down
#: linear surrogate needs a proportionally larger step to move at all
#: within the scaled round budget (documented substitution).
FEMNIST_SURROGATE = TrainingConfig(optimizer="sgd", lr=0.5, lr_decay=1.0, batch_size=10)


def fig9_run():
    """Every policy on its own 182-writer build, |C| = 10, 100 rounds."""
    histories = {}
    for policy in ("vanilla", "slow", "uniform", "random", "fast", "adaptive"):
        scn = build_leaf_scenario(
            num_clients=182,
            clients_per_round=10,
            shape=(8, 8, 1),
            sample_scale=0.15,
            base_overhead=0.1,
            cost_per_sample=0.02,
            training=FEMNIST_SURROGATE,
            seed=53,
        )
        if policy == "vanilla":
            selector = RandomSelector(10, rng=derive(53, 1))
            server = FLServer(
                **served(scn), selector=selector, training=scn.training, rng=derive(53, 2)
            )
        else:
            server = TiFLServer(
                **served(scn),
                training=scn.training,
                clients_per_round=10,
                policy=policy,
                num_tiers=5,
                sync_rounds=3,
                total_rounds=100,
                adaptive_interval=10,
                rng=derive(53, 3),
            )
        histories[policy] = server.run(100)
    return histories


def fig9_render(histories) -> str:
    lines = time_and_accuracy(
        histories,
        "Fig 9(a): training time for 100 rounds (182 clients)",
        "Fig 9(b): accuracy over rounds",
    )
    finals = [[p, h.final_accuracy] for p, h in histories.items()]
    lines.append(format_table(["policy", "final accuracy"], finals))
    return "\n".join(lines)


def fig9_check(histories) -> None:
    times = time_bars(histories)
    finals = {p: h.final_accuracy for p, h in histories.items()}
    # (a) fast is the fastest policy; vanilla among the slowest
    assert times["fast"] == min(times.values())
    assert times["fast"] < times["vanilla"] / 3.0
    # adaptive much faster than vanilla (paper: ~7x), faster than uniform
    assert times["adaptive"] < times["vanilla"] / 1.5
    # (b) fast pays an accuracy cost relative to the unbiased policies
    assert finals["fast"] <= max(finals["vanilla"], finals["uniform"]) + 0.01
    # slow holds more data per writer-tier than fast's tier (paper note)
    assert finals["slow"] >= finals["fast"] - 0.05
    # adaptive on par with vanilla / uniform
    assert finals["adaptive"] > min(finals["vanilla"], finals["uniform"]) - 0.08


# -- Table 2: Eq. 6's estimate against the measured time -------------------
TABLE2_POLICIES = ("slow", "uniform", "random", "fast")


def table2_run():
    """Estimated vs measured time per policy, each averaged over 5 seeds
    (the paper averages 5 runs; one run's tier draws would dominate)."""
    cfg = replace(CIFAR, train_size=2000, test_size=200)
    runs = run_policies(cfg, TABLE2_POLICIES, rounds=150, seed=3, repeats=5, eval_every=75)
    out = {}
    for policy, results in runs.items():
        estimates = [estimate_training_time(r.tier_latencies, r.tier_probs, 150) for r in results]
        est = float(np.mean(estimates))
        act = float(np.mean([r.total_time for r in results]))
        _, accs = mean_curves(results)
        out[policy] = (est, act, mape(est, act), float(accs[-1]))
    return out


def table2_render(results) -> str:
    headers = ["policy", "estimated [s]", "actual [s]", "MAPE [%]", "mean final acc"]
    rows = [[policy, *row] for policy, row in results.items()]
    return format_table(headers, rows, title="Table 2: Estimated vs Actual training time")


def table2_check(results) -> None:
    # the paper's MAPE never exceeds ~6%; grant slack for the smaller run
    for policy, (est, act, err, _) in results.items():
        assert err < 12.0, f"{policy}: MAPE {err:.2f}% too high"
    # the estimator must also preserve the policy ordering
    est_order = sorted(TABLE2_POLICIES, key=lambda p: results[p][0])
    act_order = sorted(TABLE2_POLICIES, key=lambda p: results[p][1])
    assert est_order == act_order == ["fast", "random", "uniform", "slow"]


# -- ablations -------------------------------------------------------------
#: The tiering module's knobs vary one ``uniform`` run.
UNIFORM_80 = Run(ABLATION, "uniform", rounds=80, seed=61, eval_every=40)
#: Algorithm 2's knobs run on the hardest (combined) federation.
COMBINED = replace(
    ABLATION, data_distribution="quantity_noniid", noniid_classes=5, difficulty=0.7
)


def credit_render(results) -> str:
    rows = [
        [s, r.total_time, r.final_accuracy, tier_utilisation(r.history, len(r.tier_sizes))[-1]]
        for s, r in results.items()
    ]
    headers = ["credit strategy", "time 80r [s]", "final accuracy", "slowest-tier share"]
    return format_table(headers, rows, title="Ablation: Alg. 2 credit allocation")


def credit_check(results) -> None:
    sw, eq = results["speed_weighted"], results["equal"]
    # speed-weighted credits starve slow tiers harder => faster training
    assert sw.total_time < eq.total_time
    # both remain in a sane accuracy band
    assert abs(sw.final_accuracy - eq.final_accuracy) < 0.2


def interval_render(results) -> str:
    horizon = max(r.total_time for r in results.values())
    rows = [
        [i, r.total_time, r.final_accuracy, auc_accuracy_over_time(r.history, horizon)]
        for i, r in results.items()
    ]
    headers = ["interval I", "time 80r [s]", "final acc", "AUC(t)"]
    return format_table(headers, rows, title="Ablation: Alg. 2 update interval")


def interval_check(results) -> None:
    # every interval must produce a working run in a tight accuracy band
    accs = [r.final_accuracy for r in results.values()]
    assert max(accs) - min(accs) < 0.25
    # and adaptivity should never be catastrophically slow
    times = [r.total_time for r in results.values()]
    assert max(times) / min(times) < 4.0


def baselines_run():
    """The four ``run_policy`` systems, then FedProx and async FedAvg on
    their own server builds; returns ``(histories, async staleness)``."""
    cfg, seed = ABLATION, 71
    out = {
        p: Run(cfg, p, rounds=80, seed=seed)().history
        for p in ("vanilla", "overselect", "uniform", "adaptive")
    }
    # FedProx: vanilla selection + proximal local objective
    scn = build_scenario(cfg, seed=seed)
    selector = RandomSelector(cfg.clients_per_round, rng=derive(seed, 11))
    prox = scn.training.with_(prox_mu=0.01)
    fedprox = FLServer(**served(scn), selector=selector, training=prox, rng=derive(seed, 12))
    out["fedprox"] = fedprox.run(80)
    # Async FedAvg: same pool, |C| concurrent trainers, one "round" per
    # applied update so the round count matches the synchronous budget
    scn = build_scenario(cfg, seed=seed)
    async_server = AsyncFLServer(
        **served(scn),
        concurrency=cfg.clients_per_round,
        training=PAPER_SYNTHETIC_TRAINING,
        rng=derive(seed, 13),
    )
    out["async"] = async_server.run(80)
    return out, async_server.mean_staleness()


def baselines_render(results) -> str:
    histories, staleness = results
    horizon = max(h.total_time for h in histories.values())
    rows = [
        [name, h.total_time, h.final_accuracy, auc_accuracy_over_time(h, horizon)]
        for name, h in histories.items()
    ]
    text = format_table(
        ["system", "time for 80 rounds/updates [s]", "final acc", "AUC(t)"],
        rows,
        title="Ablation: TiFL vs straggler-mitigation baselines",
    )
    return text + f"\nasync mean staleness: {staleness:.2f} updates"


def baselines_check(results) -> None:
    histories, staleness = results
    t = {name: h.total_time for name, h in histories.items()}
    # over-selection helps over vanilla by clipping the slow tail ...
    assert t["overselect"] < t["vanilla"]
    # ... and is comparable to uniform tiering (uniform deliberately spends
    # 1/m of its rounds in the slowest tier), but the adaptive policy's
    # credit-bounded selection is strictly faster -- while over-selection
    # *discards* slow clients' updates every round and adaptive does not
    assert t["uniform"] < t["overselect"] * 1.3
    assert t["adaptive"] < t["overselect"]
    # FedProx keeps vanilla's selection => vanilla-scale round times
    assert t["fedprox"] > t["uniform"]
    # async has no barrier: far less wall-clock than synchronous vanilla
    assert t["async"] < t["vanilla"]
    # ... but staleness means its *accuracy* cannot be assumed superior;
    # the adaptive tier policy stays accuracy-competitive with async
    acc = {name: h.final_accuracy for name, h in histories.items()}
    assert acc["adaptive"] > acc["async"] - 0.10
    assert staleness > 0.0


#: Rounds before / after the drift, and how much the fast tier slows.
PHASE = 40
SLOWDOWN = 20.0


def drift(reprofile: bool):
    """Round time before and after the fast tier slows, and total time."""
    scn = build_scenario(ABLATION, seed=73)
    server = TiFLServer(
        **served(scn),
        clients_per_round=5,
        policy="fast",
        num_tiers=5,
        sync_rounds=3,
        training=scn.training,
        rng=73,
        eval_every=20,
    )
    fast_tier_clients = set(server.assignment.members(0))
    server.run(PHASE)
    pre_drift = float(np.mean(server.history.round_latencies[-10:]))
    # the drift is visible in training rounds and -- via negative round
    # ids -- in any subsequent re-profiling campaign
    server.fault = SlowdownInjector(
        factor=SLOWDOWN, slow_clients=fast_tier_clients, start_round=-(10**9)
    )
    if reprofile:
        server.reprofile()
    server.run(PHASE, start_round=PHASE)
    post_drift = float(np.mean(server.history.round_latencies[-10:]))
    return pre_drift, post_drift, server.history.total_time


def reprofiling_render(results) -> str:
    rows = [[name, pre, post, total] for name, (pre, post, total) in results.items()]
    headers = ["variant", "round time before drift [s]", "round time after drift [s]", "total [s]"]
    title = f"Ablation: {SLOWDOWN:.0f}x drift of the fast tier at round {PHASE} (policy=fast)"
    return format_table(headers, rows, title=title)


def reprofiling_check(results) -> None:
    stale_pre, stale_post, stale_total = results["stale tiering"]
    re_pre, re_post, re_total = results["re-profiled"]
    # both variants start from the same fast-tier round times
    np.testing.assert_allclose(stale_pre, re_pre, rtol=0.3)
    # without re-profiling the fast policy keeps hitting the slowed tier
    assert stale_post > stale_pre * (SLOWDOWN / 3)
    # re-profiling re-tiers the drifted clients: post-drift rounds recover
    # to near the pre-drift level and total time is much lower
    assert re_post < stale_post / 3
    assert re_total < stale_total


def tiering_method_render(results) -> str:
    rows = [
        [method, len(r.tier_sizes), str(r.tier_sizes.tolist()), r.total_time]
        for method, r in results.items()
    ]
    headers = ["split", "realised tiers", "tier sizes", "uniform time 80r [s]"]
    title = "Ablation: equal-frequency vs equal-width tiering"
    return format_table(headers, rows, title=title)


def tiering_method_check(results) -> None:
    # quantile recovers the 5 natural hardware groups; width collapses them
    assert len(results["quantile"].tier_sizes) == 5
    assert len(results["width"].tier_sizes) < 5
    # the collapse costs wall-clock time: coarse tiers mix fast clients
    # with slower ones, so rounds are bounded by slower members
    assert results["quantile"].total_time < results["width"].total_time


def tier_count_render(results) -> str:
    rows = [[m, len(r.tier_sizes), r.total_time, r.final_accuracy] for m, r in results.items()]
    headers = ["requested m", "realised", "uniform time 80r [s]", "accuracy"]
    return format_table(headers, rows, title="Ablation: number of tiers")


def tier_count_check(results) -> None:
    # finer tiering monotonically (weakly) reduces uniform's training time
    # up to the natural 5 hardware groups
    assert results[5].total_time < results[2].total_time
    assert results[3].total_time < results[2].total_time * 1.05
    # beyond the natural group count there is little left to gain
    assert results[10].total_time < results[2].total_time


# -- the registry ----------------------------------------------------------
FIG1B_BASE = replace(HOMOGENEOUS, num_clients=20, train_size=1500)
FIG3_RESOURCE = replace(HETEROGENEOUS, difficulty=0.65)
FIG3_QUANTITY = replace(
    HOMOGENEOUS, data_distribution="quantity", base_overhead=0.1, cost_per_sample=0.02
)

FIGURES: Tuple[Figure, ...] = (
    Figure(
        name="fig1a_training_time_grid",
        artifact="fig1a_case_study",
        claim="Under the case-study CPU allocation (4 down to 1/5 CPU), per-round "
        "training time grows near-linearly with local data and inversely with CPU (Sec. 3.3).",
        run=fig1a_grid,
        render=fig1a_render,
        check=fig1a_check,
    ),
    Figure(
        name="fig1b_noniid_accuracy",
        artifact="fig1b_noniid_accuracy",
        claim="Vanilla FL's accuracy degrades as each client holds fewer classes "
        "(IID, then 10, 5 and 2 classes per client; Sec. 3.3).",
        cells=tuple(
            (name, Run(noniid(FIG1B_BASE, k), "vanilla", rounds=60, seed=7))
            for name, k in LEVELS.items()
        ),
        render=fig1b_render,
        check=fig1b_check,
    ),
    Figure(
        name="fig3_resource_heterogeneity",
        artifact="fig3_col1_resource",
        claim="Under resource heterogeneity training time orders fast < random < uniform "
        "< vanilla < slow, fast ~11x faster than vanilla, at comparable accuracy.",
        cells=tuple((p, Run(FIG3_RESOURCE, p, rounds=80, seed=21)) for p in STATIC),
        render=lambda results: policy_columns(results, "Fig 3 col 1 (resource het)"),
        check=fig3_resource_check,
    ),
    Figure(
        name="fig3_quantity_heterogeneity",
        artifact="fig3_col2_quantity",
        claim="Data-quantity skew alone makes stragglers: fast is about 3x faster "
        "than vanilla but loses accuracy, since tier 1 holds only 10% of the data.",
        cells=tuple((p, Run(FIG3_QUANTITY, p, rounds=80, seed=21)) for p in STATIC),
        render=lambda results: policy_columns(results, "Fig 3 col 2 (quantity het)"),
        check=fig3_quantity_check,
    ),
    Figure(
        name="fig4_noniid_policy_grid",
        artifact="fig4_noniid_policies",
        claim="With fixed resources, stronger class skew costs every static policy "
        "accuracy, and the unbiased ones (vanilla, uniform) hold up best at non-IID(2).",
        cells=tuple(
            ((p, name), Run(noniid(HOMOGENEOUS, k), p, rounds=60, seed=13, eval_every=5))
            for name, k in LEVELS.items()
            for p in STATIC
        ),
        render=fig4_render,
        check=fig4_check,
    ),
    fig5("mnist"),
    fig5("fmnist"),
    Figure(
        name="fig6_resource_noniid",
        artifact="fig6_col1_resource_noniid",
        claim="With resource heterogeneity and non-IID(5) data, the time ordering "
        "of the resource-only case holds and tier bias costs little accuracy.",
        cells=tuple(
            (p, Run(noniid(HETEROGENEOUS, 5), p, rounds=80, seed=37)) for p in STATIC
        ),
        render=lambda results: policy_columns(results, "Fig 6 col 1"),
        check=fig6_noniid_check,
    ),
    Figure(
        name="fig6_full_combined",
        artifact="fig6_col2_full_combined",
        claim="Adding quantity skew keeps the time ordering, but fast's accuracy collapses "
        "and uniform is the best static policy, close to vanilla (Sec. 5.2.4).",
        cells=tuple(
            (p, Run(replace(HETEROGENEOUS, data_distribution="quantity_noniid"), p, 80, 37))
            for p in STATIC
        ),
        render=lambda results: policy_columns(results, "Fig 6 col 2"),
        check=fig6_combined_check,
    ),
    Figure(
        name="fig7_adaptive_summary",
        artifact="fig7_adaptive_summary",
        claim="Under class, amount and combined heterogeneity, the adaptive policy "
        "trains far faster than vanilla, near uniform's time, at comparable accuracy.",
        cells=tuple(
            ((case, p), Run(replace(HETEROGENEOUS, data_distribution=dist), p, 80, 41))
            for case, dist in CASES.items()
            for p in ADAPTIVE_VS
        ),
        render=fig7_render,
        check=fig7_check,
    ),
    Figure(
        name="fig8_adaptive_noniid_robustness",
        artifact="fig8_adaptive_noniid",
        claim="With fixed resources, the adaptive policy stays at least as accurate "
        "as vanilla and uniform at every non-IID level (2, 5 and 10 classes).",
        cells=tuple(
            ((k, p), Run(noniid(HOMOGENEOUS, k), p, rounds=70, seed=47))
            for k in CLASSES
            for p in ADAPTIVE_VS
        ),
        render=fig8_render,
        check=fig8_check,
    ),
    Figure(
        name="fig9_leaf_femnist",
        artifact="fig9_leaf_femnist",
        claim="On LEAF FEMNIST (182 writers) fast trains fastest at an accuracy cost, slow "
        "beats it on accuracy, adaptive matches vanilla much faster (Sec. 5.2.6).",
        run=fig9_run,
        render=fig9_render,
        check=fig9_check,
    ),
    Figure(
        name="table2_estimation_accuracy",
        artifact="table2_estimation",
        claim="Eq. 6's estimate of training time is within a few percent of the "
        "measured time for every static policy and keeps their ordering.",
        run=table2_run,
        render=table2_render,
        check=table2_check,
    ),
    Figure(
        name="ablation_credit_strategy",
        artifact="ablation_credit_strategy",
        claim="Speed-weighted credits (Alg. 2) cap slow-tier rounds harder than "
        "equal credits and so train faster, at similar accuracy.",
        cells=tuple(
            (s, Run(COMBINED, "adaptive", 80, 67, server_kwargs=(("credit_strategy", s),)))
            for s in ("speed_weighted", "equal")
        ),
        render=credit_render,
        check=credit_check,
    ),
    Figure(
        name="ablation_adaptive_interval",
        artifact="ablation_adaptive_interval",
        claim="Alg. 2's update interval I (5 to 40 rounds) changes neither "
        "accuracy nor training time drastically.",
        cells=tuple(
            (i, Run(COMBINED, "adaptive", 80, 67, adaptive_interval=i)) for i in (5, 10, 20, 40)
        ),
        render=interval_render,
        check=interval_check,
    ),
    Figure(
        name="ablation_baselines",
        artifact="ablation_baselines",
        claim="Tiering beats Sec. 2's baselines on time: over-selection still waits for a "
        "mixed cohort, FedProx keeps vanilla's round time, async pays in staleness.",
        run=baselines_run,
        render=baselines_render,
        check=baselines_check,
    ),
    Figure(
        name="ablation_reprofiling",
        artifact="ablation_reprofiling",
        claim="Periodic re-profiling moves clients whose performance drifts into "
        "the right tier, so the fast tier recovers (Sec. 4.2).",
        run=lambda: {"stale tiering": drift(False), "re-profiled": drift(True)},
        render=reprofiling_render,
        check=reprofiling_check,
    ),
    Figure(
        name="ablation_tiering_method",
        artifact="ablation_tiering_method",
        claim="Equal-frequency tiering recovers the 5 hardware groups where the "
        "equal-width split collapses them, and so trains faster (Sec. 4.2).",
        cells=tuple(
            (m, replace(UNIFORM_80, server_kwargs=(("tiering_method", m),)))
            for m in ("quantile", "width")
        ),
        render=tiering_method_render,
        check=tiering_method_check,
    ),
    Figure(
        name="ablation_tier_count",
        artifact="ablation_tier_count",
        claim="More tiers (2 up to the 5 hardware groups) shorten uniform's "
        "training time, with little left to gain beyond.",
        cells=tuple((m, replace(UNIFORM_80, num_tiers=m)) for m in (2, 3, 5, 10)),
        render=tier_count_render,
        check=tier_count_check,
    ),
)
