"""Registry of the reproduction experiments E1–E9 (see DESIGN.md §3).

Each experiment is a callable that takes a *scale* ("smoke", "default",
"full") and a seed, runs the corresponding measurement, and returns an
:class:`ExperimentReport` containing printable rows, an optional growth-law
fit, and the claim-vs-measured verdict that EXPERIMENTS.md records.  The
benchmarks under ``benchmarks/`` and the CLI (``repro-mis experiment E1``)
both dispatch through this registry, so the paper-facing artefacts are
regenerated from exactly one code path.

The sweep-backed experiments (E1–E5, E9) accept ``jobs`` (worker
processes), ``backend`` (any scheduler × transport composition — the CLI
builds it from ``--backend``/``--scheduler``/``--workers``, so a
full-scale E9 grid can run large-first over socket workers on other
hosts) and ``store``/``resume`` (a :class:`~repro.experiments.store
.ResultStore` that persists every task result as it completes and lets an
interrupted ``full``-scale grid continue instead of restarting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.core.virtual_tree import communication_set, figure_example
from repro.experiments.executor import BackendLike, ProgressCallback
from repro.graphs.generators import gnp_graph
from repro.rng import SeedLike

# The sweep, table and analysis layers are imported where an experiment
# runs: the CLI imports this module to build its parser, and a worker
# started through the CLI never runs an experiment.
if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.store import ResultStore
    from repro.experiments.sweeps import SweepResult

#: Sweep sizes per scale level.  "smoke" keeps CI fast; "full" is what the
#: recorded EXPERIMENTS.md numbers were produced with.
SCALE_SIZES: Dict[str, List[int]] = {
    "smoke": [32, 64],
    "default": [64, 128, 256],
    "full": [128, 256, 512, 1024],
}
SCALE_REPETITIONS: Dict[str, int] = {"smoke": 1, "default": 2, "full": 3}

#: E9 pushes past the shared scale table: the node-averaged comparison is
#: about where the curves separate, which needs the larger sizes ``--jobs``
#: (and the resumable store) make affordable.
E9_SIZES: Dict[str, List[int]] = {
    "smoke": [32, 64],
    "default": [128, 256, 512],
    "full": [256, 512, 1024, 2048],
}


@dataclass
class ExperimentReport:
    """Output of one registry experiment."""

    experiment_id: str
    title: str
    paper_claim: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    fits: List[Dict[str, Any]] = field(default_factory=list)
    passed: bool = True
    notes: str = ""

    def render(self) -> str:
        """Render the report as printable text."""
        from repro.experiments.tables import format_table

        parts = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper claim : {self.paper_claim}",
            f"status      : {'PASS' if self.passed else 'CHECK'}",
        ]
        if self.notes:
            parts.append(f"notes       : {self.notes}")
        if self.rows:
            parts.append(format_table(self.rows))
        if self.fits:
            parts.append(format_table(self.fits, title="growth-law fits"))
        return "\n".join(parts)


#: Experiment runners take (scale, seed, jobs, store, resume, backend);
#: *jobs*/*backend* control how many workers the underlying sweep uses and
#: on which execution backend, and *store*/*resume* select the on-disk
#: results store (all ignored by the single-process experiments E6-E8).
ExperimentRunner = Callable[..., ExperimentReport]


def _scaling_report(experiment_id: str, title: str, claim: str,
                    sweep: "SweepResult", metric: str,
                    expect_flat: Optional[List[str]] = None) -> ExperimentReport:
    fits = sweep.fits(metric)
    passed = sweep.all_verified
    distinct_sizes = len({cell.n for cell in sweep.cells})
    if expect_flat and distinct_sizes >= 3:
        for fit in fits:
            if fit["algorithm"] in expect_flat and fit["best_law"] in ("n", "log^2(n)"):
                passed = False
    return ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        paper_claim=claim,
        rows=sweep.rows(),
        fits=fits,
        passed=passed,
    )


# --------------------------------------------------------------------------- #
# E1 / E2 / E3: Awake-MIS scaling and comparison
# --------------------------------------------------------------------------- #
def experiment_e1(scale: str = "default", seed: SeedLike = 1,
                  jobs: Optional[int] = 1,
                  store: Optional["ResultStore"] = None,
                  resume: bool = False,
                  backend: "BackendLike" = None,
                  progress: Optional["ProgressCallback"] = None,
                  ) -> ExperimentReport:
    """Theorem 13: awake complexity of Awake-MIS grows ~ log log n."""
    from repro.experiments.sweeps import run_sweep

    sweep = run_sweep(
        algorithms=["awake_mis"],
        sizes=SCALE_SIZES[scale],
        families=("gnp", "rgg"),
        repetitions=SCALE_REPETITIONS[scale],
        seed=seed,
        jobs=jobs,
        keep_runs=False,
        store=store,
        resume=resume,
        backend=backend,
        progress=progress,
    )
    return _scaling_report(
        "E1",
        "Awake-MIS awake complexity scaling",
        "Theorem 13: O(log log n) awake complexity (near-flat growth in n)",
        sweep,
        metric="awake_max",
        expect_flat=["awake_mis"],
    )


def experiment_e2(scale: str = "default", seed: SeedLike = 2,
                  jobs: Optional[int] = 1,
                  store: Optional["ResultStore"] = None,
                  resume: bool = False,
                  backend: "BackendLike" = None,
                  progress: Optional["ProgressCallback"] = None,
                  ) -> ExperimentReport:
    """Theorem 13 comparison: Awake-MIS vs Luby / rank-greedy baselines."""
    from repro.experiments.sweeps import run_sweep

    sweep = run_sweep(
        algorithms=["awake_mis", "luby", "rank_greedy"],
        sizes=SCALE_SIZES[scale],
        families=("gnp",),
        repetitions=SCALE_REPETITIONS[scale],
        seed=seed,
        jobs=jobs,
        keep_runs=False,
        store=store,
        resume=resume,
        backend=backend,
        progress=progress,
    )
    report = _scaling_report(
        "E2",
        "Awake / round complexity: Awake-MIS vs O(log n) baselines",
        "Awake-MIS awake complexity grows ~ log log n while Luby-style "
        "baselines grow ~ log n; baselines win on round complexity",
        sweep,
        metric="awake_max",
    )
    report.notes = (
        "Absolute awake constants of Awake-MIS are dominated by the LDT "
        "construction; the claim under test is the growth shape, not the "
        "crossover point (see EXPERIMENTS.md)."
    )
    return report


def experiment_e3(scale: str = "default", seed: SeedLike = 3,
                  jobs: Optional[int] = 1,
                  store: Optional["ResultStore"] = None,
                  resume: bool = False,
                  backend: "BackendLike" = None,
                  progress: Optional["ProgressCallback"] = None,
                  ) -> ExperimentReport:
    """Corollary 14: the round-efficient variant trades awake for rounds."""
    from repro.experiments.sweeps import run_sweep

    sweep = run_sweep(
        algorithms=["awake_mis"],
        sizes=SCALE_SIZES[scale],
        families=("gnp",),
        repetitions=SCALE_REPETITIONS[scale],
        seed=seed,
        jobs=jobs,
        algorithm_params={"awake_mis": {"variant": "round"}},
        keep_runs=False,
        store=store,
        resume=resume,
        backend=backend,
        progress=progress,
    )
    return _scaling_report(
        "E3",
        "Awake-MIS, round-efficient variant (Corollary 14)",
        "O(log log n * log* n) awake complexity, smaller round complexity",
        sweep,
        metric="awake_max",
        expect_flat=["awake_mis"],
    )


# --------------------------------------------------------------------------- #
# E4 / E5: the auxiliary MIS algorithms
# --------------------------------------------------------------------------- #
def experiment_e4(scale: str = "default", seed: SeedLike = 4,
                  jobs: Optional[int] = 1,
                  store: Optional["ResultStore"] = None,
                  resume: bool = False,
                  backend: "BackendLike" = None,
                  progress: Optional["ProgressCallback"] = None,
                  ) -> ExperimentReport:
    """Lemma 10: VT-MIS has O(log I) awake vs the naive O(I)."""
    from repro.experiments.sweeps import run_sweep

    sweep = run_sweep(
        algorithms=["vt_mis", "naive_greedy"],
        sizes=SCALE_SIZES[scale],
        families=("gnp", "path"),
        repetitions=SCALE_REPETITIONS[scale],
        seed=seed,
        jobs=jobs,
        keep_runs=False,
        store=store,
        resume=resume,
        backend=backend,
        progress=progress,
    )
    report = _scaling_report(
        "E4",
        "VT-MIS vs the naive distributed greedy",
        "Lemma 10: VT-MIS awake complexity O(log I) (vs Theta(I) naive), "
        "round complexity O(I) for both",
        sweep,
        metric="awake_max",
        expect_flat=[],
    )
    # Growth-law classification needs at least three sizes to be meaningful;
    # the smoke scale only checks correctness.
    if len(SCALE_SIZES[scale]) >= 3:
        naive_fits = [f for f in report.fits if f["algorithm"] == "naive_greedy"]
        vt_fits = [f for f in report.fits if f["algorithm"] == "vt_mis"]
        if naive_fits and vt_fits:
            report.passed = report.passed and all(
                f["best_law"] in ("n", "sqrt(n)") for f in naive_fits
            ) and all(f["best_law"] in ("log(n)", "loglog(n)", "constant")
                      for f in vt_fits)
    return report


def experiment_e5(scale: str = "default", seed: SeedLike = 5,
                  jobs: Optional[int] = 1,
                  store: Optional["ResultStore"] = None,
                  resume: bool = False,
                  backend: "BackendLike" = None,
                  progress: Optional["ProgressCallback"] = None,
                  ) -> ExperimentReport:
    """Lemma 11 / Corollary 12: LDT-MIS awake complexity on small components."""
    sizes = SCALE_SIZES[scale]
    from repro.experiments.sweeps import run_sweep

    sweep = run_sweep(
        algorithms=["ldt_mis"],
        sizes=sizes,
        families=("gnp", "tree"),
        repetitions=SCALE_REPETITIONS[scale],
        seed=seed,
        jobs=jobs,
        keep_runs=False,
        store=store,
        resume=resume,
        backend=backend,
        progress=progress,
    )
    return _scaling_report(
        "E5",
        "LDT-MIS awake complexity",
        "Lemma 11 / Corollary 12: awake complexity polylogarithmic in the "
        "component size (plus the permutation-broadcast term)",
        sweep,
        metric="awake_max",
        expect_flat=[],
    )


# --------------------------------------------------------------------------- #
# E6 / E7: probabilistic lemmas
# --------------------------------------------------------------------------- #
def experiment_e6(scale: str = "default", seed: SeedLike = 6,
                  jobs: Optional[int] = 1,
                  store: Optional["ResultStore"] = None,
                  resume: bool = False,
                  backend: "BackendLike" = None,
                  progress: Optional["ProgressCallback"] = None,
                  ) -> ExperimentReport:
    """Lemma 2: residual sparsity of randomized greedy."""
    n = {"smoke": 512, "default": 2048, "full": 4096}[scale]
    from repro.analysis.residual import run_residual_experiment

    graph = gnp_graph(n, expected_degree=16.0, seed=seed)
    result = run_residual_experiment(graph, seed=seed,
                                     trials={"smoke": 1, "default": 3, "full": 5}[scale])
    return ExperimentReport(
        experiment_id="E6",
        title="Residual sparsity of randomized greedy MIS",
        paper_claim="Lemma 2: residual max degree <= (t'/t) ln(n/eps) w.h.p.",
        rows=result.rows(),
        passed=result.all_within_bound,
    )


def experiment_e7(scale: str = "default", seed: SeedLike = 7,
                  jobs: Optional[int] = 1,
                  store: Optional["ResultStore"] = None,
                  resume: bool = False,
                  backend: "BackendLike" = None,
                  progress: Optional["ProgressCallback"] = None,
                  ) -> ExperimentReport:
    """Lemma 3: shattering under a random 2-Delta partition."""
    from repro.analysis.components import run_shattering_experiment

    n = {"smoke": 512, "default": 2048, "full": 4096}[scale]
    result = run_shattering_experiment(
        n=n,
        degrees=(4, 8, 16) if scale == "smoke" else (4, 8, 16, 32),
        trials={"smoke": 2, "default": 5, "full": 8}[scale],
        seed=seed,
    )
    return ExperimentReport(
        experiment_id="E7",
        title="Shattering by random 2*Delta partition",
        paper_claim="Lemma 3: induced components have size <= 6 ln(n/eps) w.h.p.",
        rows=result.rows(),
        passed=result.all_within_bound,
    )


# --------------------------------------------------------------------------- #
# E8: the worked figure
# --------------------------------------------------------------------------- #
def experiment_e8(scale: str = "default", seed: SeedLike = 8,
                  jobs: Optional[int] = 1,
                  store: Optional["ResultStore"] = None,
                  resume: bool = False,
                  backend: "BackendLike" = None,
                  progress: Optional["ProgressCallback"] = None,
                  ) -> ExperimentReport:
    """Figures 1 and 2: the B([1,6]) worked example."""
    example = figure_example()
    expected = {"S_3": [3, 4, 5], "S_5": [5, 6], "common_round_3_5": 5}
    passed = all(example[key] == value for key, value in expected.items())
    rows = [
        {"quantity": "B*([1,6]) labels", "value": example["b_star_labels"],
         "paper": "Figure 1 (right)"},
        {"quantity": "S_3([1,6])", "value": example["S_3"], "paper": "{3, 4, 5}"},
        {"quantity": "S_5([1,6])", "value": example["S_5"], "paper": "{5, 6}"},
        {"quantity": "common round for IDs 3 and 5", "value":
            example["common_round_3_5"], "paper": "5"},
        {"quantity": "max |S_k([1,64])|", "value":
            max(len(communication_set(k, 64)) for k in range(1, 65)),
         "paper": "O(log I) = 7 for I = 64"},
    ]
    return ExperimentReport(
        experiment_id="E8",
        title="Virtual binary tree worked example (Figures 1 and 2)",
        paper_claim="S_3([1,6]) = {3,4,5}, S_5([1,6]) = {5,6}; nodes 3 and 5 "
                    "share awake round 5",
        rows=rows,
        passed=passed,
    )


# --------------------------------------------------------------------------- #
# E9: node-averaged awake complexity at scale
# --------------------------------------------------------------------------- #
def experiment_e9(scale: str = "default", seed: SeedLike = 9,
                  jobs: Optional[int] = 1,
                  store: Optional["ResultStore"] = None,
                  resume: bool = False,
                  backend: "BackendLike" = None,
                  progress: Optional["ProgressCallback"] = None,
                  ) -> ExperimentReport:
    """Node-averaged awake complexity: Awake-MIS vs Luby at larger n.

    Chatterjee, Gmyr and Pandurangan measure *node-averaged* awake
    complexity and show O(1) is achievable for it; the paper's worst-case
    O(log log n) bound dominates the average, so Awake-MIS should stay
    near-flat on this measure too while Luby's average tracks its ~log n
    worst case.  The separation only becomes readable at sizes the serial
    sweep could not afford — this experiment uses the larger
    :data:`E9_SIZES` grid that ``--jobs`` plus the resumable store make
    practical.
    """
    from repro.experiments.sweeps import run_sweep

    sweep = run_sweep(
        algorithms=["awake_mis", "luby"],
        sizes=E9_SIZES[scale],
        families=("gnp",),
        repetitions=SCALE_REPETITIONS[scale],
        seed=seed,
        jobs=jobs,
        keep_runs=False,
        store=store,
        resume=resume,
        backend=backend,
        progress=progress,
    )
    report = _scaling_report(
        "E9",
        "Node-averaged awake complexity at scale: Awake-MIS vs Luby",
        "Chatterjee-Gmyr-Pandurangan's node-averaged awake measure: "
        "Awake-MIS stays near-flat (worst case O(log log n) bounds the "
        "average) while Luby grows with log n",
        sweep,
        metric="avg_awake_mean",
        expect_flat=["awake_mis"],
    )
    report.notes = (
        "Node-averaged awake complexity (the CGP measure) is bounded by the "
        "worst-case awake complexity, so the paper's O(log log n) claim "
        "transfers; the interesting comparison is the gap to Luby's average."
    )
    return report


#: The registry itself.
EXPERIMENTS: Dict[str, ExperimentRunner] = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
}


def run_experiment(experiment_id: str, scale: str = "default",
                   seed: SeedLike = None,
                   jobs: Optional[int] = 1,
                   store: Optional["ResultStore"] = None,
                   resume: bool = False,
                   backend: BackendLike = None,
                   progress: Optional[ProgressCallback] = None) -> ExperimentReport:
    """Run one experiment by ID (``E1`` .. ``E9``).

    *jobs* and *backend* are forwarded to the sweep-backed experiments
    (E1–E5, E9) and select how many workers execute the grid and on which
    execution backend; results are identical for every combination (seeds
    are planned up front by the executor).  *store*/*resume* likewise flow
    to the sweep so interrupted grids can be continued, and *progress*
    fires per executed task (the CLI's ``--progress``); the
    single-process experiments E6–E8 ignore all five.
    """
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment '{experiment_id}'; known: "
                       f"{sorted(EXPERIMENTS)}")
    if scale not in SCALE_SIZES and scale not in ("smoke", "default", "full"):
        raise KeyError(f"unknown scale '{scale}'")
    runner = EXPERIMENTS[key]
    if seed is None:
        return runner(scale, jobs=jobs, store=store, resume=resume,
                      backend=backend, progress=progress)
    return runner(scale, seed, jobs=jobs, store=store, resume=resume,
                  backend=backend, progress=progress)


def available_experiments() -> List[str]:
    """Return the experiment IDs in order."""
    return sorted(EXPERIMENTS)
