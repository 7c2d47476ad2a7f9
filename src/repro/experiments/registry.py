"""Registry of the reproduction experiments E1–E9, one per checked claim.

Each experiment is a callable that takes a *scale* ("smoke", "default",
"full") and a seed, runs the corresponding measurement, and returns an
:class:`ExperimentReport` containing printable rows, an optional growth-law
fit, the paper claim it checks, and the claim-vs-measured verdict.  The
benchmarks under ``benchmarks/`` and the CLI (``repro-mis experiment E1``)
both dispatch through this registry, so the paper-facing artefacts are
regenerated from exactly one code path.

The sweep-backed experiments, :data:`SWEEP_EXPERIMENTS` (E1–E5, E9),
run one grid each through :func:`_sweep` and also accept the execution
keywords ``backend`` (a backend object, which carries the worker count
— the CLI builds it from ``--jobs``/``--backend``/``--scheduler``/
``--workers``, so a full-scale E9 grid can run large-first over socket
workers on other hosts), ``store``/``resume`` (a
:class:`~repro.experiments.store.ResultStore` that persists every task
result as it completes and lets an interrupted ``full``-scale grid
continue instead of restarting) and ``progress``.  E6–E8 run in-process
and take only the scale and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    TYPE_CHECKING)

from repro.core.virtual_tree import communication_set, figure_example
from repro.errors import ConfigurationError
from repro.experiments.executor import ProgressCallback
from repro.graphs.generators import gnp_graph
from repro.rng import SeedLike

# The sweep, table and analysis layers are imported where an experiment
# runs: the CLI imports this module to build its parser, and a worker
# started through the CLI never runs an experiment.
if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.backends import Backend
    from repro.experiments.store import ResultStore
    from repro.experiments.sweeps import SweepResult

#: Sweep sizes per scale level.  "smoke" keeps CI fast; "full" reaches the
#: largest sizes, where growth-law fits separate log log n from log n best.
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


#: Experiment runners take (scale, seed); the sweep-backed ones also take
#: the execution keywords of :func:`_sweep`.
ExperimentRunner = Callable[..., ExperimentReport]

#: The experiments that run a sweep grid; only these take the execution
#: keywords (store, resume, backend, progress).
SWEEP_EXPERIMENTS = frozenset({"E1", "E2", "E3", "E4", "E5", "E9"})

#: The growth laws ``fit_report`` can pick that count as near-flat (it
#: picks among these and ``n``).
_FLAT = ("constant", "loglog(n)", "log(n)")


def _sweep(scale: str, seed: SeedLike, algorithms: List[str],
           families: Sequence[str], sizes: Dict[str, List[int]] = SCALE_SIZES,
           **execution: Any) -> "SweepResult":
    """Run one experiment grid at *scale*, keeping aggregates only.

    *execution* (store, resume, backend, progress) goes to
    :func:`~repro.experiments.sweeps.run_sweep` unchanged.
    """
    from repro.experiments.sweeps import run_sweep

    return run_sweep(algorithms=algorithms, sizes=sizes[scale],
                     families=families, repetitions=SCALE_REPETITIONS[scale],
                     seed=seed, keep_runs=False, **execution)


def _scaling_report(experiment_id: str, title: str, claim: str,
                    sweep: "SweepResult", metric: str = "awake_max",
                    laws: Optional[Dict[str, Sequence[str]]] = None,
                    notes: str = "") -> ExperimentReport:
    """Rows and *metric* fits of *sweep*, judged against *laws*.

    Every run must verify.  *laws* maps an algorithm to the growth laws
    its best fits may take; they are judged only on grids of at least
    three sizes, where a fit can tell the laws apart.
    """
    fits = sweep.fits(metric)
    passed = sweep.all_verified
    if laws and len({cell.n for cell in sweep.cells}) >= 3:
        passed = passed and all(fit["best_law"] in laws[fit["algorithm"]]
                                for fit in fits if fit["algorithm"] in laws)
    return ExperimentReport(experiment_id=experiment_id, title=title,
                            paper_claim=claim, rows=sweep.rows(), fits=fits,
                            passed=passed, notes=notes)


# --------------------------------------------------------------------------- #
# E1 / E2 / E3: Awake-MIS scaling and comparison
# --------------------------------------------------------------------------- #
def experiment_e1(scale: str = "default", seed: SeedLike = 1,
                  **execution: Any) -> ExperimentReport:
    """Corollary 14: Awake-MIS awake complexity grows ~ log log n * log* n."""
    return _scaling_report(
        "E1",
        "Awake-MIS awake complexity scaling",
        "Corollary 14: O(log log n * log* n) awake complexity, near-flat "
        "growth in n (log* n <= 5 at every simulable size)",
        _sweep(scale, seed, ["awake_mis"], ("gnp", "rgg"), **execution),
        laws={"awake_mis": _FLAT},
    )


def experiment_e2(scale: str = "default", seed: SeedLike = 2,
                  **execution: Any) -> ExperimentReport:
    """Theorem 13 comparison: Awake-MIS vs Luby / rank-greedy baselines."""
    return _scaling_report(
        "E2",
        "Awake / round complexity: Awake-MIS vs O(log n) baselines",
        "Awake-MIS awake complexity grows ~ log log n while Luby-style "
        "baselines grow ~ log n; baselines win on round complexity",
        _sweep(scale, seed, ["awake_mis", "luby", "rank_greedy"], ("gnp",),
               **execution),
        notes="Absolute awake constants of Awake-MIS are dominated by the LDT "
              "construction; the claim under test is the growth shape, not "
              "the crossover point.",
    )


def experiment_e3(scale: str = "default", seed: SeedLike = 3,
                  **execution: Any) -> ExperimentReport:
    """Corollary 14: every Awake-MIS run ends within its schedule."""
    return round_bound_report(
        _sweep(scale, seed, ["awake_mis"], ("gnp",), **execution))


def round_bound_report(sweep: "SweepResult") -> ExperimentReport:
    """E3's verdict on an ``awake_mis`` sweep: the round bound.

    Every cell's largest ``round_complexity`` must be at most
    ``AwakeMISParameters.scaled(n).total_rounds`` (``batch_count x
    phase_length``), a deterministic bound; each violation is named in
    the notes.  The ``awake_max`` fits are reported, not judged.
    """
    from repro.algorithms.awake_mis import AwakeMISParameters

    rows, violations = [], []
    for cell in sorted(sweep.cells, key=lambda c: (c.algorithm, c.family,
                                                   c.n)):
        measured = int(cell.rounds.maximum)
        bound = AwakeMISParameters.scaled(cell.n).total_rounds
        rows.append({**cell.row(), "rounds_max": measured,
                     "round_bound": bound})
        if measured > bound:
            violations.append(
                f"round bound exceeded: n={cell.n} family={cell.family} "
                f"rounds_max={measured} > round_bound={bound}")
    return ExperimentReport(
        experiment_id="E3",
        title="Awake-MIS round complexity within its schedule (Corollary 14)",
        paper_claim="Corollary 14: the round complexity is at most the "
                    "schedule length batch_count * phase_length",
        rows=rows,
        fits=sweep.fits("awake_max"),
        passed=sweep.all_verified and not violations,
        notes="; ".join(violations),
    )


# --------------------------------------------------------------------------- #
# E4 / E5: the auxiliary MIS algorithms
# --------------------------------------------------------------------------- #
def experiment_e4(scale: str = "default", seed: SeedLike = 4,
                  **execution: Any) -> ExperimentReport:
    """Lemma 10: VT-MIS has O(log I) awake vs the naive O(I)."""
    return _scaling_report(
        "E4",
        "VT-MIS vs the naive distributed greedy",
        "Lemma 10: VT-MIS awake complexity O(log I) (vs Theta(I) naive), "
        "round complexity O(I) for both",
        _sweep(scale, seed, ["vt_mis", "naive_greedy"], ("gnp", "path"),
               **execution),
        laws={"vt_mis": _FLAT, "naive_greedy": ("n",)},
    )


def experiment_e5(scale: str = "default", seed: SeedLike = 5,
                  **execution: Any) -> ExperimentReport:
    """Lemma 11 / Corollary 12: LDT-MIS awake complexity on small components."""
    return _scaling_report(
        "E5",
        "LDT-MIS awake complexity",
        "Lemma 11 / Corollary 12: awake complexity polylogarithmic in the "
        "component size (plus the permutation-broadcast term)",
        _sweep(scale, seed, ["ldt_mis"], ("gnp", "tree"), **execution),
    )


# --------------------------------------------------------------------------- #
# E6 / E7: probabilistic lemmas
# --------------------------------------------------------------------------- #
def experiment_e6(scale: str = "default",
                  seed: SeedLike = 6) -> ExperimentReport:
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


def experiment_e7(scale: str = "default",
                  seed: SeedLike = 7) -> ExperimentReport:
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
def experiment_e8(scale: str = "default",
                  seed: SeedLike = 8) -> ExperimentReport:
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
                  **execution: Any) -> ExperimentReport:
    """Node-averaged awake complexity: Awake-MIS vs Luby at larger n.

    Chatterjee, Gmyr and Pandurangan measure *node-averaged* awake
    complexity and show O(1) is achievable for it; the paper's worst-case
    O(log log n) bound dominates the average, so Awake-MIS should stay
    near-flat on this measure too.  Luby's average does not track its
    ~log n worst case: a Luby iteration wakes an undecided node twice and
    most nodes decide in their first, so it reads 2.68–2.75 at every n
    (``--scale full --seed 9``), below Awake-MIS's 9.1–10.0.  Ghaffari and
    Portmann (arXiv 2305.06120) discuss this measure.  Only Awake-MIS's
    flatness is judged; the grid is the larger :data:`E9_SIZES` that
    ``--jobs`` plus the resumable store make practical.
    """
    return _scaling_report(
        "E9",
        "Node-averaged awake complexity at scale: Awake-MIS vs Luby",
        "Chatterjee-Gmyr-Pandurangan's node-averaged awake measure: "
        "Awake-MIS stays near-flat (worst case O(log log n) bounds the "
        "average); Luby's average stays flat too, and lower (a node wakes "
        "twice per Luby iteration and most decide in their first)",
        _sweep(scale, seed, ["awake_mis", "luby"], ("gnp",), sizes=E9_SIZES,
               **execution),
        metric="avg_awake_mean",
        laws={"awake_mis": _FLAT},
        notes="Node-averaged awake complexity (the CGP measure) is bounded by "
              "the worst-case awake complexity, so the paper's O(log log n) "
              "claim transfers; the interesting comparison is the gap to "
              "Luby's average.",
    )


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
                   store: Optional["ResultStore"] = None,
                   resume: bool = False,
                   backend: Optional["Backend"] = None,
                   progress: Optional[ProgressCallback] = None) -> ExperimentReport:
    """Run one experiment by ID (``E1`` .. ``E9``).

    *seed* ``None`` takes the experiment's own default seed.  The four
    execution arguments go only to :data:`SWEEP_EXPERIMENTS`: *backend*
    says where the grid runs and on how many workers (``None`` is
    in-process; results are identical for every backend: seeds are
    planned up front by the executor), *store*/*resume* persist the grid
    so an interrupted one can be continued, and *progress* fires per
    executed task (the CLI's ``--progress``).  The other experiments run
    in-process and ignore *backend* and *progress*; they have
    no grid to store, so a *store* or *resume* raises
    :class:`~repro.errors.ConfigurationError`.
    """
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment '{experiment_id}'; known: "
                       f"{sorted(EXPERIMENTS)}")
    if scale not in SCALE_SIZES:
        raise KeyError(f"unknown scale '{scale}'")
    args = (scale,) if seed is None else (scale, seed)
    if key in SWEEP_EXPERIMENTS:
        return EXPERIMENTS[key](*args, store=store, resume=resume,
                                backend=backend, progress=progress)
    if store is not None or resume:
        raise ConfigurationError(
            f"{key} runs no sweep, so it has no results store to write or "
            "resume; --output/--resume apply only to the sweep-backed "
            f"experiments {', '.join(sorted(SWEEP_EXPERIMENTS))}")
    return EXPERIMENTS[key](*args)


def available_experiments() -> List[str]:
    """Return the experiment IDs in order."""
    return sorted(EXPERIMENTS)
