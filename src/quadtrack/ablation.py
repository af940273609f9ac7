"""Tracker-weight ablation: one recorded stream per seed, one tracker pass
per distinct tracker config.

For each seed the scenario is simulated once and the sensor stream is kept;
every weight row then tracks that identical stream, so rows differ only in
how the tracker scores candidates.  The live run already tracked the stream
with the scenario's own tracker, so a row with those weights takes the live
run's metrics.  The live run also keeps, for every frame it stepped, each
candidate's three cues and total.  A row's weights change its tracker state
only through its choices: while it accepts the same candidate as the live
tracker, or coasts with it, on every frame, its filter, memory and last box
are the live tracker's, its cues are the recorded ones and its trace differs
only in s_total.  So each other distinct row first reweights the recorded
cues and decides every frame by the tracker's own rule (`choose`); a row
that makes the live choice on every frame takes the live run's metrics, and
only a row that differs on some frame is replayed.  A repeated row reuses
its first copy; a run without metrics fails before any replay, as every
row's replay of the same stream and prompt would.  The optional
parallel path farms seeds out to worker processes and returns results in
seed order, bit-identical to the sequential path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import Scenario
from .errors import ConfigError, MetricsError
from .metrics import Metrics, compute_metrics
from .replay import replay_track
from .simulator import run
from .tracker import TrackerConfig, choose, weighted_total

DEFAULT_GRID = ((3.0, 0.0, 0.0), (3.0, 3.0, 0.0), (3.0, 0.0, 4.0),
                (3.0, 3.0, 4.0))


@dataclass(frozen=True)
class AblationRow:
    weights: tuple
    per_seed: tuple          # Metrics, one per seed

    def mean(self, field: str) -> float:
        vals = [getattr(m, field) for m in self.per_seed]
        return sum(vals) / len(vals)

    @property
    def lock_lost(self) -> float | None:
        vals = [m.lock_lost_at for m in self.per_seed if m.lock_lost_at is not None]
        return sum(vals) / len(vals) if vals else None


@dataclass(frozen=True)
class AblationResult:
    scenario_name: str
    seeds: tuple
    rows: tuple              # AblationRow, grid order

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "seeds": list(self.seeds),
            "rows": [{
                "weights": list(r.weights),
                "mean": {
                    "iou_pct": r.mean("iou_pct"),
                    "overlap_pct": r.mean("overlap_pct"),
                    "tracked_pct": r.mean("tracked_pct"),
                    "lock_lost_at": r.lock_lost,
                },
                "per_seed": [m.as_dict() for m in r.per_seed],
            } for r in self.rows],
        }

    def table(self) -> str:
        head = (f"scenario: {self.scenario_name}   seeds: {len(self.seeds)}\n"
                f"{'w_iou':>6} {'w_ekf':>6} {'w_map':>6} "
                f"{'iou%':>8} {'overlap%':>9} {'tracked%':>9} {'lock_lost':>10}")
        lines = [head]
        for r in self.rows:
            ll = "-" if r.lock_lost is None else f"{r.lock_lost:.2f}"
            lines.append(
                f"{r.weights[0]:>6.0f} {r.weights[1]:>6.0f} {r.weights[2]:>6.0f} "
                f"{r.mean('iou_pct'):>8.1f} {r.mean('overlap_pct'):>9.1f} "
                f"{r.mean('tracked_pct'):>9.1f} {ll:>10}")
        return "\n".join(lines) + "\n"


def _index(choice) -> int | None:
    return None if choice is None else choice[0]


def _makes_live_choices(frame_scores: list, live_s_min: float,
                        cfg: TrackerConfig) -> bool:
    """Whether a tracker built as `cfg` accepts the live tracker's candidate,
    or coasts with it, on every frame the live tracker stepped, judged from
    the live run's recorded scores; stops at the first frame that differs."""
    w, s_min = cfg.weights, cfg.s_min
    for frame in frame_scores:
        reweighted = [(a, b, c, weighted_total(w, a, b, c)) for a, b, c, _ in frame]
        if _index(choose(reweighted, s_min)) != _index(choose(frame, live_s_min)):
            return False
    return True


def _seed_task(args) -> list[Metrics]:
    scenario, seed, grid = args
    sc = scenario.with_seed(seed)
    art = run(sc)
    if art.metrics is None:
        raise MetricsError("empty tracker trace")
    cam = sc.camera.build()
    # the live loop fed art.events to the scenario's own tracker through
    # Tracker.feed, as replay_track does, so its metrics are that row's
    scored = {sc.tracker: art.metrics}
    live_s_min = sc.tracker.build(cam).s_min
    out = []
    for weights in grid:
        params = replace(sc.tracker, weights=weights)
        if params not in scored:
            cfg = params.build(cam)
            if _makes_live_choices(art.frame_scores, live_s_min, cfg):
                scored[params] = art.metrics
            else:
                trace = replay_track(art.events, (sc.prompt.x, sc.prompt.y),
                                     sc.prompt.t, cfg)
                scored[params] = compute_metrics(trace, art.truth_trace,
                                                 sc.metrics)
        out.append(scored[params])
    return out


def run_ablation(scenario: Scenario, grid=DEFAULT_GRID, n_seeds: int = 5,
                 parallel: bool = False) -> AblationResult:
    if n_seeds < 1:
        raise ConfigError(f"ablation needs at least one seed, got {n_seeds}")
    seeds = tuple(scenario.seed + k for k in range(n_seeds))
    grid = tuple(tuple(float(w) for w in row) for row in grid)
    tasks = [(scenario, s, grid) for s in seeds]
    if parallel:
        # imported here, so that `import quadtrack` does not load the
        # process pool's modules (multiprocessing among them)
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor() as pool:
            per_seed = list(pool.map(_seed_task, tasks))
    else:
        per_seed = [_seed_task(t) for t in tasks]

    rows = tuple(AblationRow(weights, tuple(ms[j] for ms in per_seed))
                 for j, weights in enumerate(grid))
    return AblationResult(scenario.name, seeds, rows)
