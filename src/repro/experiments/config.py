"""Configuration dataclasses for the paper's evaluation scenarios (Section 6)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ScenarioConfig:
    """Knobs of the edge-caching simulation.

    Defaults reproduce the paper's default setting: Abovenet topology,
    top-10 videos, 100-MB chunks (|C| = 54), cache size zeta = 12 chunks,
    link capacity kappa = 0.7% of the total request rate, origin-link costs
    in [100, 200] and other link costs in [1, 20].
    """

    topology: str = "abovenet"
    #: "chunk" (homogeneous items) or "file" (heterogeneous sizes, Section 5).
    level: str = "chunk"
    num_videos: int = 10
    chunk_mb: float = 100.0
    #: Cache size zeta: #chunks at chunk level / #average-size files at file level.
    cache_capacity: float = 12.0
    #: Link capacity as a fraction of the total request rate; None = unlimited.
    link_capacity_fraction: float | None = 0.007
    #: Augment capacities on an origin->edge path so the origin can always
    #: serve everything (the paper's feasibility guarantee).
    augment_origin_paths: bool = True
    #: Headroom multiplier on the augmentation, so planning on (imperfectly)
    #: predicted demand stays feasible too.
    augment_margin: float = 1.25
    #: Edge-node selection: None = all degree<=3 nodes (Abovenet default);
    #: an int = that many lowest-degree nodes (Appendix D uses 5).
    num_edge_nodes: int | None = None
    origin_cost_range: tuple[float, float] = (100.0, 200.0)
    link_cost_range: tuple[float, float] = (1.0, 20.0)
    #: Which evaluation-trace hour the demand snapshot comes from.
    hour: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.level not in ("chunk", "file"):
            raise ValueError("level must be 'chunk' or 'file'")
        if self.level == "file" and self.cache_capacity < 1:
            raise ValueError("file-level cache capacity must be >= 1 item")


@dataclass
class MonteCarloConfig:
    """Monte Carlo protocol: the paper averages over 100 runs; benches use fewer.

    Run ``k`` builds its scenario with seed ``base_seed + k``.
    """

    n_runs: int = 5
    base_seed: int = 0


@dataclass
class PredictionConfig:
    """GPR demand-prediction protocol (footnote 6 of the paper)."""

    train_hours: int = 550
    batch_hours: int = 5
    #: History cap per refit; None = cumulative history as in the paper
    #: (kept finite by default so benches stay laptop-fast).
    history_window: int | None = 150
    n_restarts: int = 0
    seed: int = 0
