"""The benchmark's workloads: input shape and the task x method cells run on it.

Every input is drawn from ``scripts/make_synthetic.py``'s generator with the
benchmark's ``--seed``, and the cells run at the same experiment seed, so
one seed fixes every byte a run reads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

# Raw rating range and layout of the generator's output (Bitcoin-OTC style).
WEIGHT_RANGE = (-10.0, 10.0)
HAS_TIMESTAMP = True
METHODS = ("knn", "svm")  # every workload runs both predictors on each task


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    edges: int
    raters: int
    ratees: int
    tasks: tuple
    sample_size: int | None = None  # None -> every edge of the snapshot

    def cells(self, seed: int) -> list:
        """(task, method, experiment seed) triples in run order."""
        return [(task, method, seed) for task in self.tasks for method in METHODS]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Workload":
        return cls(**dict(data, tasks=tuple(data["tasks"])))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="protocol",
            why="paper protocol on a Bitcoin-OTC-sized file: 5000 sampled edges, "
            "all six cells, so per-run fixed costs show",
            edges=36_000,
            raters=5_000,
            ratees=5_000,
            tasks=("origin", "terminal", "edge"),
            sample_size=5_000,
        ),
        Workload(
            name="edge-full",
            why="edge task on every edge of an 8k-edge file: the per-query kNN "
            "scan dominates and fairness never runs",
            edges=8_000,
            raters=1_133,
            ratees=1_133,
            tasks=("edge",),
        ),
        Workload(
            name="vertex-dense",
            why="origin and terminal tasks on every edge of an 18k-edge "
            "buyer/product file: fairness sweeps and two-hop profiles dominate",
            edges=18_000,
            raters=2_500,
            ratees=500,
            tasks=("origin", "terminal"),
        ),
    )
}
