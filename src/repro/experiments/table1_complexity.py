"""Table 1 — ACBM computational complexity.

Average number of candidate positions searched per macroblock, for
Qp ∈ {30, 28, …, 16}, four sequences, 30 and 10 fps; FSBM's constant
969 (p = 15: 961 integer + 8 half-pel) is the reference the paper
quotes its "up to 95 %" reduction against.

The numbers come from the same encoder runs as the RD sweep (the
positions depend on Qp through the classifier threshold α + β·Qp², so
they must be measured inside real encodes, not standalone searches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.experiments.config import ExperimentConfig
from repro.experiments.rd_curves import RDSweepResult, run_rd_sweep


def fsbm_reference_positions(p: int) -> int:
    """The paper's constant for full search: (2p+1)² integer candidates
    plus 8 half-pel refinements — 969 at p = 15."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return (2 * p + 1) ** 2 + 8


@dataclass
class Table1Result:
    """ACBM positions/MB in the paper's row/column layout."""

    config: ExperimentConfig
    #: (sequence, fps) → {qp: avg positions per MB}
    columns: dict[tuple[str, int], dict[int, float]]

    @property
    def fsbm_positions(self) -> int:
        return fsbm_reference_positions(self.config.p)

    def cell(self, sequence: str, fps: int, qp: int) -> float:
        try:
            return self.columns[(sequence, fps)][qp]
        except KeyError:
            raise ValueError(f"no Table 1 cell ({sequence}, {fps} fps, qp={qp})") from None

    def reduction(self, sequence: str, fps: int, qp: int) -> float:
        """Fractional saving vs FSBM for one cell (the "up to 95 %")."""
        return 1.0 - self.cell(sequence, fps, qp) / self.fsbm_positions

    def max_reduction(self) -> float:
        return max(
            self.reduction(seq, fps, qp)
            for (seq, fps), col in self.columns.items()
            for qp in col
        )

    def sequence_mean(self, sequence: str) -> float:
        """Mean positions/MB over all Qp and fps for one sequence —
        used to check the Miss-America-lowest / Foreman-highest shape."""
        values = [
            v
            for (seq, _), col in self.columns.items()
            if seq == sequence
            for v in col.values()
        ]
        if not values:
            raise ValueError(f"no columns for sequence {sequence!r}")
        return sum(values) / len(values)

    def as_text(self) -> str:
        keys = sorted(self.columns)
        headers = ["Qp"] + [f"{seq}@{fps}" for seq, fps in keys]
        rows = []
        for qp in self.config.qps:
            row: list[object] = [qp]
            for key in keys:
                row.append(self.columns[key].get(qp, float("nan")))
            rows.append(row)
        table = format_table(
            headers,
            rows,
            title=(
                "Table 1: ACBM avg candidate positions per macroblock "
                f"(FSBM reference: {self.fsbm_positions})"
            ),
            float_format="{:.0f}",
        )
        return table


def run_table1(
    config: ExperimentConfig | None = None,
    sweep: RDSweepResult | None = None,
    progress=None,
    jobs: int = 1,
) -> Table1Result:
    """Produce Table 1, reusing a prior RD sweep when given one.

    ``jobs`` shards the underlying encode jobs across processes (see
    :func:`repro.experiments.rd_curves.run_rd_sweep`); the table is
    byte-identical for any value.
    """
    config = config or ExperimentConfig()
    if sweep is None:
        sweep = run_rd_sweep(config, estimators=("acbm",), progress=progress, jobs=jobs)
    columns: dict[tuple[str, int], dict[int, float]] = {}
    for cell in sweep.cells:
        if cell.estimator != "acbm":
            continue
        columns.setdefault((cell.sequence, cell.fps), {})[cell.qp] = cell.avg_positions
    if not columns:
        raise ValueError("sweep contains no ACBM cells")
    return Table1Result(config=config, columns=columns)
