"""Tabular metric reports used by the benchmark harness output."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MetricReport:
    """A named collection of metric rows, printable as an aligned table.

    Benchmarks build one report per paper table/figure and print it so the
    regenerated series can be compared with the published one side by side.
    """

    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list, init=False)

    def add_row(self, *values: object) -> None:
        """Append a row; the number of values must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but report defines {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[object]:
        """Return one column as a list, by header name."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def to_text(self) -> str:
        """Render the report as an aligned plain-text table."""
        rendered_rows = [[_format_cell(value) for value in row] for row in self.rows]
        widths = [len(header) for header in self.columns]
        for row in rendered_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in rendered_rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


@dataclass(frozen=True)
class UtilizationSample:
    """One step-boundary snapshot of cluster CPU/memory utilization."""

    step: int
    mean_cpu: float
    max_cpu: float
    mean_memory: float
    max_memory: float


class ClusterUtilizationTracker:
    """Per-step cluster utilization series fed from the placement scheduler.

    The facade samples
    :meth:`~repro.actors.scheduler.PlacementScheduler.cluster_utilization`
    at every step boundary; this tracker reduces each snapshot to per-node
    mean/max and exposes peak/mean aggregates for the run report, so elastic
    spawn/retire activity shows up as node CPU and memory movement next to
    the overlap statistics.
    """

    def __init__(self) -> None:
        self._samples: list[UtilizationSample] = []
        self._tenant_cpu: dict[str, list[float]] = {}

    def observe_tenants(self, shares: dict[str, dict[str, float]]) -> None:
        """Record each tenant's current weighted CPU share on the shared pool.

        ``shares`` is :meth:`PlacementScheduler.tenant_shares`; the tracker
        keeps the per-step ``share`` series so multi-tenant reports can show
        how the pool actually divided over the run.
        """
        for tenant, share in shares.items():
            self._tenant_cpu.setdefault(tenant, []).append(share["share"])

    def tenant_summary(self) -> dict[str, dict[str, float]]:
        """Mean/peak observed CPU share per tenant over the sampled steps."""
        return {
            tenant: {
                "mean_cpu_share": sum(series) / len(series),
                "peak_cpu_share": max(series),
            }
            for tenant, series in self._tenant_cpu.items()
            if series
        }

    def observe(self, step: int, snapshot: dict[str, dict[str, float]]) -> UtilizationSample:
        cpu = [node["cpu"] for node in snapshot.values()]
        memory = [node["memory"] for node in snapshot.values()]
        count = max(1, len(snapshot))
        sample = UtilizationSample(
            step=step,
            mean_cpu=sum(cpu) / count,
            max_cpu=max(cpu, default=0.0),
            mean_memory=sum(memory) / count,
            max_memory=max(memory, default=0.0),
        )
        self._samples.append(sample)
        return sample

    def samples(self) -> list[UtilizationSample]:
        return list(self._samples)

    def summary(self) -> dict[str, float]:
        """Peak/mean node utilization over the sampled step boundaries."""
        if not self._samples:
            return {
                "utilization_samples": 0.0,
                "peak_node_cpu_utilization": 0.0,
                "mean_node_cpu_utilization": 0.0,
                "peak_node_memory_utilization": 0.0,
                "mean_node_memory_utilization": 0.0,
            }
        count = len(self._samples)
        return {
            "utilization_samples": float(count),
            "peak_node_cpu_utilization": max(s.max_cpu for s in self._samples),
            "mean_node_cpu_utilization": sum(s.mean_cpu for s in self._samples) / count,
            "peak_node_memory_utilization": max(s.max_memory for s in self._samples),
            "mean_node_memory_utilization": sum(s.mean_memory for s in self._samples) / count,
        }


def summarize(values: list[float] | np.ndarray) -> dict[str, float]:
    """Mean / std / min / max / p50 / p95 of a numeric series."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0}
    return {
        "mean": float(array.mean()),
        "std": float(array.std()),
        "min": float(array.min()),
        "max": float(array.max()),
        "p50": float(np.percentile(array, 50)),
        "p95": float(np.percentile(array, 95)),
    }
