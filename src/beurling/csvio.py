"""Deterministic CSV and key=value emission for series and fit reports.

Outputs are byte-stable across runs: floats are written with repr (the
shortest round-tripping form), rows end with a bare newline, and comment
headers always declare the source grid and checkpoint ladder.
"""

from __future__ import annotations

import csv

from .asymptotics import CheckpointSeries, FitReport
from .grid import LogGrid


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def write_series_csv(path, series: CheckpointSeries, grid: LogGrid):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# h={grid.h!r} n={grid.n}\n")
        fh.write("# checkpoints=" + ",".join(repr(float(t)) for t in series.log_points) + "\n")
        if series.label:
            fh.write(f"# series={series.label}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "value"])
        for t, v in zip(series.log_points, series.values):
            writer.writerow([repr(float(t)), repr(float(v))])


def write_keyvalue(path, mapping: dict):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in mapping:
            fh.write(f"{key}={_fmt(mapping[key])}\n")


def report_to_mapping(report: FitReport) -> dict:
    out = {"model": report.model_name}
    out.update(report.constants)
    out["residual_rms"] = report.residual_rms
    out["passed"] = report.passed
    out["criterion"] = report.criterion
    for key, val in report.details.items():
        if isinstance(val, list):
            out[key] = ",".join(_fmt(v) for v in val)
        else:
            out[key] = val
    return out
