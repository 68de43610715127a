"""Trace ingestion, workload synthesis and report files.

Loaders are total over their documented formats: a file either parses
fully or raises a positioned error. Report CSVs use '.' decimals, LF line
endings and UTF-8 so equal runs produce byte-identical files.
"""

import csv
import json
import logging
import os
from dataclasses import dataclass

from .errors import IoError, ParseError, SchemaError
from .model import Workload
from .predictor import CSV_COLUMNS, TelemetryRecord

log = logging.getLogger(__name__)

TOOL_VERSION = "0.1.0"

PER_STEP_HEADER = ("step", "clock_s", "host_id", "temp_c", "power_w",
                   "energy_j_cum", "migrations_cum", "svr_cum")
WORKLOAD_HEADER = ("id", "arrival_s", "length_mi", "mips_requested",
                   "file_size_mb", "output_size_mb", "ram_mb", "cost_cd")


@dataclass(frozen=True)
class UtilizationTrace:
    """CPU utilization percents sampled at a fixed spacing for one VM."""

    vm_label: str
    samples: tuple
    spacing_s: int = 300

    @property
    def duration_s(self):
        return len(self.samples) * self.spacing_s


@dataclass(frozen=True)
class TelemetryDataset:
    """Telemetry rows grouped by server, time-ordered within each server."""

    records: tuple

    def by_server(self):
        grouped = {}
        for rec in self.records:
            grouped.setdefault(rec.server_id, []).append(rec)
        return grouped


def sample_telemetry_path():
    """Path of the six-row telemetry sample shipped with the package."""
    return os.path.join(os.path.dirname(__file__), "data", "sample_telemetry.csv")


def load_planetlab_trace(path):
    """Read an integer-per-line CPU utilization trace (percent, 300 s
    spacing). Out-of-range values are clamped with a warning."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read trace {path}: {exc}") from exc
    samples = []
    for i, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = int(text)
        except ValueError as exc:
            raise ParseError(f"not an integer: {text!r}", line_no=i) from exc
        if not 0 <= value <= 100:
            log.warning("%s:%d: utilization %d clamped to [0, 100]", path, i, value)
            value = min(100, max(0, value))
        samples.append(value)
    if not samples:
        raise ParseError(f"trace {path} contains no samples")
    return UtilizationTrace(vm_label=os.path.basename(str(path)),
                            samples=tuple(samples))


def _timestamp_key(text):
    try:
        return float(text)
    except ValueError:
        pass
    parts = text.split(":")
    if len(parts) in (2, 3) and all(p.isdigit() for p in parts):
        parts = [int(p) for p in parts]
        while len(parts) < 3:
            parts.append(0)
        return parts[0] * 3600 + parts[1] * 60 + parts[2]
    return None


def load_telemetry_csv(path):
    """Read a telemetry CSV with the exact documented header."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot read telemetry {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("telemetry file is empty") from None
        if tuple(h.strip() for h in header) != CSV_COLUMNS:
            raise SchemaError(
                f"header {header} does not match {list(CSV_COLUMNS)}")
        records = []
        last_ts = {}
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ParseError(f"expected {len(CSV_COLUMNS)} fields, "
                                 f"got {len(row)}", line_no=row_no)
            try:
                fans = tuple(float(v) for v in row[2:7])
                record = TelemetryRecord(
                    server_id=row[0], timestamp=row[1], fan_rpm=fans,
                    system_pct=float(row[7]), memory_pct=float(row[8]),
                    cpu_pct=float(row[9]), io_pct=float(row[10]),
                    cpu_temp_c=float(row[11]))
            except (ValueError, ParseError) as exc:
                raise ParseError(str(exc), line_no=row_no) from None
            key = _timestamp_key(record.timestamp)
            prev = last_ts.get(record.server_id)
            if key is not None and prev is not None and key <= prev:
                raise ParseError(
                    f"timestamps for {record.server_id} not increasing",
                    line_no=row_no)
            if key is not None:
                last_ts[record.server_id] = key
            records.append(record)
    return TelemetryDataset(records=tuple(records))


def save_telemetry_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fields = ([rec.server_id, rec.timestamp]
                      + [_fmt(v) for v in rec.fan_rpm]
                      + [_fmt(rec.system_pct), _fmt(rec.memory_pct),
                         _fmt(rec.cpu_pct), _fmt(rec.io_pct),
                         _fmt(rec.cpu_temp_c)])
            fh.write(",".join(fields) + "\n")


def generate_workloads(wgcfg, rng, count, arrival_s=0, id_offset=0):
    """Draw ``count`` workloads from the configured uniform ranges.

    The draw order per workload is fixed (length, mips, file, output, ram,
    cost) so a given rng state always yields the same list.
    """
    if count < 0:
        raise ParseError("count must be >= 0")
    out = []
    for i in range(count):
        length = wgcfg.length_base_mi * rng.uniform(*wgcfg.length_scale)
        mips = rng.uniform(*wgcfg.mips_range)
        file_mb = wgcfg.file_base_mb * rng.uniform(*wgcfg.file_scale)
        output_mb = wgcfg.output_base_mb * rng.uniform(*wgcfg.output_scale)
        ram = rng.uniform(*wgcfg.ram_range)
        cost = rng.uniform(*wgcfg.cost_range)
        out.append(Workload(
            id=f"wl-{id_offset + i}", length_mi=length, mips_requested=mips,
            file_size_mb=file_mb, output_size_mb=output_mb, ram_mb=ram,
            cost_cd=cost, arrival_s=arrival_s))
    return out


def spread_arrivals(wgcfg, rng, count, interval_s=300, horizon_s=172800):
    """Standalone workload list with arrivals spread over the horizon by
    per-interval Poisson counts (rate count / steps); any shortfall lands
    in the final interval so exactly ``count`` workloads come back."""
    from .engine import poisson_arrivals

    steps = horizon_s // interval_s
    lam = count / steps if steps else 0.0
    out = []
    for s in range(steps):
        if len(out) >= count:
            break
        n = min(poisson_arrivals(lam, rng), count - len(out))
        out.extend(generate_workloads(wgcfg, rng, n, arrival_s=s * interval_s,
                                      id_offset=len(out)))
    if len(out) < count:
        out.extend(generate_workloads(
            wgcfg, rng, count - len(out),
            arrival_s=(steps - 1) * interval_s if steps else 0,
            id_offset=len(out)))
    return out


def _fmt(value):
    """Shortest round-trip decimal text for floats; plain text otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_workloads_csv(workloads, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(WORKLOAD_HEADER) + "\n")
        for w in workloads:
            fh.write(",".join(_fmt(v) for v in (
                w.id, w.arrival_s, w.length_mi, w.mips_requested,
                w.file_size_mb, w.output_size_mb, w.ram_mb, w.cost_cd)) + "\n")


def write_report(report, out_dir):
    """Write summary.csv, per_step.csv and manifest.json; returns paths."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        summary_path = os.path.join(out_dir, "summary.csv")
        per_step_path = os.path.join(out_dir, "per_step.csv")
        manifest_path = os.path.join(out_dir, "manifest.json")
        rows = report.replicate_rows or [report.summary_row()]
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("label," + ",".join(report.SUMMARY_FIELDS) + "\n")
            n_replicates = len(rows) if len(rows) == 1 else len(rows) - 1
            for i, row in enumerate(rows):
                label = f"replicate-{i}" if i < n_replicates else "mean"
                fh.write(label + "," + ",".join(_fmt(v) for v in row) + "\n")
        with open(per_step_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(PER_STEP_HEADER) + "\n")
            for row in report.per_step_rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        manifest = {
            "config_digest": report.config_digest,
            "lambda_per_interval": report.lambda_per_interval,
            "policy": report.policy,
            "seed": report.seed,
            "tool_version": TOOL_VERSION,
        }
        with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write report to {out_dir}: {exc}") from exc
    return summary_path, per_step_path, manifest_path


def read_summary_csv(path):
    """Summary rows back as {label: {field: float}} mappings."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot read summary {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        out = {}
        for row in reader:
            label = row.pop("label")
            out[label] = {k: float(v) for k, v in row.items()}
    return out


def summarize_per_step(path):
    """Recompute run aggregates from a per_step.csv file.

    SVR is not among them: the file's svr_cum counts finished tasks only,
    while the run's SVR (summary.csv) also counts unfinished ones."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot read per-step file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != PER_STEP_HEADER:
            raise SchemaError(f"header {list(header)} does not match "
                              f"{list(PER_STEP_HEADER)}")
        temps = {}
        energy_j = 0.0
        migrations = 0
        steps = 0
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(PER_STEP_HEADER):
                raise ParseError(f"expected {len(PER_STEP_HEADER)} fields, "
                                 f"got {len(row)}", line_no=row_no)
            try:
                step = int(row[0])
                temps.setdefault(row[2], []).append(float(row[3]))
                energy_j = float(row[5])
                migrations = int(row[6])
            except ValueError as exc:
                raise ParseError(str(exc), line_no=row_no) from None
            steps = max(steps, step)
    all_temps = [t for series in temps.values() for t in series]
    return {
        "steps": steps,
        "hosts": len(temps),
        "total_energy_kwh": energy_j / 3.6e6,
        "migrations": migrations,
        "temp_mean_c": sum(all_temps) / len(all_temps) if all_temps else 0.0,
        "temp_max_c": max(all_temps) if all_temps else 0.0,
    }
