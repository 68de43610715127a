"""Trace ingestion, workload synthesis and report files.

Loaders are total over their documented formats: a file either parses
fully or raises a positioned error. Report CSVs use '.' decimals, LF line
endings and UTF-8 so equal runs produce byte-identical files. Their rows
hold only ints, strings and builtin floats, written with ``str``, which
for a float is its shortest round-trip text (its ``repr``).
"""

import csv
import io
import json
import logging
import math
import os
from dataclasses import dataclass

from .errors import DomainError, InvalidConfig, IoError, ParseError, SchemaError
from .model import MAX_ARRIVAL_RATE, Workload
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


def sample_telemetry_path():
    """Path of the six-row telemetry sample shipped with the package."""
    return os.path.join(os.path.dirname(__file__), "data", "sample_telemetry.csv")


def _read_text(path, what):
    """The whole of a UTF-8 text file, line endings untranslated. Raises
    IoError if the file cannot be read and ParseError if it is not UTF-8;
    ``what`` names the file's role in the message."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8: {exc}") from None


def load_planetlab_trace(path):
    """Read an integer-per-line CPU utilization trace (percent, 300 s
    spacing). Out-of-range values are clamped with a warning."""
    samples = []
    for i, line in enumerate(_read_text(path, "trace").splitlines(), start=1):
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
    """Read a telemetry CSV with the exact documented header; returns its
    TelemetryRecords in file order, time-ordered within each server."""
    reader = csv.reader(io.StringIO(_read_text(path, "telemetry"), newline=""))
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
            cpu_temp_c = float(row[11])
            # float() reads "inf", "nan" and "1e400"; the utilizations'
            # range checks already reject them.
            if not all(map(math.isfinite, (*fans, cpu_temp_c))):
                raise ParseError("fan RPM and cpu_temp_c must be finite")
            record = TelemetryRecord(
                server_id=row[0], timestamp=row[1], fan_rpm=fans,
                system_pct=float(row[7]), memory_pct=float(row[8]),
                cpu_pct=float(row[9]), io_pct=float(row[10]),
                cpu_temp_c=cpu_temp_c)
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
    return tuple(records)


def save_telemetry_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fields = (rec.server_id, rec.timestamp, *rec.fan_rpm,
                      rec.system_pct, rec.memory_pct, rec.cpu_pct,
                      rec.io_pct, rec.cpu_temp_c)
            fh.write(",".join(map(str, fields)) + "\n")


def generate_workloads(wgcfg, rng, count, arrival_s=0, id_offset=0):
    """Draw ``count`` workloads from the configured uniform ranges.

    One block draw takes six uniforms per workload in a fixed order
    (length, mips, file, output, ram, cost), row by row: the same doubles
    in the same order as six scalar draws per workload, so a given rng
    state always yields the same list and leaves the rng in the same
    state. ``tolist`` turns them into Python floats, as the scalar draws
    return, so report files print them the same way.
    """
    if count < 0:
        raise ParseError("count must be >= 0")
    ranges = (wgcfg.length_scale, wgcfg.mips_range, wgcfg.file_scale,
              wgcfg.output_scale, wgcfg.ram_range, wgcfg.cost_range)
    draws = rng.uniform([lo for lo, _ in ranges], [hi for _, hi in ranges],
                        size=(count, len(ranges))).tolist()
    length_base, file_base = wgcfg.length_base_mi, wgcfg.file_base_mb
    output_base = wgcfg.output_base_mb
    return [Workload(id=f"wl-{id_offset + i}", length_mi=length_base * length,
                     mips_requested=mips, file_size_mb=file_base * file_u,
                     output_size_mb=output_base * output_u, ram_mb=ram,
                     cost_cd=cost, arrival_s=arrival_s)
            for i, (length, mips, file_u, output_u, ram, cost)
            in enumerate(draws)]


def poisson_arrivals(lam, rng):
    """One Poisson draw by CDF inversion (a single uniform per draw).

    Written out explicitly so the draw sequence is pinned by this code
    rather than by the library's sampler internals.
    """
    if lam < 0:
        raise DomainError("lambda must be >= 0")
    if lam == 0:
        return 0
    if lam > MAX_ARRIVAL_RATE:
        raise DomainError(f"arrival rate {lam} too large for inversion")
    u = rng.random()
    p = math.exp(-lam)
    cum = p
    k = 0
    while u > cum and p > 0.0:
        k += 1
        p *= lam / k
        cum += p
    return k


def spread_arrivals(wgcfg, rng, count, interval_s=300, horizon_s=172800):
    """Standalone workload list with arrivals spread over the horizon by
    per-interval Poisson counts (rate count / steps); any shortfall lands
    in the final interval so exactly ``count`` workloads come back."""
    steps = horizon_s // interval_s
    if not 0 <= count <= MAX_ARRIVAL_RATE * steps:
        raise InvalidConfig("count", f"must be in [0, {MAX_ARRIVAL_RATE * steps}]"
                                     f" ({MAX_ARRIVAL_RATE} per interval)")
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
            arrival_s=(steps - 1) * interval_s,
            id_offset=len(out)))
    return out


def write_workloads_csv(workloads, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(WORKLOAD_HEADER) + "\n")
        for w in workloads:
            fh.write(",".join(map(str, (
                w.id, w.arrival_s, w.length_mi, w.mips_requested,
                w.file_size_mb, w.output_size_mb, w.ram_mb, w.cost_cd))) + "\n")


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
                fh.write(label + "," + ",".join(map(str, row)) + "\n")
        with open(per_step_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(PER_STEP_HEADER) + "\n")
            fh.writelines(",".join(map(str, row)) + "\n"
                          for row in report.per_step_rows)
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
    reader = csv.DictReader(io.StringIO(_read_text(path, "summary"),
                                        newline=""))
    out = {}
    for row in reader:
        label = row.pop("label", None)
        try:
            # A short row holds None, a long one a list under key None.
            out[label] = {k: float(v) for k, v in row.items()}
        except (TypeError, ValueError) as exc:
            raise ParseError(f"summary field not a number: {exc}",
                             line_no=reader.line_num) from None
    return out


def summarize_per_step(path):
    """Recompute run aggregates from a per_step.csv file.

    SVR is not among them: the file's svr_cum counts finished tasks only,
    while the run's SVR (summary.csv) also counts unfinished ones."""
    reader = csv.reader(io.StringIO(_read_text(path, "per-step file"),
                                    newline=""))
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
