"""Trace ingestion, arrival draws and report files.

Loaders are total over their documented formats: a file either parses
fully or raises a positioned error. Every CSV file is written by one
writer, ``_write_csv``, and every CSV file read back goes through one
checked reader, ``_csv_rows``, which rejects a header other than the
file's documented columns and a row of another width. Report CSVs use
'.' decimals, LF line endings and UTF-8 so equal runs produce
byte-identical files. Their rows hold only ints, strings and builtin
floats, each row written as ``_csv_line`` prints it: its values' ``str``
(for a float, its shortest round-trip text, its ``repr``) joined by
commas. per_step.csv's lines come from ``_per_step_lines``, which prints
the same bytes, a step at a time, at a fraction of the cost.
"""

import csv
import functools
import io
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .energy import ordered_sum
from .errors import DomainError, IoError, ParseError, SchemaError
from .model import MAX_ARRIVAL_RATE, Workload
from .predictor import CSV_COLUMNS, TelemetryRecord

log = logging.getLogger(__name__)

TOOL_VERSION = "0.1.0"

SUMMARY_FIELDS = ("seed", "total_energy_kwh", "svr", "migrations",
                  "sla_violations", "tasks_generated", "tasks_completed",
                  "temp_mean_c", "temp_max_c")
SUMMARY_HEADER = ("label", *SUMMARY_FIELDS)
PER_STEP_HEADER = ("step", "clock_s", "host_id", "temp_c", "power_w",
                   "energy_j_cum", "migrations_cum", "svr_cum")


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


def _csv_rows(path, what, columns):
    """Yield ``(line_no, fields)`` for each non-blank row of a CSV file read
    through ``_read_text``. Raises SchemaError unless the header, cells
    stripped, is ``columns``, and ParseError on a row of another width or
    one the csv module rejects."""
    reader = csv.reader(io.StringIO(_read_text(path, what), newline=""))
    try:
        header = [cell.strip() for cell in next(reader, ())]
        if tuple(header) != columns:
            raise SchemaError(f"{what} header {header} does not match "
                              f"{list(columns)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ParseError(f"expected {len(columns)} fields, "
                                 f"got {len(row)}", line_no=line_no)
            yield line_no, row
    except csv.Error as exc:
        raise ParseError(f"{what} {path}: {exc}", line_no=reader.line_num) from None


def _csv_line(row):
    """One CSV line: the row's values printed with ``str``, joined by
    commas, ending in LF."""
    return ",".join(map(str, row)) + "\n"


def _write_csv(path, header, lines):
    """Write the header line, then ``lines`` (an iterable of ``_csv_line``
    texts, streamed rather than joined), in UTF-8 with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_line(header))
        fh.writelines(lines)


def _per_step_lines(rows):
    """Yield each step's ``_csv_line`` texts, joined, formatting less.

    A step's rows share their step, clock, energy, migrations and SVR
    objects, and a host whose temperature step was cached repeats its last
    temperature and power objects. So the step-wide texts are printed once
    per step and a host's ``host_id,temp_c,power_w`` text is reused while
    its three values are the very objects it was printed from. Identity,
    not equality: the same object always prints the same text, while equal
    values need not (``0.0`` and ``-0.0``). An f-string prints a builtin
    int, float or str as ``str`` does."""
    unset = object()
    step_ = clock_ = energy_ = migrations_ = svr_ = unset
    head = tail = ""
    texts = []          # this step's host texts, in row order
    host_texts = {}     # host_id -> (host_id, temp_c, power_w, text)
    cached, append = host_texts.get, texts.append
    for step, clock, host_id, temp, power, energy, migrations, svr in rows:
        if not (step is step_ and clock is clock_ and energy is energy_
                and migrations is migrations_ and svr is svr_):
            if texts:
                yield head + (tail + head).join(texts) + tail
                texts.clear()
            step_, clock_, energy_, migrations_, svr_ = \
                step, clock, energy, migrations, svr
            head = f"{step},{clock},"
            tail = f",{energy},{migrations},{svr}\n"
        last = cached(host_id)
        if last is None or not (last[0] is host_id and last[1] is temp
                                and last[2] is power):
            last = host_texts[host_id] = (
                host_id, temp, power, f"{host_id},{temp},{power}")
        append(last[3])
    yield head + (tail + head).join(texts) + tail     # "" for no rows


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
    records = []
    last_ts = {}
    for row_no, row in _csv_rows(path, "telemetry", CSV_COLUMNS):
        try:
            record = TelemetryRecord(
                server_id=row[0], timestamp=row[1],
                fan_rpm=tuple(float(v) for v in row[2:7]),
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
    return tuple(records)


def save_telemetry_csv(records, path):
    _write_csv(path, CSV_COLUMNS, (
        _csv_line((rec.server_id, rec.timestamp, *rec.fan_rpm,
                   rec.system_pct, rec.memory_pct, rec.cpu_pct, rec.io_pct,
                   rec.cpu_temp_c))
        for rec in records))


@functools.lru_cache(maxsize=16)
def _draw_bounds(wgcfg):
    """Low ends and widths of the six uniform ranges, in draw order; kept,
    as building the arrays costs more than a step's draw."""
    lows, highs = np.array((wgcfg.length_scale, wgcfg.mips_range,
                            wgcfg.file_scale, wgcfg.output_scale,
                            wgcfg.ram_range, wgcfg.cost_range), dtype=float).T
    return lows, highs - lows


def generate_workloads(wgcfg, rng, count, arrival_s=0, id_offset=0):
    """Draw ``count`` workloads from the configured uniform ranges.

    One block draw takes six uniforms per workload in a fixed order
    (length, mips, file, output, ram, cost), row by row, and computes each
    as ``rng.uniform`` does, ``low + width * u``: the same doubles in the
    same order as six scalar draws per workload, so a given rng state
    always yields the same list and leaves the rng in the same state.
    ``tolist`` turns them into Python floats, as the scalar draws return.
    """
    if count < 0:
        raise ParseError("count must be >= 0")
    lows, widths = _draw_bounds(wgcfg)
    draws = (rng.random((count, 6)) * widths + lows).tolist()
    length_base, file_base = wgcfg.length_base_mi, wgcfg.file_base_mb
    output_base = wgcfg.output_base_mb
    # Positional, in field order: keywords cost more than the rest of a
    # Workload's construction.
    return [Workload(f"wl-{id_offset + i}", length_base * length, mips,
                     file_base * file_u, output_base * output_u, ram, cost,
                     arrival_s)
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


def write_report(report, out_dir):
    """Write summary.csv, per_step.csv and manifest.json; returns paths."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        summary_path = os.path.join(out_dir, "summary.csv")
        per_step_path = os.path.join(out_dir, "per_step.csv")
        manifest_path = os.path.join(out_dir, "manifest.json")
        rows = report.replicate_rows or [report.summary_row()]
        n_replicates = len(rows) if len(rows) == 1 else len(rows) - 1
        _write_csv(summary_path, SUMMARY_HEADER, (
            _csv_line((f"replicate-{i}" if i < n_replicates else "mean",
                       *row))
            for i, row in enumerate(rows)))
        _write_csv(per_step_path, PER_STEP_HEADER,
                   _per_step_lines(report.per_step_rows))
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
    out = {}
    for line_no, row in _csv_rows(path, "summary", SUMMARY_HEADER):
        try:
            out[row[0]] = dict(zip(SUMMARY_FIELDS, map(float, row[1:])))
        except ValueError as exc:
            raise ParseError(f"summary field not a number: {exc}",
                             line_no=line_no) from None
    return out


def summarize_per_step(path):
    """Recompute run aggregates from a per_step.csv file.

    SVR is not among them: the file's svr_cum counts finished tasks only,
    while the run's SVR (summary.csv) also counts unfinished ones."""
    temps = {}
    energy_j = 0.0
    migrations = 0
    steps = 0
    for row_no, row in _csv_rows(path, "per-step file", PER_STEP_HEADER):
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
        "temp_mean_c": (ordered_sum(all_temps) / len(all_temps) if all_temps
                        else 0.0),
        "temp_max_c": max(all_temps) if all_temps else 0.0,
    }
