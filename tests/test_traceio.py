import os
import stat

import numpy as np
import pytest

from dctherm import engine, traceio
from dctherm.errors import IoError, ParseError, SchemaError
from dctherm.model import WorkloadGenConfig, default_datacenter


# --- utilization traces -----------------------------------------------------

def test_planetlab_direct_parse(tmp_path):
    path = tmp_path / "vm1"
    path.write_text("10\n20\n30\n")
    trace = traceio.load_planetlab_trace(path)
    assert trace.samples == (10, 20, 30)
    assert trace.spacing_s == 300
    assert trace.vm_label == "vm1"


def test_planetlab_empty_file(tmp_path):
    path = tmp_path / "empty"
    path.write_text("")
    with pytest.raises(ParseError):
        traceio.load_planetlab_trace(path)


def test_planetlab_day_file_covers_24h(tmp_path):
    path = tmp_path / "day"
    path.write_text("\n".join(["50"] * 288) + "\n")
    trace = traceio.load_planetlab_trace(path)
    assert len(trace.samples) == 288
    assert trace.duration_s == 86400


def test_planetlab_bad_line_positioned(tmp_path):
    path = tmp_path / "bad"
    path.write_text("10\nxx\n30\n")
    with pytest.raises(ParseError) as err:
        traceio.load_planetlab_trace(path)
    assert err.value.line_no == 2


def test_planetlab_clamps_out_of_range(tmp_path):
    path = tmp_path / "hot"
    path.write_text("150\n-3\n")
    trace = traceio.load_planetlab_trace(path)
    assert trace.samples == (100, 0)


def test_planetlab_missing_file():
    with pytest.raises(IoError):
        traceio.load_planetlab_trace("/does/not/exist")


# --- telemetry csv ----------------------------------------------------------

def test_shipped_sample_first_row():
    records = traceio.load_telemetry_csv(traceio.sample_telemetry_path())
    assert len(records) == 6
    first = records[0]
    assert first.server_id == "N1"
    assert first.fan_rpm == (4214.0, 4289.0, 4230.0, 4264.0, 4263.0)
    assert (first.system_pct, first.memory_pct, first.cpu_pct, first.io_pct) \
        == (58.0, 62.0, 63.0, 72.0)
    assert first.cpu_temp_c == 44.0


def test_telemetry_out_of_range_utilization(tmp_path):
    path = tmp_path / "t.csv"
    header = ",".join(traceio.CSV_COLUMNS)
    path.write_text(header + "\nN1,1,1,1,1,1,1,150,10,10,10,40\n")
    with pytest.raises(ParseError) as err:
        traceio.load_telemetry_csv(path)
    assert err.value.line_no == 2


def test_telemetry_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("server_id,timestamp,f1,f2,f3,f4,f5,system_pct\n")
    with pytest.raises(SchemaError):
        traceio.load_telemetry_csv(path)


def test_telemetry_timestamps_must_increase(tmp_path):
    path = tmp_path / "t.csv"
    header = ",".join(traceio.CSV_COLUMNS)
    rows = ["N1,5,1,1,1,1,1,10,10,10,10,40",
            "N1,4,1,1,1,1,1,10,10,10,10,41"]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError):
        traceio.load_telemetry_csv(path)


def test_telemetry_round_trip(tmp_path):
    from dctherm.predictor import synthesize_telemetry
    records = synthesize_telemetry(2, 10, np.random.default_rng(3))
    path = tmp_path / "t.csv"
    traceio.save_telemetry_csv(records, path)
    loaded = traceio.load_telemetry_csv(path)
    assert list(loaded) == records


# --- workload generation ----------------------------------------------------

def test_generate_zero_workloads():
    assert traceio.generate_workloads(WorkloadGenConfig(),
                                      np.random.default_rng(0), 0) == []


def test_generated_ranges_hold_exactly():
    cfg = WorkloadGenConfig()
    rng = np.random.default_rng(60)
    tasks = traceio.generate_workloads(cfg, rng, 10_000)
    costs = [t.cost_cd for t in tasks]
    assert min(costs) >= 3.0 and max(costs) <= 5.0
    lengths = [t.length_mi for t in tasks]
    assert min(lengths) >= 10000 * 1.10 and max(lengths) <= 10000 * 1.30
    files = [t.file_size_mb for t in tasks]
    assert min(files) >= 300 * 1.15 and max(files) <= 300 * 1.40
    outs = [t.output_size_mb for t in tasks]
    assert min(outs) >= 300 * 1.15 and max(outs) <= 300 * 1.50


def test_generation_deterministic():
    cfg = WorkloadGenConfig()
    a = traceio.generate_workloads(cfg, np.random.default_rng(5), 40)
    b = traceio.generate_workloads(cfg, np.random.default_rng(5), 40)
    assert a == b


FLOAT_FIELDS = ("length_mi", "mips_requested", "file_size_mb",
                "output_size_mb", "ram_mb", "cost_cd", "remaining_mi")


def test_block_draws_match_scalar_draws():
    from oracles import oracle_generate_workloads
    # Integer bounds (as a JSON config may give them) must still give floats.
    configs = (WorkloadGenConfig(),
               WorkloadGenConfig(length_base_mi=10000, mips_range=(100, 500),
                                 ram_range=(0, 512), cost_range=(3, 3)))
    for cfg in configs:
        for seed in range(20):
            rng, oracle_rng = (np.random.default_rng(seed),
                               np.random.default_rng(seed))
            for count in (0, 1, 7, 100):
                got = traceio.generate_workloads(cfg, rng, count,
                                                 arrival_s=300, id_offset=5)
                want = oracle_generate_workloads(cfg, oracle_rng, count,
                                                 arrival_s=300, id_offset=5)
                assert got == want
                assert all(type(getattr(w, name)) is float
                           for w in got for name in FLOAT_FIELDS)
            assert rng.random() == oracle_rng.random()


def test_block_draws_match_rng_uniform_bit_for_bit():
    # With unit bases every drawn value lands in a Workload field as drawn,
    # so each one, and the rng state after the draw, can be held against
    # one rng.uniform call over the same ranges.
    from oracles import oracle_uniform_draws
    unit = dict(length_base_mi=1.0, file_base_mb=1.0, output_base_mb=1.0)
    configs = (
        WorkloadGenConfig(**unit),
        # Integer bounds, as a JSON config may give them.
        WorkloadGenConfig(**unit, mips_range=(100, 500), ram_range=(0, 512)),
        # Degenerate ranges: low == high.
        WorkloadGenConfig(**unit, length_scale=(1.2, 1.2),
                          mips_range=(300.0, 300.0), file_scale=(0.0, 0.0),
                          cost_range=(3, 3)),
        # Wide ranges whose widths are still finite.
        WorkloadGenConfig(**unit, mips_range=(1e-300, 1.7e308),
                          ram_range=(0.0, 1.7e308),
                          cost_range=(-8.5e307, 8.5e307)),
    )
    for cfg in configs:
        for seed in range(8):
            rng, oracle_rng = (np.random.default_rng(seed),
                               np.random.default_rng(seed))
            for count in range(1, 201):
                got = [(w.length_mi, w.mips_requested, w.file_size_mb,
                        w.output_size_mb, w.ram_mb, w.cost_cd)
                       for w in traceio.generate_workloads(cfg, rng, count)]
                want = oracle_uniform_draws(cfg, oracle_rng, count)
                assert got == [tuple(row) for row in want]
                assert np.array(got).tobytes() == np.array(want).tobytes()
                assert rng.bit_generator.state \
                    == oracle_rng.bit_generator.state


def test_gen_workload_csv_bytes_match_scalar_draws(tmp_path):
    # One block of 300 tasks, printed through the report CSV writer, gives
    # the same bytes as the scalar oracle's draws from the same seed.
    from oracles import oracle_generate_workloads
    header = ("id", "arrival_s", "length_mi", "mips_requested",
              "file_size_mb", "output_size_mb", "ram_mb", "cost_cd")
    for name, generate in (("block.csv", traceio.generate_workloads),
                           ("scalar.csv", oracle_generate_workloads)):
        tasks = generate(WorkloadGenConfig(), np.random.default_rng(9), 300)
        traceio._write_csv(tmp_path / name, header,
                           (traceio._csv_line([getattr(w, f) for f in header])
                            for w in tasks))
    assert (tmp_path / "block.csv").read_bytes() \
        == (tmp_path / "scalar.csv").read_bytes()


# --- report files -----------------------------------------------------------

def run_small():
    cfg = default_datacenter(seed=4, horizon_s=3000,
                             workload=WorkloadGenConfig(lambda_per_interval=2.0))
    return engine.run(cfg)


def test_report_round_trip(tmp_path):
    report = run_small()
    summary_path, per_step_path, manifest_path = \
        traceio.write_report(report, tmp_path / "out")
    summary = traceio.read_summary_csv(summary_path)
    row = summary["replicate-0"]
    assert row["total_energy_kwh"] == report.total_energy_kwh
    assert row["svr"] == report.svr
    assert row["migrations"] == report.migrations
    recomputed = traceio.summarize_per_step(per_step_path)
    assert recomputed["total_energy_kwh"] == pytest.approx(report.total_energy_kwh)
    assert recomputed["migrations"] == report.migrations
    assert recomputed["hosts"] == 4
    assert os.path.exists(manifest_path)


def test_report_byte_identical_across_runs(tmp_path):
    paths = []
    for name in ("a", "b"):
        report = run_small()
        paths.append(traceio.write_report(report, tmp_path / name))
    for p1, p2 in zip(*paths):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


def test_write_report_unwritable_dir(tmp_path):
    # A directory cannot be made below a regular file, whoever runs this.
    regular = tmp_path / "file"
    regular.write_text("")
    with pytest.raises(IoError):
        traceio.write_report(run_small(), regular / "out")


def test_write_report_read_only_dir(tmp_path):
    target = tmp_path / "locked"
    target.mkdir()
    os.chmod(target, stat.S_IREAD | stat.S_IEXEC)
    if os.access(target, os.W_OK):   # running as root bypasses mode bits
        pytest.skip("permissions not enforced in this environment")
    with pytest.raises(IoError):
        traceio.write_report(run_small(), target / "out")
    os.chmod(target, stat.S_IRWXU)


# --- per_step.csv lines ------------------------------------------------------
# The oracle is the plain form every other CSV uses: each value's str,
# joined by commas. The writer yields one chunk per step, so the two are
# compared as the text they write.

def plain_lines(rows):
    return [",".join(map(str, row)) + "\n" for row in rows]


def per_step_text(rows):
    return "".join(traceio._per_step_lines(rows))


def test_per_step_lines_match_plain_lines_on_golden_runs(tmp_path):
    from test_golden import (MODES, POLICIES, churn_config, matrix_config,
                             stress_state, write_traces)
    trace_dir = write_traces(tmp_path)
    runs = [stress_state().per_step_rows]
    for policy in POLICIES:
        for mode in MODES:
            runs += [engine.run_once(matrix_config(policy, mode, traces))
                     .per_step_rows for traces in (None, trace_dir)]
            if policy.startswith("thermal"):
                runs.append(engine.run_once(churn_config(policy, mode))
                            .per_step_rows)
    reused = 0
    for rows in runs:
        assert per_step_text(rows) == "".join(plain_lines(rows))
        # One chunk per step: a step's rows share their step-wide values.
        assert len(list(traceio._per_step_lines(rows))) == rows[-1][0]
        last = {}
        for row in rows:
            reused += last.get(row[2]) == (id(row[3]), id(row[4]))
            last[row[2]] = (id(row[3]), id(row[4]))
    assert reused      # the reused host text is exercised, not only built


def test_per_step_lines_tell_signed_zeros_apart():
    # One host's temperature and power go 0.0 -> -0.0 -> -0.0 (another
    # object) -> 0.0, then repeat the same objects; equal values, three
    # different objects, two texts.
    zero, neg, other_neg, other_zero = 0.0, float("-0.0"), float("-0.0"), \
        float("0.0")
    assert neg is not other_neg and zero is not other_zero
    values = (zero, neg, other_neg, other_zero, other_zero)
    rows = [(step, 300 * step, "pm-0", value, value, 1.5, 0, 0.0)
            for step, value in enumerate(values, start=1)]
    text = per_step_text(rows)
    assert text == "".join(plain_lines(rows))
    assert [line.split(",")[3] for line in text.splitlines()] == \
        ["0.0", "-0.0", "-0.0", "0.0", "0.0"]


def test_per_step_lines_equal_but_distinct_objects():
    # Equal, distinct floats and host ids: reprinted, and printed the same.
    temps = [float("21.25"), float("21.25")]
    hosts = ["pm-" + str(i) for i in (0, 0)]
    assert temps[0] is not temps[1] and hosts[0] is not hosts[1]
    rows = [(1, 300, hosts[0], temps[0], 9.5, 2.0, 0, 0.0),
            (2, 600, hosts[1], temps[1], 9.5, 2.0, 0, 0.0),
            (3, 900, hosts[1], 21.25, float("9.5"), 2.0, 0, 0.0)]
    assert per_step_text(rows) == "".join(plain_lines(rows))


def test_per_step_lines_negative_zero_energy():
    # Rows sharing every step-wide object but energy_j_cum, which is 0.0
    # for the first two hosts and -0.0 for the third.
    step, clock, migrations, svr = 7, 2100, 0, 0.0
    zero, neg = 0.0, float("-0.0")
    rows = [(step, clock, "pm-0", 20.0, 5.0, zero, migrations, svr),
            (step, clock, "pm-1", 21.0, 6.0, zero, migrations, svr),
            (step, clock, "pm-2", 22.0, 7.0, neg, migrations, svr)]
    text = per_step_text(rows)
    assert text == "".join(plain_lines(rows))
    assert [line.split(",")[5] for line in text.splitlines()] == \
        ["0.0", "0.0", "-0.0"]


def test_summarize_rejects_foreign_header(tmp_path):
    path = tmp_path / "per_step.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError):
        traceio.summarize_per_step(path)


def test_read_summary_rejects_foreign_header(tmp_path):
    # Once read by csv.DictReader, which left report a KeyError on 'svr'.
    path = tmp_path / "summary.csv"
    path.write_text("label,foo\nreplicate-0,1\n")
    with pytest.raises(SchemaError):
        traceio.read_summary_csv(path)


def test_csv_field_over_the_csv_limit_is_a_parse_error(tmp_path):
    # Once a csv.Error traceback ("field larger than field limit").
    path = tmp_path / "telemetry.csv"
    path.write_text(",".join(traceio.CSV_COLUMNS) + "\n"
                    + "x" * 200_000 + "\n")
    with pytest.raises(ParseError, match="field limit"):
        traceio.load_telemetry_csv(path)


def test_report_rows_hold_only_builtin_values(tmp_path):
    # The writers print values with str, which for a numpy float would
    # print a different text than for the builtin float of equal value.
    cfg = default_datacenter(seed=4, horizon_s=3000, replicates=2,
                             workload=WorkloadGenConfig(lambda_per_interval=2.0))
    report = engine.run(cfg)
    rows = list(report.per_step_rows) + list(report.replicate_rows)
    tasks = traceio.generate_workloads(WorkloadGenConfig(),
                                       np.random.default_rng(3), 50)
    rows += [(w.id, w.arrival_s, w.length_mi, w.mips_requested,
              w.file_size_mb, w.output_size_mb, w.ram_mb, w.cost_cd)
             for w in tasks]
    assert report.per_step_rows and tasks
    assert {type(v) for row in rows for v in row} <= {int, str, float}
