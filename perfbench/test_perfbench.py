"""Fast tests of the benchmark's own helpers (no dctherm import).

    python3 -m pytest perfbench
"""

import json
import os
import types

import pytest

import metrics
import spans
import workloads

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_benchmark():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def test_metric_names_match_the_pattern():
    for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
        assert metrics.NAME_PATTERN.fullmatch(name), name
    assert not metrics.NAME_PATTERN.fullmatch("gru.forward.l?.ms")
    assert not metrics.NAME_PATTERN.fullmatch(".leading_dot")
    assert not metrics.NAME_PATTERN.fullmatch("x" * 65)


def test_benchmark_json_lists_the_emitted_metrics_and_workloads():
    bench = load_benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GATED)
    assert set(workloads.GATED) <= set(workloads.NAMES)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    others = [b for name, b in bounds.items() if name != "setup_s"]
    assert bounds["setup_s"] > max(others) and max(bounds.values()) <= 0.25


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))            # 1..100
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 100) == 100
    assert metrics.percentile([7.0], 90) == 7.0
    assert metrics.percentile([3, 1, 2], 50) == 2   # unsorted input


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert metrics.beyond(100, 90) == 10
    assert metrics.beyond(99, 90) < 10
    # every repeat has at least 100 iterations, so p90 always qualifies
    assert min(workloads.steps(name) for name in workloads.NAMES) >= 100


def test_median():
    assert metrics.median([3, 1, 2]) == 2
    assert metrics.median([4, 1, 3, 2]) == 2.5


def test_best_iterations_takes_each_iteration_at_its_fastest():
    runs = [[5.0, 2.0, 9.0], [4.0, 3.0, 8.0], [6.0, 1.0, 10.0]]
    assert metrics.best_iterations(runs) == [4.0, 1.0, 8.0]
    assert metrics.best_iterations([[7.0, 8.0]]) == [7.0, 8.0]
    with pytest.raises(ValueError):
        metrics.best_iterations([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        metrics.best_iterations([])


def test_best_run_adds_the_fastest_remainder_to_the_best_iterations():
    # repeat 0: iterations 1000 + 3000 ms of a 4.5 s run (0.5 s remainder)
    # repeat 1: iterations 2000 + 2000 ms of a 4.2 s run (0.2 s remainder)
    runs = [[1000.0, 3000.0], [2000.0, 2000.0]]
    assert metrics.best_run_s([4.5, 4.2], runs) == pytest.approx(3.2)


def test_self_time_is_span_minus_direct_children():
    # run [0, 100] > step [10, 60] > map [20, 30], sort [30, 45]; step [60, 90]
    recorded = [["run", 0, 100, -1], ["step", 10, 60, 0], ["map", 20, 30, 1],
                ["sort", 30, 45, 1], ["step", 60, 90, 0]]
    assert spans.self_times_ns(recorded) == [20, 25, 10, 15, 30]
    by_name = spans.self_time_by_name(recorded, 0)
    assert by_name == {"run": 20, "step": 55, "map": 10, "sort": 15}
    assert sum(by_name.values()) == 100
    assert spans.nesting_errors(recorded) == []


def test_self_time_ignores_spans_outside_the_root():
    recorded = [["load_config", 0, 5, -1], ["run", 10, 20, -1],
                ["step", 11, 19, 1]]
    assert spans.self_time_by_name(recorded, 1) == {"run": 2, "step": 8}


def test_nesting_errors_flag_spans_outside_their_parent():
    recorded = [["run", 0, 10, -1], ["step", 5, 12, 0], ["open", 3, 0, 0]]
    errors = spans.nesting_errors(recorded)
    assert len(errors) == 2


def test_recorder_wraps_and_restores_module_attributes():
    module = types.SimpleNamespace(step=lambda x: x + 1, scalar=lambda: 0)
    original_step, original_scalar = module.step, module.scalar
    rec = spans.Recorder()
    assert rec.patch(module, "step", lambda fn: rec.timed(fn, "step"))
    assert rec.patch(module, "scalar", lambda fn: rec.counted(fn, "scalar"))
    assert not rec.patch(module, "renamed_away", lambda fn: fn)
    root = rec.open("run")
    assert module.step(1) == 2
    module.scalar()
    module.scalar()
    rec.close(root)
    rec.restore()
    assert module.step is original_step and module.scalar is original_scalar
    assert [s[0] for s in rec.spans] == ["run", "step"]
    assert rec.spans[1][3] == 0
    assert rec.counts["scalar"] == 2
    assert spans.nesting_errors(rec.spans) == []


def test_timed_span_closes_when_the_call_raises():
    rec = spans.Recorder()

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        rec.timed(boom, "boom")()
    assert rec.stack == [] and rec.spans[0][2] >= rec.spans[0][1]


def test_simulation_inputs_depend_only_on_the_seed():
    for name in workloads.SIMULATIONS:
        a = workloads.simulation_config(name, 3)
        assert a == workloads.simulation_config(name, 3)
        b = workloads.simulation_config(name, 4)
        assert a["seed"] == 3 and b["seed"] == 4
        assert {k: v for k, v in a.items() if k != "seed"} == \
            {k: v for k, v in b.items() if k != "seed"}
        assert a["horizon_s"] // a["interval_s"] == workloads.steps(name)
