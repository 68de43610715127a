"""dctherm benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {fleet,overload,churn,train}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each repeat is a fresh single-threaded
process (perfbench/repeat.py) that imports dctherm from src/, builds its
inputs, runs the workload through the public API and checks its outputs.
Repeats continue until --seconds have passed (at least MIN_REPEATS).

--trace 0 prints the end-to-end metrics: set-up time and memory as
medians over repeats; run time and the median iteration from each
iteration's fastest time across the repeats; the 90th-percentile
iteration over every iteration of every repeat. --trace 1
alternates plain and traced repeats and prints the per-layer metrics of
the traced repeat with the median run time, plus the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPEATS = 3
REPEAT_TIMEOUT_S = 150
RUN_BUDGET_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
NOT_COLLECTED = ("hardware performance counters and page-cache dropping "
                 "(the benchmark runs unprivileged)")


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_repeat(args, work, index, traced, input_path):
    out = os.path.join(work, f"repeat-{index}")
    os.makedirs(out)
    result_path = os.path.join(out, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "repeat.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out, "--result", result_path]
    if input_path:
        cmd += ["--input", input_path]
    if traced:
        cmd.append("--trace")
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"repeat {index}: killed after {REPEAT_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"repeat {index}: exited {proc.returncode}\n{tail}")
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    result["traced"] = traced
    return result


def repeat_failures(result, reference_digest):
    """Names of the output checks this repeat failed."""
    failed = [name for name, ok in result["checks"].items() if not ok]
    if result["digest"] != reference_digest:
        failed.append("outputs identical to the first repeat of this seed")
    failed += [f"span nesting: {err}" for err in result["nesting_errors"][:3]]
    if result["traced"]:
        total = sum(result["self_ms"].values())
        if abs(total - 1e3 * result["run_s"]) > 1e-6 * max(1.0, total):
            failed.append(f"self times sum to {total:.3f} ms, "
                          f"not run_s {1e3 * result['run_s']:.3f} ms")
    return failed


def end_to_end(results):
    """End-to-end values from the repeats of one run, and the sample counts
    of the two iteration percentiles.

    Set-up and memory are medians over repeats. ``iter_ms_p50`` and
    ``run_s`` take each iteration at its fastest across the repeats
    (metrics.best_iterations); ``iter_ms_p90`` is taken over every
    iteration of every repeat, as they ran."""
    runs = [r["iter_ms"] for r in results]
    best = metrics.best_iterations(runs)
    pooled = [ms for times in runs for ms in times]
    return {
        "setup_s": metrics.median([r["setup_s"] for r in results]),
        "run_s": metrics.best_run_s([r["run_s"] for r in results], runs),
        "iter_ms_p50": metrics.percentile(best, 50),
        "iter_ms_p90": metrics.percentile(pooled, 90),
        "peak_rss_mb": metrics.median([r["peak_rss_mb"] for r in results]),
    }, len(best), len(pooled)


def print_end_to_end(workload, results):
    values, n_best, n_pooled = end_to_end(results)
    n = len(results)
    detail = {
        "setup_s": f"median of {n} fresh processes",
        "run_s": f"each iteration and the remainder at their fastest "
                 f"of {n} repeats; median repeat "
                 f"{metrics.median([r['run_s'] for r in results]):.6f} s",
        "iter_ms_p50": f"{n_best} iterations, each its fastest of "
                       f"{n} repeats",
        "iter_ms_p90": f"all {n_pooled} iterations of {n} repeats, "
                       f"{metrics.beyond(n_pooled, 90)} beyond",
        "peak_rss_mb": f"median of {n} repeats",
    }
    print(f"end-to-end ({workload}, host time):")
    for name, value in values.items():
        print(f"  {name:<12} = {value:12.6f} {metrics.END_TO_END[name]:<3} "
              f"({detail[name]})")
    if workload == "train":
        print(f"  {'accuracy':<12} = {results[0]['qos']['accuracy']:12.6f} "
              "fraction (held-out windows within 5%; checked, "
              "deterministic per seed)")

    def med(key):
        return metrics.median([r[key] for r in results])

    cpu = metrics.median([r["run_cpu_s"] / r["run_s"] for r in results])
    print(f"  (run cpu/wall median {cpu:.3f}; set-up split, medians: "
          f"interpreter {med('interpreter_s'):.3f} s, "
          f"import done {med('import_s'):.3f} s)")
    return values, n_pooled


def print_layers(rep, overhead):
    print(f"per-layer (traced repeat with the median run_s = "
          f"{rep['run_s']:.6f} s; trace.overhead = {overhead:.4f}):")
    for name, unit in metrics.PER_LAYER.items():
        value = overhead if name == "trace.overhead" else rep["layers"][name]
        print(f"  {name:<40} {value:>16.6f} {unit}")
    print("self time by span inside the run window (ms):")
    for name, ms in sorted(rep["self_ms"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:<40} {ms:>12.3f}")
    total = sum(rep["self_ms"].values())
    print(f"  {'sum':<40} {total:>12.3f}  (run_s = {1e3 * rep['run_s']:.3f} ms)")


def collect(args, work, input_path):
    """Run repeats until --seconds have passed; returns (passing results,
    repeats attempted, repeats failed)."""
    min_repeats = 2 * MIN_REPEATS if args.trace else MIN_REPEATS
    start = time.monotonic()
    results, failed, index, last_s = [], 0, 0, 0.0
    reference = None
    while True:
        elapsed = time.monotonic() - start
        if index >= min_repeats and elapsed >= args.seconds:
            break
        if elapsed + 1.5 * last_s > RUN_BUDGET_S:
            break
        # Trace runs alternate plain and traced repeats, swapping which
        # goes first in each pair.
        traced = bool(args.trace) and index % 2 == (index // 2) % 2
        t0 = time.monotonic()
        result = run_repeat(args, work, index, traced, input_path)
        last_s = time.monotonic() - t0
        index += 1
        if result is None:
            failed += 1
            continue
        reference = reference or result["digest"]
        failures = repeat_failures(result, reference)
        print(f"repeat {index - 1}{' traced' if traced else ''}: "
              f"setup {result['setup_s']:.4f} s  run {result['run_s']:.4f} s  "
              f"rss {result['peak_rss_mb']:.1f} MB  checks "
              + ("ok" if not failures else "FAILED: " + "; ".join(failures)))
        if failures:
            failed += 1
        else:
            results.append(result)
    return results, index, failed


def print_checks(workload, results):
    """Print the environment, the checks and the recorded QoS values;
    returns whether every workload self-check held."""
    first = results[0]
    print("env: " + " ".join(f"{k}={v}" for k, v in first["env"].items())
          + f"; not collected: {NOT_COLLECTED}")
    print("output checks (every repeat):")
    for name in first["checks"]:
        print(f"  ok  {name}")
    print("  ok  outputs identical across repeats of this seed "
          f"({first['digest'][:16]})")
    all_ok = True
    print(f"workload self-checks ({workload}):")
    for name in first["selfchecks"]:
        ok = all(r["selfchecks"][name] for r in results
                 if name in r["selfchecks"])
        all_ok &= ok
        print(f"  {'ok ' if ok else 'BAD'} {name}")
    print("recorded, not gated: " + " ".join(
        f"{k}={v}" for k, v in first["qos"].items()))
    if "per_step_sha256" in first:
        print(f"  per_step.csv sha256 {first['per_step_sha256']}")
    return all_ok


def traced_values(args, results, work_root):
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    if not plain or not traced:
        return None
    overhead = end_to_end(traced)[0]["run_s"] / end_to_end(plain)[0]["run_s"]
    rep = sorted(traced, key=lambda r: r["run_s"])[(len(traced) - 1) // 2]
    print_layers(rep, overhead)
    kept = os.path.join(work_root, "traces",
                        f"{args.workload}-seed{args.seed}.spans.json")
    os.makedirs(os.path.dirname(kept), exist_ok=True)
    shutil.copyfile(rep["spans_path"], kept)
    print(f"spans of that repeat written to {kept}")
    return dict(rep["layers"], **{"trace.overhead": overhead})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dctherm", "__init__.py")):
        print(f"error: no dctherm sources under {ROOT}/src", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    input_path = None
    if args.workload in workloads.SIMULATIONS:
        input_path = os.path.join(work, "config.json")
        with open(input_path, "w") as fh:
            json.dump(workloads.simulation_config(args.workload, args.seed), fh)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        results, attempted, failed = collect(args, work, input_path)
        if not results:
            print("error: no repeat completed with passing checks",
                  file=sys.stderr)
            return 1
        selfchecks_ok = print_checks(args.workload, results)
        if args.trace:
            values = traced_values(args, results, work_root)
            if values is None:
                print("error: a trace run needs passing plain and traced "
                      "repeats", file=sys.stderr)
                return 1
            units = metrics.PER_LAYER
        else:
            values, n_pooled = print_end_to_end(args.workload, results)
            if metrics.beyond(n_pooled, 90) < 10:
                print("error: fewer than ten iterations beyond p90",
                      file=sys.stderr)
                return 1
            units = metrics.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0 and selfchecks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
