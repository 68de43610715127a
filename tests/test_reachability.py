"""Every function in the package is reached by some `dctherm` command.

``cli.main`` runs in-process under ``sys.setprofile`` on every subcommand:
``simulate`` on perfbench's fleet, churn and overload configs cut to 20
steps, under each policy in both thermal modes, once with replicates and
``--out``, once replaying a trace directory; ``report`` on the run
directory written; ``train-predictor`` from synthetic windows and from a
telemetry CSV; ``predict``; and one malformed config and one malformed
telemetry file. The process is a fresh interpreter whose profiler starts
before the package is imported, so functions run at import count too.
Every ``def`` that ``ast`` finds in the package must have been entered,
except the names in ``KEPT``, which no command reaches by design.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dctherm import cli, predictor, thermal, traceio

from test_bench_bytes import simulation_config
from test_golden import write_traces
from test_traceio import write_telemetry_csv

PACKAGE = Path(cli.__file__).resolve().parent
STEPS = 20

# (module, qualified name): why the function stays though no command runs it.
KEPT = {
    ("model", "default_datacenter"):
        "README's library sketch and the tests build configs with it",
    ("utilization", "Assignment.assigned"):
        "the benchmark counts the tasks a walk places through it",
    ("errors", "NonFiniteLoss.__init__"): "runs only when training diverges",
}


def defined_functions():
    """{(file, first line): (module, qualified name)} for every def in the
    package. A decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (path.stem, name)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


# Profiles the commands in argv[1] (a JSON list of argument lists) and
# writes their exit codes and the (file, first line) of every Python
# function entered to argv[2].
TRACER = """
import json, os, sys
codes = set()
def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
sys.setprofile(profile)
from dctherm import cli
exits = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
with open(sys.argv[2], "w") as fh:
    json.dump([exits, [(os.path.realpath(code.co_filename), code.co_firstlineno)
                       for code in codes]], fh)
"""


def entered(commands, out_path):
    """Run each argument list through ``cli.main`` in a fresh interpreter
    under a profiler; returns the exit codes and the (file, first line) of
    every Python function entered."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    subprocess.run([sys.executable, "-c", TRACER, json.dumps(commands),
                    str(out_path)], env=env, check=True, capture_output=True,
                   timeout=300)
    exits, reached = json.loads(out_path.read_text())
    return exits, {tuple(key) for key in reached}


def commands(tmp_path):
    """(argv, expected exit code) per command, with the files they read."""
    out = []
    for name in ("fleet", "churn", "overload"):
        for mode in thermal.MODES:
            data = simulation_config(name, seed=1)
            data.update(horizon_s=STEPS * data["interval_s"],
                        thermal_mode=mode)
            path = tmp_path / f"{name}-{mode}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            for policy in cli.registered_policies():
                out.append((["simulate", "--config", str(path),
                             "--policy", policy], 0))
    fleet = str(tmp_path / "fleet-literal.json")
    run_dir = str(tmp_path / "run")
    out.append((["simulate", "--config", fleet, "--replicates", "2",
                 "--out", run_dir], 0))
    out.append((["report", "--in", run_dir], 0))

    data = simulation_config("fleet", seed=1)
    (tmp_path / "traces").mkdir()
    data.update(horizon_s=STEPS * data["interval_s"],
                trace_dir=write_traces(tmp_path / "traces"))
    traced = tmp_path / "traced.json"
    traced.write_text(json.dumps(data), encoding="utf-8")
    out.append((["simulate", "--config", str(traced)], 0))

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hosts": [{"id": "pm-0", "sockets": 2}]}),
                   encoding="utf-8")
    out.append((["simulate", "--config", str(bad)], cli.EXIT_CONFIG))
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(traceio.CSV_COLUMNS) + "\nN1,0,1,1,1,1,x\n",
                   encoding="utf-8")

    telemetry = tmp_path / "telemetry.csv"
    write_telemetry_csv(predictor.synthesize_telemetry(
        1, 20, np.random.default_rng(4)), telemetry)
    model = str(tmp_path / "model.bin")
    out.append((["train-predictor", "--synthetic", "12", "--epochs", "1",
                 "--out", model], 0))
    out.append((["train-predictor", "--data", str(telemetry), "--epochs", "1",
                 "--out", str(tmp_path / "from-csv.bin")], 0))
    out.append((["predict", "--model", model, "--data", str(telemetry)], 0))
    out.append((["predict", "--model", model, "--data", str(bad)],
                cli.EXIT_IO))
    return out


def test_every_function_is_reached_by_a_command(tmp_path):
    argvs, want_exits = zip(*commands(tmp_path))
    exits, reached = entered(argvs, tmp_path / "reached.json")
    assert exits == list(want_exits)
    defined = defined_functions()
    unreached = {defined[key] for key in defined.keys() - reached}
    assert unreached == set(KEPT)
