#!/usr/bin/env python3
"""Benchmark of the canonical-ring and map-verification paths of godeaux.

One run measures one workload in this process:

    python3 perfbench/run.py --workload canring-export --seed 1 --seconds 30 --trace 0

It times the import of the program and the loading of the shipped instance
(`setup_s`), then repeats whole operations until `--seconds` have passed,
then checks every output with `checks.py`.  Times are reported in reference
seconds: each call's wall time is scaled by the machine's speed, measured
with a fixed piece of work just before and just after the call (`Speed`).
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of `tracing.py` with `--trace 1`.  Each run also writes
its figures to `perfbench/results/`.

Without `--workload` it runs every workload, each in a process of its own,
and prints every metric by name with its unit; `--seconds 0` makes that a
smoke test of one operation per workload.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from elimination import echelon

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "godeaux" / "data" / "godeaux.json"
RESULTS = HERE / "results"

WORKLOADS = ("canring-export", "canring-deep", "verify-maps")
HORIZONS = {"canring-export": 12, "canring-deep": 13}  # canring --max-degree
SETUP_REPEATS = 15
RUN_SECONDS = 55  # as in BENCHMARK.json
VERIFY_TARGETS = ("tricanonical", "fourcanonical", "base-locus", "paper-generators")

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

# The speed probe: elimination of one fixed integer matrix, about 0.07 s.
PROBE_SEED = 1404
PROBE_SHAPE = (60, 48)
PROBE_REFERENCE_S = 0.07  # the probe's time on the reference machine, quiet


class Speed:
    """The machine's speed, probed between calls into the program.

    On a shared machine the same call can take 1.5 times longer in one
    minute than in the next, for every process alike.  The probe is the
    benchmark's own integer elimination, like the program's hot path, and
    runs before and after each timed call.  `reference` turns a call's wall
    time into reference seconds: wall time times PROBE_REFERENCE_S over the
    mean of the two probes around the call.
    """

    def __init__(self):
        rng = random.Random(PROBE_SEED)
        rows, cols = PROBE_SHAPE
        self._matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        self.probes: list[float] = []
        self._last = self._probe()

    def _probe(self) -> float:
        start = time.perf_counter()
        echelon(self._matrix)
        elapsed = time.perf_counter() - start
        self.probes.append(elapsed)
        return elapsed

    def reference(self, wall: float) -> float:
        """Reference seconds of a call that has just ended."""
        before, self._last = self._last, self._probe()
        return wall * PROBE_REFERENCE_S / ((before + self._last) / 2)


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# -- set-up ------------------------------------------------------------------


def _purge_program() -> None:
    for name in [n for n in sys.modules if n == "godeaux" or n.startswith("godeaux.")]:
        del sys.modules[name]


def set_up(speed: Speed) -> float:
    """Import the program from this checkout and load the shipped instance,
    several times over; returns the median time of one set-up, in
    reference seconds."""
    if not (SRC / "godeaux" / "__init__.py").is_file() or not DATA.is_file():
        _die(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_program()
        gc.collect()
        start = time.perf_counter()
        importlib.import_module("godeaux.cli")
        importlib.import_module("godeaux.instance").load_instance()
        times.append(speed.reference(time.perf_counter() - start))
    if Path(sys.modules["godeaux"].__file__).resolve().parent != SRC / "godeaux":
        _die("imported a godeaux package from outside this checkout")
    return statistics.median(times)


# -- operations ----------------------------------------------------------------


class Call:
    """One call into the program: what it returned and how long it took, in
    wall seconds and in reference seconds."""

    def __init__(self, label: str, code: int, output, seconds: float, speed: Speed):
        self.label = label
        self.code = code
        self.output = output
        self.seconds = seconds
        self.ref_seconds = speed.reference(seconds)


def _cli(speed: Speed, label: str, argv: list[str]) -> Call:
    cli = sys.modules["godeaux.cli"]
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return Call(label, code, out.getvalue(), time.perf_counter() - start, speed)


def canring_op(horizon: int):
    argv = ["canring", "--format", "structured"]
    if horizon != 12:
        argv += ["--max-degree", str(horizon)]
    return lambda speed: [_cli(speed, "canring", argv)]


def verify_maps_op(speed: Speed) -> list[Call]:
    calls = [_cli(speed, f"verify.{t}", ["verify", t, "--format", "structured"])
             for t in VERIFY_TARGETS]
    canring = sys.modules["godeaux.canring"]
    instance = sys.modules["godeaux.instance"]
    start = time.perf_counter()
    report = canring.Pipeline(instance.load_instance()).fourcanonical(d_max=6)
    calls.append(Call("pipeline.fourcanonical", 0, report, time.perf_counter() - start,
                      speed))
    return calls


OPERATIONS = {
    "canring-export": canring_op(HORIZONS["canring-export"]),
    "canring-deep": canring_op(HORIZONS["canring-deep"]),
    "verify-maps": verify_maps_op,
}


# -- checks --------------------------------------------------------------------


def check_outputs(workload: str, ops: list[list[Call]]) -> list[str]:
    """Problems found in the outputs of every call, whatever its exit status.

    Every operation of a run gets the same input, so the first output of each
    call is checked in full and the others must equal it, exit status too.
    A non-zero exit status is a problem in itself, except exit 1 from
    `verify fourcanonical`, which `checks.check_verify_fourcanonical` accepts
    only when the command's own verdicts follow from certified numbers."""
    import checks

    canring = sys.modules["godeaux.canring"]
    instance = sys.modules["godeaux.instance"]
    pipe = canring.Pipeline(instance.load_instance())
    ref = checks.Reference(DATA, pipe.descend_polys)
    problems: list[str] = []
    firsts: dict[str, Call] = {}
    for op in ops:
        for call in op:
            first = firsts.setdefault(call.label, call)
            if (call.code, call.output) != (first.code, first.output):
                problems.append(f"{call.label}: output differs between operations")
    certified = None
    for label, call in firsts.items():
        out = call.output
        if isinstance(out, str):
            try:
                out = json.loads(out)
            except ValueError:
                problems.append(f"{label}: exit status {call.code}, output is not JSON")
                continue
        if label == "canring":
            problems += checks.check_canring(ref, call.code, out, HORIZONS[workload])
        elif label == "verify.tricanonical":
            problems += checks.check_verify_tricanonical(ref, call.code, out)
        elif label == "verify.base-locus":
            problems += checks.check_verify_base_locus(ref, call.code, out)
        elif label == "verify.paper-generators":
            problems += checks.check_paper_generators(ref, call.code, out)
        else:
            if certified is None:
                certified, found = checks.certified_quartic_h(ref)
                problems += found
            if label == "verify.fourcanonical":
                problems += checks.check_verify_fourcanonical(ref, call.code, out, certified)
            else:
                problems += checks.check_fourcanonical(ref, out, certified)
    return problems


# -- one run -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    speed = Speed()
    setup_s = set_up(speed)
    op = OPERATIONS[workload]
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()

    ops: list[list[Call]] = []
    op_times: list[float] = []  # reference seconds of the untraced operations
    traced_times: list[float] = []
    walls = {False: 0.0, True: 0.0}  # wall time of the last operation of each kind
    layers: list[dict] = []
    begin = time.perf_counter()
    while True:
        # with tracing, every second operation is traced; the others give the
        # untraced time to compare with
        traced = tracer is not None and len(ops) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            calls = op(speed)
        finally:
            walls[traced] = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        ops.append(calls)
        elapsed = sum(c.ref_seconds for c in calls)
        if traced:
            traced_times.append(elapsed)
            layers.append(_layer_metrics(tracer, calls))
        else:
            op_times.append(elapsed)
        if tracer is not None and not traced_times:
            continue
        # start no operation that would end after the deadline, judged by the
        # last one of its kind, so that a run lasts at most about `seconds`
        upcoming = tracer is not None and len(ops) % 2 == 1
        if time.perf_counter() - begin + walls[upcoming] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_outputs(workload, ops)
    attempted = sum(len(c) for c in ops)
    failed = sum(1 for c in ops for call in c if call.code != 0)
    if tracer is None:
        metrics = {"setup_s": setup_s, "op_s": statistics.median(op_times),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    else:
        metrics, units = _per_layer(layers, op_times, traced_times, problems)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  problems=problems, op_ref_s=op_times, traced_op_ref_s=traced_times,
                  op_wall_s=[sum(c.seconds for c in o) for o in ops],
                  probe_s=speed.probes)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    for problem in problems:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    return result


def _layer_metrics(tracer, calls: list[Call]) -> dict:
    got = tracer.snapshot()
    for command in ["canring"] + [f"verify.{t}" for t in VERIFY_TARGETS]:
        got[f"cli.{command}.s"] = sum((c.seconds for c in calls if c.label == command), 0.0)
    got["cli.doc_bytes"] = sum(len(c.output.encode()) for c in calls
                               if isinstance(c.output, str))
    return got


def _per_layer(layers: list[dict], op_times, traced_times, problems):
    """Counts of the first traced operation (every traced operation must give
    the same counts), and the median of each time."""
    first = layers[0]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s") or name.endswith(".s"):
            metrics[name] = statistics.median(layer[name] for layer in layers)
        else:
            metrics[name] = value
            if any(layer[name] != value for layer in layers):
                problems.append(f"per-layer count {name} differs between operations")
    untraced = statistics.median(op_times)
    traced = statistics.median(traced_times)
    metrics["bench.op.untraced_s"] = untraced
    metrics["bench.op.traced_s"] = traced
    metrics["bench.op.overhead_s"] = traced - untraced
    units = {name: _unit(name) for name in metrics}
    return metrics, units


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".useful"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("doc_bytes"):
        return "bytes"
    return "count"


# -- every workload ----------------------------------------------------------


def run_all(seed: int, seconds: float, traces: list[int]) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    status = 0
    for workload in WORKLOADS:
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit status {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload to run (default: every workload)")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the inputs are the shipped data")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long to repeat operations (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: per-layer metrics; default with --workload is 0, "
                             "without it both")
    args = parser.parse_args(argv)
    if args.workload is None:
        traces = [0, 1] if args.trace is None else [args.trace]
        return run_all(args.seed, args.seconds, traces)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
