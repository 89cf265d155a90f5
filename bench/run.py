"""Benchmark for antdyn: seeded closed-loop workloads, measured from outside.

Run from the repository root:

    python3 bench/run.py [--workload reproduce|verify-sweep|oracle|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as a single-client closed loop: one process, one
thread, and the next operation starts only after the previous one
returned.  The loop runs whole rounds over the workload's input pool
until ``--seconds`` have passed, after one untimed warm-up round whose
outputs are the reference: every later output must match it, and every
output must pass the workload's check (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` (median time for a fresh interpreter to import antdyn and
generate the workload's inputs), ``ops_per_s`` (operations over the
time spent in them), ``op_p50_ms``, ``op_p90_ms`` and ``peak_rss_mb``.
Times are scaled to a reference machine speed with a calibration burst
run after every operation and around every fresh interpreter (see
``REFERENCE_BURST_S``); the times as measured are printed beside them.

``--trace 1`` is a separate run that reports the per-layer metrics: it
runs a third of the time untraced and two thirds with every layer
wrapped (see ``tracing.py``).  Its times are as measured.
Counts (``.calls``, steps, bytes, verdicts, Newton iterations) are
taken on the first traced round over the pool and repeat exactly for
one seed; ``.ms`` and ``.self_ms`` are per operation, averaged over the
traced rounds; ``import.*_s`` come from ``python -X importtime``.

Operations that raise or exit nonzero count as failed (``refused``);
operations whose output fails its check count as failed and make
``correct`` false (``wrong``).  Every failing input is listed with its
error.  Results with the environment record go to
``bench/out/results-<workload>-seed<n>-trace<t>.json``, and the spans
of the latest traced run to ``bench/out/spans-<workload>.npz``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (warm-up round included), ``failed`` and
``metrics``.  ``--workload all`` runs each workload in turn in its own
process.
"""

from __future__ import annotations

import os

# One thread per process for BLAS and OpenMP pools; set before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("reproduce", "verify-sweep", "oracle")

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
UNTRACED_SHARE = 1.0 / 3.0

# The machine this benchmark runs on changes speed by up to 2x within
# seconds and drifts over minutes, and a fixed burst of interpreter and
# small-array work slows down in step with every workload (their ratio
# varies by about 2% where each varies by 17%).  Times are therefore
# reported at a reference speed: measured time * REFERENCE_BURST_S /
# (median burst time measured alongside it).  The burst is the
# benchmark's own code, so a change to antdyn cannot move it.
CALIBRATION_STEPS = 60
CALIBRATION_BURSTS = 5
REFERENCE_BURST_S = 5e-4


def calibration_burst() -> float:
    """Seconds taken by a fixed burst of work that does not touch antdyn."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 10)
    start = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        a = -1.0 + x / float(np.sum(x))
        x = x + 0.001 * a * x
    return time.perf_counter() - start


def speed_factor(bursts) -> float:
    """Multiplier that takes a time measured alongside ``bursts`` to reference speed."""
    return REFERENCE_BURST_S / statistics.median(bursts)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [
                line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")
            ]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {
            v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# ---------------------------------------------------------------------------
# fresh-interpreter measurements


def _child(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import antdyn and build the inputs.

    Returns the times as measured and at reference speed, from bursts
    run just before and just after each interpreter.  One untimed run
    first fills the bytecode and file caches.
    """
    times, scaled = [], []
    for k in range(SETUP_REPEATS + 1):
        target = workdir / f"setup-{k}"
        code = (
            f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import workloads; workloads.build({workload!r}, {seed}, {str(target)!r})"
        )
        bursts = [calibration_burst() for _ in range(CALIBRATION_BURSTS)]
        start = time.perf_counter()
        _child(code)
        elapsed = time.perf_counter() - start
        bursts += [calibration_burst() for _ in range(CALIBRATION_BURSTS)]
        shutil.rmtree(target, ignore_errors=True)
        if k:
            times.append(elapsed)
            scaled.append(elapsed * speed_factor(bursts))
    return times, scaled


def _importtime_totals(stderr: str) -> dict:
    """Cumulative seconds of the outermost antdyn and scipy imports."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((depth, field.strip(), int(cumulative) * 1e-6))
    totals = {"antdyn": 0.0, "scipy": 0.0}
    ancestors: list[tuple[int, str]] = []
    # importtime prints a module after the modules it imported
    for depth, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in ancestors):
            totals[top] += seconds
        ancestors.append((depth, name))
    return totals


def measure_imports() -> dict:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import antdyn, antdyn.cli"
    runs = [
        _importtime_totals(_child(code, "-X", "importtime").stderr)
        for _ in range(IMPORTTIME_REPEATS)
    ]
    return {key: statistics.median(r[key] for r in runs) for key in ("antdyn", "scipy")}


# ---------------------------------------------------------------------------
# closed loop


class Window:
    """Latencies and outcomes of whole rounds over a pool.

    ``factors`` holds, per operation, the speed factor of its round,
    from a calibration burst run after every operation.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.factors: list[float] = []
        self.wall = 0.0
        self.rounds = 0
        self.refused = 0
        self.wrong = 0
        self.signatures: list = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_rounds(workload, operation, seconds, reference, failures, on_round=None) -> Window:
    """Closed loop over whole rounds of the pool until ``seconds`` have passed.

    ``reference`` holds the first round's signatures (None while making
    them); ``failures`` collects the first failure of each input.
    """
    from workloads import OpFailure

    window = Window()
    clock = time.perf_counter
    begin = clock()
    while True:
        bursts = []
        for index, item in enumerate(workload.items):
            start = clock()
            try:
                result = operation(item.payload)
                problem = None
            except Exception as exc:  # the program refused this input
                problem = OpFailure("refused", f"{type(exc).__name__}: {exc}")
            window.latencies.append(clock() - start)
            if problem is None:
                try:
                    signature = workload.check(item.payload, result)
                except OpFailure as exc:
                    problem = exc
            if problem is not None:
                signature = ("failed", problem.kind, str(problem))
            elif reference is not None and signature != reference[index]:
                problem = OpFailure("wrong", "output differs from the first round")
            if window.rounds == 0:
                window.signatures.append(signature)
            if problem is not None:
                if problem.kind == "wrong":
                    window.wrong += 1
                else:
                    window.refused += 1
                failures.setdefault(
                    item.label, {"kind": problem.kind, "error": str(problem), "input": item.spec}
                )
            bursts.append(calibration_burst())
        window.factors += [speed_factor(bursts)] * len(bursts)
        window.rounds += 1
        if on_round is not None:
            on_round(window.rounds)
        if clock() - begin >= seconds:
            break
    window.wall = clock() - begin
    return window


def _latency_metrics(latencies) -> dict:
    """Throughput over the time spent in operations, median and p90 latency."""
    import numpy as np

    latencies = np.asarray(latencies)
    p50, p90 = np.percentile(latencies, [50, 90])
    return {
        "ops_per_s": latencies.size / float(np.sum(latencies)),
        "op_p50_ms": 1e3 * float(p50),
        "op_p90_ms": 1e3 * float(p90),
        "beyond_p90": int(np.sum(latencies > p90)),
    }


# ---------------------------------------------------------------------------
# runs


def _metric_values(names: list[str], values: dict, units: dict) -> dict:
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {n: {"value": values[n], "unit": units[n]} for n in names}


def timed_run(args, workload, workdir, spec, failures) -> tuple[dict, list[Window], list[str]]:
    setup, setup_scaled = measure_setup(args.workload, args.seed, workdir)
    reference = run_rounds(workload, workload.operation, 0.0, None, failures)
    window = run_rounds(workload, workload.operation, args.seconds, reference.signatures, failures)
    values = _latency_metrics([t * f for t, f in zip(window.latencies, window.factors)])
    wall = _latency_metrics(window.latencies)
    values["setup_s"] = statistics.median(setup_scaled)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    notes = [
        f"latency samples: {window.attempted} in {window.rounds} rounds of "
        f"{len(workload.items)}, {values['beyond_p90']} beyond p90",
        "times above are at reference speed; speed factor per round: "
        + ", ".join(f"{f:.3f}" for f in window.factors[:: len(workload.items)]),
        f"as measured: ops_per_s {wall['ops_per_s']:.4g} 1/s (loop wall time "
        f"{window.wall:.2f} s), op_p50_ms {wall['op_p50_ms']:.4g}, "
        f"op_p90_ms {wall['op_p90_ms']:.4g}, setup_s {statistics.median(setup):.4g} "
        f"(runs {', '.join(f'{t:.3f}' for t in setup)})",
    ]
    return _metric_values(names, values, units), [reference, window], notes


def traced_run(args, workload, spec, failures) -> tuple[dict, list[Window], list[str], dict]:
    import numpy as np

    from tracing import ROOT_SPAN, Tracer, summarize

    imports = measure_imports()
    reference = run_rounds(workload, workload.operation, 0.0, None, failures)
    untraced = run_rounds(
        workload, workload.operation, UNTRACED_SHARE * args.seconds, reference.signatures, failures
    )

    tracer = Tracer()
    tracer.instrument()
    root = tracer.wrap(ROOT_SPAN, workload.operation)
    first: dict = {}

    def on_round(rounds):
        if rounds == 1:
            first["spans"] = len(tracer.start)
            first["counters"] = dict(tracer.counters)

    try:
        traced = run_rounds(
            workload, root, (1.0 - UNTRACED_SHARE) * args.seconds, reference.signatures,
            failures, on_round,
        )
    finally:
        tracer.restore()

    spans = tracer.arrays()
    OUT.mkdir(parents=True, exist_ok=True)
    np.savez(OUT / f"spans-{args.workload}.npz", **spans)
    summary = summarize(spans, first["spans"])
    table = summary["spans"]
    ops = traced.attempted
    fits = table["analysis.fit_decay_rate"]
    changed = workload.notes.get("artifacts_changed", {})
    values = {
        "closedform.newton_iters": summary["newton_iters"],
        "analysis.fit_ok_ratio": (
            1.0 - fits["raised_first_pass"] / fits["calls_first_pass"]
            if fits["calls_first_pass"] else 0.0
        ),
        "presets.artifacts_changed": sum(len(v) for v in changed.values()),
        "import.antdyn_s": imports["antdyn"],
        "import.scipy_s": imports["scipy"],
        "trace.overhead_ratio": (
            (untraced.attempted / untraced.wall) / (traced.attempted / traced.wall)
        ),
    }
    for key in (
        "simulate.steps", "simulate.csv_bytes", "svgfig.svg_bytes",
        "reporting.write_text_atomic.bytes", "analysis.verdict.pass", "analysis.verdict.fail",
        "analysis.verdict.inconclusive",
    ):
        values[key] = first["counters"].get(key, 0)
    for name, row in table.items():
        values[f"{name}.calls"] = row["calls_first_pass"]
        values[f"{name}.ms"] = row["total_ms"] / ops
        values[f"{name}.self_ms"] = row["self_ms"] / ops

    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    wall_ms = 1e3 * traced.wall
    shares = {name: row["self_ms"] / wall_ms for name, row in table.items()}
    shares["(outside spans: checks, calibration, loop)"] = 1.0 - summary["root_ms"] / wall_ms
    notes = [
        f"traced: {ops} ops in {traced.rounds} rounds, {traced.wall:.2f} s; "
        f"untraced: {untraced.attempted} ops in {untraced.wall:.2f} s",
        f"spans recorded: {len(spans['start'])}; first-round spans: {first['spans']}",
        "share of traced wall time by self time:",
    ]
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    notes += [f"  {share:7.2%}  {name}" for name, share in ranked if share]
    notes.append(f"  {sum(shares.values()):7.2%}  total")
    extra = {
        "shares": shares, "spans": table, "first_round_counters": first["counters"],
        "imports_s": imports,
    }
    return _metric_values(names, values, units), [reference, untraced, traced], notes, extra


def run_one(args) -> int:
    spec = _spec()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import antdyn

    if Path(antdyn.__file__).resolve().parent != SRC / "antdyn":
        print(f"error: imported antdyn from {antdyn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    failures: dict = {}
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, windows, notes, extra = traced_run(args, workload, spec, failures)
        else:
            metrics, windows, notes = timed_run(args, workload, workdir, spec, failures)
            extra = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(w.attempted for w in windows)
    refused = sum(w.refused for w in windows)
    wrong = sum(w.wrong for w in windows)
    result = {
        "correct": wrong == 0, "attempted": attempted, "failed": refused + wrong,
        "metrics": metrics,
    }

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}: {why}")
    print(
        f"seed {args.seed}, {args.seconds} s, trace {args.trace}; "
        f"closed loop, 1 client, pool of {len(workload.items)}"
    )
    print(
        f"  ops_attempted {attempted}  ops_failed {refused + wrong} "
        f"(refused {refused}, wrong {wrong})"
    )
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for line in notes:
        print(f"  {line}")
    for paths in workload.notes.get("artifacts_changed", {}).values():
        for path in paths:
            print(f"  artifact differs from its stored digest: {path}")
    for label, failure in sorted(failures.items()):
        print(f"  failed input {label}: {failure['kind']}: {failure['error']} [{failure['input']}]")

    record = {
        "workload": args.workload, "why": why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(), "result": result, "notes": notes,
        "failures": failures, **extra,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "antdyn" / "__init__.py").is_file():
        print(f"error: no antdyn sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
