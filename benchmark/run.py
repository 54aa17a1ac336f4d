"""portlab benchmark: one workload, one seed, one closed-loop run.

    python3 benchmark/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the repository root. It writes the workload's inputs under
``.bench_work/``, times fresh-interpreter set-up, runs the workload's set-up
command (if any) in a process of its own, then starts one child process
(``worker.py``) that calls ``portlab.cli.main`` back to back for
``--seconds`` after one warm-up call. Outputs are checked on every call and
against independent numpy/scipy references once per run. The last stdout
line is the result JSON; a fuller record goes to
``.bench_work/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, host_factor

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

SETUP_REPEATS = 7
SETUP_SNIPPET = "import sys, portlab.cli; portlab.cli.load_config(sys.argv[1])"
WORKER_GRACE_S = 90  # start-up, warm-up and last call; keeps a run under 180 s
PREPARE_TIMEOUT_S = 30
MIN_SAMPLES = {0: 3, 1: 4}  # per trace mode; tracing needs two of each kind
FIRST_OUT = "out/first"  # where the warm-up call's artifacts are kept

END_TO_END = (("run_s", "s"), ("assets_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _percentile_report(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile that leaves at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    rank = n - 10  # samples at or below the reported value
    return int(100 * rank / n), ordered[rank - 1]


def measure_setup(cwd: Path, config: Path) -> list[float]:
    """Wall seconds for fresh interpreters to import the CLI and load the config.

    Not host-scaled: the kernel does not track process start-up costs (exec,
    imports, page faults), and the median of several starts is steady without it.
    """
    command = [sys.executable, "-c", SETUP_SNIPPET, str(config)]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(command, cwd=cwd, env=_env(), check=True, timeout=60)
        if attempt:  # the first start warms the page cache and bytecode
            times.append(time.perf_counter() - start)
    return times


def prepare(argv: list[str], work: Path) -> None:
    """Run a workload's set-up command, such as the build whose weights a backtest
    reads, in its own process so its memory does not count in ``peak_rss_mb``."""
    subprocess.run(
        [sys.executable, "-m", "portlab.cli", *argv],
        cwd=work, env=_env(), check=True, stdout=subprocess.DEVNULL, timeout=PREPARE_TIMEOUT_S,
    )


def run_worker(spec: dict, work: Path) -> dict:
    spec_path, result_path = work / "spec.json", work / "worker-result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=_env(),
        stdout=subprocess.DEVNULL,
    )
    try:
        status = child.wait(timeout=spec["seconds"] + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise SystemExit("worker did not finish in time")
    if status != 0:
        raise SystemExit(f"worker exited with status {status}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def host_record(worker: dict, fixture) -> dict:
    import numpy
    import scipy

    cached_kb = None
    try:
        with open("/proc/meminfo", encoding="utf-8") as meminfo:
            for line in meminfo:
                if line.startswith("Cached:"):
                    cached_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": worker["blas_threads"],
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ},
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "page_cache": (
            "warm: inputs were written by this run and read by the warm-up call;"
            " caches are never dropped"
        ),
        "page_cache_kb": cached_kb,
        "input_bytes": fixture.input_bytes,
    }


def factor(sample: dict) -> float:
    """A call's host factor, from the kernel passes just before and after it."""
    before, after = sample["calib_s"]
    return host_factor(before + after)


def scaled(sample: dict) -> float:
    """A call's wall time at the reference host speed."""
    return sample["wall_s"] * factor(sample)


def layer_metrics(traced: list[dict], untraced_median: float, problems: list[str]) -> dict:
    """Median per-layer self times (host-scaled), exact counts and trace diagnostics."""
    traces = [inv["trace"] for inv in traced]
    factors = [factor(inv) for inv in traced]
    metrics = {}
    for name in sorted(traces[0]["layer"]):
        metrics[name] = (statistics.median(t["layer"][name] * f for t, f in zip(traces, factors)), "s")
    for name in sorted(traces[0]["counts"]):
        values = {t["counts"][name] for t in traces}
        if len(values) != 1:
            problems.append(f"count {name} differs between traced calls: {sorted(values)}")
        unit = "bytes" if name.endswith("bytes_read") else "count"
        metrics[name] = (traces[0]["counts"][name], unit)
    for name, unit in (("artifacts", "count"), ("bytes_written", "bytes")):
        values = {inv[name] for inv in traced}
        if len(values) != 1:
            problems.append(f"cli.{name} differs between traced calls: {sorted(values)}")
        metrics[f"cli.{name}"] = (traced[0][name], unit)
    traced_median = statistics.median(scaled(inv) for inv in traced)
    metrics["trace.run_s"] = (traced_median, "s")
    metrics["trace.overhead_s"] = (traced_median - untraced_median, "s")
    metrics["trace.coverage"] = (
        statistics.median(
            sum(v for k, v in t["layer"].items() if k != "cli.self_s") / t["root_s"] for t in traces
        ),
        "ratio",
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "portlab" / "cli.py").is_file():
        print(f"no portlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    from workloads import TEST_END, TEST_START, TRAIN_END, WORKLOADS, make_fixture

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results_dir = CHECKOUT / ".bench_work" / "results"
    work = CHECKOUT / ".bench_work" / f"{stem}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        fixture = make_fixture(workload, args.seed, work)
        setup_samples = measure_setup(work, fixture.config)
        if fixture.prepare_argv:
            prepare(fixture.prepare_argv, work)
        worker = run_worker(
            {
                "cwd": str(work),
                "argv": fixture.argv,
                "expected_files": fixture.expected_files,
                "seconds": args.seconds,
                "trace": args.trace,
                "min_samples": MIN_SAMPLES[args.trace],
                "first_out": FIRST_OUT,
            },
            work,
        )
        invocations = worker["invocations"]
        problems = []
        first_hash = invocations[0]["hash"]
        failed = 0
        for inv in invocations:
            bad = inv["status"] != 0 or inv["problems"] or inv["hash"] != first_hash
            failed += bool(bad)
            problems += [f"call {inv['index']}: {p}" for p in inv["problems"]]
            if inv["status"] != 0:
                problems.append(f"call {inv['index']}: exit status {inv['status']}")
            elif inv["hash"] != first_hash:
                problems.append(f"call {inv['index']}: artifacts differ from the first call's")
        if not invocations[0]["problems"] and invocations[0]["status"] == 0:
            windows = {
                "train": (workload.start.isoformat(), TRAIN_END.isoformat()),
                "test": (TEST_START.isoformat(), TEST_END.isoformat()),
            }
            reference_problems = reference.check_run(
                work, fixture.sectors, workload.layout, windows,
                weights_dir=fixture.weights_dir or FIRST_OUT, report_dir=FIRST_OUT,
            )
            if reference_problems:
                problems += reference_problems
                failed = len(invocations)  # every call matched the first call's bytes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [inv for inv in invocations[1:] if not inv["traced"]]
    run_times = [scaled(inv) for inv in measured]
    run_s = statistics.median(run_times)
    wall_s = statistics.median(inv["wall_s"] for inv in measured)
    end_to_end = {
        "run_s": run_s,
        "assets_per_s": fixture.n_assets / run_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": worker["maxrss_kb"] / 1024.0,
    }
    if args.trace:
        traced = [inv for inv in invocations if inv["traced"]]
        layers = layer_metrics(traced, run_s, problems)
        missing = sorted(n for n in workload.expected_calls if traced[0]["trace"]["calls"][n] == 0)
        layers["trace.missing"] = (len(missing), "count")
        layers["trace.spans"] = (len(worker["spans"]), "count")
        for name, want in (
            ("market_data.files", fixture.files),
            ("market_data.rows", fixture.rows),
            ("market_data.cells_missing", fixture.cells_missing),
            ("market_data.bytes_read", fixture.input_bytes),
        ):
            got = layers[name][0]
            if got and got != want:
                problems.append(f"{name} = {got}, but the generated inputs hold {want}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        missing = []
        metrics = {
            name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END
        }

    percentile = _percentile_report(run_times)
    factors = [factor(inv) for inv in invocations]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop": {"clients": 1, "jobs": 1},
        "n_assets": fixture.n_assets,
        "run_s": {
            "median": run_s,
            "samples": len(run_times),
            "tail": {"percentile": percentile[0], "value": percentile[1]} if percentile else None,
            "wall_median": wall_s,
        },
        "error_rate": failed / len(invocations),
        "end_to_end": end_to_end,
        "setup_s_samples": setup_samples,
        "metrics": metrics,
        "missing": missing,
        "problems": problems,
        "host_factor": {
            "reference_s": REFERENCE_S,
            "median": statistics.median(factors),
            "min": min(factors),
            "max": max(factors),
        },
        "host": host_record(worker, fixture),
        "invocations": [
            {k: inv[k] for k in ("index", "traced", "wall_s", "calib_s", "status")}
            for inv in invocations
        ],
    }
    if args.trace:
        record["spans_file"] = f"{stem}-spans.json"
        (results_dir / record["spans_file"]).write_text(json.dumps(worker["spans"]) + "\n", "utf-8")
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", "utf-8")

    tail = f"p{percentile[0]} {percentile[1]:.4f} s" if percentile else "n/a (<11 samples)"
    print(f"workload {workload.name}  seed {args.seed}  assets {fixture.n_assets}  "
          f"closed loop, 1 client, --jobs 1")
    print(f"  run_s          {run_s:.4f} s  (median of {len(run_times)}; tail {tail})")
    print(f"  wall median    {wall_s:.4f} s  (host factor {min(factors):.3f}..{max(factors):.3f})")
    print(f"  assets_per_s   {end_to_end['assets_per_s']:.2f} 1/s")
    print(f"  setup_s        {end_to_end['setup_s']:.4f} s  (median of {len(setup_samples)})")
    print(f"  peak_rss_mb    {end_to_end['peak_rss_mb']:.1f} MB")
    print(f"  error_rate     {record['error_rate']:.4f}  ({failed} of {len(invocations)} calls)")
    if args.trace:
        for name, (value, unit) in sorted(layers.items()):
            print(f"  {name:<32} {value:.6g} {unit}")
        if missing:
            print(f"  missing spans: {', '.join(missing)}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
