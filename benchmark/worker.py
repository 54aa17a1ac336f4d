"""Child process that makes a workload's invocations in a closed loop.

One caller: each ``portlab.cli.main`` call starts only after the previous one
returned, each into a fresh output directory. Every invocation's artifacts are
checked and hashed outside the timed region. With tracing on, untraced and
traced invocations alternate, so both medians come from the same stretch of
time. Usage: ``python worker.py SPEC.json RESULT.json`` (run.py writes both).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
from calibration import Calibrator
from spans import Tracer


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    os.chdir(spec["cwd"])
    import portlab.cli

    tracer = Tracer() if spec["trace"] else None

    def invoke(argv: list[str], traced: bool) -> tuple[int, float, dict | None]:
        if traced:
            tracer.install()
        try:
            with open(os.devnull, "w", encoding="utf-8") as devnull, contextlib.redirect_stdout(devnull):
                start = time.perf_counter()
                if traced:
                    status = tracer.call_root(portlab.cli.main, argv)
                else:
                    status = portlab.cli.main(argv)
                wall = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        return status, wall, tracer.take() if traced else None

    invocations = []
    first_spans = None  # spans of the first traced invocation, written at the end
    deadline = None
    index = 0
    # Every call writes into the same, emptied path: report.json embeds a hash
    # of the resolved config, output directory included.
    out = Path("out/run")
    with Calibrator() as calibrator:
        before = calibrator.kernel_s()
        while True:
            # warm-up is invocation 0; with tracing the rest alternate untraced/traced
            traced = tracer is not None and index > 0 and index % 2 == 0
            status, wall, trace = invoke(spec["argv"] + ["--out", str(out)], traced)
            after = calibrator.kernel_s()
            record = {
                "index": index,
                "wall_s": wall,
                "calib_s": [before, after],
                "status": status,
                "traced": traced,
            }
            before = after
            record.update(checks.inspect_output(out, spec["expected_files"]))
            if trace is not None:
                spans = trace.pop("spans")
                first_spans = first_spans or spans
                record["trace"] = trace
            invocations.append(record)
            if index > 0:
                shutil.rmtree(out, ignore_errors=True)
            else:
                out.rename(spec["first_out"])  # kept for the reference checks
                deadline = time.perf_counter() + spec["seconds"]
            index += 1
            measured = index - 1
            left = deadline - time.perf_counter()
            if measured >= spec["min_samples"] and left < wall:
                break

    result = {
        "invocations": invocations,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "spans": first_spans,
    }
    Path(result_path).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
