"""One benchmark execution in a fresh interpreter.

Run with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds ``setup_config`` (the configuration loaded during set-up),
``commands`` (argument lists for ``pdmpipe.cli.main``, run in order),
``trace`` (record spans) and ``setup_only`` (stop after set-up). The
worker times set-up (``import pdmpipe``, ``load_config`` and the knowledge
base load), then the commands, from the first ``cli.main`` call to the
last return, and writes what it measured to RESULT.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}}


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import pdmpipe
    t1 = time.perf_counter()
    pdmpipe.load_config(spec["setup_config"])
    t2 = time.perf_counter()
    pdmpipe.default_kb()
    t3 = time.perf_counter()
    result = {"setup_s": t3 - t0, "env": environment()}
    if not spec["setup_only"]:
        from pdmpipe import cli

        tracer = None
        if spec["trace"]:
            # imported after set-up, so that set-up pays for numpy itself
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            tracer.add("pdmpipe.import", t0, t1)
            tracer.add("config.load_config", t1, t2)
            tracer.add("knowledge.default_kb", t2, t3)
            tracer.install()
        codes, stdout = [], []
        cpu0 = cpu_seconds()
        w0 = time.perf_counter()
        for i, argv in enumerate(spec["commands"]):
            if tracer is not None:
                tracer.command = i
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(cli.main(argv))
            stdout.append(buf.getvalue())
        w1 = time.perf_counter()
        result.update(
            wall_s=w1 - w0, cpu_s=cpu_seconds() - cpu0, exit_codes=codes, stdout=stdout,
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.spans, w1 - w0)
            result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
