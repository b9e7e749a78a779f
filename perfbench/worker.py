"""Child process of the benchmark.

    worker.py setup WORKLOAD SEED LAUNCH
        cold start: import numpy, import dkpscatter, run one operation, then
        print one JSON line with the import times; the parent times the
        launch up to that line.

    worker.py run WORKLOAD SEED SECONDS OUTDIR TRACE PAUSES
        warm-up, then whole rounds of operations until SECONDS of them have
        passed, one thread, each operation timed on its own.  PAUSES times,
        spread evenly over the loop and between two operations, it prints
        "pause" and waits for "go" on stdin while the parent times a cold
        start; the pauses are not part of the SECONDS.  Records go to
        OUTDIR/records.pkl, the summary to OUTDIR/summary.json, and with
        TRACE=1 the spans to OUTDIR/trace.npz.  Peak RSS is read right after
        the timed loop; this process does no reference work.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _setup(workload: str, seed: int, launch: int) -> None:
    t0 = time.perf_counter()
    import numpy as np
    t1 = time.perf_counter()
    import dkpscatter
    t2 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload]
    ctx = workloads.Context(os.environ["PERFBENCH_TMP"])
    op = wl.round(np.random.default_rng([seed, wl.key, 2, launch]))[0]
    wl.execute(op, ctx)
    print(json.dumps({"numpy_s": t1 - t0, "dkpscatter_s": t2 - t1,
                      "jit": bool(dkpscatter.JIT_ENABLED)}), flush=True)


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.  ru_maxrss would also count the
    parent's pages at spawn time, which Linux carries across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(workload: str, seed: int, seconds: float, outdir: str,
         traced: bool, pauses: int) -> None:
    import pickle
    import platform

    import numpy as np
    import dkpscatter
    import dkpscatter.cli
    import workloads

    wl = workloads.WORKLOADS[workload]
    tmpdir = os.path.join(outdir, "tmp")
    os.makedirs(tmpdir)
    tracer, missing, cli_main = None, [], None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        missing = tracer.install()
        if wl.cli_span:
            cli_main = tracer.wrap(wl.cli_span, dkpscatter.cli.main)
    ctx = workloads.Context(tmpdir, cli_main)

    warm = np.random.default_rng([seed, wl.key, 1])
    done = 0
    while done < wl.warmup_ops:
        for op in wl.round(warm)[: wl.warmup_ops - done]:
            wl.execute(op, ctx)
            done += 1
    if tracer is not None:
        tracer.clear()

    rng = np.random.default_rng([seed, wl.key])
    clock = time.perf_counter
    pause_at = [(k + 0.5) * seconds / pauses for k in range(pauses)]
    paused = 0.0

    def pause() -> None:
        nonlocal paused
        t = clock()
        print("pause", flush=True)
        if sys.stdin.readline() != "go\n":
            raise SystemExit("the benchmark process went away")
        paused += clock() - t

    pending = []
    rounds = 0
    with open(os.path.join(outdir, "records.pkl"), "wb") as records:
        begin = clock()
        while True:
            for op in wl.round(rng):
                t0 = clock()
                try:
                    out = wl.execute(op, ctx)
                except Exception as exc:   # counted as a failed operation
                    out = {"error": repr(exc)}
                t1 = clock()
                pending.append((op, out, t0 - begin, t1 - t0))
                if pause_at and t1 - begin - paused >= pause_at[0]:
                    pause_at.pop(0)
                    pause()
            rounds += 1
            if len(pending) >= wl.flush_ops:
                pickle.dump(pending, records)
                pending = []
            if clock() - begin - paused >= seconds:
                break
        wall = clock() - begin - paused
        peak_rss_mb = _peak_rss_mb()
        pickle.dump(pending, records)
    for _ in pause_at:      # a last round may end past the last pause
        pause()
    if tracer is not None:
        tracer.save(os.path.join(outdir, "trace.npz"))
    summary = {
        "workload": workload, "seed": seed, "rounds": rounds, "wall_s": wall,
        "peak_rss_mb": peak_rss_mb, "traced": traced, "missing_trace_targets": missing,
        "jit": bool(dkpscatter.JIT_ENABLED), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
        "processor": platform.processor(), "cpus": os.cpu_count(),
    }
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        _setup(workload, seed, int(argv[3]))
    elif mode == "run":
        _run(workload, seed, float(argv[3]), argv[4], argv[5] == "1", int(argv[6]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
