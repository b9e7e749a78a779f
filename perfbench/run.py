"""dkpscatter benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Runs from a source checkout (the package is imported from ./src).  Every
worker and every cold start is a fresh interpreter:

1. one worker process runs the timed loop (`worker.py run`); it pauses
   LAUNCHES times, spread evenly over the loop, and in each pause this
   process times one cold start.  `setup_s` is the median time from launch
   to the first completed operation of those launches, so it samples the
   same stretch of time as the loop; the import times come from them too.
   One launch before the loop fills the bytecode cache and is not counted;
2. this process, which never imports dkpscatter, checks every output,
   some against mpmath, and prints the metrics.

With `--trace 1` step 1 is followed by a traced run without pauses, and the
per-module metrics come from its spans; the loss of items/s between the
two runs is reported as the tracing overhead.  The last line
of standard output is the result object; the full report goes to
perfbench/out/result-<workload>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LAUNCHES = 11            # cold starts per run; setup_s is their median
WAVE_REFERENCE_ROWS = 8
SWEEP_REFERENCE_ROWS = 60


class BenchError(RuntimeError):
    pass


def child_env(tmp: Path) -> dict:
    # without PYTHONDONTWRITEBYTECODE the priming launch writes the bytecode
    # cache that the timed cold starts then read, wherever the benchmark runs
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "DKP_EPS_BOUNDARY", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               VECLIB_MAXIMUM_THREADS="1", PERFBENCH_TMP=str(tmp))
    return env


def cold_start(workload: str, seed: int, launch: int, env: dict) -> dict:
    """Time one fresh interpreter from launch to the end of its first
    operation."""
    argv = [sys.executable, str(HERE / "worker.py"), "setup", workload,
            str(seed), str(launch)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or not line.startswith("{"):
        raise BenchError(f"cold start {launch} of {workload} exited with {rc}")
    return dict(json.loads(line), wall_s=wall)


def timed_run(workload: str, seed: int, seconds: float, outdir: Path,
              traced: bool, launches: int, env: dict) -> tuple[dict, list, list]:
    """Run the worker; time a cold start in each of its `launches` pauses."""
    argv = [sys.executable, str(HERE / "worker.py"), "run", workload,
            str(seed), repr(seconds), str(outdir), "1" if traced else "0",
            str(launches)]
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    timer = threading.Timer(seconds + 120, proc.kill)
    timer.start()
    starts = []
    try:
        for line in proc.stdout:
            if line == "pause\n":
                starts.append(cold_start(workload, seed, len(starts) + 1, env))
                proc.stdin.write("go\n")
                proc.stdin.flush()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if rc != 0 or len(starts) != launches:
        raise BenchError(f"{workload} worker exited with {rc} after "
                         f"{len(starts)} of {launches} pauses")
    with open(outdir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    records = []
    with open(outdir / "records.pkl", "rb") as fh:
        while True:
            try:
                records.extend(pickle.load(fh))
            except EOFError:
                break
    return summary, records, starts


# --- checks: one (items, failures, scaled reference error or None) per record

def _reference_failure(err) -> list[str]:
    if err is None or err <= checks.REFERENCE_TOL:
        return []
    return [f"scaled error {err:.2e} against mpmath"]


def _check_sweeps(records, reference):
    results = []
    for (op, out, _, _), ref in zip(records, reference):
        if "error" in out or out["rc"] != 0:
            results.append((0, [out.get("error") or f"sweep exited with {out['rc']}: "
                                f"{out['stderr'].strip()}"], None))
            continue
        table, errors = checks.parse_sweep(out["csv"])
        if table is None:
            results.append((0, errors, None))
            continue
        errors = checks.check_sweep(op, table, out["stderr"])
        worst = None
        if ref and not errors:
            worst = max(checks.rt_error(op["a"], op["b"], op["m"], table["E"][i],
                                        table["R"][i], table["T"][i])
                        for i in checks.reference_rows(len(table["E"]),
                                                       SWEEP_REFERENCE_ROWS))
        results.append((len(table["E"]), errors + _reference_failure(worst), worst))
    return results


def _check_points(records, reference):
    ran = [i for i, (_, out, _, _) in enumerate(records) if "error" not in out]
    col = {k: [records[i][0][k] for i in ran] for k in ("a", "b", "m", "E", "band")}
    out = {k: [records[i][1][k] for i in ran] for k in ("region", "R", "T", "D")}
    bad, _ = checks.check_rt_table(col["a"], col["m"], col["E"], out["region"],
                                   out["R"], out["T"], out["D"])
    bad |= checks.bands(col["a"], col["m"], col["E"]) != np.array(col["band"])
    results = [(1, [out.get("error")], None) for _, out, _, _ in records]
    for j, i in enumerate(ran):
        op, res = records[i][0], records[i][1]
        if bad[j]:
            results[i] = (1, [f"a={op['a']!r} m={op['m']!r} E={op['E']!r} ({op['band']}): "
                              f"region {res['region']}, R={res['R']!r}, T={res['T']!r}"], None)
        elif reference[i]:
            err = checks.rt_error(op["a"], op["b"], op["m"], op["E"], res["R"], res["T"])
            results[i] = (1, _reference_failure(err), err)
        else:
            results[i] = (1, [], None)
    return results


def _check_oracle(records, reference):
    results = []
    for op, out, _, _ in records:
        if "error" in out:
            results.append((1, [out["error"]], None))
        else:
            results.append((1, *checks.check_oracle(op, out)))
    return results


def _check_profiles(records, reference):
    results = []
    for (op, out, _, _), ref in zip(records, reference):
        if "error" in out:
            results.append((0, [out["error"]], None))
            continue
        items, errors, worst = 0, [], 0.0 if ref else None
        for kind, res in out["waves"].items():
            if res["rc"] != 0:
                errors.append(f"{kind} exited with {res['rc']}: {res['stderr'].strip()}")
                continue
            wave, errs = checks.parse_wave(res["csv"])
            if wave is None:
                errors.extend(errs)
                continue
            items += len(wave["x"])
            errs = checks.check_wave(op, kind, wave)
            errors.extend(errs)
            if ref and not errs:
                rows = checks.reference_rows(len(wave["x"]), WAVE_REFERENCE_ROWS)
                worst = max(worst, checks.wave_reference_error(op, kind, wave, rows))
        results.append((items, errors + _reference_failure(worst), worst))
    return results


CHECKERS = {"spectrum": _check_sweeps, "point": _check_points,
            "profile": _check_profiles, "crosscheck": _check_oracle}


def evaluate(wl, records: list) -> dict:
    """Check every output and compute the end-to-end figures of one run.
    The mpmath subsample is the first `digits_ops` operations outside the
    kept-failing slices; `digits` comes from it."""
    reference, used = [], 0
    for op, _, _, _ in records:
        reference.append(not op["expect_fail"] and used < wl.digits_ops)
        used += reference[-1]
    items = failed = unexpected = 0
    worst = 0.0
    examples = []
    for (op, _, _, _), ref, (n, errors, err) in zip(
            records, reference, CHECKERS[wl.name](records, reference)):
        items += n
        if errors:
            failed += 1
            if not op["expect_fail"]:
                unexpected += 1
                examples.extend(errors[:3])
        elif ref and err is not None:
            worst = max(worst, err)
    durations = np.array([dt for _, _, _, dt in records])
    return {
        "attempted": len(records), "failed": failed, "unexpected": unexpected,
        "examples": examples[:10], "items": items,
        "busy_s": float(durations.sum()),
        "items_per_s": items / float(durations.sum()),
        "op_p50_ms": float(np.median(durations)) * 1e3,
        "tail_pct": wl.tail_pct,
        "op_tail_ms": float(np.percentile(durations, wl.tail_pct)) * 1e3,
        "digits": checks.digits(worst), "digits_from_ops": used,
    }


def layer_metrics(traced: dict, records: list, spans: dict, starts: list,
                  overhead: float) -> dict:
    calls = {k: v["calls"] for k, v in spans["spans"].items()}
    items = traced["items"]

    def per_call(name, field, scale):
        n = calls.get(name, 0)
        return spans["spans"][name][field] / n * scale if n else 0.0

    def per_item(name):
        return calls.get(name, 0) / items

    steps = sum(out.get("steps", 0) for _, out, _, _ in records)
    dp54 = spans["spans"].get("_kernels.dp54_scatter", {}).get("incl_s", 0.0)
    branch = spans["counts"]
    return {
        "import.numpy_s": statistics.median(s["numpy_s"] for s in starts),
        "import.dkpscatter_s": statistics.median(s["dkpscatter_s"] for s in starts),
        "cli.sweep.self_ms": per_call("cli.sweep", "self_s", 1e3),
        "cli.wavefunction.self_ms": per_call("cli.wavefunction", "self_s", 1e3),
        "scattering.scattering_coefficients.self_us":
            per_call("scattering.scattering_coefficients", "self_s", 1e6),
        "scattering.classify_region.calls_per_item": per_item("scattering.classify_region"),
        "scattering.classify_region.us": per_call("scattering.classify_region", "incl_s", 1e6),
        "scattering.kinematics.us": per_call("scattering.kinematics", "incl_s", 1e6),
        "kernels.lgamma_c.calls_per_item": per_item("_kernels.lgamma_c"),
        "kernels.lgamma_c.us": per_call("_kernels.lgamma_c", "incl_s", 1e6),
        "scattering.connection_coefficients.calls_per_item":
            per_item("scattering.connection_coefficients"),
        "scattering.connection_coefficients.us":
            per_call("scattering.connection_coefficients", "incl_s", 1e6),
        "specfun.hyp2f1.calls_per_item": per_item("specfun.hyp2f1"),
        "specfun.hyp2f1.us": per_call("specfun.hyp2f1", "incl_s", 1e6),
        "specfun.hyp2f1.series_per_item": branch.get("specfun.hyp2f1.series", 0) / items,
        "specfun.hyp2f1.pfaff_per_item": branch.get("specfun.hyp2f1.pfaff", 0) / items,
        "specfun.hyp2f1.inversion_per_item":
            branch.get("specfun.hyp2f1.inversion", 0) / items,
        "wavefield.wavefunction.self_us": per_call("wavefield.wavefunction", "self_s", 1e6),
        "algebra.SpinorTriple.us": per_call("algebra.SpinorTriple", "incl_s", 1e6),
        "oracle.numeric_rt.self_ms": per_call("oracle.numeric_rt", "self_s", 1e3),
        "oracle.steps_per_item": steps / items,
        "kernels.dp54_scatter.us_per_step": dp54 / steps * 1e6 if steps else 0.0,
        "trace.overhead_pct": overhead,
    }


def load_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def bench(args) -> dict:
    if not (ROOT / "src" / "dkpscatter" / "__init__.py").is_file():
        raise BenchError(f"no dkpscatter sources under {ROOT / 'src'}")
    wl = workloads.WORKLOADS[args.workload]
    units = load_units()
    rundir = OUT / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "setup").mkdir(parents=True)
    env = child_env(rundir / "setup")
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    phases = report["phase_s"] = {}
    try:
        t0 = time.perf_counter()
        cold_start(wl.name, args.seed, 0, env)      # fills the bytecode cache
        phases["priming_start"] = time.perf_counter() - t0
        runs = {}
        for traced in ((False, True) if args.trace else (False,)):
            name = "traced" if traced else "untraced"
            outdir = rundir / name
            t0 = time.perf_counter()
            summary, records, launched = timed_run(
                wl.name, args.seed, args.seconds, outdir, traced,
                0 if traced else LAUNCHES, env)
            if not traced:
                starts = report["cold_starts"] = launched
            t1 = time.perf_counter()
            runs[traced] = (summary, records, evaluate(wl, records))
            phases[name + "_worker"] = t1 - t0
            phases[name + "_checks"] = time.perf_counter() - t1
            report["traced" if traced else "untraced"] = dict(
                summary, **runs[traced][2])
        base = runs[False][2]
        attempted = sum(r[2]["attempted"] for r in runs.values())
        failed = sum(r[2]["failed"] for r in runs.values())
        correct = all(r[2]["unexpected"] == 0 for r in runs.values())
        if args.trace:
            summary, records, result = runs[True]
            trace_file = OUT / f"trace-{wl.name}.npz"
            shutil.copyfile(rundir / "traced" / "trace.npz", trace_file)
            spans = tracing.summarize(str(trace_file))
            overhead = 100.0 * (1.0 - result["items_per_s"] / base["items_per_s"])
            values = layer_metrics(result, records, spans, starts, overhead)
            report["spans"] = spans
        else:
            values = {
                "setup_s": statistics.median(s["wall_s"] for s in starts),
                "items_per_s": base["items_per_s"],
                "op_p50_ms": base["op_p50_ms"],
                "op_tail_ms": base["op_tail_ms"],
                "peak_rss_mb": runs[False][0]["peak_rss_mb"],
                "digits": base["digits"],
            }
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        report["metrics"] = metrics
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"result-{wl.name}-t{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
