#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/`` there.
``--workload all`` runs every workload of BENCHMARK.json in turn, each in a
fresh process. One process runs one workload as a closed loop with a single
caller: each op starts when the previous one returns, and the run ends on the
first whole cycle of ops after ``--seconds`` of wall time. The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The lines before it print every
metric the run computed, by name and unit, and any failed output check. The
run record (with environment, latencies and failures) goes to ``--out``, and
a traced run also writes its spans there; ``compare.py`` reads those records.

``setup_s`` is the median over fresh processes of: import the library, then
run one warm-up cycle of the workload on tiny inputs outside the timed set.

The CPU speed of a small shared host drifts by half and more over seconds to
minutes, so raw op times of one run are not comparable with another's. The
workload's reference computation (``workloads.exact_reference`` or
``float_reference``, fixed work of the kind that dominates its ops) runs
before the first op and after every op; ``op_p50_ref`` and ``ops_per_ref``
give each op's time as a multiple of the mean of the two reference times
around it, which cancels the drift. ``ops_per_s`` and ``op_p50_s`` give the
same in seconds, and ``ref_p50_s`` the reference's median time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # this process plus four fresh child processes
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many ops above it
OP_SPAN = "op"  # root span of one op; library calls are its children

def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; children inherit."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def import_workloads():
    src = ROOT / "src"
    if not (src / "quasicause" / "__init__.py").is_file():
        raise SystemExit(f"error: quasicause sources not found under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import quasicause
    import workloads

    if Path(quasicause.__file__).resolve().parent != src / "quasicause":
        raise SystemExit(f"error: quasicause imported from {quasicause.__file__}")
    return workloads


def set_up(name: str, seed: int):
    """Import the library and run one warm-up cycle; returns (seconds, workload)."""
    start = time.perf_counter()
    workloads = import_workloads()
    from spans import Recorder

    if name not in workloads.SPECS:
        raise SystemExit(f"error: unknown workload {name!r}; known: {sorted(workloads.SPECS)}")
    tiny = workloads.get(name, tiny=True)
    off = Recorder(False)
    for i in range(tiny.cycle):
        inp = tiny.input(seed, i)
        problem = tiny.check(inp, tiny.op(off, inp, i))
        if problem:
            raise SystemExit(f"error: warm-up op {i} failed its check: {problem}")
    return time.perf_counter() - start, workloads.get(name)


def child_set_up(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(wl, seed: int, seconds: float, traced: bool) -> dict:
    """Closed loop over whole cycles of ops until ``seconds`` of wall time
    have passed; returns the raw run record.

    In a traced run each input runs twice, untraced and then traced, so the
    tracing overhead is measured on the same inputs.
    """
    from spans import Recorder, layer_seconds

    rec = Recorder(traced)
    off = Recorder(False)
    latencies, untraced, verify_s, cert_bytes = [], [], [], []
    failures, forgeries = [], None
    i = 0
    wl.reference()  # builds its operands
    references = [timed(wl.reference)]
    began = time.perf_counter()
    while i % wl.cycle or time.perf_counter() - began < seconds or i == 0:
        inp = wl.input(seed, i)
        if traced:
            start = time.perf_counter()
            try:
                wl.op(off, inp, i)
            except Exception:
                pass  # the traced repetition below records the failure
            untraced.append(time.perf_counter() - start)
        rec.op = i
        start = time.perf_counter()
        try:
            with rec.span(OP_SPAN):
                out = wl.op(rec, inp, i)
        except Exception as exc:
            out = None
            failures.append({"op": i, "reason": f"raised {exc!r}",
                             "traceback": traceback.format_exc()})
        latencies.append(time.perf_counter() - start)
        if out is not None:
            problem = wl.check(inp, out)
            if problem:
                failures.append({"op": i, "reason": problem})
            if "verify_s" in out:
                verify_s.append(out["verify_s"])
                cert_bytes.append(out["cert_bytes"])
            if forgeries is None and hasattr(wl, "forgeries"):
                forgeries = wl.forgeries(inp, out)
            if traced:
                wl.observe(rec, inp, out)
        out = None  # the result must not count in the next op's peak RSS
        references.append(timed(wl.reference))
        i += 1
    run = {
        "ops": i,
        "failed": len(failures),
        "latencies": latencies,
        "references": references,
        "verify_s": verify_s,
        "cert_bytes": cert_bytes,
        "failures": failures,
        "forgeries": forgeries,
    }
    if traced:
        run["spans"] = rec.spans
        run["untraced"] = untraced
        run["layer_seconds"] = layer_seconds(rec.spans)
        run["counts"] = {k: statistics.fmean(v) for k, v in rec.counts.items()}
    return run


def end_to_end_metrics(run: dict) -> dict:
    lat = sorted(run["latencies"])
    refs = run["references"]
    rel = [t / ((a + b) / 2) for t, a, b in zip(run["latencies"], refs, refs[1:])]
    out = {
        "ops_per_ref": ((run["ops"] - run["failed"]) / sum(rel), "1/ref"),
        "op_p50_ref": (statistics.median(rel), "ref"),
        "ops_per_s": ((run["ops"] - run["failed"]) / sum(lat), "ops/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "ref_p50_s": (statistics.median(refs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_ratio": (run["failed"] / run["ops"], "ratio"),
    }
    if len(lat) >= 2 * TAIL_BEYOND:
        out["op_tail_s"] = (lat[-TAIL_BEYOND - 1], "s")
        out["op_tail_pct"] = (100 * (len(lat) - TAIL_BEYOND) / len(lat), "%")
    if run["verify_s"]:
        out["verify_p50_s"] = (statistics.median(run["verify_s"]), "s")
        out["cert_bytes"] = (statistics.median(run["cert_bytes"]), "B")
    if run["forgeries"] is not None:
        accepted = sum(run["forgeries"].values())
        out["forgery_accept_ratio"] = (accepted / len(run["forgeries"]), "ratio")
    return out


def layer_metrics(run: dict, wanted) -> dict:
    """Per-layer metrics named in ``wanted``: a name ending in ``_s`` is the
    median self time per call of the span named by the rest, any other name
    a per-op count; a layer the workload never reaches reads 0. Counts the
    workload recorded beyond ``wanted`` follow."""
    out = {}
    for m in wanted:
        name = m["name"]
        if name == "trace.overhead_ratio":
            traced = statistics.median(
                s["end"] - s["start"] for s in run["spans"] if s["name"] == OP_SPAN)
            base = statistics.median(run["untraced"])
            value = (traced - base) / base
        elif name == "trace.op_self_s":
            value = run["layer_seconds"][OP_SPAN]
        elif name.endswith("_s"):
            value = run["layer_seconds"].get(name[:-2], 0.0)
        else:
            value = run["counts"].get(name, 0.0)
        out[name] = (value, m["unit"])
    for name, value in run["counts"].items():
        out.setdefault(name, (value, "ratio" if name.endswith("_ratio") else "count"))
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args) -> int:
    """Run every workload of BENCHMARK.json, each in a fresh process."""
    code = 0
    for w in benchmark_spec()["workloads"]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(args.out)],
            cwd=ROOT,
        )
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for the run record (default perfbench/results)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    started = time.time()
    cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed)[0]}))
        return 0
    wanted = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    # fresh-process set-ups before and after the timed part, so that the
    # samples span more of the machine's fast and slow phases
    before = (SETUP_SAMPLES - 1) // 2
    setups = [child_set_up(args) for _ in range(before)]
    own, wl = set_up(args.workload, args.seed)
    setups.append(own)
    run = measure(wl, args.seed, args.seconds, bool(args.trace))
    setups += [child_set_up(args) for _ in range(SETUP_SAMPLES - 1 - before)]
    metrics = end_to_end_metrics(run)
    metrics["setup_s"] = (statistics.median(setups), "s")
    if args.trace:
        metrics = layer_metrics(run, wanted)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "finished": time.time(),
        "cycle": wl.cycle, "ops": run["ops"], "setup_samples": setups,
        "latencies": run["latencies"], "references": run["references"],
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": run["failures"], "forgeries": run["forgeries"],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}_{time.time_ns()}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (args.out / f"{stem}_spans.json").write_text(json.dumps(run["spans"]))

    for f in run["failures"]:
        print(f"FAILED op {f['op']}: {f['reason']}")
    print(f"{args.workload} seed={args.seed} ops={run['ops']} cycle={wl.cycle} "
          f"forgeries={run['forgeries']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: run computed no value for {missing}")
    print(json.dumps({
        "correct": not run["failures"],
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
