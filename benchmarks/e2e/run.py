#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the data-centric Python toolbox.

    python benchmarks/e2e/run.py --workload call_path --seed 1
    python benchmarks/e2e/run.py --workload call_path --seed 1 --trace 1
    python benchmarks/e2e/run.py --repeat 3          # noise report
    python benchmarks/e2e/run.py --check-counts      # determinism check

One invocation measures one workload in this (fresh) interpreter, checks
every result against an independent NumPy reference, prints every metric by
name with its unit, and ends with one JSON line.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: scratch space (cache directories, trace files); listed in .gitignore
WORK_DIR = os.path.join(ROOT, ".bench_e2e")

#: one BLAS thread, one repro worker, stable hashing: unpinned OpenBLAS on two
#: shared vCPUs read gemm@small 15 ms against 0.45 ms single-threaded
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
          "REPRO_CPU_THREADS": "1"}


def pin_environment() -> None:
    """Re-execute under the pinned environment (PYTHONHASHSEED only takes
    effect at interpreter start; the BLAS variables before NumPy loads)."""
    if all(os.environ.get(k) == v for k, v in PINNED.items()):
        return
    os.environ.update(PINNED)
    os.execv(sys.executable, [sys.executable] + sys.argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def print_header(args) -> None:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} quick={args.quick}")
    print(f"# nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={np.__version__} blas={blas.get('name')}-"
          f"{blas.get('version')}")
    print("# " + " ".join(f"{k}={os.environ[k]}" for k in
                          (*PINNED, "REPRO_CACHE_DIR")))


def emit(spec_metrics, values, attempted, problems) -> None:
    """The metric listing and the closing JSON line of the contract."""
    for problem in problems:
        print(f"FAILED {problem}")
    metrics = {}
    print(f"\n{'metric':<34}{'value':>16}  unit")
    for entry in spec_metrics:
        value = values[entry["name"]]
        if entry["unit"] == "count":
            value = int(value)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<34}{value:>16.10g}  {entry['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))


# ---------------------------------------------------------------------------
# one workload, untraced: the end-to-end metrics
# ---------------------------------------------------------------------------

def child_command(workload: str, seed: int, quick: bool, *extra) -> list:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed), *extra]
    return command + (["--quick"] if quick else [])


def peak_rss_mb() -> float:
    """High-water RSS of this process image.  Not ``ru_maxrss``: that one
    survives fork+exec, so a child would report its parent's peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup_pass(args) -> int:
    """Child mode: what a new process pays before its first timed call —
    imports, corpus registration, input generation, one cold compile and one
    verified call per row.  Prints the per-unit compile seconds and the
    peak RSS; the parent times the whole process."""
    import harness
    from rows import make_units

    compile_s, problems = {}, []
    for unit in make_units(args.workload, args.seed):
        compile_s[unit.name] = harness.timed_build(unit)
        for row in unit.rows:
            problems.extend(harness.prime(row))
    print(json.dumps({"compile_s": compile_s, "rss_mb": peak_rss_mb(),
                      "problems": problems}))
    return 0


def run_setup_pass(args, cache_dir: str):
    """One fresh process on an empty cache directory; returns its report
    (per-unit cold compile seconds, peak RSS) with its wall clock added."""
    start = time.perf_counter()
    done = subprocess.run(
        child_command(args.workload, args.seed, args.quick, "--setup-pass"),
        stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "REPRO_CACHE_DIR": cache_dir})
    elapsed = time.perf_counter() - start
    report = json.loads(done.stdout.splitlines()[-1])
    if report["problems"]:
        raise RuntimeError(f"set-up pass failed: {report['problems']}")
    return {**report, "setup_s": elapsed}


def run_untraced(args, work_dir: str) -> int:
    import numpy as np

    import harness

    print_header(args)
    rounds = 1 if args.quick else harness.ROUNDS
    order = np.random.default_rng([args.seed, 1])
    passes, warm, timings = [], {}, {}
    attempted, problems = 0, []
    for index in range(rounds):
        # the first pass leaves the cache the measuring process then hits
        cache_dir = (os.environ["REPRO_CACHE_DIR"] if index == 0
                     else os.path.join(work_dir, f"cold{index}"))
        passes.append(run_setup_pass(args, cache_dir))
        if index == 0:
            from repro.cache import get_store
            from rows import make_units

            units = make_units(args.workload, args.seed)
            rows = [row for unit in units for row in unit.rows]
            block_s = (harness.QUICK_BLOCK_S if args.quick
                       else args.seconds / (rounds * len(rows) * 2))
        for unit in units:
            get_store().clear_memory()
            warm.setdefault(unit.name, []).append(harness.timed_build(unit))
            if index == 0:
                for row in unit.rows:
                    problems.extend(harness.prime(row))
        done, failures = harness.timed_round(rows, timings, block_s, order)
        attempted += done
        problems.extend(failures)

    unit_cold = {u.name: harness.best([p["compile_s"][u.name]
                                       for p in passes]) for u in units}
    unit_warm = {u.name: harness.best(warm[u.name]) for u in units}
    print(f"\n{'row':<24}{'samples':>8}{'call_ms':>12}{'p90_ms':>12}"
          f"{'numpy_ms':>12}{'vs_numpy':>10}{'cold_s':>9}{'warm_s':>9}")
    for unit in units:
        for row in unit.rows:
            t = timings[row.name]
            tail = harness.p90(t.op_samples)
            print(f"{row.name:<24}{len(t.op_samples):>8}{t.op_s * 1e3:>12.4f}"
                  f"{(f'{tail * 1e3:.4f}' if tail else '-'):>12}"
                  f"{t.ref_s * 1e3:>12.4f}{t.ref_s / t.op_s:>10.3f}"
                  f"{unit_cold[unit.name]:>9.3f}{unit_warm[unit.name]:>9.3f}")

    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "call_s_geomean": harness.geomean(
            [timings[r.name].op_s for r in rows]),
        "vs_numpy_geomean": harness.geomean(
            [timings[r.name].ref_s / timings[r.name].op_s for r in rows]),
        "compile_cold_s": sum(unit_cold.values()),
        "compile_warm_s": sum(unit_warm.values()),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    emit(load_spec()["end_to_end"], values, attempted, problems)
    return 0


# ---------------------------------------------------------------------------
# reports over several runs (every run a fresh subprocess, one at a time)
# ---------------------------------------------------------------------------

def run_once(workload: str, seed: int, quick: bool, trace: int) -> dict:
    """One benchmark subprocess; returns its metrics by name."""
    done = subprocess.run(
        child_command(workload, seed, quick, "--trace", str(trace)),
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} "
                           f"failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def noise_report(args) -> int:
    """Markdown on stdout: per workload and end-to-end metric the values of
    ``args.repeat`` runs (seeds 1..N) and ``(max - min) / median``; fails if
    a metric spreads over more than half its bound."""
    spec = load_spec()
    over = []
    print(f"# Noise report: {args.repeat} runs per workload, seeds "
          f"1..{args.repeat}" + (" (--quick: not for comparison)"
                                 if args.quick else ""))
    print("\nspread = (max - min) / median; limit = half the metric's "
          "bound\n")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, args.quick, 0)
                for seed in range(1, args.repeat + 1)]
        print(f"## {workload}\n")
        print("| metric | unit | " + " | ".join(
            f"run {i + 1}" for i in range(args.repeat))
            + " | spread | limit | |")
        print("|---|---|" + "---|" * (args.repeat + 3))
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]] for run in runs]
            spread = (max(values) - min(values)) / statistics.median(values)
            limit = metric["bound"] / 2
            ok = spread <= limit
            if not ok:
                over.append(f"{workload}.{metric['name']}")
            print(f"| `{metric['name']}` | {metric['unit']} | "
                  + " | ".join(f"{v:.5g}" for v in values)
                  + f" | {spread:.2%} | {limit:.1%} | "
                  f"{'ok' if ok else 'OVER'} |")
        print()
        sys.stdout.flush()
    print("Over the limit: " + (", ".join(over) if over else "none"))
    return 1 if over else 0


def check_counts(args) -> int:
    """Two traced runs per workload with one seed: every ``count`` metric
    must repeat exactly."""
    spec = load_spec()
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    differing = []
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (run_once(workload, args.seed, args.quick, 1)
                         for _ in range(2))
        for name in counts:
            if first[name] != second[name]:
                differing.append(f"{workload}.{name}: {first[name]} != "
                                 f"{second[name]}")
        print(f"{workload}: {len(counts)} count metrics compared")
    for line in differing:
        print(f"DIFFERS {line}")
    print("count metrics identical across two traced runs"
          if not differing else f"{len(differing)} count metrics differ")
    return 1 if differing else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="budget of the timed rounds (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="1 round, 0.05 s blocks, 1 compile repetition; "
                             "numbers not for comparison")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="noise report: every workload N times")
    parser.add_argument("--check-counts", action="store_true",
                        help="determinism check: count metrics of two "
                             "traced runs per workload must be identical")
    parser.add_argument("--setup-pass", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    pin_environment()
    args = parse_args(argv)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    if args.setup_pass:
        return setup_pass(args)
    if args.repeat:
        return noise_report(args)
    if args.check_counts:
        return check_counts(args)
    if args.workload is None:
        sys.exit("run.py: --workload, --repeat or --check-counts is required")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        os.environ["REPRO_CACHE_DIR"] = os.path.join(work_dir, "cache")
        if args.trace:
            import layers

            print_header(args)
            values, attempted, problems = layers.run_traced(args, WORK_DIR)
            spec = load_spec()["per_layer"]
            emit(spec, {m["name"]: values.value(m["name"]) for m in spec},
                 attempted, problems)
            return 0
        return run_untraced(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
