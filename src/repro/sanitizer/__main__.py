"""Sanitizer sweep CLI: static analysis + differential oracle over the
benchmark corpus.

Usage::

    python -m repro.sanitizer --seed 0 --corpus examples
    python -m repro.sanitizer --corpus gemm,atax --size test --output SANITIZER.json

For each selected benchmark the sweep reports

* static race verdicts per map scope (on the frontend SDFG and on a clone
  with reductions expanded to their native WCR maps — the WCR-based
  reduction maps the race detector must prove race-free),
* static bounds verdicts (counts, plus every provable violation), and
* the differential-oracle verdict across execution tiers, including the
  bisected culprit pass on an optimization-induced mismatch.

The verdict JSON (schema ``repro-sanitize/1``) is uploaded by CI.  Exit
status is nonzero when any provable race, provable out-of-bounds access,
or oracle mismatch/error is found.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from ..bench import registry
from . import bounds as bounds_mod
from . import races as races_mod
from .oracle import run_oracle

SCHEMA = "repro-sanitize/1"
DEFAULT_OUTPUT = "SANITIZER.json"


def _select(corpus: str) -> List[str]:
    if corpus == "examples":
        return list(registry.SWEEP_CORPUS)
    if corpus == "all":
        return registry.names()
    return [name.strip() for name in corpus.split(",") if name.strip()]


def _race_summary(verdicts) -> Dict[str, object]:
    counts = {races_mod.RACE_FREE: 0, races_mod.UNPROVED: 0, races_mod.RACE: 0}
    issues = []
    for v in verdicts:
        counts[v.verdict] += 1
        if v.verdict != races_mod.RACE_FREE:
            issues.append(v.to_dict())
    return {"maps": len(verdicts), "counts": counts, "issues": issues}


def _bounds_summary(verdicts) -> Dict[str, object]:
    counts = {bounds_mod.IN_BOUNDS: 0, bounds_mod.UNPROVED: 0,
              bounds_mod.OUT_OF_BOUNDS: 0}
    violations = []
    for v in verdicts:
        counts[v.verdict] += 1
        if v.verdict == bounds_mod.OUT_OF_BOUNDS:
            violations.append(v.to_dict())
    return {"subsets": len(verdicts), "counts": counts,
            "violations": violations}


def sweep_benchmark(bench, size: str, seed: int, device: str) -> Dict[str, object]:
    entry: Dict[str, object] = {}
    inputs = bench.arguments(size)
    base = bench.program.to_sdfg(**inputs).clone()
    base.simplify()

    entry["races"] = _race_summary(races_mod.check_races(base))
    entry["bounds"] = _bounds_summary(bounds_mod.check_bounds(base))

    # Reductions expand to WCR maps only under the native library
    # implementation; analyze those maps explicitly.
    native = base.clone()
    try:
        native.expand_library_nodes(implementation="native")
        entry["races_native"] = _race_summary(races_mod.check_races(native))
    except Exception as exc:
        entry["races_native"] = {"error": str(exc)}

    oracle = run_oracle(bench.program, inputs=inputs,
                        seed=seed, device=device, outputs=bench.outputs,
                        reference=bench.reference, name=bench.name)
    entry["oracle"] = oracle.to_dict()
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description="static + differential sanitizer sweep over the corpus")
    parser.add_argument("--corpus", default="examples",
                        help="examples | all | comma-separated names")
    parser.add_argument("--size", default="test",
                        help="benchmark size class (default: test)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for oracle input generation")
    parser.add_argument("--device", default="CPU")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"verdict JSON path (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--warm", type=int, default=0, metavar="JOBS",
                        help="warm the compilation cache first across JOBS "
                             "processes (0: skip) so oracle tiers start "
                             "from cached artifacts")
    args = parser.parse_args(argv)

    names = _select(args.corpus)
    if args.warm:
        from ..cache.warm import warm_corpus

        summary = warm_corpus(names=names, size=args.size,
                              device=args.device, jobs=args.warm)
        print(f"[sanitize] cache warm-up: {summary['warmed']}/"
              f"{len(summary['results'])} benchmark(s) in "
              f"{summary['wall_seconds']:.2f}s across {summary['jobs']} "
              f"job(s)", file=sys.stderr)
    programs: Dict[str, object] = {}
    failures: Dict[str, str] = {}
    for name in names:
        try:
            bench = registry.get(name)
            programs[name] = sweep_benchmark(bench, args.size, args.seed,
                                             args.device)
        except Exception as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
            print(f"[sanitize] {name}: SWEEP ERROR {exc}", file=sys.stderr)
            continue
        entry = programs[name]
        oracle_verdict = entry["oracle"]["verdict"]
        races = entry["races"]["counts"][races_mod.RACE]
        oob = entry["bounds"]["counts"][bounds_mod.OUT_OF_BOUNDS]
        culprit = entry["oracle"].get("culprit")
        suffix = f" culprit={culprit}" if culprit else ""
        print(f"[sanitize] {name}: oracle={oracle_verdict} races={races} "
              f"out-of-bounds={oob}{suffix}")

    total_races = sum(p["races"]["counts"][races_mod.RACE]
                      for p in programs.values())
    total_oob = sum(p["bounds"]["counts"][bounds_mod.OUT_OF_BOUNDS]
                    for p in programs.values())
    bad_oracle = [n for n, p in programs.items()
                  if p["oracle"]["verdict"] != "ok"]
    document = {
        "schema": SCHEMA,
        "seed": args.seed,
        "size": args.size,
        "corpus": names,
        "programs": programs,
        "failures": failures,
        "summary": {
            "programs": len(programs),
            "oracle_ok": len(programs) - len(bad_oracle),
            "oracle_bad": bad_oracle,
            "races": total_races,
            "out_of_bounds": total_oob,
        },
    }
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    print(f"[sanitize] wrote {args.output}: {len(programs)} program(s), "
          f"{total_races} race(s), {total_oob} out-of-bounds, "
          f"{len(bad_oracle)} oracle failure(s)")
    return 1 if (total_races or total_oob or bad_oracle or failures) else 0


if __name__ == "__main__":
    raise SystemExit(main())
