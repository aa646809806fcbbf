#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_pivot --seed 1 --seconds 30 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones. Steadiness mode runs every workload (or just --workload) in two
sets of ten runs on pinned seeds and reports each end-to-end metric's
median, quartiles and spread against its bound:

    python3 perfbench/run.py --steadiness --seconds 30

Pinned digests of the simulated statistics live in perfbench/pins.txt;
rewrite them (only when the simulated behaviour is meant to change) with

    python3 perfbench/run.py --pin 0-31,1000-1039

See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.txt")
RUN_TIMEOUT_S = 175
STEADY_RUNS = 10  # runs per set in steadiness mode
STEADY_SETS = 2


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workload_names():
    return [w["name"] for w in benchmark()["workloads"]]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "workload", "spec.hpp")):
        raise RuntimeError("simulator sources not found under " +
                           os.path.join(ROOT, "src"))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "perfbench_harness")


def run_harness(harness, workload, seed, seconds, trace):
    """One benchmark run; returns (parsed result, the raw result line)."""
    cmd = harness_cmd(harness, workload, seed) + [
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--pins", PINS]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"harness failed with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("harness printed a malformed result")
    wanted = {m["name"]
              for m in benchmark()["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        raise RuntimeError("harness metrics differ from BENCHMARK.json")
    return result, lines[-1]


def harness_cmd(harness, workload, seed):
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    return [harness, "--workload", workload, "--seed", str(seed),
            "--work-dir", work]


def pin(harness, seeds):
    """Rewrites the pinned digests for every workload at `seeds`."""
    lines = []
    for name in workload_names():
        for seed in seeds:
            out = subprocess.run(
                harness_cmd(harness, name, seed) + ["--digest-only", "1"],
                stdout=subprocess.PIPE, text=True, check=True,
                timeout=RUN_TIMEOUT_S).stdout
            lines.append(out.strip())
            log(lines[-1])
    with open(PINS, "w") as f:
        f.write("# <workload> <seed> <digest of the simulated statistics>\n")
        f.write("# Rewrite with: python3 perfbench/run.py --pin "
                "0-31,1000-1039\n")
        f.write("\n".join(lines) + "\n")
    return 0


def pinned_seeds(workload):
    """The seeds pins.txt holds a digest for, ascending."""
    with open(PINS) as f:
        return sorted(int(line.split()[1]) for line in f
                      if line.strip() and not line.startswith("#")
                      and line.split()[0] == workload)


def steadiness(harness, args):
    """Runs each workload in STEADY_SETS sets of STEADY_RUNS runs.

    Every run uses its own pinned seed, so each is also checked against
    its pinned digest. Prints every end-to-end metric's median, quartiles
    and spread (IQR / median) per set, flags spreads above the metric's
    bound (and above a third of it), and flags a later set whose median
    is worse than the first set's by more than the bound. Count metrics
    of the traced run must repeat exactly for a seed.
    """
    bench = benchmark()
    metrics = bench["end_to_end"]
    counts = [m["name"] for m in bench["per_layer"]
              if m["unit"].startswith("count")]
    ok = True
    for name in [args.workload] if args.workload else workload_names():
        seeds = pinned_seeds(name)
        if len(seeds) < STEADY_SETS * STEADY_RUNS + 1:
            raise RuntimeError(f"too few pinned seeds for {name}")
        first = {}
        for k in range(STEADY_SETS):
            runs = []
            for seed in seeds[k * STEADY_RUNS:(k + 1) * STEADY_RUNS]:
                r, _ = run_harness(harness, name, seed, args.seconds, False)
                ok &= r["correct"]
                runs.append(r["metrics"])
                log(f"{name} seed {seed}: " + ", ".join(
                    f"{n}={v['value']:.6g}" for n, v in r["metrics"].items()))
            print(f"\n{name}, set {k + 1}: {STEADY_RUNS} runs of "
                  f"{args.seconds} s")
            print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s} "
                  f"{'vs set 1':>9s}")
            for m in metrics:
                q1, med, q3 = statistics.quantiles(
                    [r[m["name"]]["value"] for r in runs], n=4)
                rel = (q3 - q1) / med if med else 0.0
                flags = []
                if rel > m["bound"]:
                    flags.append("SPREAD OVER BOUND")
                    ok = False
                elif rel > m["bound"] / 3:
                    flags.append("spread over bound/3")
                base = first.setdefault(m["name"], med)
                change = med / base - 1.0 if base else 0.0
                worse = -change if m["better"] == "higher" else change
                if worse > m["bound"]:
                    flags.append("MEDIAN WORSE THAN SET 1 BY MORE THAN BOUND")
                    ok = False
                print(f"  {m['name']:20s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                      f" {rel:8.4f} {m['bound']:6.2f} {change:+9.4f}  "
                      + ", ".join(flags))
        seed = seeds[STEADY_SETS * STEADY_RUNS]
        a, b = (run_harness(harness, name, seed, args.seconds, True)[0]
                for _ in range(2))
        ok &= a["correct"] and b["correct"]
        a, b = a["metrics"], b["metrics"]
        print(f"  traced run, seed {seed}, twice:")
        for n, v in a.items():
            same = v["value"] == b[n]["value"]
            if n in counts and not same:
                ok = False
            print(f"    {n:32s} {v['value']:14.6g} {b[n]['value']:14.6g}"
                  f"{'  COUNT DIFFERS' if n in counts and not same else ''}")
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--pin", metavar="A-B[,C-D]",
                   help="rewrite pins.txt for these seed ranges and exit")
    args = p.parse_args()
    if not (args.steadiness or args.pin) and (
            args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")
    try:
        harness = build()
        if args.pin:
            seeds = []
            for part in args.pin.split(","):
                first, last = (int(x) for x in part.split("-"))
                seeds.extend(range(first, last + 1))
            return pin(harness, seeds)
        if args.steadiness:
            return steadiness(harness, args)
        _, line = run_harness(harness, args.workload, args.seed, args.seconds,
                             args.trace == 1)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
