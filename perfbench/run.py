#!/usr/bin/env python3
"""Simulator benchmark: time-to-result of three snicbench workloads.

Builds ``simbench`` (this directory's CMake package, which compiles the
simulator from ../src) into .bench_build, then runs one workload as
repeated fresh single-threaded processes for the requested time and
prints one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload rack_scaleout --seed 1 \\
        --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics instead (medians over traced repetitions); each
traced repetition writes its spans to .bench_build/spans/.

Every repetition's simulated-output digest must equal the one stored
in expected_digests.json for that seed; for a seed with no stored
digest, every repetition must agree with the first. A repetition that
fails either check counts as a failed operation. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "simbench"
SPANS = BUILD / "spans"

# Metric names and units come from the benchmark definition. A
# per-function layer metric the workload does not use reads 0.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

MIN_REPS = 3          # untraced repetitions per run, at least
MIN_TRACED = 2        # traced repetitions per --trace 1 run, at least
DEADLINE_S = 170.0    # every run ends within 180 s


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def cmake(*args):
    try:
        subprocess.run(["cmake", *args], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        die("build failed: %s" % err)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no simulator sources at %s" % (ROOT / "src"))
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE
                            not in cache.read_text()):
        shutil.rmtree(BUILD)  # configured for another checkout
    if not cache.is_file():
        cmake("-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release")
    cmake("--build", str(BUILD), "--target", "simbench",
          "-j", str(min(4, os.cpu_count() or 1)))


def run_once(workload, seed, started, spans=None, crosscheck=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if crosscheck:
        cmd.append("--crosscheck")
    left = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        die("%s did not finish before the run deadline" % workload)
    if proc.returncode != 0:
        die("simbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_digest(workload, seed):
    stored = json.loads((HERE / "expected_digests.json").read_text())
    return stored["digests"].get(str(seed), {}).get(workload)


def report_spans(path):
    """Self time per span name of one traced repetition, to stderr."""
    spans = json.loads(Path(path).read_text())["spans"]
    totals = {}
    for s in spans:
        name = s["name"]
        for group in ("cell.", "replay.setup."):
            if name.startswith(group):
                name = group + "*"
        totals[name] = totals.get(name, 0) + s["self_ns"]
    print("span self times (%s):" % Path(path).name, file=sys.stderr)
    for name, ns in sorted(totals.items(), key=lambda kv: -kv[1]):
        print("  %-34s %10.4f s" % (name, ns * 1e-9), file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    started = time.monotonic()
    reference = expected_digest(args.workload, args.seed)
    untraced, traced = [], []
    failed = 0

    def check(rep):
        nonlocal reference, failed
        if reference is None:
            reference = rep["digest"]
        if rep["digest"] != reference or not rep["ok"]:
            failed += 1
            print("perfbench: %s seed %d: digest %s, expected %s, ok=%s"
                  % (args.workload, args.seed, rep["digest"], reference,
                     rep["ok"]), file=sys.stderr)

    def another(reps, minimum):
        """Whether another repetition (or traced pair) ends closer to
        --seconds than stopping now does."""
        if len(reps) < minimum:
            return True
        elapsed = time.monotonic() - started
        return elapsed + 0.5 * elapsed / len(reps) < args.seconds

    if args.trace == 0:
        while another(untraced, MIN_REPS):
            untraced.append(run_once(args.workload, args.seed, started))
            check(untraced[-1])
    else:
        SPANS.mkdir(parents=True, exist_ok=True)
        while another(traced, MIN_TRACED):
            untraced.append(run_once(args.workload, args.seed, started))
            check(untraced[-1])
            spans = SPANS / ("%s-seed%d-%d.json"
                             % (args.workload, args.seed, len(traced)))
            rep = run_once(args.workload, args.seed, started, spans,
                           crosscheck=not traced)
            traced.append(rep)
            check(rep)
            if len(traced) == 1:
                report_spans(spans)

    median = statistics.median
    if args.trace == 0:
        metrics = {m["name"]: {"value": median([r[m["name"]]
                                               for r in untraced]),
                               "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    else:
        metrics = {}
        for m in SPEC["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_frac":
                t = median([r["wall_s"] for r in traced])
                u = median([r["wall_s"] for r in untraced])
                value = (t - u) / u
            else:
                value = median([r["layers"].get(name, 0.0)
                                for r in traced])
            metrics[name] = {"value": value, "unit": m["unit"]}

    print("perfbench: %s seed %d: %d untraced + %d traced repetitions, "
          "digest %s" % (args.workload, args.seed, len(untraced),
                         len(traced), reference), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
