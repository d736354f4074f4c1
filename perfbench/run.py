#!/usr/bin/env python3
"""Build and run the open-loop beacon benchmark (see README.md).

One run:
    python3 perfbench/run.py --workload trickle --seed 1 --seconds 10 --trace 0

Repeat mode, which checks steadiness against the bounds in BENCHMARK.json:
    python3 perfbench/run.py --repeat 10 [--workload flood ...] [--trace 0]
        [--seconds S] [--first-seed N] [--save FILE] [--against FILE]

The benchmark builds itself from the checkout it sits in (`dune build
./perfbench/main.exe`) and exits non-zero without a result when that
checkout holds no dprbg sources.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKDIR = os.path.join(HERE, "_work")
WORKLOADS = ["trickle", "flood", "durable-restart"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("neither dune nor opam is on PATH")


def build():
    for needed in ("dune-project", os.path.join("lib", "beacon")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s is not a dprbg checkout (no %s)" % (ROOT, needed))
    cmd = dune_command() + ["build", "--root", ROOT, "./perfbench/main.exe"]
    try:
        # dune's progress output goes to stderr: stdout ends with the result
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if res.returncode != 0 or not os.path.exists(EXE):
        die("build failed", 1)


def run_once(workload, seed, seconds, trace, capture):
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", WORKDIR]
    proc = subprocess.Popen(cmd, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("%s seed %d did not finish in %d s" % (workload, seed,
                                                    RUN_TIMEOUT_S), 1)
    return proc.returncode, (out.decode() if capture else None)


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}, {}
    with open(path) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec.get("end_to_end", [])}
    return e2e, spec


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(old, new, better):
    """Relative worsening of new against old (positive = worse)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def repeat(args):
    e2e, spec = load_bounds()
    seconds = args.seconds or spec.get("run_seconds", 10)
    workloads = args.workload or WORKLOADS
    results = {}
    ok = True
    for w in workloads:
        per_metric = {}
        for i in range(args.repeat):
            seed = args.first_seed + i
            code, out = run_once(w, seed, seconds, args.trace, capture=True)
            line = out.strip().splitlines()[-1] if out.strip() else ""
            try:
                res = json.loads(line)
            except ValueError:
                res = None
            if code != 0 or res is None or not res["correct"]:
                ok = False
                print("%s seed %d: exit %d, result %s" % (w, seed, code, line))
                continue
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        results[w] = per_metric
        print("\n%s: %d run(s), seeds %d..%d, %d s each, trace %d" % (
            w, args.repeat, args.first_seed, args.first_seed + args.repeat - 1,
            seconds, args.trace))
        print("%-30s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, values in per_metric.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = e2e.get(name, {}).get("bound")
            if bound is None:
                verdict = ""
            elif name == "setup_s":
                verdict = "(spread not gated)"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
                ok = False
            print("%-30s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
                name, med, q1, q3, spread,
                "" if bound is None else bound, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    if args.against:
        with open(args.against) as f:
            old = json.load(f)
        print("\nmedians against %s:" % args.against)
        for w, per_metric in results.items():
            for name, values in per_metric.items():
                if name not in e2e or name not in old.get(w, {}):
                    continue
                m = e2e[name]
                before = statistics.median(old[w][name])
                after = statistics.median(values)
                change = worse_by(before, after, m["better"])
                bad = change > m["bound"]
                ok = ok and not bad
                print("%-16s %-24s %12.6g -> %12.6g  worse by %+.3f (bound %g)%s"
                      % (w, name, before, after, change, m["bound"],
                         "  REGRESSION" if bad else ""))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, metavar="K",
                   help="run each workload K times (seeds first-seed..)")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", metavar="FILE",
                   help="repeat mode: write every run's metrics as JSON")
    p.add_argument("--against", metavar="FILE",
                   help="repeat mode: compare medians with a --save file")
    args = p.parse_args()
    if args.repeat is None and (not args.workload or len(args.workload) != 1):
        die("give exactly one --workload, or --repeat K")
    build()
    if args.repeat is not None:
        if args.repeat < 1:
            die("--repeat must be at least 1")
        sys.exit(repeat(args))
    code, _ = run_once(args.workload[0], args.seed, args.seconds or 10,
                       args.trace, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
