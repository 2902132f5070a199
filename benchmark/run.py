#!/usr/bin/env python3
"""Builds and runs the ORCHESTRA benchmark (python3 standard library only).

  run.py                              every workload once, untraced, one row each
  run.py --runs 3 --trace --out-dir D  repetitions, then a traced run; results in D
  run.py --workload W --seed N --seconds S --trace 0|1
                                      one run; the last stdout line is its JSON
  run.py --smoke                      1/20 sizes: schema, trace and oracle checks
  run.py compare A B                  per-metric medians, bounds and the pair rule

The orchestra_bench program is built from source into build-bench/ at the
repo root, where every run also leaves its result and trace files. Workloads,
metrics and the trace are described in README.md next to this file.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
RESULTS = os.path.join(BUILD, "results")
BENCH_BIN = os.path.join(BUILD, "orchestra_bench")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Absolute floors under the relative bounds: a change smaller than this is
# never a regression, however small the parent's value.
FLOORS = {"setup_s": 0.05, "host_s": 0.05}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds orchestra_bench; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "orchestra_bench", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            log("build timed out:", " ".join(cmd))
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed:", " ".join(cmd))
            return False
    return True


def run_bench(workload, seed, seconds, trace, out=None, perturb=False):
    """Runs one workload in its own process. Returns (exit code, result dict
    or None, stderr text)."""
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{workload}-s{seed}-{'t' if trace else 'u'}{'-perturb' if perturb else ''}"
    out = out or os.path.join(RESULTS, tag + ".json")
    cmd = [BENCH_BIN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out", out]
    if trace:
        cmd += ["--trace", os.path.join(RESULTS, tag + ".trace.json")]
    if perturb:
        cmd.append("--perturb")
    if os.path.exists(out):
        os.remove(out)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return 124, None, f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s"
    result = json.load(open(out)) if os.path.exists(out) else None
    return done.returncode, result, done.stderr


def declared(trace):
    return SPEC["per_layer" if trace else "end_to_end"]


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e5 else f"{v:.0f}"


def print_row(result):
    """One workload row: every metric with its value and unit."""
    cells = [f"{m['name']}={fmt(result['metrics'][m['name']]['value'])} {m['unit']}"
             for m in declared(result["traced"]) if m["name"] in result["metrics"]]
    s = result["samples"]
    print(f"{result['workload']:<20} seed={result['seed']} correct={result['correct']} "
          f"samples publish={s['publish']} query={s['query']} failover={s['failover']} "
          f"digest={result['trace_digest']}")
    for i in range(0, len(cells), 5):
        print("    " + "   ".join(cells[i:i + 5]))


def machine_info():
    cxx = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE, text=True)
    return {"nproc": os.cpu_count(), "compiler": cxx.stdout.splitlines()[0],
            "build_type": "Release", "arch": platform.machine(),
            "run_seconds": SPEC["run_seconds"]}


# --------------------------------------------------------------------------
# Modes

def single(args):
    """One run of one workload: the last stdout line is the result JSON."""
    if not build():
        return 1
    code, result, err = run_bench(args.workload, args.seed, args.seconds, args.trace == 1)
    if err:
        log(err.rstrip())
    if result is None:
        log(f"{args.workload} seed {args.seed}: no result (exit {code})")
        return 1
    print_row(result)
    names = {m["name"] for m in declared(result["traced"])}
    print(json.dumps({
        "correct": bool(result["correct"]) and code == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v for k, v in result["metrics"].items() if k in names},
    }))
    return 0 if code == 0 and result["correct"] else 1


def batch(args):
    """Every workload, --runs times untraced (plus a traced run with --trace),
    one process at a time."""
    if not build():
        return 1
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        with open(os.path.join(args.out_dir, "machine.json"), "w") as f:
            json.dump(machine_info(), f, indent=2)
            f.write("\n")
    plan = [(w, r, False) for r in range(args.runs) for w in WORKLOADS]
    if args.trace:
        plan += [(w, 0, True) for w in WORKLOADS]
    ok = True
    for workload, rep, trace in plan:
        out = None
        if args.out_dir:
            out = os.path.join(args.out_dir,
                               f"{workload}.{'traced' if trace else rep}.json")
        code, result, err = run_bench(workload, args.seed, args.seconds, trace, out)
        if result is None or code != 0 or not result["correct"]:
            ok = False
            log(err.rstrip() or f"{workload}: exit {code}")
        if result is not None:
            print_row(result)
            sys.stdout.flush()
    return 0 if ok else 1


def smoke(args):
    """1/20 sizes. Checks every result against BENCHMARK.json, that tracing
    leaves the event trace unchanged and its spans account for the loop time,
    and that every oracle fires on a perturbed expectation."""
    if not build():
        return 1
    seconds = SPEC["run_seconds"] / 20
    problems = []
    for w in WORKLOADS:
        digests = {}
        for trace in (False, True):
            code, result, err = run_bench(w, args.seed, seconds, trace)
            where = f"{w} ({'traced' if trace else 'untraced'})"
            if result is None or code != 0 or not result["correct"]:
                problems.append(f"{where}: run failed: {err.strip()}")
                continue
            print_row(result)
            digests[trace] = result["trace_digest"]
            want = {m["name"]: m["unit"] for m in declared(trace)}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name in sorted(set(want) - set(got)):
                problems.append(f"{where}: declared metric {name} not emitted")
            for name in sorted(set(got) - set(want)):
                problems.append(f"{where}: undeclared metric {name} emitted")
            for name in sorted(set(want) & set(got)):
                value = result["metrics"][name]["value"]
                if not got[name] or got[name] != want[name]:
                    problems.append(f"{where}: {name} unit {got[name]!r}, declared {want[name]!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} is not a finite number")
                elif not trace and value <= 0:
                    problems.append(f"{where}: end-to-end {name} is {value}")
            if trace:
                problems += span_accounting(where, result["metrics"])
        if len(digests) == 2 and digests[False] != digests[True]:
            problems.append(f"{w}: tracing changed the event trace digest")
        code, result, err = run_bench(w, args.seed, seconds, False, perturb=True)
        fired = code != 0 and result is not None and not result["correct"]
        if not fired or f"seed {args.seed}" not in err:
            problems.append(f"{w}: oracle did not fire (or name the seed) on a perturbed "
                            f"expectation: exit {code}, stderr {err.strip()!r}")
        else:
            print(f"{w:<20} negative test: oracle fired: {err.strip()}")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def span_accounting(where, m):
    """The self times of every span (each *host_ms metric outside sim.*) plus
    the unattributed remainder must add up to the loop's host time within 1%,
    and the remainder cannot be negative."""
    loop = m["sim.loop_host_ms"]["value"]
    unattributed = m["sim.unattributed_host_ms"]["value"]
    total = unattributed + sum(v["value"] for k, v in m.items()
                               if k.endswith("host_ms") and not k.startswith("sim."))
    problems = []
    if unattributed < 0:
        problems.append(f"{where}: sim.unattributed_host_ms is negative ({unattributed})")
    if loop > 0 and abs(total - loop) > 0.01 * loop:
        problems.append(f"{where}: spans + unattributed = {total:.1f} ms, loop = {loop:.1f} ms")
    return problems


def compare(a_dir, b_dir):
    """Per workload row: each end-to-end metric's median and quartiles on both
    sides, the BENCHMARK.json bound (B may be worse than A by at most the bound
    or its floor), and the pair rule for a claimed gain: B wins at least 9/10
    of the paired runs and the medians differ by more than A's quartile
    spread."""
    def load(d):
        runs = {}
        for name in sorted(os.listdir(d)):
            if name.endswith(".json") and name != "machine.json":
                r = json.load(open(os.path.join(d, name)))
                if not r.get("traced"):
                    runs.setdefault(r["workload"], []).append(r)
        return runs
    a, b = load(a_dir), load(b_dir)
    regressions = 0
    for w in WORKLOADS:
        if w not in a or w not in b:
            print(f"{w}: missing from {'A' if w not in a else 'B'}")
            regressions += 1
            continue
        print(f"{w}  (A: {len(a[w])} runs, B: {len(b[w])} runs)")
        for m in SPEC["end_to_end"]:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            av = [r["metrics"][name]["value"] for r in a[w]]
            bv = [r["metrics"][name]["value"] for r in b[w]]
            am, bm = statistics.median(av), statistics.median(bv)
            aq, bq = quartiles(av), quartiles(bv)
            worse = sign * (bm - am)
            allowed = max(m["bound"] * abs(am), FLOORS.get(name, 0))
            pairs = list(zip(av, bv))
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            gain = (len(pairs) > 0 and wins >= 0.9 * len(pairs)
                    and abs(bm - am) > aq[1] - aq[0])
            verdict = "REGRESSION" if worse > allowed else ("gain" if gain else "ok")
            regressions += verdict == "REGRESSION"
            print(f"    {name:<15} A {fmt(am)} [{fmt(aq[0])}, {fmt(aq[1])}]  "
                  f"B {fmt(bm)} [{fmt(bq[0])}, {fmt(bq[1])}] {m['unit']:<5}  "
                  f"{100 * (bm - am) / am if am else 0:+6.2f}%  bound {100 * m['bound']:.0f}%  "
                  f"wins {wins}/{len(pairs)}  {verdict}")
    print("compare:", f"{regressions} regression(s)" if regressions else "no regression")
    return 1 if regressions else 0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0])
    q = statistics.quantiles(values, n=4)
    return (q[0], q[2])


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare RESULTS_DIR_A RESULTS_DIR_B")
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out-dir")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload:
        return single(args)
    return batch(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
