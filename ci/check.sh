#!/usr/bin/env bash
# CI gate. Stages:
#
#   tier1      configure + build (warnings-as-errors) + full ctest suite
#   release    Release build of every target with warnings as errors (the
#              optimizer raises warnings, such as -Wrestrict, that tier-1's
#              RelWithDebInfo build does not)
#   sanitize   ASan/UBSan with leak detection on the suites that own async
#              RPC state, storage churn, the raw LocalStore paths and the
#              byte codecs (page entries, hashes, routing tables, bitsets)
#              (a Ninja tree, so the suites compile concurrently; ctest runs
#              them concurrently, churn_test as its buckets, each under its
#              ctest TIMEOUT)
#   tsan       ThreadSanitizer build + the real-thread smoke suite (Ninja)
#   lint       project-invariant linter (tools/lint/) over src/, then its
#              fixture selftest — every rule must flag and pass on cue
#   tidy       clang-tidy (per .clang-tidy) over the compilation database;
#              SKIPs with a notice when clang-tidy is not installed
#   bench      micro-substrate smoke run + BENCH_*.json field validation
#   benchdiff  fresh BENCH_*.json vs committed bench/results/ baselines
#   benchsmoke end-to-end benchmark (benchmark/run.py --smoke): builds it
#              against the current src/ API and checks schema, trace and
#              oracles at 1/20 sizes
#   docs       relative-link check over README/docs/, every QueryCode and
#              StorageCode id in docs/WIRE_FORMATS.md (retired ones as
#              reserved), compile every example
#   all        every stage above, in that order
#   parentdiff [REF]  benchmark/run.py --runs 1 three times on `git archive
#              REF` (default HEAD) and three times on the working tree,
#              alternating (REF, tree, tree, REF, REF, tree); checks that each
#              side's passes repeat its digest and sim metrics, prints one
#              line per workload saying whether the trace digest and each sim
#              metric are the same or changed, one with its peak_rss_mb on
#              both sides, then exits with the status of `run.py compare`
#              over the three runs a side.
#              Two benchmark builds and six passes, so not in all.
#   churndiff [REF]  builds churn_test from `git archive REF` (default HEAD)
#              and from the working tree, runs Churn.SeedSweep,
#              Churn.MultiWriterSweep, Churn.FencingAbandonmentSweep and
#              Churn.TornTailSweep for seeds 1-20 one at a time
#              (ORCHESTRA_CHURN_SEED) on both, and prints per sweep how many
#              `end ok=... dig=...` lines are the same and which seeds
#              differ (a sweep REF lacks runs in the working tree only);
#              exits non-zero if any run fails. Two builds, so not in all.
#
#   ci/check.sh [stage]    # default: all
#
# A failing stage prints the exact command to reproduce it in isolation.
#
# benchdiff reads only values that repeat exactly across runs and hosts:
#   every entry        sim_makespan_s and wire_bytes <= 1.05 x committed (a
#                      committed zero stays zero); micro_substrate entries
#                      carry neither, so they are recorded but not gated
#   sustained_churn    gc_on sim throughput (ops / sim_makespan_s) >= 90% of
#                      gc_off, and gc_on live_records <= 1.3 x committed;
#                      every contention width commits a dense chain
#                      (chain_epoch == commits), and contention_w32 commits
#                      per sim-second >= 1/4 of contention_w1's
#   pipelined_publish  window-4 vs window-1 sim throughput, inbox depth and
#                      throttling, all from the fresh run
#   fig21_recovery     WAL replay counters from the fresh run
# A committed baseline with no fresh run fails. ops_per_sec and wall_clock_s
# stay in every JSON file as the host-time record; benchmark/ gates host time
# (probe-scaled host_s and the pair rule).
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

# Reproduce-command reporting: every stage runs with errexit live (wrapping
# the call in `if !` would suppress set -e inside the function); the EXIT
# trap names the stage that was in flight and how to rerun it alone.
current_stage=""
on_exit() {
  local code=$?
  if [[ "$code" -ne 0 && -n "$current_stage" ]]; then
    echo "== stage '$current_stage' FAILED — reproduce with:" \
         "ci/check.sh $current_stage" >&2
  fi
}
trap on_exit EXIT

run_stage() {
  current_stage="$2"
  "$1"
  current_stage=""
}

tier1() {
  echo "== tier-1: configure + build + ctest"
  cmake -B build -S .
  cmake --build build -j "$jobs"
  (cd build && ctest --output-on-failure -j "$jobs")
}

release() {
  echo "== release: Release build of every target, warnings as errors"
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DORC_WERROR=ON
  cmake --build build-release -j "$jobs"
}

# Configures a sanitizer tree with the Ninja generator: one Ninja build
# compiles every listed target concurrently, where a Makefile tree's
# top-level Makefile is .NOTPARALLEL and builds them one after another. A
# tree an earlier run generated with Makefiles is removed first, because
# CMake cannot switch an existing tree's generator.
configure_ninja() {
  local dir="$1"
  shift
  if [[ -f "$dir/CMakeCache.txt" ]] && \
     ! grep -qx 'CMAKE_GENERATOR:INTERNAL=Ninja' "$dir/CMakeCache.txt"; then
    rm -rf "$dir"
  fi
  cmake -B "$dir" -S . -G Ninja "$@"
}

sanitize() {
  echo "== sanitizer: address,undefined with leak detection"
  local suites="storage_test query_test integration_test rpc_lifecycle_test \
    client_test churn_test localstore_test net_test wal_test property_test \
    hash_test overlay_test common_test"
  configure_ninja build-asan -DORC_SANITIZE=address,undefined \
        -DORC_BUILD_BENCH=OFF -DORC_BUILD_EXAMPLES=OFF
  # shellcheck disable=SC2086
  cmake --build build-asan -j "$jobs" --target $suites
  # churn_test registers with ctest as the buckets churn_test_b0..b3.
  local t pattern=""
  for t in $suites; do
    [[ "$t" == churn_test ]] && t="churn_test_b[0-9]+"
    pattern="${pattern:+$pattern|}$t"
  done
  ASAN_OPTIONS=detect_leaks=1 ctest --test-dir build-asan -j "$jobs" \
    --output-on-failure -R "^($pattern)\$"
}

tsan() {
  echo "== tsan: ThreadSanitizer build + real-thread smoke suites"
  configure_ninja build-tsan -DORC_SANITIZE=thread \
        -DORC_BUILD_BENCH=OFF -DORC_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$jobs" --target thread_smoke_test wal_test
  ./build-tsan/thread_smoke_test
  # wal_test includes the checkpoint-writer-vs-concurrent-readers smoke
  # (WalThreads.*); the rest of the suite rides along under TSan for free.
  ./build-tsan/wal_test
}

lint() {
  echo "== lint: project-invariant linter over src/"
  python3 tools/lint/orchestra_lint.py --root .
  echo "== lint: fixture selftest (every rule flags and passes on cue)"
  python3 tools/lint/orchestra_lint.py --selftest
}

tidy() {
  echo "== tidy: clang-tidy over the compilation database"
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "tidy SKIPPED: clang-tidy not installed on this machine" \
         "(.clang-tidy is the profile; install LLVM to run locally)"
    return 0
  fi
  cmake -B build -S . > /dev/null   # exports build/compile_commands.json
  local srcs
  srcs="$(git ls-files 'src/*.cc' 'tests/*.cpp' 'bench/*.cpp')"
  # shellcheck disable=SC2086
  if command -v run-clang-tidy > /dev/null 2>&1; then
    run-clang-tidy -p build -quiet -j "$jobs" $srcs
  else
    clang-tidy -p build --quiet $srcs
  fi
}

bench_smoke() {
  echo "== bench smoke: micro-substrate run + JSON field validation"
  cmake -B build -S .
  cmake --build build -j "$jobs" --target bench_micro_substrate
  (cd build && ORCHESTRA_BENCH_SMOKE=1 ./bench_micro_substrate > /dev/null)
  python3 - build/BENCH_micro_substrate.json <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "micro_substrate", doc
assert doc["scale"] in ("small", "paper"), doc
entries = {e["name"]: e for e in doc["entries"]}
required = ["localstore_put", "localstore_overwrite", "localstore_get",
            "localstore_get_view", "localstore_contains", "localstore_scan",
            "localstore_prefix_scan", "localstore_churn", "localstore_mixed"]
for name in required:
    assert name in entries, f"missing bench entry {name}"
for e in doc["entries"]:
    for field in ("ops_per_sec", "wall_clock_s", "sim_makespan_s", "wire_bytes"):
        assert field in e, f"entry {e['name']} missing field {field}"
        assert isinstance(e[field], (int, float)), (e["name"], field)
print(f"bench smoke OK: {len(doc['entries'])} entries validated")
PY
}

bench_diff() {
  echo "== bench diff: fresh BENCH_*.json vs committed bench/results/ baselines"
  cmake -B build -S .
  cmake --build build -j "$jobs" --target bench_micro_substrate \
        bench_sustained_churn bench_figures bench_pipelined_publish \
        bench_fig21_recovery bench_recovery_overhead bench_failure_detection
  rm -f build/BENCH_*.json
  (cd build && ORCHESTRA_BENCH_SMOKE=1 ./bench_micro_substrate > /dev/null)
  (cd build && ./bench_sustained_churn > /dev/null)
  (cd build && ./bench_figures > /dev/null)
  (cd build && ./bench_pipelined_publish > /dev/null)
  (cd build && ORCHESTRA_BENCH_SMOKE=1 ./bench_fig21_recovery > /dev/null)
  (cd build && ORCHESTRA_BENCH_SMOKE=1 ./bench_recovery_overhead > /dev/null)
  (cd build && ./bench_failure_detection > /dev/null)
  python3 - <<'PY'
import glob, json, os, sys

failures = []
compared = 0
baselines = sorted(glob.glob("bench/results/BENCH_*.json"))
for ref_path in baselines:
    fresh_path = os.path.join("build", os.path.basename(ref_path))
    if not os.path.exists(fresh_path):
        failures.append(f"{os.path.basename(ref_path)}: committed baseline has no fresh run")
        continue
    ref = json.load(open(ref_path))
    fresh = json.load(open(fresh_path))
    fresh_entries = {e["name"]: e for e in fresh["entries"]}
    for re_ in ref["entries"]:
        fe = fresh_entries.get(re_["name"])
        if fe is None:
            failures.append(f"{ref['bench']}/{re_['name']}: entry disappeared")
            continue
        compared += 1
        # Sim metrics are deterministic, so any growth is the code's.
        for field in ("sim_makespan_s", "wire_bytes"):
            if fe[field] > 1.05 * re_[field]:
                failures.append(
                    f"{ref['bench']}/{re_['name']}: {field} {fe[field]:.6g} "
                    f"> 1.05 * committed {re_[field]:.6g}")
        # GC must keep the footprint flat.
        if re_["name"] == "sustained_overwrite_gc_on" and "live_records" in re_:
            if fe.get("live_records", 1e18) > 1.3 * re_["live_records"]:
                failures.append(
                    f"{ref['bench']}/{re_['name']}: live_records "
                    f"{fe.get('live_records')} > 1.3 * committed {re_['live_records']}")
    # Pipelined-publish acceptance bounds, on the FRESH run's deterministic
    # sim metrics (independent of machine speed):
    #   window-4 pipeline >= 2x window-1 throughput, inbox depth at window 8
    #   within 2x of the window-1 baseline, admission control engaged.
    if ref["bench"] == "pipelined_publish":
        f = fresh_entries
        try:
            w1, w4, w8 = f["wan_window_1"], f["wan_window_4"], f["wan_window_8"]
            if w4["sim_tuples_per_sec"] < 2.0 * w1["sim_tuples_per_sec"]:
                failures.append(
                    f"pipelined_publish: window-4 sim throughput "
                    f"{w4['sim_tuples_per_sec']:.0f} < 2x window-1 "
                    f"{w1['sim_tuples_per_sec']:.0f}")
            if w8["max_inbox_msgs"] > 2.0 * w1["max_inbox_msgs"]:
                failures.append(
                    f"pipelined_publish: window-8 max inbox "
                    f"{w8['max_inbox_msgs']} > 2x window-1 {w1['max_inbox_msgs']}")
            ov = f["overload_injected_window_8"]
            if ov["throttle_shrinks"] < 1 or ov["min_window_seen"] != 1:
                failures.append(
                    "pipelined_publish: admission control did not throttle "
                    "under injected overload")
        except KeyError as e:
            failures.append(f"pipelined_publish: missing entry {e}")
    # Sustained-churn acceptance bounds: incremental background GC must keep
    # the gc_on/gc_off sim-throughput gap <= 10%; the contention sweep must
    # commit a dense chain at every width, and 32 racing writers must commit
    # at least a quarter as many epochs per sim-second as one writer.
    if ref["bench"] == "sustained_churn":
        f = fresh_entries
        try:
            on, off = f["sustained_overwrite_gc_on"], f["sustained_overwrite_gc_off"]
            on_tput = on["ops"] / on["sim_makespan_s"]
            off_tput = off["ops"] / off["sim_makespan_s"]
            if on_tput < 0.90 * off_tput:
                failures.append(
                    f"sustained_churn: gc_on sim throughput {on_tput:.0f} ops/s"
                    f" < 90% of gc_off {off_tput:.0f}")
            for name in sorted(n for n in f if n.startswith("contention_w")):
                if f[name]["chain_epoch"] != f[name]["commits"]:
                    failures.append(
                        f"sustained_churn/{name}: chain_epoch "
                        f"{f[name]['chain_epoch']} != commits {f[name]['commits']}")
            w1, w32 = f["contention_w1"], f["contention_w32"]
            rate1 = w1["commits"] / w1["sim_makespan_s"]
            rate32 = w32["commits"] / w32["sim_makespan_s"]
            if rate32 < 0.25 * rate1:
                failures.append(
                    f"sustained_churn: contention_w32 commits {rate32:.1f} "
                    f"epochs/sim-s < 1/4 of contention_w1's {rate1:.1f}")
        except KeyError as e:
            failures.append(f"sustained_churn: missing entry {e}")
    # Recovery acceptance bounds, on the FRESH run's deterministic replay
    # counters: with checkpoints the replay tail is bounded by the cadence
    # (flat while the store grows 100x); without them replay is the whole log.
    if ref["bench"] == "fig21_recovery":
        f = fresh_entries
        try:
            for scale in ("1x", "10x", "100x"):
                on = f[f"recover_{scale}_ckpt_on"]
                off = f[f"recover_{scale}_ckpt_off"]
                if on["replayed_records"] > on["checkpoint_every"]:
                    failures.append(
                        f"fig21_recovery: {scale} checkpointed replay tail "
                        f"{on['replayed_records']:.0f} exceeds the cadence "
                        f"{on['checkpoint_every']:.0f}")
                if off["replayed_records"] != off["ops"]:
                    failures.append(
                        f"fig21_recovery: {scale} checkpoint-off replay "
                        f"{off['replayed_records']:.0f} != full log {off['ops']:.0f}")
            on100 = f["recover_100x_ckpt_on"]
            off100 = f["recover_100x_ckpt_off"]
            if on100["replayed_records"] * 20 > off100["replayed_records"]:
                failures.append(
                    "fig21_recovery: 100x checkpointed replay "
                    f"{on100['replayed_records']:.0f} not sub-linear vs full "
                    f"replay {off100['replayed_records']:.0f}")
        except KeyError as e:
            failures.append(f"fig21_recovery: missing entry {e}")
if compared == 0:
    failures.append("no bench entries compared - baselines or fresh runs missing")
if failures:
    print("bench diff FAILED:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(f"bench diff OK: {compared} entries of {len(baselines)} baselines within "
      "1.05x of committed sim_makespan_s and wire_bytes")
PY
}

benchmark_smoke() {
  echo "== benchmark smoke: benchmark/run.py --smoke"
  python3 benchmark/run.py --smoke
}

docs_check() {
  echo "== docs: relative-link check over README.md + docs/"
  python3 - <<'PY'
import os, re, sys

# Markdown links [text](target); http(s)/mailto are skipped, anchors allowed.
link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
files = ["README.md"] + sorted(
    os.path.join("docs", f) for f in os.listdir("docs") if f.endswith(".md"))
broken = []
checked = 0
for path in files:
    base = os.path.dirname(path)
    for target in link_re.findall(open(path).read()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue  # same-file anchor
        checked += 1
        if not os.path.exists(os.path.normpath(os.path.join(base, rel))):
            broken.append(f"{path}: broken relative link -> {target}")
for b in broken:
    print("  " + b)
if broken:
    sys.exit(1)
print(f"docs links OK: {checked} relative links over {len(files)} files")
PY
  echo "== docs: every QueryCode and StorageCode id in docs/WIRE_FORMATS.md"
  python3 - <<'PY'
import re, sys

# Each enumerator must appear as `kName = N` (or `kName=N`); one whose line
# comment says "retired" must appear on a line that says "reserved", so a
# retired frame id cannot drift out of the doc.
doc = open("docs/WIRE_FORMATS.md").read().splitlines()
problems = []
checked = 0
for path, enum in (("src/query/service.h", "QueryCode"),
                   ("src/storage/service.h", "StorageCode")):
    body = re.search(r"enum " + enum + r"\b[^{]*\{(.*?)\};", open(path).read(), re.S)
    if body is None:
        problems.append(f"{path}: enum {enum} not found")
        continue
    for line in body.group(1).splitlines():
        m = re.match(r"\s*(k\w+)\s*=\s*(\d+),?\s*(//.*)?$", line)
        if not m:
            continue
        name, num, comment = m.group(1), m.group(2), m.group(3) or ""
        checked += 1
        cited = re.compile(r"`" + name + r"\s*=\s*" + num + r"`")
        lines = [l for l in doc if cited.search(l)]
        if not lines:
            problems.append(f"{enum}::{name} = {num} ({path}) is not in docs/WIRE_FORMATS.md")
        elif "retired" in comment and not any("reserved" in l for l in lines):
            problems.append(f"{enum}::{name} = {num} is retired but not documented as reserved")
for p in problems:
    print("  " + p)
if problems or checked == 0:
    sys.exit(1)
print(f"wire ids OK: {checked} enumerators documented")
PY
  echo "== docs: compile every example (tier-1 carries them; this stage fails fast)"
  cmake -B build -S . > /dev/null
  local examples
  examples="$(ls examples/*.cpp | xargs -n1 basename | sed 's/\.cpp$//')"
  # shellcheck disable=SC2086
  cmake --build build -j "$jobs" --target $examples
  echo "docs stage OK: $(echo "$examples" | wc -w) examples compiled"
}

parentdiff() {
  local ref="${1:-HEAD}"
  local tmp
  tmp="$(mktemp -d)"
  echo "== parentdiff: benchmark/run.py --runs 1, three passes each at $ref and in the working tree ($tmp)"
  mkdir "$tmp/tree" "$tmp/parent" "$tmp/change"
  git archive "$ref" | tar -x -C "$tmp/tree"
  # One pass per side is not enough for host time: two runs of one commit
  # can differ by more than a bound. Alternating the order spreads a slow
  # stretch of the host over both sides.
  local pass side
  for pass in 1 2 3; do
    for side in $( [[ "$pass" == 2 ]] && echo "change parent" || echo "parent change" ); do
      echo "-- pass $pass: $side"
      if [[ "$side" == parent ]]; then
        (cd "$tmp/tree" && python3 benchmark/run.py --runs 1 --out-dir "$tmp/parent.$pass")
      else
        python3 benchmark/run.py --runs 1 --out-dir "$tmp/change.$pass"
      fi
    done
  done
  local status=0
  python3 - "$tmp" <<'PY' || status=1
import json, os, shutil, statistics, sys

# End-to-end metrics that the simulation fixes; setup_s, host_s and
# peak_rss_mb are host measurements. setup_s and host_s differ between any
# two runs. peak_rss_mb spreads a few percent between runs of one commit
# with the same digest (3.4% was seen on mixed_read_write), so its three
# values a side are printed for each workload, with no same/changed verdict.
HOST = {"setup_s", "host_s", "peak_rss_mb"}
spec = json.load(open("BENCHMARK.json"))
sim = [m["name"] for m in spec["end_to_end"] if m["name"] not in HOST]
tmp = sys.argv[1]
def load(d):
    return {r["workload"]: r for r in (json.load(open(os.path.join(d, f)))
                                       for f in sorted(os.listdir(d))
                                       if f.endswith(".json") and f != "machine.json")}
runs = {side: [load(os.path.join(tmp, f"{side}.{p}")) for p in (1, 2, 3)]
        for side in ("parent", "change")}
workloads = [w["name"] for w in spec["workloads"]]
# The simulation is deterministic: a side whose passes disagree is a fault.
status = 0
for side, passes in runs.items():
    for w in workloads:
        if any(w not in p for p in passes):
            continue
        first = passes[0][w]
        for i, p in enumerate(passes[1:], start=2):
            diffs = [n for n in sim
                     if p[w]["metrics"][n]["value"] != first["metrics"][n]["value"]]
            if p[w]["trace_digest"] != first["trace_digest"]:
                diffs.insert(0, "digest")
            if diffs:
                print(f"{w:<20} {side} pass {i} differs from pass 1: {', '.join(diffs)}")
                status = 1
parent, change = runs["parent"][0], runs["change"][0]
for w in workloads:
    if w not in parent or w not in change:
        print(f"{w:<20} missing on the {'parent' if w not in parent else 'change'} side")
        continue
    a, b = parent[w], change[w]
    cells = ["digest " + ("same" if a["trace_digest"] == b["trace_digest"] else
                          f"changed {a['trace_digest']} -> {b['trace_digest']}")]
    for name in sim:
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        pct = f" ({100 * (y - x) / x:+.2f}%)" if x else ""
        cells.append(f"{name} " + ("same" if x == y else f"changed {x:.6g} -> {y:.6g}{pct}"))
    print(f"{w:<20} " + ", ".join(cells))
    rss = {side: [p[w]["metrics"]["peak_rss_mb"]["value"] for p in runs[side] if w in p]
           for side in runs}
    x, y = statistics.median(rss["parent"]), statistics.median(rss["change"])
    print(f"{w:<20} peak_rss_mb (host measurement) "
          f"{'/'.join(f'{v:.1f}' for v in rss['parent'])} -> "
          f"{'/'.join(f'{v:.1f}' for v in rss['change'])} MB"
          + (f" (medians {100 * (y - x) / x:+.1f}%)" if x else ""))
# One directory a side for `run.py compare`, which pairs runs by file name:
# pass i of the parent with pass i of the change.
for side in runs:
    for i in (1, 2, 3):
        d = os.path.join(tmp, f"{side}.{i}")
        for f in os.listdir(d):
            if f.endswith(".0.json"):
                shutil.copy(os.path.join(d, f),
                            os.path.join(tmp, side, f[:-len(".0.json")] + f".{i}.json"))
sys.exit(status)
PY
  python3 benchmark/run.py compare "$tmp/parent" "$tmp/change" || status=1
  rm -rf "$tmp"
  return "$status"
}

churndiff() {
  local ref="${1:-HEAD}"
  local tmp
  tmp="$(mktemp -d)"
  echo "== churndiff: churn sweeps, seeds 1-20, at $ref and in the working tree ($tmp)"
  mkdir "$tmp/tree"
  git archive "$ref" | tar -x -C "$tmp/tree"
  # Configure output (one rpath notice per target) goes to a log, shown
  # only when configuring fails.
  cmake -B "$tmp/build" -S "$tmp/tree" -DORC_BUILD_BENCH=OFF \
        -DORC_BUILD_EXAMPLES=OFF > "$tmp/configure.log" 2>&1 || {
    cat "$tmp/configure.log"
    return 1
  }
  cmake --build "$tmp/build" -j "$jobs" --target churn_test > /dev/null
  cmake -B build -S . > "$tmp/configure.log" 2>&1 || {
    cat "$tmp/configure.log"
    return 1
  }
  cmake --build build -j "$jobs" --target churn_test > /dev/null
  local status=0 sweep seed same differ out_ref out_work at_ref listed
  for sweep in SeedSweep MultiWriterSweep FencingAbandonmentSweep TornTailSweep; do
    same=0
    differ=""
    at_ref=0
    listed="$("$tmp/build/churn_test" --gtest_list_tests --gtest_filter="Churn.$sweep")"
    if grep -q "$sweep" <<< "$listed"; then
      at_ref=1
    fi
    for seed in $(seq 1 20); do
      out_ref=""
      if [[ "$at_ref" == 1 ]] && \
         ! out_ref="$(ORCHESTRA_CHURN_SEED="$seed" "$tmp/build/churn_test" \
                      --gtest_filter="Churn.$sweep" 2>&1)"; then
        echo "Churn.$sweep seed $seed FAILED at $ref" >&2
        status=1
      fi
      if ! out_work="$(ORCHESTRA_CHURN_SEED="$seed" ./build/churn_test \
                       --gtest_filter="Churn.$sweep" 2>&1)"; then
        echo "Churn.$sweep seed $seed FAILED in the working tree" >&2
        status=1
      fi
      if [[ "$(grep "end ok=" <<< "$out_ref")" == "$(grep "end ok=" <<< "$out_work")" ]]; then
        same=$((same + 1))
      else
        differ="$differ $seed"
      fi
    done
    if [[ "$at_ref" == 0 ]]; then
      echo "Churn.$sweep: absent at $ref; ran in the working tree only"
      continue
    fi
    echo "Churn.$sweep: $same/20 end lines same${differ:+; differ at seeds$differ}"
  done
  rm -rf "$tmp"
  return "$status"
}

case "$stage" in
  tier1) run_stage tier1 tier1 ;;
  release) run_stage release release ;;
  sanitize) run_stage sanitize sanitize ;;
  tsan) run_stage tsan tsan ;;
  lint) run_stage lint lint ;;
  tidy) run_stage tidy tidy ;;
  bench) run_stage bench_smoke bench ;;
  benchdiff) run_stage bench_diff benchdiff ;;
  benchsmoke) run_stage benchmark_smoke benchsmoke ;;
  docs) run_stage docs_check docs ;;
  parentdiff)
    current_stage="parentdiff"
    parentdiff "${2:-HEAD}"
    current_stage=""
    ;;
  churndiff)
    current_stage="churndiff"
    churndiff "${2:-HEAD}"
    current_stage=""
    ;;
  all)
    run_stage tier1 tier1
    run_stage release release
    run_stage sanitize sanitize
    run_stage tsan tsan
    run_stage lint lint
    run_stage tidy tidy
    run_stage bench_smoke bench
    run_stage bench_diff benchdiff
    run_stage benchmark_smoke benchsmoke
    run_stage docs_check docs
    ;;
  *)
    echo "usage: ci/check.sh [tier1|release|sanitize|tsan|lint|tidy|bench|benchdiff|benchsmoke|docs|all]" >&2
    echo "       ci/check.sh parentdiff [REF]    # REF defaults to HEAD; not part of all" >&2
    echo "       ci/check.sh churndiff [REF]     # REF defaults to HEAD; not part of all" >&2
    exit 2
    ;;
esac
echo "== all checks passed"
