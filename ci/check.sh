#!/usr/bin/env bash
# CI gate. Stages:
#
#   tier1      configure + build (warnings-as-errors) + full ctest suite
#   sanitize   ASan/UBSan with leak detection on the suites that own async
#              RPC state, storage churn, and the raw LocalStore paths
#   tsan       ThreadSanitizer build + the real-thread smoke suite
#   lint       project-invariant linter (tools/lint/) over src/, then its
#              fixture selftest — every rule must flag and pass on cue
#   tidy       clang-tidy (per .clang-tidy) over the compilation database;
#              SKIPs with a notice when clang-tidy is not installed
#   bench      micro-substrate smoke run + BENCH_*.json field validation
#   benchdiff  fresh BENCH_*.json vs committed bench/results/ baselines
#   benchsmoke end-to-end benchmark (benchmark/run.py --smoke): builds it
#              against the current src/ API and checks schema, trace and
#              oracles at 1/20 sizes
#   docs       relative-link check over README/docs/ + compile every example
#   all        every stage above, in that order
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
#                      gc_off, and gc_on live_records <= 1.3 x committed
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

sanitize() {
  echo "== sanitizer: address,undefined with leak detection"
  local suites="storage_test query_test integration_test rpc_lifecycle_test \
    client_test churn_test localstore_test net_test wal_test"
  cmake -B build-asan -S . -DORC_SANITIZE=address,undefined \
        -DORC_BUILD_BENCH=OFF -DORC_BUILD_EXAMPLES=OFF
  # shellcheck disable=SC2086
  cmake --build build-asan -j "$jobs" --target $suites
  for t in $suites; do
    echo "-- $t"
    ASAN_OPTIONS=detect_leaks=1 "./build-asan/$t"
  done
}

tsan() {
  echo "== tsan: ThreadSanitizer build + real-thread smoke suites"
  cmake -B build-tsan -S . -DORC_SANITIZE=thread \
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
    # Sustained-churn acceptance bound: incremental background GC must keep
    # the gc_on/gc_off sim-throughput gap <= 10%.
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
  echo "== docs: compile every example (tier-1 carries them; this stage fails fast)"
  cmake -B build -S . > /dev/null
  local examples
  examples="$(ls examples/*.cpp | xargs -n1 basename | sed 's/\.cpp$//')"
  # shellcheck disable=SC2086
  cmake --build build -j "$jobs" --target $examples
  echo "docs stage OK: $(echo "$examples" | wc -w) examples compiled"
}

case "$stage" in
  tier1) run_stage tier1 tier1 ;;
  sanitize) run_stage sanitize sanitize ;;
  tsan) run_stage tsan tsan ;;
  lint) run_stage lint lint ;;
  tidy) run_stage tidy tidy ;;
  bench) run_stage bench_smoke bench ;;
  benchdiff) run_stage bench_diff benchdiff ;;
  benchsmoke) run_stage benchmark_smoke benchsmoke ;;
  docs) run_stage docs_check docs ;;
  all)
    run_stage tier1 tier1
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
    echo "usage: ci/check.sh [tier1|sanitize|tsan|lint|tidy|bench|benchdiff|benchsmoke|docs|all]" >&2
    exit 2
    ;;
esac
echo "== all checks passed"
