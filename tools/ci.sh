#!/bin/sh
# Tier-1 CI gate for severifast. Runs the full verify four times — a
# plain -Werror build, an ASan+UBSan build, an SEVF_TAINT=ON build
# (secret-flow monitor in enforce mode), and a ThreadSanitizer build
# over the entire suite — plus a build-only Release -Werror tree, the
# project linter (including its guarded-by / lock-order /
# interprocedural secret-flow passes), a clang -Wthread-safety build
# when clang is installed, the launch-protocol model checker, the
# wall-clock gate benches, and the perfbench benchmark (its self-test,
# then one full-length run of each workload), each configuration in its
# own build tree so they never clobber one another.
#
#   tools/ci.sh            # run everything
#   CI_JOBS=4 tools/ci.sh  # cap build/test parallelism
#
# Exits nonzero on the first failing stage.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${CI_JOBS:-$(nproc 2>/dev/null || echo 4)}"

# 0. Repo hygiene: build trees must never be committed. Catches both
#    tracked stragglers and a regressed .gitignore.
if command -v git >/dev/null 2>&1 && [ -d "$root/.git" ]; then
    echo "==> [hygiene] no tracked build trees"
    tracked="$(cd "$root" && git ls-files | grep -E '^build[^/]*/' || true)"
    if [ -n "$tracked" ]; then
        echo "error: build trees are tracked in git:" >&2
        echo "$tracked" | head >&2
        echo "run: git rm -r --cached build* (and keep .gitignore's" \
             "/build/ + /build-*/ entries)" >&2
        exit 1
    fi
fi

build_matrix_entry() {
    name="$1"
    shift
    build="$root/build-ci-$name"
    echo "==> [$name] configure: $*"
    cmake -B "$build" -S "$root" "$@" >/dev/null
    echo "==> [$name] build"
    cmake --build "$build" -j "$jobs"
}

run_matrix_entry() {
    build_matrix_entry "$@"
    echo "==> [$name] ctest"
    (cd "$build" && ctest --output-on-failure -j "$jobs")
}

# 1. Plain build, warnings are errors. This is the tier-1 verify.
run_matrix_entry werror -DSEVF_WERROR=ON

# 1b. Release (-O3) under -Werror. GCC's flow-sensitive warnings
#     (-Wrestrict, -Wstringop-overflow, -Warray-bounds) see through more
#     inlining at -O3 than in the RelWithDebInfo tree above. Build only:
#     the werror entry already ran the suite.
build_matrix_entry release -DCMAKE_BUILD_TYPE=Release -DSEVF_WERROR=ON

# 2. Same suite under AddressSanitizer + UBSan with fatal-on-error, so any
#    heap misuse or UB in the test/bench paths fails the run.
run_matrix_entry asan -DSEVF_WERROR=ON -DSEVF_SANITIZE=address,undefined

# 3. Full suite with the secret-flow taint monitor defaulting to enforce:
#    a single SECRET byte reaching a host-visible sink panics the test.
run_matrix_entry taint -DSEVF_WERROR=ON -DSEVF_TAINT=ON

# 4. ThreadSanitizer over the full suite. TSan cannot be combined with
#    ASan, hence its own matrix entry. No tests are excluded: the whole
#    suite passes under TSan in ~6 minutes, with calibration_test
#    (~2.5 min, TSan's ~10x slowdown on a CPU-bound loop) dominating —
#    slow, but it exercises the ThreadPool-backed measurement path, so
#    it stays in.
run_matrix_entry tsan -DSEVF_WERROR=ON -DSEVF_SANITIZE=thread

# 5. Project linter over the library sources (with the secret-flow
#    source list and the documented lock-acquisition order), plus its
#    self-test fixture. Both also run under ctest above; running them
#    standalone keeps the lint usable when the library itself does not
#    build.
lint="$root/build-ci-werror/tools/sevf_lint"
echo "==> [lint] $lint --root src --secret-sources tools/secret-sources.txt" \
     "--lock-order tools/lock-order.txt --tcb-budget tools/tcb-budget.txt"
"$lint" --root "$root/src" \
    --secret-sources "$root/tools/secret-sources.txt" \
    --lock-order "$root/tools/lock-order.txt" \
    --tcb-budget "$root/tools/tcb-budget.txt" \
    --jobs "$jobs" --stats
echo "==> [lint] selftest"
"$lint" --selftest "$root/tests/lint_fixture"

# 5a. Root-of-trust audit: the TCB inventory must match the committed
#     baseline byte-for-byte (tools/tcb-baseline.json; regenerate with
#     --tcb-out after a reviewed change), the machine-readable report
#     must stay clean, and the seeded mutants must be caught — a
#     verifier that grows a gzip call or a parser that loses a bounds
#     check fails here even if every test still passes.
tcb_dir="$root/build-ci-werror/tcb-ci"
mkdir -p "$tcb_dir"
echo "==> [tcb] json report + inventory"
"$lint" --root "$root/src" \
    --secret-sources "$root/tools/secret-sources.txt" \
    --lock-order "$root/tools/lock-order.txt" \
    --tcb-budget "$root/tools/tcb-budget.txt" \
    --jobs "$jobs" --format=json \
    --tcb-out "$tcb_dir/tcb-inventory.json" >"$tcb_dir/report.json"
echo "==> [tcb] inventory matches committed baseline"
if ! diff -u "$root/tools/tcb-baseline.json" \
        "$tcb_dir/tcb-inventory.json"; then
    echo "error: TCB inventory drifted from tools/tcb-baseline.json;" >&2
    echo "review the diff, then regenerate the baseline with:" >&2
    echo "  sevf_lint --root src --tcb-budget tools/tcb-budget.txt" \
         "--tcb-out tools/tcb-baseline.json" >&2
    exit 1
fi
echo "==> [tcb] seeded mutants must be caught"
sh "$root/tools/tcb_mutants.sh" "$lint" "$root"

# 5b. Clang thread-safety analysis: the SEVF_GUARDED_BY / SEVF_REQUIRES
#     annotations compile to Clang capability attributes, so a clang
#     build with -DSEVF_THREAD_SAFETY=ON turns -Wthread-safety (fatal
#     under -Werror) loose on the whole tree. Skipped with a notice when
#     clang++ is not installed — sevf_lint's guarded-by / lock-order
#     passes above are the compiler-independent fallback.
if command -v clang++ >/dev/null 2>&1; then
    run_matrix_entry thread-safety \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DSEVF_WERROR=ON -DSEVF_THREAD_SAFETY=ON
else
    echo "==> [thread-safety] SKIPPED: clang++ not found;" \
         "install clang to run -Wthread-safety over the annotations"
fi

# 6. Launch-protocol model check: exhaustive interleavings of the SNP
#    launch commands cross-checked against the live device model, then
#    the seeded-mutant run proving the checker catches real holes.
model="$root/build-ci-werror/tools/sevf_model"
echo "==> [model] clean verification"
"$model" --guests 2 --depth 16 --sweep 4
echo "==> [model] seeded mutants must be caught"
"$model" --guests 2 --depth 8 --sweep 3 --all-mutants

# 7. Wall-clock gate benches. Each exits nonzero when its gate fails:
#    - bench_cache_hit: a cache hit is bit-identical to a cold boot
#      (measurement, virtual time, step count) for all five strategies;
#    - bench_fig12_concurrent: a burst of eight identical launches
#      through the admission pipeline is one cold template build plus
#      seven warm followers, all with the cold launch's measurement;
#    - bench_service_fairness: under an 8:1 heavy backlog the light
#      tenant's p50 stays within 2x of its solo p50.
#    They run from the build tree, so their bench_data/<bench>.json
#    records land there and a CI run leaves the checkout untouched.
#    Each runs twice: unpinned, and under `taskset -c 0`, so both the
#    many-core and the one-core thread schedules are covered.
#    Wall-clock performance itself is judged by perfbench (7b).
bench_dir="$root/build-ci-werror/bench"
run_gate_bench() {
    echo "==> [bench] $2 (unpinned)"
    (cd "$bench_dir" && "./$1")
    if command -v taskset >/dev/null 2>&1; then
        echo "==> [bench] $2 (taskset -c 0)"
        (cd "$bench_dir" && taskset -c 0 "./$1")
    else
        echo "==> [bench] $2 (taskset -c 0) SKIPPED: taskset not found"
    fi
}
run_gate_bench bench_cache_hit "cache hit/miss (bit-identity gate)"
run_gate_bench bench_fig12_concurrent \
    "concurrent admission pipeline (single-flight gate)"
run_gate_bench bench_service_fairness "service fairness gate"

# 7b. Benchmark self-test: perfbench/run.py, the harness perf changes
#     are judged by, must print exactly the metric names and units of
#     BENCHMARK.json for every workload (untraced and traced) with no
#     failed launch, and a run with a corrupted reference digest must
#     fail its correctness gate. Builds into its own tree. Then each
#     workload runs as the benchmark itself runs it (20 s, untraced),
#     into the same tree: run.py exits 1 when a timed launch fails or
#     misses its reference measurement or warm_serve's backlog check
#     marks the run invalid, and 2 when it cannot build, a harness
#     process overruns its budget, or no JSON line is printed. The
#     self-test's 1 s runs show none of that.
echo "==> [perfbench] python3 perfbench/selftest.py"
(cd "$root" && \
    CARGO_TARGET_DIR="$root/build-ci-perfbench" python3 perfbench/selftest.py)
for workload in cold_boot warm_serve cache_churn; do
    echo "==> [perfbench] python3 perfbench/run.py --workload $workload" \
         "--seed 7 --seconds 20 --trace 0"
    (cd "$root" && \
        CARGO_TARGET_DIR="$root/build-ci-perfbench" python3 perfbench/run.py \
            --workload "$workload" --seed 7 --seconds 20 --trace 0)
done

# 8. Observability: boot one SEV-SNP launch with tracing + metrics on,
#    then validate both exports with sevf_obscheck — Chrome-trace
#    structure, >= 95% sim-time span coverage, Prometheus syntax, no
#    family outside src/obs/families.h, its every kBootExport family,
#    and the doc-drift gates
#    (every declared family, exported or not, and every traced span
#    must appear in docs/OBSERVABILITY.md; every kRunbook family and
#    reliability span in docs/RELIABILITY.md).
obs_dir="$root/build-ci-werror/obs-ci"
mkdir -p "$obs_dir"
boot="$root/build-ci-werror/tools/sevf_boot"
echo "==> [obs] traced SEV-SNP launch"
"$boot" --strategy=severifast --mode=sev-snp \
    --trace-out="$obs_dir/trace.json" \
    --metrics-out="$obs_dir/metrics.prom" >/dev/null
echo "==> [obs] validate exports + doc-drift gates"
"$root/build-ci-werror/tools/sevf_obscheck" \
    --trace "$obs_dir/trace.json" \
    --metrics "$obs_dir/metrics.prom" \
    --docs "$root/docs/OBSERVABILITY.md" \
    --reliability "$root/docs/RELIABILITY.md"

# 9. Launch-template cache, end to end through the CLI: two boots
#    sharing a disk cache dir must produce a cold miss then a disk hit
#    with an IDENTICAL launch measurement, and the TCB inventory from
#    stage 5a must contain no cache/ module — the cache stays outside
#    the root of trust.
cache_dir="$root/build-ci-werror/cache-ci"
rm -rf "$cache_dir"
mkdir -p "$cache_dir"
json_field() { sed -n "s/.*\"$2\":\"\{0,1\}\([^,\"]*\)\"\{0,1\}[,}].*/\1/p" "$1"; }
echo "==> [cache] cold boot (miss) into $cache_dir"
"$boot" --strategy=severifast --mode=sev-snp --no-attest --json \
    --cache-dir "$cache_dir/templates" >"$cache_dir/cold.json"
echo "==> [cache] second boot must hit from disk"
"$boot" --strategy=severifast --mode=sev-snp --no-attest --json \
    --cache-dir "$cache_dir/templates" >"$cache_dir/warm.json"
cold_hit="$(json_field "$cache_dir/cold.json" cache_hit)"
warm_hit="$(json_field "$cache_dir/warm.json" cache_hit)"
cold_meas="$(json_field "$cache_dir/cold.json" measurement)"
warm_meas="$(json_field "$cache_dir/warm.json" measurement)"
if [ "$cold_hit" != "false" ] || [ "$warm_hit" != "true" ]; then
    echo "error: expected cold miss then disk hit," \
         "got cache_hit=$cold_hit then cache_hit=$warm_hit" >&2
    exit 1
fi
if [ -z "$cold_meas" ] || [ "$cold_meas" != "$warm_meas" ]; then
    echo "error: cache hit changed the launch measurement:" >&2
    echo "  cold: $cold_meas" >&2
    echo "  warm: $warm_meas" >&2
    exit 1
fi
echo "==> [cache] hit replays the cold measurement: $cold_meas"
echo "==> [cache] no cache/ code in the TCB inventory"
if grep -q '"cache/' "$tcb_dir/tcb-inventory.json"; then
    echo "error: cache module entered the TCB closure" >&2
    exit 1
fi

# 9b. Multi-tenant launch service: replay the example workload trace
#     through sevf_serve, validate the metrics export with the serving
#     gate (every kServeExport family of src/obs/families.h) plus both
#     doc-drift gates, and keep the whole service layer outside the
#     root of trust — like the cache, a scheduler
#     bug can deny service but never change what a guest owner
#     attests.
service_dir="$root/build-ci-werror/service-ci"
rm -rf "$service_dir"
mkdir -p "$service_dir"
echo "==> [service] replay examples/service_trace.json"
"$root/build-ci-werror/tools/sevf_serve" \
    --trace "$root/examples/service_trace.json" \
    --workers 2 --time-scale 0.1 --json \
    --metrics-out "$service_dir/metrics.prom" \
    >"$service_dir/report.json"
echo "==> [service] per-tenant families + doc-drift gates"
"$root/build-ci-werror/tools/sevf_obscheck" \
    --metrics "$service_dir/metrics.prom" --service \
    --docs "$root/docs/OBSERVABILITY.md" \
    --reliability "$root/docs/RELIABILITY.md"
echo "==> [service] every trace event completed or was rejected typed"
if grep -q '"failed": *[1-9]' "$service_dir/report.json"; then
    echo "error: serve replay reported failed launches:" >&2
    cat "$service_dir/report.json" >&2
    exit 1
fi
echo "==> [service] no service/ code in the TCB inventory"
if grep -q '"service/' "$tcb_dir/tcb-inventory.json"; then
    echo "error: service module entered the TCB closure" >&2
    exit 1
fi

# 10. Chaos: the seeded fault sweep (65 fixed seeds x 5 strategies —
#     every run must end bit-identical to the fault-free boot or in a
#     typed error; chaos_test already ran under every matrix entry
#     above, this reruns it standalone so a chaos regression is named
#     in the CI log) plus an end-to-end injection smoke through the
#     CLI: a boot absorbing two transient PSP faults must report the
#     same measurement as the fault-free boot, and a malformed plan
#     must be rejected as a usage error.
echo "==> [chaos] seeded fault sweep (deterministic)"
(cd "$root/build-ci-werror" && ctest -R chaos_test --output-on-failure)
chaos_dir="$root/build-ci-werror/chaos-ci"
rm -rf "$chaos_dir"
mkdir -p "$chaos_dir"
echo "==> [chaos] CLI injection smoke: faulted boot replays the clean measurement"
"$boot" --strategy=severifast --mode=sev-snp --no-attest --json \
    >"$chaos_dir/clean.json"
for seed in 3 7 11; do
    "$boot" --strategy=severifast --mode=sev-snp --no-attest --json \
        --fault-plan "seed=$seed;psp:nth=2,count=2" \
        >"$chaos_dir/faulted-$seed.json"
    clean_meas="$(json_field "$chaos_dir/clean.json" measurement)"
    fault_meas="$(json_field "$chaos_dir/faulted-$seed.json" measurement)"
    if [ -z "$clean_meas" ] || [ "$clean_meas" != "$fault_meas" ]; then
        echo "error: injected PSP faults changed the measurement (seed $seed):" >&2
        echo "  clean:   $clean_meas" >&2
        echo "  faulted: $fault_meas" >&2
        exit 1
    fi
done
echo "==> [chaos] retried boots replay the clean measurement: $clean_meas"
echo "==> [chaos] malformed --fault-plan is a usage error"
if "$boot" --fault-plan "warp-core:p=0.5" >/dev/null 2>&1; then
    echo "error: malformed fault plan was accepted" >&2
    exit 1
fi

# 11. Docs presence: the operator documentation set must exist and be
#     reachable from the README (the obscheck gates above already
#     checked their content against the live exports).
echo "==> [docs] RELIABILITY.md + ARCHITECTURE.md exist and are linked"
for doc in RELIABILITY.md ARCHITECTURE.md; do
    if [ ! -f "$root/docs/$doc" ]; then
        echo "error: docs/$doc is missing" >&2
        exit 1
    fi
    if ! grep -q "$doc" "$root/README.md"; then
        echo "error: docs/$doc is not referenced from README.md" >&2
        exit 1
    fi
done

echo "==> CI green: hygiene + werror + release + asan,ubsan + taint-enforce" \
     "+ tsan + lint + tcb + thread-safety + model + bench + perfbench" \
     "+ obs + cache + service + chaos + docs"
