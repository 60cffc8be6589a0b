#!/usr/bin/env sh
# Full correctness gate: builds the simulator under four compiler
# configurations and runs the tier-1 unit suite plus a 10k-iteration
# differential-fuzz smoke (audit hooks compiled in and forced on) under
# each:
#
#   release  RelWithDebInfo, audit hooks compiled in
#   asan     AddressSanitizer + UndefinedBehaviorSanitizer
#   tsan     ThreadSanitizer (checks the parallel run engine)
#   profile  RelWithDebInfo + -DNURAPID_PROFILE=ON (cycle-budget
#            profiler compiled into the hot paths), plus a perf-smoke
#            stage: a short cold sweep (engine-span tracing attached,
#            footer coverage asserted) that must print the profiler
#            footer with non-zero distill and recency buckets,
#            finish with a populated 267-entry run cache, leave no
#            packed .trc stream in its trace cache, and stay
#            within 25% of this host's recorded wall-time baselines
#            (per-bench and whole-sweep)
#
# Usage:
#   scripts/check.sh [--fuzz-iters N] [--configs "release asan tsan profile"]
#
# Build trees live in build-check-<config>/ so the default build/ tree
# is never disturbed. Exits non-zero on the first failure.

set -eu

fuzz_iters=10000
configs="release asan tsan profile"
while [ $# -gt 0 ]; do
    case "$1" in
      --fuzz-iters)
        fuzz_iters="$2"; shift 2 ;;
      --configs)
        configs="$2"; shift 2 ;;
      -h|--help)
        sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
      *)
        echo "unknown option '$1' (see --help)" >&2; exit 2 ;;
    esac
done

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
start=$(date +%s)

# Runs a command with its full output captured in a log file, then
# prints only the log's last few lines. A plain `cmd | tail` pipeline
# would report tail's exit status and let a failing cmd slip past
# `set -e`; here the command's own status is what propagates, and a
# failure replays the whole log.
run_logged() {
    rl_log="$1"
    rl_lines="$2"
    shift 2
    rl_status=0
    "$@" > "$rl_log" 2>&1 || rl_status=$?
    if [ "$rl_status" -ne 0 ]; then
        cat "$rl_log" >&2
        return "$rl_status"
    fi
    tail -n "$rl_lines" "$rl_log"
}

# Stage banner, stamped with the epoch second it starts at, so any two
# consecutive banners of one log give that stage's wall time.
banner() {
    echo "=== [$config] $1 === $(date +%s)"
}

for config in $configs; do
    case "$config" in
      release) flags="-DCMAKE_BUILD_TYPE=RelWithDebInfo" ;;
      asan)    flags="-DNURAPID_SANITIZE=address,undefined" ;;
      tsan)    flags="-DNURAPID_SANITIZE=thread" ;;
      profile) flags="-DCMAKE_BUILD_TYPE=RelWithDebInfo -DNURAPID_PROFILE=ON" ;;
      *)
        echo "unknown config '$config'" >&2; exit 2 ;;
    esac
    dir="build-check-$config"

    banner "configure ($flags)"
    # shellcheck disable=SC2086  # flags is a word list on purpose
    cmake -B "$dir" -S . -DNURAPID_AUDIT=ON $flags >/dev/null
    banner "build"
    cmake --build "$dir" -j "$jobs" >/dev/null

    banner "ctest -L tier1"
    (cd "$dir" && run_logged ctest_tier1.log 3 \
        ctest -L tier1 -j "$jobs" --output-on-failure)

    if [ "$config" = "release" ]; then
        banner "obs smoke (flight recorder + report)"
        obs_dir="$dir/obs_smoke"
        rm -rf "$obs_dir"
        mkdir -p "$obs_dir"
        NURAPID_SIM_SCALE=0.05 "$dir/src/tools/nurapid_sim" \
            --org nurapid --benchmark mcf --obs-interval 8192 \
            --trace-out "$obs_dir/events.jsonl" \
            --metrics-out "$obs_dir/metrics.jsonl" \
            --perfetto-out "$obs_dir/trace.json" > "$obs_dir/sim.log"
        for f in events.jsonl metrics.jsonl trace.json; do
            [ -s "$obs_dir/$f" ] || {
                echo "obs smoke: $f missing or empty" >&2; exit 1; }
        done
        # nurapid_report re-parses both JSONL files with the in-tree
        # JSON parser and exits non-zero on any unparseable line.
        "$dir/src/tools/nurapid_report" "$obs_dir/metrics.jsonl" \
            --events "$obs_dir/events.jsonl" > "$obs_dir/report.log"
        grep -q 'per-epoch timelines' "$obs_dir/report.log" || {
            echo "obs smoke: report printed no timelines" >&2; exit 1; }
        grep -q 'hit distribution' "$obs_dir/report.log" || {
            echo "obs smoke: report printed no distribution table" >&2
            exit 1; }
        # Energy attribution rides the same timeline: every epoch
        # carries an energy object and the report renders the
        # Figure-10-style component table from it.
        grep -q '"energy"' "$obs_dir/metrics.jsonl" || {
            echo "obs smoke: metrics timeline has no energy samples" >&2
            exit 1; }
        grep -q 'energy breakdown' "$obs_dir/report.log" || {
            echo "obs smoke: report printed no energy breakdown" >&2
            exit 1; }

        # Observability must not perturb the simulation and observed
        # runs must never seed the run cache: a fresh-cache suite, an
        # observed suite (which bypasses the cache), and a second
        # fresh-cache suite must leave bit-identical caches modulo
        # wall-clock.
        banner "obs-off determinism (run-cache identity)"
        NURAPID_SIM_SCALE=0.02 NURAPID_RUN_CACHE="$obs_dir/cache_a.json" \
            "$dir/src/tools/nurapid_sim" --org dnuca --suite \
            > /dev/null
        NURAPID_SIM_SCALE=0.02 NURAPID_RUN_CACHE="$obs_dir/cache_b.json" \
            "$dir/src/tools/nurapid_sim" --org dnuca --suite \
            --metrics-out "$obs_dir/suite_metrics.jsonl" > /dev/null
        [ -s "$obs_dir/suite_metrics.applu.jsonl" ] || {
            echo "obs: suite run wrote no per-workload metrics" >&2
            exit 1; }
        NURAPID_SIM_SCALE=0.02 NURAPID_RUN_CACHE="$obs_dir/cache_b.json" \
            "$dir/src/tools/nurapid_sim" --org dnuca --suite \
            > /dev/null
        strip_wall() {
            sed 's/"wall_seconds":[-0-9.eE+]*/"wall_seconds":0/g' "$1"
        }
        strip_wall "$obs_dir/cache_a.json" > "$obs_dir/cache_a.norm"
        strip_wall "$obs_dir/cache_b.json" > "$obs_dir/cache_b.norm"
        cmp -s "$obs_dir/cache_a.norm" "$obs_dir/cache_b.norm" || {
            echo "obs: run cache diverged around an observed suite" >&2
            exit 1; }

        # Engine-trace smoke on the all-organizations suite: spans
        # are host-side only, so tracing cannot perturb the run.
        banner "engine-trace smoke (all organizations)"
        trace_dir="$dir/engine_trace_smoke"
        rm -rf "$trace_dir"
        mkdir -p "$trace_dir"
        NURAPID_SIM_SCALE=0.02 NURAPID_RUN_CACHE="$trace_dir/cache.json" \
            "$dir/src/tools/nurapid_sim" --org all --suite \
            --engine-trace-out "$trace_dir/engine_trace.json" \
            > /dev/null 2> "$trace_dir/engine.log"
        [ -s "$trace_dir/engine_trace.json" ] || {
            echo "engine trace: no trace written" >&2; exit 1; }
        grep -q '"ph":"X"' "$trace_dir/engine_trace.json" || {
            echo "engine trace: no spans in trace" >&2; exit 1; }
        # The [engine] footer must account for >= 95% of the process
        # wall time: the top-level run-unit spans cover everything the
        # workers do, leaving only a few fixed ms of startup/teardown
        # outside any span.
        awk '/^\[engine\] wall/ { gsub(/,/, ""); w += $3; c += $7 }
             END { pct = w > 0 ? 100 * c / w : 0;
                   printf "engine trace: %.1f%% of wall covered\n", pct;
                   exit !(pct >= 95) }' "$trace_dir/engine.log" || {
            echo "engine trace: span coverage below 95%" \
                 "(see $trace_dir/engine.log)" >&2
            exit 1; }
    fi

    banner "fuzz smoke ($fuzz_iters iters, audits on)"
    NURAPID_AUDIT=1 NURAPID_AUDIT_INTERVAL=512 \
        "$dir/src/tools/nurapid_fuzz" --iters "$fuzz_iters" \
        --dump-dir "$dir"

    if [ "$config" = "profile" ]; then
        banner "perf smoke (short cold sweep, profiler on)"
        smoke_cache="$dir/perf_smoke_cache.json"
        rm -f "$smoke_cache"
        # Drop cached distilled streams so the smoke always pays (and
        # profiles) the distillation itself, not just an mmap load.
        rm -f "$dir/trace_cache"/*.dtc
        smoke_log="$dir/perf_smoke.log"
        sweep_trace="$dir/engine_sweep_trace.json"
        (export NURAPID_SIM_SCALE=0.05 NURAPID_RUN_CACHE="$smoke_cache" &&
            run_logged "$smoke_log" 2 \
                sh scripts/regen_bench.sh "$dir" --quiet --repeat 1 \
                    --engine-trace-out "$sweep_trace")
        grep -q '^\[profile\]' "$smoke_log" || {
            echo "perf smoke: no [profile] footer in sweep output" >&2
            exit 1
        }
        [ -s "$smoke_cache" ] || {
            echo "perf smoke: sweep left no run cache" >&2
            exit 1
        }
        # All 17 bench binaries appended into one whole-sweep trace,
        # and their [engine] footers together must attribute >= 95%
        # of the sweep's summed process wall time to engine stages.
        [ -s "$sweep_trace" ] || {
            echo "perf smoke: sweep wrote no engine trace" >&2
            exit 1
        }
        awk '/^\[engine\] wall/ { gsub(/,/, ""); n++; w += $3; c += $7 }
             END { pct = w > 0 ? 100 * c / w : 0;
                   printf "perf smoke: engine spans cover %.1f%%" \
                          " of sweep wall (%d footers)\n", pct, n;
                   exit !(n >= 17 && pct >= 95) }' "$smoke_log" || {
            echo "perf smoke: engine footer coverage below 95% of the" \
                 "sweep wall (see $smoke_log)" >&2
            exit 1
        }

        # Sums a named footer bucket ("distill 0.123s" ...) over every
        # [profile] line in a log. Values inside the parenthesized
        # core breakdown carry trailing punctuation ("0.123s)"), so
        # strip everything non-numeric.
        bucket_sum() {
            grep '^\[profile\]' "$1" | awk -v key="$2" '
                { for (i = 1; i < NF; i++)
                      if ($i == key) { v = $(i + 1);
                                       gsub(/[^0-9.]/, "", v);
                                       s += v } }
                END { printf "%.3f", s }'
        }
        # The trace cache holds distilled .dtc streams only: a .trc
        # there means a packed stream was written again.
        trc_count=$(find "$dir/trace_cache" -name '*.trc' | wc -l)
        echo "perf smoke: trace cache $(du -sb "$dir/trace_cache" |
            cut -f1) bytes, $trc_count .trc files"
        [ "$trc_count" -eq 0 ] || {
            echo "perf smoke: trace cache holds .trc files" >&2
            exit 1
        }

        # Distillation must show up in the sweep's profile.
        distill_s=$(bucket_sum "$smoke_log" distill)
        recency_s=$(bucket_sum "$smoke_log" recency)
        echo "perf smoke: distill bucket ${distill_s}s"
        awk -v d="$distill_s" 'BEGIN { exit !(d > 0) }' || {
            echo "perf smoke: no Distill bucket in the profile" >&2
            exit 1
        }
        # The packed rank planes carry their own footer slice; a zero
        # bucket means the recency probes fell off the hot paths.
        echo "perf smoke: recency bucket ${recency_s}s"
        awk -v r="$recency_s" 'BEGIN { exit !(r > 0) }' || {
            echo "perf smoke: no Recency bucket in the profile" >&2
            exit 1
        }

        # The sweep simulates 267 unique configurations; bit-identity
        # of each organization against the reference loop is the
        # tier-1 ReferenceIdentity test.
        banner "sweep run-cache size (267 configs)"
        sweep_entries=$(grep -o '"key"' "$smoke_cache" | wc -l)
        [ "$sweep_entries" -eq 267 ] || {
            echo "perf smoke: expected 267 unique configurations," \
                 "cache holds $sweep_entries" >&2
            exit 1
        }

        # Wall-time ratchet on representative sim-driven benches: more
        # than 25% over this host's recorded baseline fails the gate.
        # The baseline files are per-host so numbers from different
        # machines never compare against each other; each is recorded
        # on first run and ratcheted downward on improvement. Delete
        # one to re-baseline after an intentional slowdown.
        # bench_ablation_pointers exercises the NuRAPID pointer planes;
        # bench_lru_approximation hammers exactly the recency state the
        # packed rank planes replaced.
        guard_dir="scripts/perf-baselines"
        mkdir -p "$guard_dir"
        for guard_bench in bench_ablation_pointers \
                           bench_lru_approximation; do
            banner "perf guard ($guard_bench)"
            guard_file="$guard_dir/$guard_bench.$(uname -n).s"
            guard_log="$dir/perf_guard_$guard_bench.log"
            guard_t0=$(date +%s.%N)
            (export NURAPID_SIM_SCALE=0.05 &&
                run_logged "$guard_log" 1 \
                    "$dir/bench/$guard_bench")
            guard_t1=$(date +%s.%N)
            guard_s=$(awk -v a="$guard_t0" -v b="$guard_t1" \
                'BEGIN { printf "%.2f", b - a }')
            if [ ! -s "$guard_file" ]; then
                echo "$guard_s" > "$guard_file"
                echo "perf guard: recorded baseline ${guard_s}s" \
                     "in $guard_file"
            else
                guard_base=$(cat "$guard_file")
                echo "perf guard: ${guard_s}s vs baseline ${guard_base}s"
                awk -v s="$guard_s" -v b="$guard_base" \
                    'BEGIN { exit !(s <= b * 1.25) }' || {
                    echo "perf guard: $guard_bench took" \
                         "${guard_s}s, more than 25% over the" \
                         "${guard_base}s baseline in $guard_file" >&2
                    exit 1
                }
                if awk -v s="$guard_s" -v b="$guard_base" \
                    'BEGIN { exit !(s < b) }'; then
                    echo "$guard_s" > "$guard_file"
                fi
            fi
        done

        # Same ratchet on the whole cold sweep (the first perf smoke
        # above ran cold with engine tracing attached), so the
        # observability layer itself can never quietly tax the sweep.
        banner "perf guard (cold sweep wall)"
        sweep_ms=$(grep '"total_wall_ms"' "$dir/BENCH_sweep.json" |
            grep -o '[0-9][0-9]*')
        sweep_guard="$guard_dir/sweep_cold.$(uname -n).ms"
        if [ ! -s "$sweep_guard" ]; then
            echo "$sweep_ms" > "$sweep_guard"
            echo "perf guard: recorded cold-sweep baseline ${sweep_ms}ms" \
                 "in $sweep_guard"
        else
            sweep_base=$(cat "$sweep_guard")
            echo "perf guard: cold sweep ${sweep_ms}ms vs baseline" \
                 "${sweep_base}ms"
            awk -v s="$sweep_ms" -v b="$sweep_base" \
                'BEGIN { exit !(s <= b * 1.25) }' || {
                echo "perf guard: cold sweep took ${sweep_ms}ms, more" \
                     "than 25% over the ${sweep_base}ms baseline in" \
                     "$sweep_guard" >&2
                exit 1
            }
            if awk -v s="$sweep_ms" -v b="$sweep_base" \
                'BEGIN { exit !(s < b) }'; then
                echo "$sweep_ms" > "$sweep_guard"
            fi
        fi
    fi
done

end=$(date +%s)
echo "check.sh: all configs ($configs) clean in $((end - start)) s"
