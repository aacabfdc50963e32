#!/bin/sh
# Bench regression gate: compare a fresh bench report against the
# committed baseline.
#
#   scripts/bench_gate.sh BASELINE.json CANDIDATE.json
#
# Report schemas, auto-detected; a report matching none of them fails:
#
# `bench json` (FDD sweep): fails (exit 1) when any sweep point
# reports `identical_to_crossproduct: false` (the FDD engine must agree
# with the cross-product oracle everywhere) or
# `identical_to_group_naive: false` (the interned grouping must agree
# with the naive per-spec-set oracle everywhere), when the headline
# `speedup` (composition-stage, cross-product over FDD, at the headline
# point) is below the 3x floor, when the headline
# `group_speedup` (naive grouping over export-vector interning) is below
# 10x at full scale (>= 50k headline prefixes; 0.5x — millisecond-level
# timer noise tolerance — at the smaller CI scale), when the
# `reachability_s`/`group_s` phase keys
# are missing, or when a `check_errors` field is present and non-zero.
# Absolute rule/group counts are NOT compared to the baseline: the
# committed baseline is a full-scale (--scale 1) sweep while CI runs the
# default scale, so the grids differ by design.  Warns when the
# candidate's speedup is under a quarter of the baseline's (the ratio
# grows with workload size, so candidates at smaller scales legitimately
# report less).
#
# `bench dataplane` (lookup engine): fails on `rules` drift, on
# `identical_to_linear` != true (the engine diverged from the
# linear-scan oracle), and on `speedup` < 5.0 — the engine must beat the
# linear scan by at least 5x at the headline (>= 5k rule) table, with
# enough margin under the real ~20x that CI jitter does not flake.
# Warns when `engine_pps` regressed by more than 25% vs the baseline.
# When the report carries the parallel RCU keys (`aggregate_pps`,
# `parallel_identical`, `single_core_pps`), additionally fails on
# `parallel_identical` != true (a worker domain diverged from the
# snapshot's linear scan — an RCU bug, not jitter), and enforces the
# scaling floor `aggregate_pps >= 1.5 * single_core_pps` only when the
# host has >= 2 cores (`nproc`); single-core hosts cannot scale, so
# there the floor is a warning.
#
# `bench fabric` (sharded multi-switch): fails on any
# `equiv_mismatches` (sharded delivery must equal the single big
# switch packet for packet), on any `mixed_version_packets` or
# `transit_misses` (the two-phase protocol must keep the consistency
# monitor at zero through the churn soak), on any `check_errors`, on
# `commits` or `probe_packets` of zero (a soak that never committed or
# never probed the mid-phase windows tested nothing), on
# `commit_flow_mods` more than 10% above the baseline's (a commit must
# send flow-mods in proportion to the change, not to the tables), and on
# `edge4_largest_rules` >= `edge1_largest_rules` (sharding must shrink
# the per-edge tables).  The aggregate-throughput scaling floor
# `edge4_aggregate_pps >= edge1_aggregate_pps` is enforced only when
# the host has >= 4 cores (`nproc`); with fewer cores the per-edge
# readers serialize and the extra trunk hop makes the sharded walk
# strictly more work, so there the floor is a warning.  Warns when
# `edge1_aggregate_pps` regressed by more than 25% vs the baseline.
#
# `bench soak` (churn): fails on any `check_errors` or
# `equiv_divergences` (the soak must stay verified and equivalent to
# from-scratch recompiles), on any `incremental_errors` when the report
# carries the inline-check keys (every burst commit must verify), and on
# `reoptimizations` or `vnh_reclaimed` of zero — a soak that never
# re-optimized or never reclaimed a VNH did not exercise the lifecycle
# it exists to test.  When the report carries the group-churn keys
# (`group_migrations`), additionally fails on `group_migrations` = 0 —
# a soak in which no prefix ever migrated into an interned class ran
# with incremental group maintenance inert.  When the report carries
# the sanitizer keys
# (`sanitizer_races`, `sanitizer_overhead_x`), additionally fails on
# `sanitizer_races` != 0 — the sdx_race detector must stay silent on
# the unmutated runtime — and warns when the instrumented-vs-plain
# overhead exceeds 10x (Record mode serializes on the detector lock, so
# a blow-up means a hot path grew a tracked operation).  Warns when
# `updates_per_s` regressed by more than 25% vs the baseline.  Update
# counts are deliberately NOT compared: the committed baseline is a
# million-update run while CI soaks a smaller count.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 baseline.json candidate.json" >&2
    exit 2
fi
baseline=$1
candidate=$2

# The reports are written by bench/main.ml with one "key": value pair
# per line, so a sed scrape is exact on this schema.
field() {
    sed -n "s/^[[:space:]]*\"$2\":[[:space:]]*\([^,}]*\).*/\1/p" "$1" | head -n 1
}

require() {
    if [ -z "$2" ]; then
        echo "bench gate: field \"$1\" missing from report" >&2
        exit 1
    fi
}

fail=0

if grep -q '"identical_to_linear"' "$candidate"; then
    # --- dataplane schema ---
    for key in rules identical_to_linear; do
        base=$(field "$baseline" "$key")
        cand=$(field "$candidate" "$key")
        require "$key (baseline)" "$base"
        require "$key (candidate)" "$cand"
        if [ "$base" != "$cand" ]; then
            echo "bench gate: FAIL $key: baseline=$base candidate=$cand"
            fail=1
        else
            echo "bench gate: ok   $key=$cand"
        fi
    done

    if [ "$(field "$candidate" identical_to_linear)" != "true" ]; then
        echo "bench gate: FAIL engine lookup is not equivalent to the linear scan"
        fail=1
    fi

    speedup=$(field "$candidate" speedup)
    require "speedup" "$speedup"
    if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 5.0) }'; then
        echo "bench gate: FAIL dataplane speedup ${speedup}x is below the 5x floor"
        fail=1
    else
        echo "bench gate: ok   speedup=${speedup}x (floor 5x)"
    fi

    base_pps=$(field "$baseline" engine_pps)
    cand_pps=$(field "$candidate" engine_pps)
    require "engine_pps (baseline)" "$base_pps"
    require "engine_pps (candidate)" "$cand_pps"
    awk -v base="$base_pps" -v cand="$cand_pps" 'BEGIN {
        if (base > 0 && cand < base * 0.75) {
            printf "bench gate: WARN engine_pps %.0f is %.0f%% below baseline %.0f\n",
                cand, (1 - cand / base) * 100, base
        } else {
            printf "bench gate: ok   engine_pps=%.0f (baseline %.0f)\n", cand, base
        }
    }'

    # --- parallel RCU keys (present once the report carries them) ---
    par_identical=$(field "$candidate" parallel_identical)
    if [ -n "$par_identical" ]; then
        if [ "$par_identical" != "true" ]; then
            echo "bench gate: FAIL a parallel worker diverged from the snapshot linear scan"
            fail=1
        else
            echo "bench gate: ok   parallel_identical=true"
        fi

        aggregate=$(field "$candidate" aggregate_pps)
        single=$(field "$candidate" single_core_pps)
        workers=$(field "$candidate" workers)
        require "aggregate_pps" "$aggregate"
        require "single_core_pps" "$single"
        cores=$( (nproc 2>/dev/null || echo 1) | head -n 1)
        if awk -v a="$aggregate" -v s="$single" 'BEGIN { exit !(s > 0 && a >= s * 1.5) }'; then
            echo "bench gate: ok   aggregate_pps=$aggregate ($workers workers, single_core_pps=$single)"
        elif [ "$cores" -ge 2 ]; then
            echo "bench gate: FAIL aggregate_pps=$aggregate is under 1.5x single_core_pps=$single on a ${cores}-core host"
            fail=1
        else
            echo "bench gate: WARN aggregate_pps=$aggregate under 1.5x single_core_pps=$single (single-core host; scaling floor not enforced)"
        fi
    fi

    exit "$fail"
fi

if grep -q '"mixed_version_packets"' "$candidate"; then
    # --- sharded fabric schema ---
    for key in equiv_mismatches mixed_version_packets transit_misses check_errors; do
        cand=$(field "$candidate" "$key")
        require "$key" "$cand"
        if [ "$cand" != "0" ]; then
            echo "bench gate: FAIL $key=$cand (must be 0)"
            fail=1
        else
            echo "bench gate: ok   $key=0"
        fi
    done

    for key in commits probe_packets; do
        cand=$(field "$candidate" "$key")
        require "$key" "$cand"
        if [ "$cand" = "0" ]; then
            echo "bench gate: FAIL $key=0 (soak never exercised the two-phase protocol)"
            fail=1
        else
            echo "bench gate: ok   $key=$cand"
        fi
    done

    mods=$(field "$candidate" commit_flow_mods)
    base_mods=$(field "$baseline" commit_flow_mods)
    require "commit_flow_mods" "$mods"
    if [ -n "$base_mods" ]; then
        if awk -v base="$base_mods" -v cand="$mods" 'BEGIN { exit !(cand > base * 1.10) }'; then
            echo "bench gate: FAIL commit_flow_mods=$mods exceeds baseline $base_mods by more than 10%"
            fail=1
        else
            echo "bench gate: ok   commit_flow_mods=$mods (baseline $base_mods)"
        fi
    fi

    e1_rules=$(field "$candidate" edge1_largest_rules)
    e4_rules=$(field "$candidate" edge4_largest_rules)
    require "edge1_largest_rules" "$e1_rules"
    require "edge4_largest_rules" "$e4_rules"
    if [ "$e4_rules" -ge "$e1_rules" ]; then
        echo "bench gate: FAIL edge4_largest_rules=$e4_rules does not shrink from edge1_largest_rules=$e1_rules"
        fail=1
    else
        echo "bench gate: ok   per-edge rules shrink ($e1_rules -> $e4_rules across 1 -> 4 edges)"
    fi

    e1_pps=$(field "$candidate" edge1_aggregate_pps)
    e4_pps=$(field "$candidate" edge4_aggregate_pps)
    require "edge1_aggregate_pps" "$e1_pps"
    require "edge4_aggregate_pps" "$e4_pps"
    cores=$( (nproc 2>/dev/null || echo 1) | head -n 1)
    if awk -v a="$e4_pps" -v b="$e1_pps" 'BEGIN { exit !(a >= b) }'; then
        echo "bench gate: ok   aggregate throughput non-decreasing ($e1_pps -> $e4_pps pkt/s)"
    elif [ "$cores" -ge 4 ]; then
        echo "bench gate: FAIL edge4_aggregate_pps=$e4_pps fell below edge1_aggregate_pps=$e1_pps on a ${cores}-core host"
        fail=1
    else
        echo "bench gate: WARN edge4_aggregate_pps=$e4_pps under edge1_aggregate_pps=$e1_pps (${cores}-core host; scaling floor not enforced)"
    fi

    base_pps=$(field "$baseline" edge1_aggregate_pps)
    if [ -n "$base_pps" ]; then
        awk -v base="$base_pps" -v cand="$e1_pps" 'BEGIN {
            if (base > 0 && cand < base * 0.75) {
                printf "bench gate: WARN edge1_aggregate_pps %.0f is %.0f%% below baseline %.0f\n",
                    cand, (1 - cand / base) * 100, base
            } else {
                printf "bench gate: ok   edge1_aggregate_pps=%.0f (baseline %.0f)\n", cand, base
            }
        }'
    fi

    exit "$fail"
fi

if grep -q '"updates_per_s"' "$candidate"; then
    # --- churn soak schema ---
    for key in check_errors equiv_divergences; do
        cand=$(field "$candidate" "$key")
        require "$key" "$cand"
        if [ "$cand" != "0" ]; then
            echo "bench gate: FAIL $key=$cand (must be 0)"
            fail=1
        else
            echo "bench gate: ok   $key=0"
        fi
    done

    incr_errors=$(field "$candidate" incremental_errors)
    if [ -n "$incr_errors" ]; then
        incr_checks=$(field "$candidate" incremental_checks)
        if [ "$incr_errors" != "0" ]; then
            echo "bench gate: FAIL incremental_errors=$incr_errors across $incr_checks inline check(s)"
            fail=1
        else
            echo "bench gate: ok   incremental_errors=0 ($incr_checks inline check(s))"
        fi
    fi

    for key in reoptimizations vnh_reclaimed; do
        cand=$(field "$candidate" "$key")
        require "$key" "$cand"
        if [ "$cand" = "0" ]; then
            echo "bench gate: FAIL $key=0 (soak did not exercise the VNH lifecycle)"
            fail=1
        else
            echo "bench gate: ok   $key=$cand"
        fi
    done

    # --- incremental group-maintenance keys (present once the report
    #     carries them): migrations must actually have happened, or the
    #     soak silently ran with class migration inert. ---
    migrations=$(field "$candidate" group_migrations)
    if [ -n "$migrations" ]; then
        if [ "$migrations" = "0" ]; then
            echo "bench gate: FAIL group_migrations=0 (incremental class migration never fired)"
            fail=1
        else
            echo "bench gate: ok   group_migrations=$migrations (minted $(field "$candidate" groups_minted), retired $(field "$candidate" groups_retired), tombstones $(field "$candidate" retired_tombstones))"
        fi
    fi

    san_races=$(field "$candidate" sanitizer_races)
    if [ -n "$san_races" ]; then
        if [ "$san_races" != "0" ]; then
            echo "bench gate: FAIL sanitizer_races=$san_races on the unmutated runtime"
            fail=1
        else
            echo "bench gate: ok   sanitizer_races=0"
        fi

        overhead=$(field "$candidate" sanitizer_overhead_x)
        require "sanitizer_overhead_x" "$overhead"
        awk -v x="$overhead" 'BEGIN {
            if (x > 10.0) {
                printf "bench gate: WARN sanitizer overhead %.2fx exceeds the 10x guideline\n", x
            } else {
                printf "bench gate: ok   sanitizer_overhead_x=%.2f (guideline <= 10x)\n", x
            }
        }'
    fi

    base_rate=$(field "$baseline" updates_per_s)
    cand_rate=$(field "$candidate" updates_per_s)
    require "updates_per_s (baseline)" "$base_rate"
    require "updates_per_s (candidate)" "$cand_rate"
    awk -v base="$base_rate" -v cand="$cand_rate" 'BEGIN {
        if (base > 0 && cand < base * 0.75) {
            printf "bench gate: WARN updates_per_s %.0f is %.0f%% below baseline %.0f\n",
                cand, (1 - cand / base) * 100, base
        } else {
            printf "bench gate: ok   updates_per_s=%.0f (baseline %.0f)\n", cand, base
        }
    }'

    exit "$fail"
fi

if grep -q '"identical_to_crossproduct"' "$candidate"; then
    # --- FDD compile-sweep schema ---
    if grep -q '"identical_to_crossproduct": false' "$candidate"; then
        echo "bench gate: FAIL a sweep point diverged from the cross-product oracle"
        grep -o '{"participants": [0-9]*, "prefixes": [0-9]*' "$candidate" | head -n 5
        fail=1
    else
        points=$(grep -c '"identical_to_crossproduct": true' "$candidate")
        echo "bench gate: ok   identical_to_crossproduct=true ($points occurrence(s))"
    fi

    # The summary block repeats the largest point's numbers after the
    # sweep array; field() reads the first line whose key starts the
    # line, which only the summary's dedicated lines do.
    speedup=$(field "$candidate" speedup)
    require "speedup" "$speedup"
    if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 3.0) }'; then
        echo "bench gate: FAIL compose speedup ${speedup}x is below the 3x floor"
        fail=1
    else
        echo "bench gate: ok   speedup=${speedup}x (floor 3x, cross-product/FDD compose)"
    fi

    # --- group-phase keys (ISSUE 9; required on current candidates) ---
    for key in reachability_s group_s naive_group_s group_speedup; do
        require "$key" "$(field "$candidate" "$key")"
    done

    if grep -q '"identical_to_group_naive": false' "$candidate"; then
        echo "bench gate: FAIL a sweep point's interned grouping diverged from the naive oracle"
        fail=1
    else
        echo "bench gate: ok   identical_to_group_naive=true (all points)"
    fi

    # The >=10x grouping floor is stated at the full-scale 500x50k
    # headline; smaller-scale candidates (CI runs the default scale)
    # only have to stay within 2x of the naive pipeline — at a few
    # thousand prefixes both phases run in single-digit milliseconds,
    # so the ratio is timer noise, not a regression signal.
    gspeed=$(field "$candidate" group_speedup)
    px=$(field "$candidate" prefixes)
    require "prefixes" "$px"
    gfloor=0.5
    if [ "$px" -ge 50000 ]; then gfloor=10.0; fi
    if ! awk -v s="$gspeed" -v f="$gfloor" 'BEGIN { exit !(s >= f) }'; then
        echo "bench gate: FAIL group speedup ${gspeed}x is below the ${gfloor}x floor (headline ${px} prefixes)"
        fail=1
    else
        echo "bench gate: ok   group_speedup=${gspeed}x (floor ${gfloor}x at ${px} prefixes)"
    fi

    errors=$(field "$candidate" check_errors)
    if [ -n "$errors" ]; then
        if [ "$errors" != "0" ]; then
            echo "bench gate: FAIL check_errors=$errors (static verification)"
            fail=1
        else
            echo "bench gate: ok   check_errors=0"
        fi
    fi

    base_speedup=$(field "$baseline" speedup)
    if [ -n "$base_speedup" ]; then
        awk -v base="$base_speedup" -v cand="$speedup" 'BEGIN {
            if (base > 0 && cand < base * 0.25) {
                printf "bench gate: WARN speedup %.2fx is under a quarter of baseline %.2fx\n",
                    cand, base
            } else {
                printf "bench gate: ok   speedup=%.2fx (baseline %.2fx)\n", cand, base
            }
        }'
    fi

    exit "$fail"
fi

echo "bench gate: FAIL $candidate matches no known report schema" >&2
exit 1
