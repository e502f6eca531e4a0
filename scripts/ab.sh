#!/usr/bin/env bash
# Parent/change pairs for carebench or repro: build two revisions and
# alternate runs.
#
#   scripts/ab.sh [-n N] [-w W[,W...]] [-d DIR] [--default-build] PARENT CHANGE
#   scripts/ab.sh [-n N] [-d DIR] [--default-build] --repro "ARGS" PARENT CHANGE
#
# Checks PARENT and then CHANGE out in turn into one detached `git worktree`
# at DIR/tree (default DIR: $TMPDIR/care-ab), so building carebench rewrites
# no lock file in this checkout, and builds carebench from each into its own
# target directory with the reading rule's aligned flags (ROADMAP.md;
# `--default-build` leaves RUSTFLAGS alone). Both sides build from the one
# path because a path dependency's package id holds its path: two checkouts
# of one commit at two paths link two different binaries.
# Then, for each workload W of the comma-separated list given to -w
# (default cov_compiled), in the order given, it runs
# `carebench run --workload W --seed i --seconds S` for i = 1..N (default
# 10), alternating which side runs first, and keeps each run's result line
# under DIR/runs/. S is the `run_seconds` of CHANGE's BENCHMARK.json, so
# both sides run as long as the benchmark does.
#
# Per workload and end-to-end metric it prints both sides' medians and
# quartiles, the change's wins out of N pairs (in the direction
# BENCHMARK.json gives), the two-sided exact sign-test p over the pairs
# that differ (`p_sign`: the chance of a split at least this uneven if
# either side were equally likely to win a pair), and whether the change's
# median lies outside the parent's quartile range. The last rule alone has
# flagged a 3 % gap between two builds of one commit; read it beside
# `p_sign`. Each workload's table ends with one JSON object
# holding the same numbers, for CHANGES.md: one call with
# `-w svc_mix,cov_interp,cov_compiled,store_cycle` prints four such lines.
#
# `--repro "ARGS"` builds `repro` instead and times `repro ARGS` (split on
# spaces) N times per side, alternating as above, each side from its own
# working directory DIR/runs/SIDE (so a relative `--store` stays per side).
# Its one metric is `wall_s`, the run's wall-clock seconds, lower better;
# its table and JSON line also say whether every run of both sides printed
# the same stdout once scripts/wallclock_mask.awk masked Table 8's and 9's
# wall-clock cells (`stdout_equal`).
# Remove the worktree afterwards with `git worktree remove --force DIR/tree`,
# or `git worktree prune` once DIR is gone.
set -euo pipefail

n=10 workload=cov_compiled aligned=1 repro_args=""
dir="${TMPDIR:-/tmp}/care-ab"
while [[ $# -gt 0 ]]; do
    case "$1" in
        -n) n="$2"; shift 2 ;;
        -w) workload="$2"; shift 2 ;;
        -d) dir="$2"; shift 2 ;;
        --default-build) aligned=0; shift ;;
        --repro) repro_args="$2"; workload=repro; shift 2 ;;
        -h|--help) sed -n '2,41p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        -*) echo "error: unknown flag $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
if [[ $# -ne 2 ]]; then
    echo "error: want PARENT and CHANGE revisions (see --help)" >&2
    exit 2
fi
repo="$(git rev-parse --show-toplevel)"
mask="$(cd "$(dirname "$0")" && pwd)/wallclock_mask.awk"
bin=carebench build=(--manifest-path benchmarks/Cargo.toml)
if [[ $workload == repro ]]; then
    bin=repro build=(-p bench --bin repro)
fi
mkdir -p "$dir/runs"
dir="$(cd "$dir" && pwd)"

tree="$dir/tree"
if [[ ! -e "$tree" ]]; then
    git -C "$repo" worktree add --detach --quiet "$tree" HEAD
fi
for side in parent change; do
    rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")"; shift
    # `--force`: the previous build may have rewritten benchmarks/Cargo.lock.
    git -C "$tree" checkout --detach --force --quiet "$rev"
    echo "$side: $(git -C "$tree" log --oneline -1)" >&2
    (
        if [[ $aligned -eq 1 ]]; then
            export RUSTFLAGS="-C llvm-args=-align-all-functions=6 -C llvm-args=-align-loops=64"
        fi
        cd "$tree"
        CARGO_TARGET_DIR="$dir/target-$side" cargo build --release --quiet --offline "${build[@]}"
    )
done
if cmp -s "$dir/target-parent/release/$bin" "$dir/target-change/release/$bin"; then
    echo "note: both sides built the same $bin binary" >&2
fi
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$tree/BENCHMARK.json")"

IFS=',' read -r -a workloads <<< "$workload"
for workload in "${workloads[@]}"; do
    for i in $(seq 1 "$n"); do
        order="parent change"
        if (( i % 2 == 0 )); then order="change parent"; fi
        for side in $order; do
            out="$dir/runs/$workload-$side-$i.json"
            if [[ $workload == repro ]]; then
                mkdir -p "$dir/runs/$side"
                start=$EPOCHREALTIME failed=0
                # shellcheck disable=SC2086 # ARGS is split on spaces
                (cd "$dir/runs/$side" && "$dir/target-$side/release/repro" $repro_args) \
                    2> "$dir/runs/repro-$side-$i.err" > "$dir/runs/repro-$side-$i.out" || failed=1
                wall=$(python3 -c "print($EPOCHREALTIME - $start)")
                awk -f "$mask" "$dir/runs/repro-$side-$i.out" > "$dir/runs/repro-$side-$i.masked"
                echo "{\"metrics\":{\"wall_s\":{\"value\":$wall}},\"failed\":$failed}" > "$out"
            else
                "$dir/target-$side/release/carebench" run --workload "$workload" --seed "$i" \
                    --seconds "$seconds" | tail -n 1 > "$out"
            fi
            echo "pair $i $side: $(cat "$out")" >&2
        done
    done

    python3 - "$dir" "$workload" "$n" "$tree/BENCHMARK.json" "$repro_args" <<'EOF'
import json, math, statistics, sys

dir, workload, n, spec, repro_args = sys.argv[1], sys.argv[2], int(sys.argv[3]), *sys.argv[4:]
if workload == "repro":
    better = {"wall_s": "lower"}
else:
    better = {m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}

def runs(side):
    return [json.load(open(f"{dir}/runs/{workload}-{side}-{i}.json")) for i in range(1, n + 1)]

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def sign_p(won, lost):
    m = won + lost
    tail = sum(math.comb(m, i) for i in range(min(won, lost) + 1))
    return min(1.0, 2 * tail / 2**m)

parent, change = runs("parent"), runs("change")
summary = {"workload": workload, "pairs": n, "metrics": {}}
failed = sum(r["failed"] for r in parent + change)
if workload == "repro":
    summary["command"] = f"repro {repro_args}"
    outs = {open(f"{dir}/runs/repro-{side}-{i}.masked").read()
            for side in ("parent", "change") for i in range(1, n + 1)}
    summary["stdout_equal"] = len(outs) == 1
    print(f"repro {repro_args}: {n} pairs, {failed} failed runs, masked stdout "
          f"{'equal' if len(outs) == 1 else 'DIFFERS'} across all runs")
else:
    print(f"{workload}: {n} pairs, {failed} failed ops")
print(f"{'metric':<14} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'wins':>6} {'p_sign':>7}  outside")
for name, way in better.items():
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    pq, cq = quartiles(p), quartiles(c)
    won = sum((b > a) if way == "higher" else (b < a) for a, b in zip(p, c))
    p_sign = sign_p(won, sum(a != b for a, b in zip(p, c)) - won)
    outside = not (pq[0] <= cq[1] <= pq[2])
    fmt = lambda q: "/".join(f"{x:.6g}" for x in q)
    print(f"{name:<14} {fmt(pq):>30} {fmt(cq):>30} {won:>3}/{n} {p_sign:>7.3g}  "
          f"{'yes' if outside else 'no'}")
    summary["metrics"][name] = {
        "parent": [round(x, 6) for x in pq],
        "change": [round(x, 6) for x in cq],
        "wins": won,
        "p_sign": round(p_sign, 6),
        "outside": outside,
    }
summary["failed"] = failed
print(json.dumps(summary, separators=(",", ":")))
EOF
done
