#!/usr/bin/env bash
# Parent/change pairs for carebench: build two revisions and alternate runs.
#
#   scripts/ab.sh [-n N] [-w W[,W...]] [-d DIR] [--default-build] PARENT CHANGE
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
# Remove the worktree afterwards with `git worktree remove --force DIR/tree`,
# or `git worktree prune` once DIR is gone.
set -euo pipefail

n=10 workload=cov_compiled aligned=1
dir="${TMPDIR:-/tmp}/care-ab"
while [[ $# -gt 0 ]]; do
    case "$1" in
        -n) n="$2"; shift 2 ;;
        -w) workload="$2"; shift 2 ;;
        -d) dir="$2"; shift 2 ;;
        --default-build) aligned=0; shift ;;
        -h|--help) sed -n '2,31p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        -*) echo "error: unknown flag $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
if [[ $# -ne 2 ]]; then
    echo "error: want PARENT and CHANGE revisions (see --help)" >&2
    exit 2
fi
repo="$(git rev-parse --show-toplevel)"
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
        CARGO_TARGET_DIR="$dir/target-$side" cargo build --release --quiet --offline \
            --manifest-path benchmarks/Cargo.toml
    )
done
if cmp -s "$dir/target-parent/release/carebench" "$dir/target-change/release/carebench"; then
    echo "note: both sides built the same carebench binary" >&2
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
            "$dir/target-$side/release/carebench" run --workload "$workload" --seed "$i" \
                --seconds "$seconds" | tail -n 1 > "$out"
            echo "pair $i $side: $(cat "$out")" >&2
        done
    done

    python3 - "$dir" "$workload" "$n" "$tree/BENCHMARK.json" <<'EOF'
import json, math, statistics, sys

dir, workload, n, spec = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
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
