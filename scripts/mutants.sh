#!/usr/bin/env bash
# Mutant runner: check that the checks can fail.
#
#   scripts/mutants.sh [-d DIR] [MUTANTS]
#
# Each `*.mutant` file in the directory MUTANTS (default scripts/mutants/)
# is one small deliberate bug: a file path, an exact `old` text that must
# occur in that file exactly once, its `new` replacement, and the command
# that must fail once the replacement is made:
#
#   # What the mutant breaks (comment lines come first).
#   path: crates/armor/src/extract.rs
#   command: cargo test -q -p armor --lib some_test
#   --- old
#   the exact lines to replace
#   --- new
#   their replacement, to the end of the file (may be empty)
#
# Checks HEAD out into a detached `git worktree` at DIR/tree (default DIR:
# $TMPDIR/care-mutants), as scripts/ab.sh does, and builds there into
# DIR/target, which later runs reuse. It first runs each distinct command
# on the unmutated tree, which must pass (else the mutant is `broken`:
# its command cannot tell a kill from a failure). Then, in name order, it
# applies each mutant alone to a clean tree and runs its command:
# `killed` if the command fails, `survived` if it passes, `unbuilt` if it
# fails because rustc rejects the mutated code (which checks nothing),
# `stale` if the path is gone or `old` does not occur there exactly once.
# One line per mutant, then a summary; each command's output is kept in
# DIR/logs/. Exits 1 unless every mutant is killed.
# Remove the worktree afterwards with `git worktree remove --force DIR/tree`,
# or `git worktree prune` once DIR is gone.
set -euo pipefail

dir="${TMPDIR:-/tmp}/care-mutants"
while [[ $# -gt 0 ]]; do
    case "$1" in
        -d) dir="$2"; shift 2 ;;
        -h|--help) sed -n '2,31p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        -*) echo "error: unknown flag $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
if [[ $# -gt 1 ]]; then
    echo "error: want at most one mutants directory (see --help)" >&2
    exit 2
fi
repo="$(git rev-parse --show-toplevel)"
mutants="$(cd "${1:-$repo/scripts/mutants}" && pwd)"
shopt -s nullglob
files=("$mutants"/*.mutant)
if [[ ${#files[@]} -eq 0 ]]; then
    echo "error: no *.mutant files in $mutants" >&2
    exit 2
fi
mkdir -p "$dir/logs"
dir="$(cd "$dir" && pwd)"
tree="$dir/tree"
if [[ ! -e "$tree" ]]; then
    git -C "$repo" worktree add --detach --quiet "$tree" HEAD
fi
git -C "$tree" checkout --detach --force --quiet "$(git -C "$repo" rev-parse HEAD)"
echo "tree: $(git -C "$tree" log --oneline -1)" >&2
export CARGO_TARGET_DIR="$dir/target"

# `field FILE KEY`: the value of FILE's `KEY: ` header line.
field() { sed -n "s/^$2: //p;/^--- old$/q" "$1" | head -n 1; }

# `apply FILE`: make FILE's replacement in the tree; status 3 when stale.
apply() {
    python3 - "$1" "$tree" <<'EOF'
import os, sys
text = open(sys.argv[1]).read()
head, sep, body = text.partition("--- old\n")
old, sep2, new = body.partition("--- new\n")
path = next(l[6:] for l in head.splitlines() if l.startswith("path: "))
target = os.path.join(sys.argv[2], path)
if not sep or not sep2 or not old or not os.path.isfile(target):
    sys.exit(3)
src = open(target).read()
if src.count(old) != 1:
    sys.exit(3)
open(target, "w").write(src.replace(old, new))
EOF
}

# Each distinct command must pass on the unmutated tree.
declare -A baseline=()
for f in "${files[@]}"; do
    cmd="$(field "$f" command)"
    if [[ -z ${baseline[$cmd]+set} ]]; then
        n=${#baseline[@]}
        if (cd "$tree" && bash -c "$cmd") > "$dir/logs/baseline-$n.log" 2>&1; then
            baseline[$cmd]=ok
        else
            baseline[$cmd]=fails
            echo "baseline fails: $cmd (see $dir/logs/baseline-$n.log)" >&2
        fi
    fi
done

killed=0 bad=0
for f in "${files[@]}"; do
    name="$(basename "$f" .mutant)"
    cmd="$(field "$f" command)"
    git -C "$tree" checkout --force --quiet -- .
    status=0
    apply "$f" || status=$?
    if [[ $status -eq 3 ]]; then
        verdict=stale
    elif [[ $status -ne 0 ]]; then
        echo "error: could not apply $f" >&2
        exit 2
    elif [[ ${baseline[$cmd]} != ok ]]; then
        verdict=broken
    elif (cd "$tree" && bash -c "$cmd") > "$dir/logs/$name.log" 2>&1; then
        verdict=survived
    elif grep -q '^error\[E' "$dir/logs/$name.log"; then
        verdict=unbuilt
    else
        verdict=killed
    fi
    printf '%-9s %s  (%s)\n' "$verdict" "$name" "$cmd"
    if [[ $verdict == killed ]]; then killed=$((killed + 1)); else bad=$((bad + 1)); fi
done
git -C "$tree" checkout --force --quiet -- .
echo "mutants: ${#files[@]}, killed $killed, not killed $bad"
[[ $bad -eq 0 ]]
