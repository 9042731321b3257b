#!/usr/bin/env bash
# bench_pairs.sh BASE N [WORKLOAD…] — is this working tree faster than BASE?
#
# Exports commit BASE into .bench_build/base-<sha>/, builds both sides with
# their own bench/run.sh and runs N pairs of (BASE, working tree) per
# workload, untraced, alternating which side goes first and giving both
# sides of a pair the same seed (SEED, SEED+1, …; SEED defaults to 1). It
# then prints, per end-to-end metric of BENCHMARK.json, each side's median
# and quartiles, how many pairs the working tree won, and a verdict:
#
#   gain        the tree won at least 9 of 10 pairs (ties count for neither)
#               and the medians differ by more than the base's own
#               interquartile distance
#   WORSE       the tree's median is worse than the base's by more than the
#               metric's bound
#   unresolved  neither, but a side's interquartile distance exceeds the
#               bound, so "no worse" cannot be told from this many pairs
#   same        neither, and both spreads are inside the bound
#
# It reads bench/ and BENCHMARK.json and edits neither. The export is a
# `git archive`, not a `git worktree`: nothing is registered in .git and
# removing .bench_build/ removes every trace. Raw per-run results stay in
# .bench_build/pairs/ for the CHANGES.md table.
set -euo pipefail

if [ $# -lt 2 ] || ! [ "$2" -gt 0 ] 2>/dev/null; then
	echo "usage: scripts/bench_pairs.sh BASE N [WORKLOAD…]" >&2
	exit 2
fi
if [ ! -f BENCHMARK.json ] || [ ! -f bench/run.sh ]; then
	echo "bench_pairs.sh: run from the root of a homesight checkout" >&2
	exit 2
fi
base=$1 pairs=$2
shift 2
seed0=${SEED:-1}

# BENCHMARK.json is pretty-printed, one key per line; the blocks wanted are
# top-level arrays of objects.
block() { awk -v key="\"$1\": [" 'index($0, key) == 3 { on = 1; next } on && /^  \]/ { exit } on' BENCHMARK.json; }
field() { sed -n "s/^ *\"$1\": \"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p"; }
if [ $# -gt 0 ]; then workloads=("$@"); else mapfile -t workloads < <(block workloads | field name); fi
mapfile -t metrics < <(block end_to_end | field name)
mapfile -t better < <(block end_to_end | field better)
mapfile -t bound < <(block end_to_end | field bound)

sha=$(git rev-parse --short=12 "$base^{commit}")
basedir=$PWD/.bench_build/base-$sha
out=$PWD/.bench_build/pairs
if [ ! -f "$basedir/bench/run.sh" ]; then
	rm -rf "$basedir"
	mkdir -p "$basedir"
	git archive "$sha" | tar -x -C "$basedir"
fi
mkdir -p "$out"
runs=$out/runs.tsv
: >"$runs"

# one SIDE DIR WORKLOAD PAIR SEED: a single untraced run; the result line
# is the last line of stdout.
one() {
	local line
	line=$(cd "$2" && bash bench/run.sh --workload "$3" --seed "$5" --trace 0 2>"$out/$1-$3-$4.log" | tail -n 1) || true
	printf '%s\n' "$line" >"$out/$1-$3-$4.json"
	case $line in *'"correct":true'*'"failed":0,'*) ;; *) echo "  $1 $3 pair $4: run incorrect or with failed operations: ${line:0:120}" >&2 ;; esac
	local i v
	for i in "${!metrics[@]}"; do
		v=$(printf '%s' "$line" | grep -o "\"${metrics[$i]}\":{\"value\":[^,}]*" | sed 's/.*://') || v=nan
		printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$3" "${metrics[$i]}" "${better[$i]}" "${bound[$i]}" "$4" "$1" "$v" >>"$runs"
	done
}

for w in "${workloads[@]}"; do
	for ((p = 1; p <= pairs; p++)); do
		seed=$((seed0 + p - 1))
		echo "$w pair $p/$pairs seed $seed" >&2
		if ((p % 2)); then
			one base "$basedir" "$w" "$p" "$seed"
			one tree "$PWD" "$w" "$p" "$seed"
		else
			one tree "$PWD" "$w" "$p" "$seed"
			one base "$basedir" "$w" "$p" "$seed"
		fi
	done
done

echo "base $sha vs working tree, $pairs alternating pairs, seeds $seed0..$((seed0 + pairs - 1))"
if ((pairs < 10)); then echo "fewer than 10 pairs: the verdicts are indicative only"; fi
awk -F'\t' '
# quartiles as bench/stats.go and Python statistics.quantiles(n=4) cut them
function cut(x, n, i,    m, j, d) {
	if (n == 1) return x[1]
	m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
	d = i * m - j * 4
	return (x[j] * (4 - d) + x[j + 1] * d) / 4
}
function quart(side, key, q,    n, i, j, t, x) {
	n = 0
	for (i = 1; i <= np[key]; i++) if ((side, key, i) in val) x[++n] = val[side, key, i]
	for (i = 2; i <= n; i++) { t = x[i]; for (j = i - 1; j >= 1 && x[j] > t; j--) x[j + 1] = x[j]; x[j + 1] = t }
	q[1] = cut(x, n, 1); q[2] = cut(x, n, 2); q[3] = cut(x, n, 3)
	return n
}
{
	key = $1 SUBSEP $2
	if (!(key in np)) { order[++nk] = key; dir[key] = $3; bnd[key] = $4 }
	if ($5 > np[key]) np[key] = $5
	val[$6, key, $5] = $7
}
END {
	printf "%-15s %-12s %32s %32s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "tree median [q1, q3]", "wins", "verdict"
	for (k = 1; k <= nk; k++) {
		key = order[k]; split(key, part, SUBSEP)
		quart("base", key, b); quart("tree", key, t)
		wins = 0
		for (i = 1; i <= np[key]; i++) {
			pb = val["base", key, i]; pt = val["tree", key, i]
			if (pb != pt && (dir[key] == "higher") == (pt > pb)) wins++
		}
		sign = (dir[key] == "higher") ? 1 : -1
		delta = sign * (t[2] - b[2])
		verdict = "same"
		spread = 0
		if (b[2] != 0 && (b[3] - b[1]) / b[2] > spread) spread = (b[3] - b[1]) / b[2]
		if (t[2] != 0 && (t[3] - t[1]) / t[2] > spread) spread = (t[3] - t[1]) / t[2]
		if (wins >= 0.9 * np[key] && delta > b[3] - b[1]) verdict = "gain"
		else if (b[2] != 0 && -delta / b[2] > bnd[key]) verdict = "WORSE"
		else if (spread > bnd[key]) verdict = "unresolved"
		if (b[2] != 0) verdict = sprintf("%s (%+.1f%%)", verdict, 100 * (t[2] - b[2]) / b[2])
		printf "%-15s %-12s %10.4g [%8.4g, %8.4g] %10.4g [%8.4g, %8.4g] %3d/%-2d  %s\n", part[1], part[2], b[2], b[1], b[3], t[2], t[1], t[3], wins, np[key], verdict
	}
}' "$runs"
