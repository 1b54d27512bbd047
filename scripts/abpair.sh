#!/usr/bin/env bash
# Same-machine control for the repository benchmark: runs
# `bash perfbench/run.sh` on a base revision and on the working tree in
# alternating pairs, swapping which side runs first in every pair, so
# machine drift hits both sides alike.
#
#   scripts/abpair.sh <rev> <workload> [pairs] [seconds]
#
# pairs defaults to 3, seconds to 30; every run uses seed 1 and no trace.
# <rev> is unpacked with `git archive` into a temporary directory under
# $TMPDIR, which leaves the repository's .git untouched, and removed at exit.
# Each run's JSON result line is printed as it finishes, labelled base or
# head. The summary then gives, per end-to-end metric of BENCHMARK.json,
# both medians, head/base, the base runs' interquartile range relative to
# their median, and the metric's bound. A metric whose base spread exceeds
# its bound cannot be judged and prints "unresolved"; otherwise the verdict
# is "ok" or "worse" (the head median is worse than base by more than the
# bound). Needs only git and jq.
set -euo pipefail
usage="usage: scripts/abpair.sh <rev> <workload> [pairs] [seconds]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-3}
seconds=${4:-30}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$rev^{commit}")" | tar -x -C "$work/tree"

run() { # run <side> <dir>: one benchmark run, JSON result line appended to $work/<side>.jsonl
	local line
	line=$(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 2>/dev/null | grep '^{')
	echo "$1 $line"
	echo "$line" >>"$work/$1.jsonl"
}

for ((p = 0; p < pairs; p++)); do
	if ((p % 2 == 0)); then
		run base "$work/tree"
		run head "$root"
	else
		run head "$root"
		run base "$work/tree"
	fi
done

echo "metric base_median head_median head/base base_iqr/median bound verdict"
jq -rn --slurpfile spec "$root/BENCHMARK.json" \
	--slurpfile base "$work/base.jsonl" --slurpfile head "$work/head.jsonl" '
	def q($p): sort as $s | ((($s | length) - 1) * $p) as $h | ($h | floor) as $lo | ($h | ceil) as $hi
		| $s[$lo] + ($h - $lo) * ($s[$hi] - $s[$lo]);
	def vals($runs; $m): [$runs[] | .metrics[$m].value];
	def r3: . * 1000 | round / 1000;
	$spec[0].end_to_end[] | .name as $m | .bound as $bound | .better as $better
	| vals($base; $m) as $b | vals($head; $m) as $h
	| ($b | q(0.5)) as $bm | ($h | q(0.5)) as $hm
	| (if $bm == 0 then null else $hm / $bm end) as $ratio
	| (if $bm == 0 then 0 else (($b | q(0.75)) - ($b | q(0.25))) / $bm end) as $iqr
	| (if $iqr > $bound then "unresolved"
	   elif $ratio == null then (if $hm == 0 then "ok" else "worse" end)
	   elif ($better == "lower" and $ratio > 1 + $bound) or ($better == "higher" and $ratio < 1 - $bound) then "worse"
	   else "ok" end) as $verdict
	| [$m, ($bm | r3), ($hm | r3), (if $ratio == null then "n/a" else ($ratio | r3) end), ($iqr | r3), $bound, $verdict]
	| map(tostring) | join(" ")'
