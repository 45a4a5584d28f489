#!/usr/bin/env bash
# Runs N alternating parent/change pairs of one benchmark workload and
# prints, per end-to-end metric, each side's median and quartiles, the pairs
# the change won, and the verdict of the choosing-metrics guide's section 8:
# a gain is claimed only when the change wins at least nine tenths of the
# pairs and the medians differ by more than the parent's inter-quartile
# spread. `make pairs W=conformance-dense N=10 SEED=601 [PARENT=HEAD~1]`.
#
# The change is this checkout; PARENT is a commit (checked out into a
# temporary git worktree, removed on exit) or a directory holding one. Each
# side runs its own bench/run.sh — its own ledger, its own build — on seeds
# SEED, SEED+1, …, and which side goes first alternates pair by pair.
# Nothing is written into the tree but bench/out/.
set -eu
workload=${1:?usage: pairs.sh workload [pairs] [seed] [parent]}
pairs=${2:-10}
seed=${3:-601}
parent=${4:-HEAD~1}

cd "$(dirname "$0")/.."
change=$PWD
if [ -d "$parent" ]; then
	parentdir=$(cd "$parent" && pwd)
else
	parentdir=$(mktemp -d "${TMPDIR:-/tmp}/pfi-pairs.XXXXXX")
	trap 'git worktree remove --force "$parentdir" 2>/dev/null; rm -rf "$parentdir"' EXIT
	git worktree add --quiet --detach "$parentdir" "$parent"
fi
mkdir -p bench/out
log="bench/out/pairs-$workload-$seed.jsonl"
: >"$log"

measure() { # side dir seed
	line=$(bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds 12 --trace 0 | tail -n 1)
	printf '{"side":"%s","seed":%s,"run":%s}\n' "$1" "$3" "$line" >>"$log"
	printf '  %-6s seed %s  %s\n' "$1" "$3" "$line"
}

echo "$workload: $pairs pairs from seed $seed, parent $parent, change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +uncommitted)"
for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	if ((i % 2 == 0)); then
		measure parent "$parentdir" "$s"
		measure change "$change" "$s"
	else
		measure change "$change" "$s"
		measure parent "$parentdir" "$s"
	fi
done

if grep -Ev '"correct":true,"attempted":[0-9]+,"failed":0,' "$log"; then
	echo "the run(s) above are not \"correct\":true,\"failed\":0 — no verdict"
	exit 1
fi

# Per end-to-end metric: which way is better, and the bound BENCHMARK.json
# fixes for a regression.
for m in units_per_s:higher cpu_s_per_kunit:lower peak_rss_mb:lower setup_s:lower; do
	name=${m%%:*}
	better=${m##*:}
	bound=$(awk -v n="\"$name\"" 'index($0, "\"name\": " n) { f = 1 } f && /"bound"/ { gsub(/[^0-9.]/, "", $2); print $2; exit }' BENCHMARK.json)
	side() { grep "\"side\":\"$1\"" "$log" | sed -E "s/.*\"$name\":\{\"value\":([-+0-9.eE]+).*/\1/"; }
	paste <(side parent) <(side change) | awk -v name="$name" -v better="$better" -v bound="$bound" '
		function quantile(v, n, q,   pos, lo) { # linear interpolation over sorted v[1..n]
			pos = 1 + (n - 1) * q; lo = int(pos)
			return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
		}
		function sorted(src, dst, n,   i, j, t) {
			for (i = 1; i <= n; i++) dst[i] = src[i]
			for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
		}
		{
			n++; p[n] = $1; c[n] = $2
			if ($1 != $2 && (($2 > $1) == (better == "higher"))) wins++
		}
		END {
			sorted(p, ps, n); sorted(c, cs, n)
			pm = quantile(ps, n, .5); cm = quantile(cs, n, .5)
			piqr = quantile(ps, n, .75) - quantile(ps, n, .25)
			gap = better == "higher" ? cm - pm : pm - cm # positive: the change is better
			pspread = (ps[n] - ps[1]) / pm; cspread = (cs[n] - cs[1]) / cm
			spread = pspread > cspread ? pspread : cspread
			disjoint = better == "higher" ? cs[1] > ps[n] : cs[n] < ps[1]
			printf "%-16s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  ratio %.3f  change ahead in %d of %d\n",
				name, pm, quantile(ps, n, .25), quantile(ps, n, .75), cm, quantile(cs, n, .25), quantile(cs, n, .75), cm / pm, wins, n
			if (wins * 10 >= n * 9 && gap > piqr)
				verdict = sprintf("gain: ahead in at least 9/10 and the median gap %.4g exceeds the parent IQR %.4g", gap, piqr)
			else if (disjoint)
				verdict = "better: every run of the change reads better than every run of the parent"
			else if (spread > bound)
				verdict = sprintf("unresolved: run-to-run spread %.0f%% is wider than the %.0f%% bound (median %+.1f%%)", 100 * spread, 100 * bound, 100 * gap / pm)
			else if (-gap / pm > bound)
				verdict = sprintf("REGRESSION: median %.1f%% worse, bound %.0f%%", -100 * gap / pm, 100 * bound)
			else
				verdict = sprintf("within bound: median %+.1f%% of %.0f%% (+ is better)", 100 * gap / pm, 100 * bound)
			printf "%-16s %s\n", "", verdict
		}'
done
echo "every run: $log"
