#!/usr/bin/env bash
# census.sh — report the functions under internal/ that the shipped
# workloads never run.
#
# Builds every cmd/* with coverage counters (-cover -coverpkg=pfi/...; on
# go1.24 a narrower -coverpkg=pfi/internal/... gave binaries that wrote no
# counters) into a temporary directory, runs the workloads the binaries ship
# for under one GOCOVERDIR, and prints each func under internal/ that none of
# them ran (`go tool covdata func` at 0.0%), then the count and the share of
# pfi's statements the workloads ran:
#
#   - the pfitest suite under each of the four vendor profiles;
#   - the fuzz-mixed ledger child (pfifuzz -seed 1 -budget 100) and make
#     explore's raft fuzz (-seed 3 -budget 200 -raft 7);
#   - the campaign-raft ledger child (pficampaign -raft 25,100,250) and the
#     default GMP sweep;
#   - every experiment of tcpexp and gmpexp.
#
# It is a report, not a gate: a function it lists is a deletion candidate
# only once nothing else a user runs (fleets, journaled resumes, pfish
# -world sessions, pfiproxy) reaches it either. make unlinked answers the
# narrower question of what no binary links at all.
#
# usage: bash scripts/census.sh   (or: make census; about ten seconds)
set -euo pipefail
cd "$(dirname "$0")/.."
go=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/cov" "$tmp/out"

for d in cmd/*; do
	"$go" build -cover -coverpkg=pfi/... -o "$tmp/bin/${d#cmd/}" "./$d"
done

export GOCOVERDIR=$tmp/cov
# run executes one workload; a failing verdict still counts as coverage.
run() {
	echo "census: $*" >&2
	"$tmp/bin/$1" "${@:2}" >/dev/null || echo "census: $1 exited $?" >&2
}
for prof in sunos aix next solaris; do
	run pfitest -profile "$prof"
done
run pfifuzz -seed 1 -budget 100 -workers 1 -q -out "$tmp/out/fuzz"
run pfifuzz -seed 3 -budget 200 -workers 1 -raft 7 -q -out "$tmp/out/raft"
run pficampaign -quiet -workers 1 -raft 25,100,250 -raft-churn none,partition -faults drop
run pficampaign -quiet
run tcpexp
run gmpexp

"$go" tool covdata func -i "$tmp/cov" | awk '
	$1 ~ /^pfi\/internal\// && $NF == "0.0%" { print; n++ }
	$1 == "total" { total = $NF }
	END { printf "%d functions under internal/ never ran; the workloads ran %s of pfi'"'"'s statements\n", n, total }'
