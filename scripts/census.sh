#!/usr/bin/env bash
# census.sh — list the functions under internal/ that nothing a user runs
# ever runs, and gate on them.
#
# Builds every cmd/* and examples/* with coverage counters (-cover
# -coverpkg=pfi/...; on go1.24 a narrower -coverpkg=pfi/internal/... gave
# binaries that wrote no counters) into a temporary directory, runs each
# path a user runs under one GOCOVERDIR, and lists each func under internal/
# that none of them ran (`go tool covdata func` at 0.0%), then the count and
# the share of pfi's statements the runs ran. The paths, all deterministic:
#
#   - the pfitest suite under each of the four vendor profiles, which runs
#     every paper experiment (each is a scenario) in its default variant,
#     pfitest -dump-prog of one scenario, and one scenario run under a
#     timer budget it trips, with -quarantine;
#   - tcpexp and gmpexp, which run the same scenarios in every variant
#     their tables render;
#   - the fuzz-mixed ledger child (pfifuzz -seed 1 -budget 100), make
#     explore's raft fuzz (-seed 3 -budget 200 -raft 7), a 64-candidate
#     fuzz on a fleet of two spawned workers, and 16 candidates under a
#     timer budget some trip, with -quarantine;
#   - the campaign-raft ledger child (pficampaign -raft 25,100,250), the
#     default GMP sweep, the GMP sweep on a fleet of two spawned workers,
#     and on a -serve coordinator with one -connect worker (the address is
#     read from the coordinator's `fleet: serving workers on` line, and its
#     /status and /metrics pages are read before the worker connects);
#   - a -journal run of pficampaign (on a fleet of two spawned workers) and
#     of pfifuzz (nine generations, so its journal is compacted once), each
#     journal cut three bytes short (a torn last frame), then -resume;
#   - pfish -c, a piped pfish -world transcript over a TCP world and one
#     over a raft world (snapshot, restore, snapshots, verdicts, the raft_*
#     probes), and pfish -resume of a shipped scenario;
#   - a 100-trip pfiproxy ping-pong under a counting filter, stopped by
#     SIGINT (python3 plays client and upstream: bash cannot serve UDP);
#   - every examples/* program.
#
# The list is the same from run to run. The statement share can move by a
# tenth of a point: pfiproxy's interrupt goroutine may or may not reach its
# last statement before the process exits.
#
# A function no binary links never runs either, so this also answers what
# nothing links. And every package `go list pfi/internal/...` names must
# appear in the coverage data, so a package no binary links shows up too.
#
# With -check it prints its failures, or one summary line, and gates on
# scripts/census.allow: one key per line (the import path, `.`, and
# covdata's name, as in pfi/internal/tcp.*Conn.Send), each followed by
# `# class: reason`. It fails on a never-run function the file does not
# list, on a listed key that now runs or no longer exists, on an entry
# with no reason or with a class outside the set the file's header names,
# and on a package with no coverage data. So the list only shrinks: a line
# goes when its function runs or is deleted.
#
# usage: bash scripts/census.sh [-check]   (or: make census, make census-check)
set -euo pipefail
cd "$(dirname "$0")/.."
go=${GO:-go}
check=
case "${1:-}" in
-check) check=1 ;;
"") ;;
*) echo "usage: $0 [-check]" >&2; exit 2 ;;
esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/cov" "$tmp/out"

for d in cmd/* examples/*; do
	"$go" build -cover -coverpkg=pfi/... -o "$tmp/bin/${d#*/}" "./$d"
done

export GOCOVERDIR=$tmp/cov
# say logs a step; -check prints no steps.
say() { [ -n "$check" ] || echo "census: $*" >&2; }
# run executes one workload; a failing verdict still counts as coverage.
run() {
	say "$*"
	"$tmp/bin/$1" "${@:2}" >/dev/null 2>&1 || say "$1 exited $?"
}
for prof in sunos aix next solaris; do
	run pfitest -profile "$prof"
done
run pfitest -dump-prog -run tcp_retransmission
run pfitest -run tcp_retransmission -budget-timers 5 -quarantine "$tmp/out/quarantine"
run tcpexp
run gmpexp

run pfifuzz -seed 1 -budget 100 -workers 1 -q -out "$tmp/out/fuzz"
run pfifuzz -seed 3 -budget 200 -workers 1 -raft 7 -q -out "$tmp/out/raft"
run pfifuzz -seed 1 -budget 64 -spawn-workers 2 -q
run pfifuzz -seed 1 -budget 16 -batch 16 -budget-timers 20 -q -quarantine "$tmp/out/fuzz-quarantine"
run pficampaign -quiet -workers 1 -raft 25,100,250 -raft-churn none,partition -faults drop
run pficampaign -quiet
run pficampaign -quiet -spawn-workers 2

# A -serve coordinator and one -connect worker. The coordinator picks its
# own port and names it on stderr; the worker exits once the sweep drains.
say "pficampaign -quiet -serve 127.0.0.1:0, pficampaign -connect"
coproc SERVE { "$tmp/bin/pficampaign" -quiet -serve 127.0.0.1:0 2>&1 >/dev/null; }
exec {served}<&"${SERVE[0]}"
serve_pid=$SERVE_PID
url=
while read -r -u "$served" line; do
	case $line in *"serving workers on http://"*)
		url=${line#*serving workers on }; url=${url%% *}; break ;;
	esac
done
[ -n "$url" ] || { echo "census: the -serve coordinator named no address" >&2; exit 1; }
# Until a worker connects the coordinator only serves: read its /status
# and /metrics pages the way an operator would.
host=${url#http://}
for page in /status /metrics; do
	exec {http}<>"/dev/tcp/${host%:*}/${host##*:}"
	printf 'GET %s HTTP/1.0\r\nHost: %s\r\n\r\n' "$page" "$host" >&"$http"
	cat <&"$http" >/dev/null
	exec {http}<&-
done
"$tmp/bin/pficampaign" -connect "$url" >/dev/null 2>&1 || say "the -connect worker exited $?"
cat <&"$served" >/dev/null
wait "$serve_pid" || say "the -serve coordinator exited $?"
exec {served}<&-

# Journaled runs, then a resume of each journal with its last frame torn.
# The campaign journals through a fleet; the fuzz runs nine generations of
# eight, past the eighth, where the journal is compacted to a checkpoint.
tear() { head -c -3 "$1" >"$1.torn" && mv "$1.torn" "$1"; }
run pficampaign -quiet -spawn-workers 2 -journal "$tmp/out/campaign.wal"
tear "$tmp/out/campaign.wal"
run pficampaign -quiet -spawn-workers 2 -journal "$tmp/out/campaign.wal" -resume
run pfifuzz -seed 1 -batch 8 -budget 72 -q -journal "$tmp/out/fuzz.wal"
tear "$tmp/out/fuzz.wal"
run pfifuzz -seed 1 -batch 8 -budget 72 -q -journal "$tmp/out/fuzz.wal" -resume

# shell runs pfish with a transcript piped to its prompt.
shell() {
	say "pfish $* < transcript"
	"$tmp/bin/pfish" "$@" >/dev/null 2>&1 || say "pfish $* exited $?"
}
run pfish -c 'proc sq {x} {expr {$x * $x}}; set l {}; foreach i {1 2 3} {lappend l [sq $i]}; puts [join $l ,]'
shell -world <<-'EOF'
	world tcp
	tcp_dial
	snapshot dialed
	tcp_stream 4 1s
	run 10s
	expect vendor retransmit DATA count 0
	snapshots
	verdicts
	restore dialed
	tcp_state
	exit
EOF
shell -world <<-'EOF'
	world raft 3
	raft_start
	run 10s
	snapshot up
	raft_state r1
	raft_term r1
	raft_commit r1
	run 5s
	restore up
	snapshots
	exit
EOF
shell -resume internal/conformance/testdata/tcp_retransmission.pfi <<-'EOF'
	tcp_state
	restore start
	verdicts
EOF

say "pfiproxy: 100 round trips, then SIGINT"
printf '%s\n' 'if {![info exists n]} { set n 0 }' 'incr n' >"$tmp/out/count.tcl"
python3 - "$tmp/bin/pfiproxy" "$tmp/out/count.tcl" <<-'EOF' || say "the pfiproxy ping-pong exited $?"
	import signal, socket, subprocess, sys, threading
	proxy, script = sys.argv[1:]
	up = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
	up.bind(("127.0.0.1", 0))
	def echo():
	    while True:
	        data, peer = up.recvfrom(2048)
	        up.sendto(data, peer)
	threading.Thread(target=echo, daemon=True).start()
	px = subprocess.Popen([proxy, "-upstream", "127.0.0.1:%d" % up.getsockname()[1],
	                       "-send-script", script, "-recv-script", script],
	                      stdout=subprocess.PIPE, text=True)
	try:
	    addr = px.stdout.readline().split("listening on ")[1].split(",")[0]
	    host, port = addr.rsplit(":", 1)
	    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
	    client.settimeout(5)
	    for i in range(100):
	        client.sendto(b"%064d" % i, (host, int(port)))
	        client.recvfrom(2048)
	finally:
	    px.send_signal(signal.SIGINT)
	    try:
	        px.communicate(timeout=10)
	    except subprocess.TimeoutExpired:
	        px.kill()
	        px.communicate()
	sys.exit(px.returncode)
EOF

for d in examples/*; do
	run "${d#*/}"
done

# One line per func: its key (import path.name), file:line, and its share.
"$go" tool covdata func -i "$tmp/cov" | awk '
	$1 ~ /^pfi\// {
		path = $1; sub(/\/[^\/]*$/, "", path)
		printf "%s.%s %s %s\n", path, $2, $1, $NF
	}
	$1 == "total" { printf "total %s\n", $NF }' >"$tmp/funcs"
awk '$1 ~ /^pfi\/internal\// && $3 == "0.0%" { print $1, $2 }' "$tmp/funcs" | sort -u >"$tmp/never"
total=$(awk '$1 == "total" { print $2 }' "$tmp/funcs")

if [ -z "$check" ]; then
	awk '{ printf "%-60s %s\n", $1, $2 }' "$tmp/never"
	printf "%d functions under internal/ never ran; the runs ran %s of pfi's statements\n" \
		"$(wc -l <"$tmp/never")" "$total"
	exit 0
fi

# Every internal package must have coverage data: one no binary links has none.
"$go" tool covdata pkglist -i "$tmp/cov" | sort -u >"$tmp/covered"
"$go" list pfi/internal/... | sort -u | comm -23 - "$tmp/covered" | while read -r pkg; do
	echo "census: $pkg has no coverage data: no binary links it"
done >"$tmp/fail"

allow=scripts/census.allow
awk -v allow="$allow" '
	BEGIN {
		classes = "language oracle safety interface fixture reachable item"
		while ((getline line < allow) > 0) {
			n++
			if (line ~ /^[ \t]*(#|$)/) continue
			key = line; sub(/[ \t#].*/, "", key)
			reason = line; sub(/^[^#]*#[ \t]*/, "", reason)
			class = reason; sub(/[ :].*/, "", class)
			if (line !~ /#[ \t]*[^ \t]/) {
				printf "%s:%d: %s gives no # reason\n", allow, n, key; bad = 1
			} else if (index(" " classes " ", " " class " ") == 0) {
				printf "%s:%d: %s: reason class \"%s\" is not one of: %s\n", allow, n, key, class, classes; bad = 1
			}
			listed[key] = n
		}
	}
	{
		if ($1 in listed) seen[$1] = 1
		else { printf "%s  %s: never runs, and %s does not list it\n", $2, $1, allow; bad = 1 }
	}
	END {
		for (k in listed) if (!(k in seen)) {
			printf "%s:%d: %s runs or is gone; delete its line\n", allow, listed[k], k; bad = 1
		}
		exit bad
	}' "$tmp/never" >>"$tmp/fail" || true
if [ -s "$tmp/fail" ]; then
	sort "$tmp/fail" >&2
	exit 1
fi
echo "census-check: $(wc -l <"$tmp/never") never-run functions, each on $allow; the runs ran $total of pfi's statements"
