#!/usr/bin/env bash
# unlinked.sh — report the functions under internal/ that no shipped binary
# links.
#
# Builds every cmd/*, every examples/* and bench/pfibench with inlining off
# (-gcflags=all=-l, so a called function keeps its own symbol) into a
# temporary directory, collects the text symbols `go tool nm` finds in them,
# and prints each func declared in a non-test .go file under internal/ whose
# symbol none of the binaries holds: its line count, file:line and symbol,
# then the total. What only tests reach shows up here. Functions named init
# and files built only under the race detector are skipped.
#
# With -check it prints nothing but failures and gates on
# scripts/unlinked.allow, one symbol per line, each followed by a `# reason`.
# It fails on an unlinked function the file does not list, on a listed
# symbol that is now linked or deleted, and on an entry with no reason. So
# the list can only shrink: a line goes when its function is linked or
# deleted.
#
# usage: bash scripts/unlinked.sh [-check]   (or: make unlinked)
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

for d in cmd/* examples/*; do
	"$go" build -gcflags=all=-l -o "$tmp/bin/${d//\//_}" "./$d"
done
"$go" build -C bench -gcflags=all=-l -o "$tmp/bin/pfibench" ./pfibench

# Symbols with every [...] type-argument list stripped, so a generic
# instantiation matches its declaration.
for b in "$tmp"/bin/*; do
	"$go" tool nm "$b"
done | awk '
	$(NF-1) == "T" || $(NF-1) == "t" {
		s = $NF; out = ""; depth = 0
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c == "[") depth++
			else if (c == "]") depth--
			else if (depth == 0) out = out c
		}
		print out
	}' | sort -u >"$tmp/linked"

find internal -name '*.go' -not -name '*_test.go' | sort | while read -r f; do
	grep -q '^//go:build race$' "$f" && continue
	echo "$f"
done | xargs awk -v linked="$tmp/linked" '
	BEGIN { while ((getline s < linked) > 0) have[s] = 1 }
	function report() {
		if (name != "" && !(name in have)) {
			printf "%5d  %s:%d  %s\n", FNR - start + 1, file, start, name
			funcs++; total += FNR - start + 1
		}
		name = ""
	}
	FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); pkg = "pfi/" pkg }
	/^func / {
		decl = $0; sub(/^func /, "", decl); recv = ""
		if (decl ~ /^\(/) {              # method: (r *T[P]) Name(
			recv = decl; sub(/\).*/, "", recv); sub(/^\(/, "", recv)
			n = split(recv, w, " "); recv = w[n]; sub(/\[.*/, "", recv)
			sub(/^\([^)]*\) */, "", decl)
			recv = (recv ~ /^\*/) ? "(" recv ")." : recv "."
		}
		fn = decl; sub(/[\[(].*/, "", fn)
		if (fn == "init" && recv == "") next
		name = pkg "." recv fn; file = FILENAME; start = FNR
		if ($0 ~ /}$/) report()      # one-line func
		next
	}
	/^}/ { report() }
	END { printf "%5d lines in %d functions no binary links\n", total, funcs }' >"$tmp/report"

if [ -z "$check" ]; then
	cat "$tmp/report"
	exit 0
fi
allow=scripts/unlinked.allow
awk -v allow="$allow" '
	BEGIN {
		while ((getline line < allow) > 0) {
			n++
			if (line ~ /^[ \t]*(#|$)/) continue
			sym = line; sub(/[ \t#].*/, "", sym)
			if (line !~ /#[ \t]*[^ \t]/) {
				printf "%s:%d: %s gives no # reason\n", allow, n, sym; bad = 1
			}
			listed[sym] = n
		}
	}
	NF == 3 {
		if ($3 in listed) seen[$3] = 1
		else { printf "%s  %s: no binary links it, and %s does not list it\n", $2, $3, allow; bad = 1 }
	}
	END {
		for (s in listed) if (!(s in seen)) {
			printf "%s:%d: %s is linked or gone; delete its line\n", allow, listed[s], s; bad = 1
		}
		exit bad
	}' "$tmp/report"
