GO ?= go

.PHONY: check vet build test race bench-e2e bench-smoke pairs fuzz explore goldens loc census census-check inline-check

# check is the full PR gate: vet, build, every test once plain and once
# under the race detector (each examples/* program runs as a test), a short fuzz smoke over the script language, the
# journal parser, the conformance harness's sent-stream log, dist.Source's
# generator, the scheduler's lanes and raft's in-place decode, a
# one-iteration pass over every benchmark so they always compile, the
# never-run-code ratchet (census-check below) and the inlining gate on the
# header reader (inline-check below).
# Allocation budgets (alloc_budget_test.go: the filter
# path, a world fork, and the per-hop message path) are enforced in the
# plain `test` pass — the detector instruments allocations — so hot-path
# alloc creep fails the gate. There are no per-subsystem targets: a
# focused run is `go test -race ./internal/<pkg>/`.
check: vet build test race fuzz bench-smoke census-check inline-check

# vet also covers the end-to-end ledger (bench/, its own module, compiled
# against internal/*): an internal API change that would stop a ledger
# probe compiling fails here, in `make check`, not first in bench-e2e.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs every package under the detector — the fleet, journal/resume,
# snapshot, raft and run-isolation batteries and the process-level
# kill/resume and pfiproxy tests are all ordinary tests in ./... — and then
# the live proxy's tests five times over: its readers, timer goroutine, Do
# and Drain meet on one mutex, and an ordering bug there shows up in some
# schedules only. The detector's build tag also turns message reuse into
# poisoning (internal/message/pool_race.go): a message the simulated wire
# releases is overwritten with 0xDB and loses its addressing rather
# than going back to its world's message pool (message.Pool, which the
# stacks build their frames from), so a layer that retains a message or a
# slice of its bytes without Keep() fails a decode, a golden or a
# fingerprint in this target.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 ./internal/interpose/

# bench-smoke runs every package-local benchmark for one iteration so they
# always compile and execute; it makes no timing claims. Numbers are taken
# one way only: bench-e2e below, and `bash bench/run.sh` for a full run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run @ ./...

# bench-e2e gates every PR on the end-to-end ledger (bench/, its own
# module): the ledger's unit tests, then a ~25 s smoke run of the four CLI
# workloads with every output check on — the pinned fuzz fingerprint, the
# campaign-verdict hash and the golden hashes in bench/expected/pins.json —
# so an API deletion that breaks a ledger probe, or a change that moves a
# pinned output, fails here rather than at benchmark time. No timing claims.
bench-e2e:
	$(GO) test -C bench ./...
	bash bench/run.sh -quick

# pairs is how a PR measures itself against its parent: N alternating
# parent/change pairs of workload W on seeds SEED, SEED+1, …, each side
# through its own `bench/run.sh --workload W --seed S --seconds 12 --trace 0`,
# then per end-to-end metric each side's median and quartiles, the pairs the
# change won, and the verdict (a gain needs >= 9/10 wins and a median gap
# beyond the parent's inter-quartile spread). PARENT is a commit — checked
# out into a temporary git worktree — or a directory that holds one. Writes
# only under bench/out/.
W ?= conformance-dense
N ?= 10
SEED ?= 601
PARENT ?= HEAD~1
pairs:
	bash scripts/pairs.sh $(W) $(N) $(SEED) $(PARENT)

# fuzz gives each native fuzz target a 10-second smoke. Corpus findings are
# written to testdata/fuzz as usual; run longer locally when touching the
# script parser or compiler. FuzzCompiledParity is the differential oracle
# for the register VM: tree-walker and compiled program must agree
# byte-for-byte on result, error text, and output, refusals included — its
# seeds start from a `proc` of each special form, which both must refuse
# with the same error. FuzzJournalParse
# hammers the write-ahead log's frame parser with hostile bytes — the
# recovery scan must never panic, loop, or accept a corrupt frame.
# FuzzDeliveredStream drives the conformance harness's run-length log of
# what it sent — sends, repeats, deliveries, captures, rewinds — against the
# keep-every-byte definition of sent_len / recv_len / recv_matches.
# FuzzSourceMatchesMathRand holds dist.Source to an eagerly seeded
# math/rand: its own generator, read through math/rand's draws, must give
# every draw of every distribution (Bernoulli's clamped probabilities
# included, which take no step), every Mark, and every Rewind on both sides
# of step 273 (where the source first builds its register).
# FuzzLanesMatchReference runs an op string of heap arms, lane arms,
# cancels, steps, AdvanceTo, snapshots and restores through the scheduler
# and through a cancel-then-push reference that has no lanes: both must fire
# the same events in the same order and agree on every key.
# FuzzRaftDecodeInPlace decodes arbitrary bytes into a raft Msg that held an
# earlier frame, its Entries storage reused, and into a zero one: fields,
# entries and error text must agree.
fuzz:
	$(GO) test -run @ -fuzz 'FuzzParse$$' -fuzztime 10s ./internal/script/
	$(GO) test -run @ -fuzz 'FuzzEval$$' -fuzztime 10s ./internal/script/
	$(GO) test -run @ -fuzz 'FuzzEvalExpr$$' -fuzztime 10s ./internal/script/
	$(GO) test -run @ -fuzz 'FuzzCompiledParity$$' -fuzztime 10s ./internal/script/
	$(GO) test -run @ -fuzz 'FuzzJournalParse$$' -fuzztime 10s ./internal/journal/
	$(GO) test -run @ -fuzz 'FuzzDeliveredStream$$' -fuzztime 10s ./internal/conformance/
	$(GO) test -run @ -fuzz 'FuzzSourceMatchesMathRand$$' -fuzztime 10s ./internal/dist/
	$(GO) test -run @ -fuzz 'FuzzLanesMatchReference$$' -fuzztime 10s ./internal/simtime/
	$(GO) test -run @ -fuzz 'FuzzRaftDecodeInPlace$$' -fuzztime 10s ./internal/raft/

# explore runs pinned-seed coverage-guided fuzzes over the fault-schedule
# space (~10s) and fails unless each prints its pinned fingerprint: the
# explorer converges deterministically, at any worker count, over TCP/GMP
# worlds and over raft ones. The first run must also rediscover and shrink
# its known finding (silent corruption — the simulated TCP has no
# checksum). The fingerprints move with any change to what a candidate
# world does — the scheduler's firing order, a protocol timer, a seeded
# draw — so a change that moves one on purpose re-pins it here and in
# bench/expected/pins.json. Repros land in a throwaway dir; promote one by
# copying it plus its golden into internal/conformance/testdata/found/.
explore:
	@set -e; dir=$$(mktemp -d /tmp/pfifuzz.XXXXXX); trap 'rm -f "$$dir/pfifuzz"' EXIT; \
	$(GO) build -o "$$dir/pfifuzz" ./cmd/pfifuzz; \
	pinned() { want=$$1; shift; echo "pfifuzz $$*"; \
		out=$$("$$dir/pfifuzz" -q -out "$$(mktemp -d "$$dir/out.XXXXXX")" "$$@"); \
		printf '%s\n' "$$out"; \
		case "$$out" in *"fingerprint $$want"*) ;; *) echo "explore: want fingerprint $$want" >&2; exit 1 ;; esac; }; \
	pinned fd13c93fad77b474 -seed 1 -budget 1000 -workers 4; \
	case "$$out" in *"silent-corruption "*) ;; *) echo "explore: the silent-corruption finding was not rediscovered" >&2; exit 1 ;; esac; \
	pinned 2ef42e04905f8ac5 -seed 1 -budget 400 -workers 1; \
	pinned 2ef42e04905f8ac5 -seed 1 -budget 400 -workers 2; \
	pinned 71342a95018e1ba4 -seed 3 -budget 200 -workers 1 -raft 7

# loc prints the size every ROADMAP anchor quotes: Go lines outside bench/,
# non-test and test, in total and per top-level package.
loc:
	@count() { find "$$@" -name '*.go' -not -path './bench/*' | xargs cat | wc -l; }; \
	printf '%7d non-test\n%7d test\n' "$$(count . -not -name '*_test.go')" "$$(count . -name '*_test.go')"; \
	for d in . cmd/* internal/* examples/*; do \
		printf '%7d %6d  %s\n' "$$(count $$d -maxdepth 1 -not -name '*_test.go')" "$$(count $$d -maxdepth 1 -name '*_test.go')" $$d; \
	done

# inline-check fails unless the compiler inlines message.Reader's take and
# its four fixed-size readers, and the message's world-number getters and
# setters: every protocol decoder reads its headers through the readers, a
# call per field is what the hop paid before take fit the inlining budget,
# and the network and the layers stamp and read the numbers on every hop.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/message 2>&1) || { printf '%s\n' "$$out" >&2; exit 1; }; \
	for fn in Reader.take Reader.U8 Reader.U16 Reader.U32 Reader.U64 \
		Message.SrcNo Message.SetSrcNo Message.DstNo Message.SetDstNo; do \
		printf '%s\n' "$$out" | grep -q "can inline (\*$${fn%%.*})\.$${fn#*.}$$" || \
			{ echo "inline-check: (*$$fn) is not inlined" >&2; exit 1; }; \
	done; echo "inline-check: (*Reader).take, U8, U16, U32 and U64 inline, and (*Message).SrcNo, SetSrcNo, DstNo and SetDstNo"

# census (~10 s) lists each func under internal/ that nothing a user runs
# ever runs. It builds every cmd/* and examples/* with coverage counters and
# runs what a user runs: the pfitest suite under the four profiles (every
# paper experiment is one of its scenarios), -dump-prog and a tripped
# -budget-timers with -quarantine, tcpexp and gmpexp, the fuzz-mixed and
# campaign-raft ledger children, make explore's raft fuzz, a quarantining
# fuzz under a timer budget, the default GMP sweep, both tools on a spawned
# fleet, a -serve/-connect pair (with /status and /metrics read), a
# journaled run of each resumed from a torn journal, pfish -c, -world (a
# TCP and a raft world) and -resume, a pfiproxy ping-pong stopped by
# SIGINT, and every examples/* program; then it prints each func `go tool
# covdata func` reports at 0.0%, with a total (the statement share can
# move by 0.1 point between runs: the interrupt handler's goroutine may or
# may not reach its last statement before pfiproxy exits). A func no binary links never runs, so this
# also covers what nothing links. census-check gates (in check and CI): it
# fails on a never-run func that scripts/census.allow does not list with a
# reason from its fixed classes, on a listed one that now runs or is
# deleted, and on an internal package with no coverage data, so the list
# only shrinks.
census:
	@GO=$(GO) bash scripts/census.sh

census-check:
	@GO=$(GO) bash scripts/census.sh -check

# goldens re-blesses every pinned artifact: conformance traces under each
# vendor profile, the rendered experiment tables
# (internal/conformance/testdata/tables, checked by internal/exp's golden
# tests), the full default output of tcpexp and gmpexp, every fault kind's
# snippet, the -dump-prog listings of pfitest's suite and pficampaign's
# default GMP cases, and pficampaign's GMP and raft sweep verdicts (only those golden
# tests read -update here). Inspect the diff before committing.
goldens:
	for p in sunos aix next solaris; do $(GO) run ./cmd/pfitest -update -profile $$p || exit 1; done
	$(GO) test ./internal/exp/ -run Golden -update
	$(GO) test ./cmd/tcpexp/ ./cmd/gmpexp/ -run StdoutGolden -update
	$(GO) test ./internal/fault/ -run SnippetGolden -update
	$(GO) test ./cmd/pfitest/ ./cmd/pficampaign/ -run 'DumpProgGolden|GMPSweepGolden|RaftSweepGolden' -update
