package main

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// envMain re-execs this test binary as the real pficampaign CLI: when set,
// the process parses its own command line and runs main() instead of the
// test suite. Spawned stdio workers inherit the variable, so the
// -spawn-workers fleet legs work unchanged inside a re-exec'd coordinator.
const envMain = "PFI_PFICAMPAIGN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(envMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func startSelf(t *testing.T, dir string, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), envMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, &out, &errb
}

func runSelf(t *testing.T, dir string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd, out, errb := startSelf(t, dir, args...)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pficampaign %v: %v\nstdout:\n%s\nstderr:\n%s", args, err, out, errb)
	}
	return out.String(), errb.String()
}

// killAfterJournal waits for the journal to hold a record containing
// marker — proof at least one cell was banked — then SIGKILLs the
// process: no drain, no signal handler, exactly the crash the journal
// exists to survive.
func killAfterJournal(t *testing.T, cmd *exec.Cmd, out, errb *bytes.Buffer, path string, marker []byte) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, _ := os.ReadFile(path); bytes.Contains(b, marker) {
			break
		}
		if cmd.Process.Signal(syscall.Signal(0)) != nil {
			t.Fatalf("process exited before journaling %q\nstdout:\n%s\nstderr:\n%s", marker, out, errb)
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never held %q\nstdout:\n%s\nstderr:\n%s", marker, out, errb)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
}

// comparableSummary keeps the deterministic sweep output — the per-verdict
// lines and the pass count — and drops everything wall-clock or topology
// dependent (the sweeping banner, the resumed line, throughput stats, and
// fleet accounting).
func comparableSummary(out string) string {
	var keep []string
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "sweeping ") || strings.HasPrefix(ln, "resumed ") ||
			strings.HasPrefix(ln, "swept ") || strings.HasPrefix(ln, "fleet:") {
			continue
		}
		keep = append(keep, ln)
	}
	return strings.Join(keep, "\n")
}

// TestSweepKillResumeByteIdentical SIGKILLs a journaled sweep mid-matrix
// and proves the -resume restart reproduces the uninterrupted sweep's
// verdict stream byte for byte — for the in-process pool and for a fleet
// coordinator restart at 2 and at 4 real spawned worker processes (the
// orphaned workers of the killed coordinator exit on stdin EOF; the
// restart spawns a fresh fleet and re-runs only the missing cells), and
// for a -serve coordinator restarted on the same port under one live
// -connect worker process, which redials, is re-adopted and exits 0.
func TestSweepKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("boots full GMP clusters in subprocesses")
	}

	refOut, _ := runSelf(t, t.TempDir(), "-workers", "2", "-quiet")
	want := comparableSummary(refOut)
	if !strings.Contains(want, "cases passed") {
		t.Fatalf("reference sweep produced no summary:\n%s", refOut)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String() // a free port for the -serve leg
	ln.Close()
	legs := []struct {
		name string
		args []string
	}{
		{"pool", []string{"-workers", "1"}},
		{"fleet-2-workers", []string{"-spawn-workers", "2"}},
		{"fleet-4-workers", []string{"-spawn-workers", "4"}},
		{"serve-connect-worker", []string{"-serve", addr}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(append([]string{}, leg.args...), "-quiet", "-journal", "j.wal")
			cmd, out, errb := startSelf(t, dir, args...)
			if leg.args[0] == "-serve" {
				worker, wout, werrb := startSelf(t, dir, "-connect", "http://"+addr)
				defer func() {
					if err := worker.Wait(); err != nil || !strings.Contains(werrb.String(), "re-adopted by restarted coordinator") {
						t.Errorf("worker did not ride out the restart: exit %v\nstdout:\n%s\nstderr:\n%s", err, wout, werrb)
					}
				}()
			}
			killAfterJournal(t, cmd, out, errb, filepath.Join(dir, "j.wal"), []byte(`"type":"verdict"`))

			gotOut, _ := runSelf(t, dir, append(args, "-resume")...)
			if !strings.Contains(gotOut, "resumed ") {
				t.Errorf("resume run never reported journaled cells:\n%s", gotOut)
			}
			if got := comparableSummary(gotOut); got != want {
				t.Errorf("resumed summary diverged\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestRaftSweepEvaluatorInvariant runs the raft matrix through the pool at
// 1 and 2 workers and through a spawned fleet: stdout, less the wall-clock
// and topology lines the end-to-end ledger also drops, is identical.
func TestRaftSweepEvaluatorInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("boots raft clusters in subprocesses")
	}
	var outs []string
	for _, mode := range [][]string{{"-workers", "1"}, {"-workers", "2"}, {"-spawn-workers", "2"}} {
		out, _ := runSelf(t, t.TempDir(), append(mode, "-quiet", "-raft", "3,5", "-raft-churn", "none,partition", "-faults", "drop")...)
		outs = append(outs, strings.TrimSpace(comparableSummary(out)))
	}
	if outs[1] != outs[0] || outs[2] != outs[0] || !strings.Contains(outs[0][strings.LastIndex(outs[0], "\n")+1:], "raft matrix clean") {
		t.Errorf("sweep output diverged or did not end clean\npool 1:\n%s\npool 2:\n%s\nfleet:\n%s", outs[0], outs[1], outs[2])
	}
}
