package lifecycle

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"pfi/internal/journal"
)

// The code under test ends in os.Exit, so most of these tests re-exec the
// test binary as a miniature job CLI: TestMain, seeing lifecycleChild in
// the environment, registers the shared flags on a fresh FlagSet, parses
// the child's arguments and walks Register -> Start -> job -> Finish the way
// pficampaign and pfifuzz do.
const lifecycleChild = "PFI_LIFECYCLE_CHILD"

var campaignTool = Tool{
	Name:  "pficampaign",
	Noun:  "sweep",
	Banks: "every completed cell is banked as it lands",
	Drain: "in-flight cells will finish",
}

var fuzzTool = Tool{
	Name:  "pfifuzz",
	Noun:  "run",
	Banks: "the exploration checkpoints at every generation boundary",
	Drain: "the run stops at the next generation boundary",
}

func TestMain(m *testing.M) {
	if job := os.Getenv(lifecycleChild); job != "" {
		childMain(job)
	}
	os.Exit(m.Run())
}

// childMain is the miniature CLI. job says what the "run" between Start and
// Finish does: "ok" banks a record, "fail" returns an error, "wait" banks a
// record, reports ready and runs until interrupted.
func childMain(job string) {
	flag.CommandLine = flag.NewFlagSet("lifetool", flag.ExitOnError)
	lc := Register(Tool{Name: "lifetool", Noun: "sweep", Banks: "test records", Drain: "the test job will stop"})
	flag.Parse()
	lc.Start()
	fmt.Printf("started journal=%v records=%d\n", lc.Journal != nil, recordCount(lc.Journal))
	var err error
	if lc.Journal != nil {
		err = lc.Journal.Append("test", map[string]int{"n": recordCount(lc.Journal)})
	}
	switch job {
	case "fail":
		err = errors.New("the job failed")
	case "wait":
		fmt.Println("ready")
		<-lc.Context().Done()
		err = lc.Context().Err()
	}
	drained := lc.Finish(err)
	fmt.Printf("finished drained=%v\n", drained)
	os.Exit(0)
}

func recordCount(l *journal.Log) int {
	if l == nil {
		return 0
	}
	return len(l.Records())
}

// child runs the miniature CLI to completion.
func child(t *testing.T, job string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), lifecycleChild+"="+job)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		exit = ee.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errb.String(), exit
}

// TestRegisterFlagSet: both job CLIs get the same shared flags — fleet,
// journal, isolation, profiling — and the journal flags are worded with the
// tool's own nouns.
func TestRegisterFlagSet(t *testing.T) {
	want := []string{
		"budget-inject", "budget-steps", "budget-timers", "budget-trace",
		"connect", "cpuprofile", "journal", "memprofile", "resume", "retry",
		"run-timeout", "serve", "shards", "spawn-workers", "stall-steps",
		"trace", "unit-timeout", "worker-stdio",
	}
	saved := flag.CommandLine
	defer func() { flag.CommandLine = saved }()
	for _, tool := range []Tool{campaignTool, fuzzTool} {
		flag.CommandLine = flag.NewFlagSet(tool.Name, flag.ContinueOnError)
		r := Register(tool)
		var got []string
		flag.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s flags:\n got %v\nwant %v", tool.Name, got, want)
		}
		if u := flag.Lookup("journal").Usage; !strings.Contains(u, "crash-safe "+tool.Noun+"s: "+tool.Banks) {
			t.Errorf("%s -journal usage: %q", tool.Name, u)
		}
		if u := flag.Lookup("resume").Usage; !strings.Contains(u, "continue the "+tool.Noun+" banked in -journal") {
			t.Errorf("%s -resume usage: %q", tool.Name, u)
		}
		if err := flag.CommandLine.Parse([]string{"-spawn-workers", "3", "-journal", "j.wal", "-budget-steps", "9", "-shards", "4", "-unit-timeout", "5s"}); err != nil {
			t.Fatal(err)
		}
		if r.Spawn != 3 || r.JournalPath != "j.wal" || r.Harden.Budget.ScriptSteps != 9 || !r.FleetActive() {
			t.Errorf("%s parsed: %+v", tool.Name, r)
		}
		if cfg := r.FleetConfig(); cfg.Shards != 4 || cfg.UnitTimeout != 5*time.Second {
			t.Errorf("%s fleet config: %+v", tool.Name, cfg)
		}
	}
}

// TestJournalRefusedWithoutResume: a fresh journal opens; one that holds
// records is refused without -resume (exit 1, nothing appended) and
// continued with it.
func TestJournalRefusedWithoutResume(t *testing.T) {
	j := filepath.Join(t.TempDir(), "j.wal")
	out, errs, exit := child(t, "ok", "-journal", j)
	if exit != 0 || !strings.Contains(out, "started journal=true records=0") || !strings.Contains(out, "finished drained=false") {
		t.Fatalf("fresh journal: exit %d\n%s%s", exit, out, errs)
	}
	out, errs, exit = child(t, "ok", "-journal", j)
	if exit != 1 || out != "" || !strings.Contains(errs, "lifetool: journal "+j+" already holds 1 record(s): pass -resume") {
		t.Fatalf("reuse without -resume: exit %d\nstdout %q\nstderr %q", exit, out, errs)
	}
	out, errs, exit = child(t, "ok", "-journal", j, "-resume")
	if exit != 0 || !strings.Contains(out, "started journal=true records=1") {
		t.Fatalf("-resume: exit %d\n%s%s", exit, out, errs)
	}
	if n := journalRecords(t, j); n != 2 {
		t.Fatalf("journal holds %d records after the original and the resumed run, want 2", n)
	}
}

func journalRecords(t *testing.T, path string) int {
	t.Helper()
	l, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return len(l.Records())
}

// TestStartOrder: worker dispatch comes before anything else (a worker
// invocation never starts a profile or opens a journal), the profile starts
// before the journal opens (a bad -cpuprofile leaves no journal behind), and
// the journal opens before the job runs.
func TestStartOrder(t *testing.T) {
	dir := t.TempDir()
	badProfile := filepath.Join(dir, "no-such-dir", "cpu.prof")

	j := filepath.Join(dir, "worker.wal")
	out, errs, _ := child(t, "ok", "-worker-stdio", "-cpuprofile", badProfile, "-journal", j)
	if !strings.Contains(out, `"type":"hello","worker":"lifetool"`) || strings.Contains(out, "started") {
		t.Errorf("a -worker-stdio invocation did not serve as a worker: %q", out)
	}
	if strings.Contains(errs, "cpuprofile") {
		t.Errorf("a -worker-stdio invocation reached the profile start: %q", errs)
	}
	if _, err := os.Stat(j); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a -worker-stdio invocation opened the journal (stat: %v)", err)
	}

	j = filepath.Join(dir, "profile.wal")
	out, errs, exit := child(t, "ok", "-cpuprofile", badProfile, "-journal", j)
	if exit != 1 || out != "" || !strings.Contains(errs, "lifetool: cpuprofile:") {
		t.Errorf("bad -cpuprofile: exit %d, stdout %q, stderr %q", exit, out, errs)
	}
	if _, err := os.Stat(j); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the journal was opened before the profile started (stat: %v)", err)
	}

	// A good profile is started, then flushed by Finish.
	prof := filepath.Join(dir, "cpu.prof")
	if _, errs, exit := child(t, "ok", "-cpuprofile", prof); exit != 0 {
		t.Fatalf("good -cpuprofile: exit %d: %s", exit, errs)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("Finish left no CPU profile: %v", err)
	}
}

// TestFinishReportsFailure: a job error that is not an operator's drain is
// printed under the tool's name and exits 1 — after the journal was synced.
func TestFinishReportsFailure(t *testing.T) {
	j := filepath.Join(t.TempDir(), "j.wal")
	out, errs, exit := child(t, "fail", "-journal", j)
	if exit != 1 || !strings.Contains(errs, "lifetool: the job failed") || strings.Contains(out, "finished") {
		t.Fatalf("exit %d\nstdout %q\nstderr %q", exit, out, errs)
	}
	if n := journalRecords(t, j); n != 1 {
		t.Fatalf("the failed run's journal holds %d records, want the 1 it banked", n)
	}
}

// TestInterruptDrainsAndHints: the first SIGINT cancels the job's context;
// Finish then syncs the journal, reports the run as drained (exit 0) and
// says how to resume it — or, without a journal, how to make it resumable.
func TestInterruptDrainsAndHints(t *testing.T) {
	for _, tc := range []struct {
		name    string
		journal bool
		hint    string
	}{
		{"journaled", true, "lifetool: sweep interrupted; resume with -journal %s -resume"},
		{"unjournaled", false, "lifetool: sweep interrupted (use -journal to make interrupted sweeps resumable)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := filepath.Join(t.TempDir(), "j.wal")
			var args []string
			if tc.journal {
				args = []string{"-journal", j}
				tc.hint = fmt.Sprintf(tc.hint, j)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), lifecycleChild+"=wait")
			var errb bytes.Buffer
			cmd.Stderr = &errb
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var out []string
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				out = append(out, sc.Text())
				if sc.Text() == "ready" { // Start has armed the handler
					if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("a drained run must exit 0: %v\n%s", err, errb.String())
			}
			if got := strings.Join(out, "|"); !strings.HasSuffix(got, "ready|finished drained=true") {
				t.Errorf("stdout: %q", got)
			}
			errs := errb.String()
			drain := strings.Index(errs, "lifetool: draining — the test job will stop; interrupt again to force quit")
			hint := strings.Index(errs, tc.hint)
			if drain < 0 || hint < drain {
				t.Errorf("stderr lacks the drain notice followed by the hint:\n%s", errs)
			}
			if tc.journal {
				if n := journalRecords(t, j); n != 1 {
					t.Errorf("the interrupted run's journal holds %d records, want the 1 banked before the interrupt", n)
				}
			}
		})
	}
}
