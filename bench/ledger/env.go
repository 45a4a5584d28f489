package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// DenseCount is how many scenarios one conformance-dense child replays.
const DenseCount = 8

// clis are the shipped commands the workloads run.
var clis = []string{"pfifuzz", "pficampaign", "pfitest", "pfiproxy"}

// Env is one benchmark invocation: where the checkout is, where outputs
// go, and what set-up left behind for the workloads.
type Env struct {
	Root  string  // checkout root: the directory of module pfi
	Out   string  // bench/out, the only directory the benchmark writes
	Seed  int64   // generates the scenarios and the proxy payload
	Trace *Tracer // nil on the untraced pass
	Pins  Pins
	// Pinning skips the comparisons with Pins, for the run that writes them.
	Pinning bool

	work    string            // set-up output: bin/, scenarios/
	goldens map[string]string // golden file name -> sha256, from the last set-up
}

// Pins are the outputs the seed commit produced, which every later run
// must reproduce. Fuzz and campaign inputs do not depend on the seed; the
// generated goldens do, so theirs are pinned for seed 1 and checked for
// self-consistency (blessed in set-up, replayed green) on any other seed.
type Pins struct {
	FuzzFingerprint string            `json:"fuzz_fingerprint"`
	FuzzEvaluations int               `json:"fuzz_evaluations"`
	CampaignCells   int               `json:"campaign_cells"`
	CampaignDigest  string            `json:"campaign_verdicts_sha256"`
	GoldensSeed1    map[string]string `json:"goldens_seed1_sha256"`
}

// FindRoot locates the checkout root from the working directory, which is
// the root itself or the bench directory (go run -C bench).
func FindRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if isFile(filepath.Join(dir, "bench", "go.mod")) && isFile(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no checkout root at or above %s (want go.mod and bench/go.mod)", wd)
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// LoadPins reads bench/expected/pins.json.
func (e *Env) LoadPins() error {
	data, err := os.ReadFile(e.pinsPath())
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &e.Pins); err != nil {
		return fmt.Errorf("%s: %w", e.pinsPath(), err)
	}
	return nil
}

// NewEnv prepares an invocation rooted at root.
func NewEnv(root string, seed int64) (*Env, error) {
	e := &Env{Root: root, Out: filepath.Join(root, "bench", "out"), Seed: seed}
	e.work = filepath.Join(e.Out, "work")
	return e, os.MkdirAll(e.Out, 0o755)
}

func (e *Env) pinsPath() string { return filepath.Join(e.Root, "bench", "expected", "pins.json") }

func (e *Env) bin(name string) string  { return filepath.Join(e.work, "bin", name) }
func (e *Env) scenarioDir() string     { return filepath.Join(e.work, "scenarios") }
func (e *Env) goldenDir() string       { return filepath.Join(e.scenarioDir(), "golden") }
func (e *Env) scratch(n string) string { return filepath.Join(e.work, n) }

// Setup builds the CLIs from source, generates and blesses the dense
// scenarios, and replays the shipped conformance suite under all four
// vendor profiles. It starts from an empty work directory each time, so
// calling it again measures set-up again. It fails on any output mismatch.
func (e *Env) Setup() (time.Duration, error) {
	span, end := e.Trace.Start("setup", "setup", 0)
	defer end()
	start := time.Now()
	if err := os.RemoveAll(e.work); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(e.scenarioDir(), 0o755); err != nil {
		return 0, err
	}
	args := []string{"build", "-o", filepath.Join(e.work, "bin") + string(filepath.Separator)}
	for _, c := range clis {
		args = append(args, "./cmd/"+c)
	}
	build := exec.Command("go", args...)
	build.Dir = e.Root
	_, endBuild := e.Trace.Start("go build", "setup", span)
	out, err := build.CombinedOutput()
	endBuild()
	if err != nil {
		return 0, fmt.Errorf("go build: %w\n%s", err, out)
	}

	for _, sc := range DenseScenarios(e.Seed, DenseCount) {
		path := filepath.Join(e.scenarioDir(), sc.Name+".pfi")
		if err := os.WriteFile(path, []byte(sc.Source), 0o644); err != nil {
			return 0, err
		}
	}
	bless := e.runChild("pfitest -update", "setup", span, e.bin("pfitest"), "-dir", e.scenarioDir(), "-update", "-workers", "1")
	if bless.err != nil {
		return 0, fmt.Errorf("blessing generated scenarios: %w\n%s", bless.err, bless.out)
	}
	for _, prof := range vendors {
		r := e.runChild("pfitest shipped "+prof, "setup", span, e.bin("pfitest"),
			"-dir", filepath.Join(e.Root, "internal", "conformance", "testdata"), "-workers", "1", "-profile", prof)
		if r.err != nil {
			return 0, fmt.Errorf("shipped conformance suite under %s: %w\n%s", prof, r.err, r.out)
		}
	}

	sums, err := hashDir(e.goldenDir())
	if err != nil {
		return 0, err
	}
	if e.goldens != nil && !equalSums(e.goldens, sums) {
		return 0, errors.New("generated goldens differ between two set-ups of the same seed")
	}
	if e.Seed == 1 && !e.Pinning && !equalSums(e.Pins.GoldensSeed1, sums) {
		return 0, errors.New("generated goldens for seed 1 differ from bench/expected/pins.json")
	}
	e.goldens = sums
	return time.Since(start), nil
}

// hashDir returns the sha256 of every file in dir by name.
func hashDir(dir string) (map[string]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sums := map[string]string{}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		sums[ent.Name()] = hex.EncodeToString(sum[:])
	}
	return sums, nil
}

func equalSums(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// child is what one finished child process reported.
type child struct {
	out   []byte // standard output
	wall  time.Duration
	cpu   time.Duration // user + system
	rssKB int64         // peak resident set of the child's own address space
	err   error         // start failure or non-zero exit, with standard error attached
}

// runChild runs one child to completion inside a span.
func (e *Env) runChild(name, unit string, parent int, bin string, args ...string) child {
	cmd := exec.Command(bin, args...)
	cmd.Dir = e.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	_, end := e.Trace.Start(name, unit, parent)
	defer end()
	start := time.Now()
	err := cmd.Start()
	var c child
	if err == nil {
		peak := watchPeakRSS(cmd.Process.Pid)
		err = cmd.Wait()
		c = child{out: stdout.Bytes(), wall: time.Since(start), rssKB: peak()}
		c.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	}
	if err != nil {
		c.err = fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLines(stderr.String(), 5))
	}
	return c
}

// watchPeakRSS polls the VmHWM of pid every 20 ms until the returned
// function is called, which reads it once more (that read fails if the
// process is gone) and returns the highest value seen, in KB. The rusage
// Maxrss a parent gets from wait4 cannot be used: the kernel folds the
// parent's own resident set at fork time into it, so for a child smaller
// than this harness it reports the harness.
func watchPeakRSS(pid int) (stop func() int64) {
	status := fmt.Sprintf("/proc/%d/status", pid)
	var peak int64
	read := func() {
		data, err := os.ReadFile(status)
		if err != nil {
			return
		}
		_, rest, ok := strings.Cut(string(data), "VmHWM:")
		if !ok {
			return
		}
		if f := strings.Fields(rest); len(f) > 0 {
			if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil && kb > peak {
				peak = kb
			}
		}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() int64 {
		close(done)
		<-exited
		read()
		return peak
	}
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// WritePins records this build's outputs as the expected ones. It runs
// after a set-up with seed 1.
func (e *Env) WritePins() error {
	if e.Seed != 1 {
		return errors.New("pins are taken with -seed 1")
	}
	fz, err := e.fuzzRound(roundOpts{})
	if err != nil {
		return err
	}
	cp, err := e.campaignRound(roundOpts{})
	if err != nil {
		return err
	}
	sums, err := hashDir(e.goldenDir())
	if err != nil {
		return err
	}
	p := Pins{
		FuzzFingerprint: fz.fingerprint, FuzzEvaluations: fz.Units,
		CampaignCells: cp.Units, CampaignDigest: cp.digest,
		GoldensSeed1: sums,
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.pinsPath(), append(data, '\n'), 0o644)
}
