package ledger

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"time"
)

// Round sizes. Each child is sized to one or two seconds on a 2-core host,
// so a run of RunSeconds holds five rounds or more and its medians shrug
// off a round that a noisy neighbour slowed down.
const (
	FuzzBudget   = 100   // candidate evaluations per pfifuzz child (+ shrink runs)
	ProxyTrips   = 10000 // round trips per pfiproxy child
	ProxyPayload = 64    // bytes per datagram
	proxyWarmup  = 200   // round trips that prove the filter loss-free
)

// campaignArgs is one pficampaign child: all three cluster sizes, with and
// without a partition, drop faults on every raft message type and
// direction: 3 x 2 x 8 = 48 cells.
var campaignArgs = []string{"-quiet", "-workers", "1", "-raft", "25,100,250", "-raft-churn", "none,partition", "-faults", "drop"}

// Round is one child process worth of work.
type Round struct {
	Units  int // candidate evaluations, cells, scenarios, round trips
	Failed int // units whose output check failed
	Wall   time.Duration
	CPU    time.Duration
	RSSKB  int64
	LatUS  []float64 // proxy-pingpong: every round trip
	Stdout []byte

	fingerprint string // fuzz
	digest      string // campaign
}

// roundOpts vary a round for the traced pass and the probes.
type roundOpts struct {
	cpuProfile string   // -cpuprofile, where the child supports it
	parent     int      // parent span
	unit       string   // span unit id
	extra      []string // appended arguments (probes: -workers 2, ...)
	payload    int      // proxy: datagram size (0: ProxyPayload)
	trips      int      // proxy: round trips (0: ProxyTrips)
	window     int      // proxy: datagrams in flight (0: 1)
	direct     bool     // proxy: client straight to the echo socket
}

func (o roundOpts) args(base ...string) []string {
	if o.cpuProfile != "" {
		base = append(base, "-cpuprofile", o.cpuProfile)
	}
	return append(base, o.extra...)
}

// RunRound runs one round of the named workload and checks its output.
// An error means the round could not be judged at all.
func (e *Env) RunRound(workload string, o roundOpts) (Round, error) {
	switch workload {
	case FuzzMixed:
		return e.fuzzRound(o)
	case CampaignRaft:
		return e.campaignRound(o)
	case ConformanceDense:
		return e.conformanceRound(o)
	case ProxyPingpong:
		return e.proxyRound(o)
	}
	return Round{}, fmt.Errorf("unknown workload %q", workload)
}

func (c child) round(units int) Round {
	return Round{Units: units, Wall: c.wall, CPU: c.cpu, RSSKB: c.rssKB, Stdout: c.out}
}

var fuzzReport = regexp.MustCompile(`(?m)^seed \d+: (\d+) runs \(\+(\d+) shrink\).* fingerprint ([0-9a-f]+)$`)

func (e *Env) fuzzRound(o roundOpts) (Round, error) {
	c := e.runChild("pfifuzz", o.unit, o.parent, e.bin("pfifuzz"),
		o.args("-seed", "1", "-budget", strconv.Itoa(FuzzBudget), "-workers", "1", "-q")...)
	if c.err != nil {
		return Round{}, c.err
	}
	m := fuzzReport.FindSubmatch(c.out)
	if m == nil {
		return Round{}, fmt.Errorf("pfifuzz printed no report line:\n%s", c.out)
	}
	runs, _ := strconv.Atoi(string(m[1]))
	shrink, _ := strconv.Atoi(string(m[2]))
	r := c.round(runs + shrink)
	r.fingerprint = string(m[3])
	if !e.Pinning && (r.fingerprint != e.Pins.FuzzFingerprint || r.Units != e.Pins.FuzzEvaluations) {
		r.Failed = r.Units
	}
	return r, nil
}

var casesPassed = regexp.MustCompile(`(?m)^(\d+)/(\d+) cases passed$`)

func (e *Env) campaignRound(o roundOpts) (Round, error) {
	c := e.runChild("pficampaign", o.unit, o.parent, e.bin("pficampaign"), o.args(campaignArgs...)...)
	passed, total := 0, 0
	for _, m := range casesPassed.FindAllSubmatch(c.out, -1) {
		p, _ := strconv.Atoi(string(m[1]))
		t, _ := strconv.Atoi(string(m[2]))
		passed, total = passed+p, total+t
	}
	if total == 0 {
		if c.err != nil {
			return Round{}, c.err
		}
		return Round{}, fmt.Errorf("pficampaign printed no summary:\n%s", c.out)
	}
	// The verdict lines are simulated outcomes and repeat exactly; the
	// "swept N cases in 1.2s" lines carry wall time, and the fleet line
	// only appears with spawned workers.
	h := sha256.New()
	for _, line := range bytes.SplitAfter(c.out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("swept ")) && !bytes.HasPrefix(line, []byte("fleet: ")) {
			h.Write(line)
		}
	}
	r := c.round(total)
	r.Failed = total - passed
	r.digest = hex.EncodeToString(h.Sum(nil))
	clean := c.err == nil && bytes.Contains(c.out, []byte("raft matrix clean"))
	if !clean || (!e.Pinning && len(o.extra) == 0 && (total != e.Pins.CampaignCells || r.digest != e.Pins.CampaignDigest)) {
		r.Failed = total
	}
	return r, nil
}

var scenarioLine = regexp.MustCompile(`(?m)^(\S+)\s+dense_\d+\s`)

func (e *Env) conformanceRound(o roundOpts) (Round, error) {
	c := e.runChild("pfitest", o.unit, o.parent, e.bin("pfitest"),
		o.args("-dir", e.scenarioDir(), "-workers", "1")...)
	lines := scenarioLine.FindAllSubmatch(c.out, -1)
	if len(lines) == 0 {
		if c.err != nil {
			return Round{}, c.err
		}
		return Round{}, fmt.Errorf("pfitest printed no scenario lines:\n%s", c.out)
	}
	r := c.round(DenseCount)
	ok := 0
	for _, m := range lines {
		if string(m[1]) == "ok" {
			ok++
		}
	}
	r.Failed = DenseCount - ok
	if c.err != nil && r.Failed == 0 {
		r.Failed = DenseCount
	}
	return r, nil
}

var (
	proxyListening = regexp.MustCompile(`listening on (\S+), upstream`)
	proxyStats     = regexp.MustCompile(`toward (?:upstream|clients):\s+\{Seen:(\d+) Dropped:(\d+)`)
)

// proxyRound ping-pongs datagrams from this process through a pfiproxy
// child to an echo socket in this process. Wall time is the ping-pong
// phase; CPU and memory are the child's, start to exit.
func (e *Env) proxyRound(o roundOpts) (Round, error) {
	size, trips, window := o.payload, o.trips, o.window
	if size == 0 {
		size = ProxyPayload
	}
	if trips == 0 {
		trips = ProxyTrips
	}
	if window == 0 {
		window = 1
	}

	echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return Round{}, err
	}
	var echoDone sync.WaitGroup
	echoDone.Add(1)
	go func() {
		defer echoDone.Done()
		buf := make([]byte, 64*1024)
		for {
			n, from, err := echo.ReadFromUDP(buf)
			if err != nil {
				return // closed below
			}
			_, _ = echo.WriteToUDP(buf[:n], from) // a lost echo shows as a lost round trip
		}
	}()
	defer func() {
		echo.Close()
		echoDone.Wait()
	}()

	target := echo.LocalAddr().String()
	var px *proxyChild
	if !o.direct {
		if px, err = e.startProxy(o, target); err != nil {
			return Round{}, err
		}
		target = px.addr
	}
	r, perr := pingpong(target, Payload(e.Seed, size), trips, window)
	if px != nil {
		c, serr := px.stop()
		r.CPU, r.RSSKB, r.Stdout = c.cpu, c.rssKB, c.out
		if serr != nil && perr == nil {
			perr = serr
		}
		if perr == nil && window == 1 {
			// Both filters must have seen every datagram and dropped none.
			// (With a window the kernel may shed datagrams before the proxy
			// reads them; that probe counts its own losses.)
			stats := proxyStats.FindAllSubmatch(c.out, -1)
			if len(stats) != 2 {
				perr = fmt.Errorf("pfiproxy printed no filter stats:\n%s", c.out)
			}
			for _, m := range stats {
				seen, _ := strconv.Atoi(string(m[1]))
				if seen < trips || string(m[2]) != "0" {
					r.Failed = r.Units
				}
			}
		}
	}
	return r, perr
}

type proxyChild struct {
	cmd    *exec.Cmd
	addr   string
	out    *bytes.Buffer
	copied chan struct{}
	peak   func() int64 // stops the resident-set watch
	end    func()       // ends the span
}

func (e *Env) startProxy(o roundOpts, upstream string) (*proxyChild, error) {
	filter := e.scratch("proxy_filter.tcl")
	if err := os.WriteFile(filter, []byte(ProxyFilter), 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(e.bin("pfiproxy"), "-listen", "127.0.0.1:0", "-upstream", upstream,
		"-send-script", filter, "-recv-script", filter)
	cmd.Dir = e.work
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	_, end := e.Trace.Start("pfiproxy", o.unit, o.parent)
	if err := cmd.Start(); err != nil {
		end()
		return nil, err
	}
	px := &proxyChild{cmd: cmd, out: &bytes.Buffer{}, copied: make(chan struct{}), end: end,
		peak: watchPeakRSS(cmd.Process.Pid)}
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	px.out.WriteString(line)
	m := proxyListening.FindStringSubmatch(line)
	go func() {
		defer close(px.copied)
		_, _ = io.Copy(px.out, rd) // ends when the child closes its stdout
	}()
	if err != nil || m == nil {
		_ = cmd.Process.Kill()
		_, _ = px.stop()
		return nil, fmt.Errorf("pfiproxy did not announce its address: %q %s", line, stderr.String())
	}
	px.addr = m[1]
	return px, nil
}

// stop drains the proxy with an interrupt, as a user would, and waits for
// it to exit; a proxy that ignores the interrupt is killed.
func (p *proxyChild) stop() (child, error) {
	defer p.end()
	c := child{rssKB: p.peak()} // while the proxy is still there to be read
	_ = p.cmd.Process.Signal(os.Interrupt)
	killer := time.AfterFunc(10*time.Second, func() { _ = p.cmd.Process.Kill() })
	<-p.copied
	err := p.cmd.Wait()
	killer.Stop()
	c.out = p.out.Bytes()
	c.cpu = p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()
	if err != nil {
		return c, fmt.Errorf("pfiproxy: %w", err)
	}
	return c, nil
}

// pingpong sends trips datagrams to target with at most window in flight
// and checks every reply byte for byte. The first four payload bytes carry
// the sequence number, so a late duplicate cannot pass for a reply.
func pingpong(target string, payload []byte, trips, window int) (Round, error) {
	addr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return Round{}, err
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return Round{}, err
	}
	defer conn.Close()

	send := append([]byte(nil), payload...)
	recv := make([]byte, len(payload)+1)
	trip := func(seq int) (time.Duration, error) {
		binary.BigEndian.PutUint32(send, uint32(seq))
		start := time.Now()
		if _, err := conn.Write(send); err != nil {
			return 0, err
		}
		if seq%256 == 0 {
			// One deadline covers the next 256 round trips: arming the
			// timer per datagram costs as much as the proxy adds.
			_ = conn.SetReadDeadline(start.Add(2 * time.Second))
		}
		n, err := conn.Read(recv)
		if err != nil {
			// Re-arm, or every round trip up to the next 256th would
			// fail on the deadline this one ran into.
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			return 0, err
		}
		if !bytes.Equal(recv[:n], send) {
			return 0, errors.New("echo differs from what was sent")
		}
		return time.Since(start), nil
	}
	for i := 0; i < proxyWarmup; i++ {
		if _, err := trip(i); err != nil {
			return Round{}, fmt.Errorf("proxy path is not loss-free (does the filter script run?): round trip %d: %w", i, err)
		}
	}

	r := Round{Units: trips}
	start := time.Now()
	if window == 1 {
		r.LatUS = make([]float64, 0, trips)
		for i := 0; i < trips; i++ {
			d, err := trip(proxyWarmup + i)
			if err != nil {
				r.Failed++
				continue
			}
			r.LatUS = append(r.LatUS, float64(d.Nanoseconds())/1e3)
		}
	} else {
		r.Failed = windowed(conn, send, trips, window)
	}
	r.Wall = time.Since(start)
	return r, nil
}

// windowed keeps window datagrams in flight and returns how many of trips
// never came back. Order is not checked: this is the informational
// throughput probe, not the measured workload.
func windowed(conn *net.UDPConn, send []byte, trips, window int) (lost int) {
	recv := make([]byte, len(send)+1)
	sent, got := 0, 0
	for got+lost < trips {
		for sent < trips && sent-got-lost < window {
			binary.BigEndian.PutUint32(send, uint32(sent))
			if _, err := conn.Write(send); err != nil {
				return trips - got
			}
			sent++
		}
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		if n, err := conn.Read(recv); err != nil || n != len(send) {
			lost++
			continue
		}
		got++
	}
	return lost
}
