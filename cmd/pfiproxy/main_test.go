package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// envMain re-execs this test binary as the real pfiproxy CLI: when set, the
// process parses its own command line and runs main() instead of the tests.
const envMain = "PFI_PFIPROXY_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(envMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// countingFilter counts every datagram in interpreter state and forwards it
// untouched, so the run exercises the script path in both directions.
const countingFilter = `
if {![info exists n]} { set n 0 }
incr n
`

var listening = regexp.MustCompile(`listening on (\S+), upstream`)

// TestInterruptDrainsAndReportsStats runs pfiproxy as a process between a
// client and an echo upstream, a counting filter both ways: after N round
// trips an interrupt makes it drain, print what each filter saw and exit 0.
// A datagram from a second client is dropped and reported, never echoed.
func TestInterruptDrainsAndReportsStats(t *testing.T) {
	for _, tc := range []struct {
		name    string
		foreign int
	}{{"one-client", 0}, {"second-client", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer echo.Close()
			go func() {
				buf := make([]byte, 2048)
				for {
					n, from, err := echo.ReadFromUDPAddrPort(buf)
					if err != nil {
						return
					}
					_, _ = echo.WriteToUDPAddrPort(buf[:n], from)
				}
			}()

			filter := filepath.Join(t.TempDir(), "count.tcl")
			if err := os.WriteFile(filter, []byte(countingFilter), 0o644); err != nil {
				t.Fatal(err)
			}
			exe, err := os.Executable()
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(exe, "-listen", "127.0.0.1:0", "-upstream", echo.LocalAddr().String(),
				"-send-script", filter, "-recv-script", filter)
			cmd.Env = append(os.Environ(), envMain+"=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			killer := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
			defer killer.Stop()

			rd := bufio.NewReader(stdout)
			line, err := rd.ReadString('\n')
			m := listening.FindStringSubmatch(line)
			if err != nil || m == nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
				t.Fatalf("pfiproxy did not announce its address: %q %v\nstderr:\n%s", line, err, stderr.String())
			}

			const trips = 200
			c, err := net.Dial("udp", m[1])
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			buf := make([]byte, 64)
			for i := 0; i < trips; i++ {
				want := fmt.Sprintf("trip-%03d", i)
				if _, err := c.Write([]byte(want)); err != nil {
					t.Fatal(err)
				}
				_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := c.Read(buf)
				if err != nil || string(buf[:n]) != want {
					t.Fatalf("round trip %d: got %q, %v", i, buf[:n], err)
				}
			}
			if tc.foreign > 0 {
				other, err := net.Dial("udp", m[1])
				if err != nil {
					t.Fatal(err)
				}
				defer other.Close()
				for i := 0; i < tc.foreign; i++ {
					if _, err := other.Write([]byte("intruder")); err != nil {
						t.Fatal(err)
					}
				}
				_ = other.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
				if n, err := other.Read(buf); err == nil {
					t.Errorf("second client read %q", buf[:n])
				}
			}

			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			rest, _ := io.ReadAll(rd)
			if err := cmd.Wait(); err != nil {
				t.Fatalf("pfiproxy after interrupt: %v\nstdout:\n%s%s\nstderr:\n%s", err, line, rest, stderr.String())
			}
			out := string(rest)
			for _, prefix := range []string{"pfiproxy: toward upstream: ", "pfiproxy: toward clients:  "} {
				want := fmt.Sprintf("%s{Seen:%d Dropped:0 ", prefix, trips)
				if !strings.Contains(out, want) {
					t.Errorf("stdout lacks %q:\n%s", want, out)
				}
			}
			report := fmt.Sprintf("dropped %d datagram(s) from other clients", tc.foreign)
			if got := strings.Contains(out, "from other clients"); got != (tc.foreign > 0) ||
				(got && !strings.Contains(out, report)) {
				t.Errorf("foreign-datagram report, want %d reported:\n%s", tc.foreign, out)
			}
		})
	}
}
