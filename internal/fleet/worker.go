package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// Worker-side fault-injection hooks, read from the environment so the
// control plane's own failure modes can be exercised from real separate
// processes: a worker that SIGKILLs itself holding a lease (the kill -9
// mid-batch of the test battery) or stalls past the unit timeout.
const (
	// EnvDieOnLease ("1"): SIGKILL this process immediately after its
	// first unit lease is granted — the unit dies leased, exercising
	// EOF-driven loss recovery.
	EnvDieOnLease = "PFI_FLEET_DIE_ON_LEASE"
	// EnvStallOnLease ("1"): block forever after the first unit lease —
	// the worker stays alive but silent, exercising the lease reaper.
	EnvStallOnLease = "PFI_FLEET_STALL_ON_LEASE"
)

// Conn is a worker's request/response channel to the coordinator. Both
// transports satisfy it: stdio frames (stdioConn) and HTTP POSTs
// (httpConn).
type Conn interface {
	// RoundTrip sends one envelope and returns the coordinator's reply.
	RoundTrip(Envelope) (Envelope, error)
	// Close releases the transport.
	Close() error
}

// workerHooks observe a worker session's lifecycle; RunWorkerReconnect
// uses them to reset its backoff on progress and to detect re-adoption
// by a restarted coordinator.
type workerHooks struct {
	// onJob fires once per admission with the assigned job and the
	// coordinator's journal epoch (0: no journal).
	onJob func(job Job, epoch int)
	// onProgress fires after each completed unit.
	onProgress func()
}

// RunWorker drives the worker side of the protocol over an established
// connection: hello, then lease -> execute (streaming each finished
// cell) -> result until drained. name is the worker's self-description
// (diagnostics only). It returns nil on a clean drain and the first
// transport or protocol error otherwise — a worker that cannot make
// progress exits and lets the coordinator's loss recovery own its
// units. Use RunWorkerReconnect for workers that should outlive a
// coordinator restart.
func RunWorker(conn Conn, name string) error {
	return runWorker(conn, name, workerHooks{})
}

func runWorker(conn Conn, name string, hooks workerHooks) error {
	defer conn.Close()
	resp, err := conn.RoundTrip(Envelope{V: ProtocolVersion, Type: MsgHello, Worker: name})
	if err != nil {
		return fmt.Errorf("fleet: hello: %w", err)
	}
	if err := checkReply(resp, MsgJob); err != nil {
		return err
	}
	if resp.Job == nil || resp.Session == "" {
		return fmt.Errorf("fleet: job reply missing job or session")
	}
	job, session := *resp.Job, resp.Session
	execute := job.ops().execute
	if hooks.onJob != nil {
		hooks.onJob(job, resp.Epoch)
	}
	leased := 0
	for {
		resp, err := conn.RoundTrip(Envelope{V: ProtocolVersion, Type: MsgLease, Session: session})
		if err != nil {
			return fmt.Errorf("fleet: lease: %w", err)
		}
		switch resp.Type {
		case MsgWait:
			continue
		case MsgDrain:
			return nil
		case MsgUnit:
			if resp.Unit == nil {
				return fmt.Errorf("fleet: unit reply carries no unit")
			}
			if leased == 0 {
				applyFaultHooks()
			}
			leased++
			// Stream each cell as it completes, then mark the unit done
			// with an empty result — the coordinator already holds every
			// cell, and anything streamed survives even if this process
			// dies before the marker.
			err := execute(job, *resp.Unit, func(cell WireCell) error {
				ack, cerr := conn.RoundTrip(Envelope{V: ProtocolVersion, Type: MsgCell, Session: session, Cell: &cell})
				if cerr != nil {
					return cerr
				}
				return checkReply(ack, MsgAck)
			})
			if err != nil {
				return fmt.Errorf("fleet: unit %d: %w", resp.Unit.ID, err)
			}
			ack, err := conn.RoundTrip(Envelope{V: ProtocolVersion, Type: MsgResult, Session: session, Result: &Result{Unit: resp.Unit.ID}})
			if err != nil {
				return fmt.Errorf("fleet: result: %w", err)
			}
			if err := checkReply(ack, MsgAck); err != nil {
				return err
			}
			if hooks.onProgress != nil {
				hooks.onProgress()
			}
		default:
			return replyError(resp)
		}
	}
}

// Reconnect tunes RunWorkerReconnect's retry loop.
type Reconnect struct {
	// MaxAttempts bounds consecutive failed attempts before giving up
	// (default 8). Completing a unit resets the count — a worker that is
	// making progress retries indefinitely.
	MaxAttempts int
	// BaseDelay is the first backoff (default 100ms); each consecutive
	// failure doubles it up to MaxDelay (default 5s). The actual sleep
	// is jittered into [d/2, d] so a restarted coordinator is not hit by
	// every worker at once.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Log receives reconnect diagnostics (nil: silent).
	Log func(format string, args ...any)
}

func (rc Reconnect) withDefaults() Reconnect {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 8
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 100 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = 5 * time.Second
	}
	if rc.Log == nil {
		rc.Log = func(string, ...any) {}
	}
	return rc
}

// reconnectBackoffs counts backoff sleeps taken by RunWorkerReconnect
// process-wide, exported on /metrics (meaningful for in-process HTTP
// workers; spawned workers keep their own).
var reconnectBackoffs atomic.Uint64

// ReconnectBackoffs reports how many reconnect backoffs workers in this
// process have taken.
func ReconnectBackoffs() uint64 { return reconnectBackoffs.Load() }

// RunWorkerReconnect runs a worker session and, instead of exiting on a
// lost coordinator, redials with exponential backoff plus jitter. A
// coordinator restart therefore does not shrink the fleet: the worker
// rejoins the new coordinator (observing its bumped epoch) and keeps
// leasing. Returns nil on a clean drain, the context error on cancel,
// and the last session error once MaxAttempts consecutive attempts fail
// without completing a unit.
func RunWorkerReconnect(ctx context.Context, dial func() (Conn, error), name string, rc Reconnect) error {
	rc = rc.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := 0
	lastEpoch := -1
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progressed := false
		conn, err := dial()
		if err == nil {
			err = runWorker(conn, name, workerHooks{
				onJob: func(_ Job, epoch int) {
					if lastEpoch >= 0 && epoch != lastEpoch {
						rc.Log("fleet: worker %s re-adopted by restarted coordinator (epoch %d -> %d)", name, lastEpoch, epoch)
					}
					lastEpoch = epoch
				},
				onProgress: func() { progressed = true; attempts = 0 },
			})
			if err == nil {
				return nil // clean drain
			}
		}
		attempts++
		if attempts > rc.MaxAttempts {
			return fmt.Errorf("fleet: worker %s giving up after %d attempts: %w", name, attempts-1, err)
		}
		reconnectBackoffs.Add(1)
		delay := backoffDelay(rc.BaseDelay, rc.MaxDelay, attempts)
		rc.Log("fleet: worker %s lost coordinator (%v); reconnecting in %s (attempt %d, progressed=%t)",
			name, err, delay.Round(time.Millisecond), attempts, progressed)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// backoffDelay computes the attempt'th exponential backoff, jittered
// into [d/2, d].
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// checkReply validates a coordinator reply's version and type.
func checkReply(e Envelope, want string) error {
	if e.Type == MsgError {
		return replyError(e)
	}
	if e.V != ProtocolVersion {
		return fmt.Errorf("fleet: protocol version mismatch: worker speaks v%d, coordinator sent v%d", ProtocolVersion, e.V)
	}
	if e.Type != want {
		return fmt.Errorf("fleet: unexpected %q reply (want %q)", e.Type, want)
	}
	return nil
}

func replyError(e Envelope) error {
	if e.Error != "" {
		return fmt.Errorf("fleet: coordinator rejected: %s", e.Error)
	}
	return fmt.Errorf("fleet: unexpected %q reply", e.Type)
}

// applyFaultHooks honors the environment-driven control-plane fault
// injection on the first granted lease.
func applyFaultHooks() {
	if os.Getenv(EnvDieOnLease) == "1" {
		// kill -9 ourselves: no deferred cleanup, no goodbye frame — the
		// coordinator must recover from a raw EOF with a unit leased.
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		time.Sleep(time.Minute) // unreachable; belt for non-delivery races
	}
	if os.Getenv(EnvStallOnLease) == "1" {
		select {} // hold the lease forever; only the reaper ends this
	}
}
