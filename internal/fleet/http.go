package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pfi/internal/journal"
	"pfi/internal/script"
)

// RPCPath is the coordinator's RPC endpoint: one POSTed envelope frame
// per request, one frame per response — the same frames the stdio
// transport carries, so both run the identical handler core.
const RPCPath = "/v1/fleet"

// Status is the coordinator's externally visible state, served as JSON
// from /status on a long-running server.
type Status struct {
	Job      string `json:"job"`
	Version  int    `json:"version"`
	Draining bool   `json:"draining"`
	UptimeS  int64  `json:"uptime_s"`
	Stats    Stats  `json:"stats"`
}

// StatusNow captures the coordinator's current status.
func (c *Coordinator) StatusNow() Status {
	return Status{
		Job:      c.job.Kind,
		Version:  ProtocolVersion,
		Draining: c.Draining(),
		UptimeS:  int64(time.Since(c.start).Seconds()),
		Stats:    c.Stats(),
	}
}

// Handler returns the coordinator's HTTP surface:
//
//	POST /v1/fleet  — the worker RPC (one envelope frame per request)
//	GET  /status    — job, version, drain state, and counters as JSON
//	GET  /metrics   — flat {"fleet_<counter>": n} JSON for scrapers
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(RPCPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		frame, err := io.ReadAll(io.LimitReader(r.Body, maxFrame))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(c.Handle(bytes.TrimSpace(frame)))
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.StatusNow())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := c.Stats()
		m := map[string]int{
			"fleet_rounds":       s.Rounds,
			"fleet_units":        s.Units,
			"fleet_units_done":   s.UnitsDone,
			"fleet_reassigned":   s.Reassigned,
			"fleet_contained":    s.Contained,
			"fleet_stale":        s.Stale,
			"fleet_cells":        s.Cells,
			"fleet_bad_frames":   s.BadFrames,
			"fleet_workers_seen": s.WorkersSeen,
			"fleet_workers_lost": s.WorkersLost,
		}
		// Crash-safety telemetry: write-ahead-log volume, resumed work,
		// and worker reconnect churn (process-local, like script stats).
		js := journal.GetStats()
		m["journal_records_written"] = int(js.RecordsWritten)
		m["journal_bytes"] = int(js.BytesWritten)
		m["resume_cells_skipped"] = int(js.ResumedSkipped)
		m["worker_reconnect_backoffs"] = int(ReconnectBackoffs())
		// Script-engine telemetry: coordinator-local counters from the
		// filter compiler (spawned/remote workers keep their own; these
		// cover in-process scenario work).
		ss := script.Stats()
		m["script_compiles"] = int(ss.Compiles)
		m["script_fused_ops"] = int(ss.FusedOps)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m)
	})
	return mux
}

// Server is a coordinator bound to a listening HTTP socket.
type Server struct {
	Addr string // actual listen address, e.g. "127.0.0.1:41373"
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts the coordinator's HTTP server on addr (":0" picks a free
// port; the resolved address is in Server.Addr). Remote workers connect
// with DialHTTP; humans probe /status and /metrics.
func (c *Coordinator) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: c.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Close stops accepting connections, lets in-flight requests finish — a
// drain reply already computed must still reach its worker — and waits
// for the serve loop to return. Requests still running after a second
// (several long-poll windows) are cut; the coordinator's drain state, not
// this, is what ends a fleet cleanly.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	<-s.done
	return err
}

// httpConn is the worker side of the HTTP transport: each RoundTrip is
// one POST of an envelope frame to the coordinator's RPC endpoint.
type httpConn struct {
	url    string
	client *http.Client
}

// DialHTTP returns a Conn speaking the fleet protocol to the coordinator
// at base (e.g. "http://127.0.0.1:41373"). No connection is made until
// the first RoundTrip; a coordinator that is down surfaces as a
// transport error there.
func DialHTTP(base string) Conn {
	return &httpConn{url: base + RPCPath, client: &http.Client{}}
}

func (h *httpConn) RoundTrip(e Envelope) (Envelope, error) {
	frame, err := Encode(e)
	if err != nil {
		return Envelope{}, err
	}
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(frame))
	if err != nil {
		return Envelope{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxFrame))
	if err != nil {
		return Envelope{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Envelope{}, fmt.Errorf("fleet: coordinator returned %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return Decode(bytes.TrimSpace(body))
}

func (h *httpConn) Close() error { return nil }
