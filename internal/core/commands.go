package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pfi/internal/message"
	"pfi/internal/script"
)

// CurMsg is the handle filter scripts use for the message being filtered,
// mirroring the paper's cur_msg.
const CurMsg = "cur_msg"

var errNoCurrentMessage = errors.New("no current message (command valid only inside a filter run)")

// curOf resolves a message handle. Only cur_msg is live; everything else is
// a script bug worth failing loudly on.
func curOf(f *Filter, handle string) (*message.Message, error) {
	if handle != CurMsg {
		return nil, fmt.Errorf("unknown message handle %q (only %q is supported)", handle, CurMsg)
	}
	if f.curMsg == nil {
		return nil, errNoCurrentMessage
	}
	return f.curMsg, nil
}

// parseMS reads a millisecond argument as a duration. It refuses what no
// time.Duration holds — a negative count, NaN, ±Inf, or one past about 292
// years — rather than let the conversion wrap it to a negative duration that
// the scheduler would run as no delay at all.
func parseMS(arg string) (time.Duration, bool) {
	ms, err := strconv.ParseFloat(arg, 64)
	ns := ms * float64(time.Millisecond)
	if err != nil || !(ms >= 0) || ns >= math.MaxInt64 {
		return 0, false
	}
	return time.Duration(ns), true
}

// parseFinite reads a distribution parameter. It refuses NaN and ±Inf,
// which strconv accepts but from which no draw is a number a script can use.
func parseFinite(arg string) (float64, bool) {
	v, err := strconv.ParseFloat(arg, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// registerFilterCommands installs the PFI command set into a filter's
// interpreter. The same set is available in both directions; the filter's
// own direction decides where xInject sends by default.
func registerFilterCommands(f *Filter) {
	in := f.interp
	l := f.layer

	// --- recognition stubs ---------------------------------------------

	in.Register("msg_type", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("msg_type msgHandle")
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		return f.curInfo.Type, nil
	})

	in.RegisterTyped("msg_field", func(_ *script.Interp, args []string) (script.Value, error) {
		if len(args) != 2 {
			return script.Value{}, script.WrongArgs("msg_field msgHandle fieldName")
		}
		if _, err := curOf(f, args[0]); err != nil {
			return script.Value{}, err
		}
		return f.fieldValue(args[1]), nil
	})

	in.RegisterTyped("msg_len", func(_ *script.Interp, args []string) (script.Value, error) {
		if len(args) != 1 {
			return script.Value{}, script.WrongArgs("msg_len msgHandle")
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return script.Value{}, err
		}
		return script.Int(int64(m.Len())), nil
	})

	in.Register("msg_data", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("msg_data msgHandle")
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		return string(m.CopyBytes()), nil
	})

	in.Register("msg_hex", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("msg_hex msgHandle")
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%x", m.Bytes()), nil
	})

	in.Register("msg_log", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 && len(args) != 2 {
			return "", script.WrongArgs("msg_log msgHandle ?note?")
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		note := ""
		if len(args) == 2 {
			note = args[1]
		}
		seq := uint64(0)
		if s := f.curInfo.Field("seq"); s != "" {
			if v, err := strconv.ParseUint(s, 10, 64); err == nil {
				seq = v
			}
		}
		l.log.Addf(l.env.Now(), l.env.Node, f.dir.String()+"-filter", f.curInfo.Type, seq, note)
		_ = m
		return "", nil
	})

	// --- manipulation ----------------------------------------------------

	in.Register("xDrop", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("xDrop msgHandle")
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		f.cur.drop = true
		return "", nil
	})

	in.Register("xDelay", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("xDelay msgHandle milliseconds")
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		d, ok := parseMS(args[1])
		if !ok {
			return "", fmt.Errorf("bad delay %q", args[1])
		}
		f.cur.delay = d
		return "", nil
	})

	in.Register("xDuplicate", func(_ *script.Interp, args []string) (string, error) {
		if len(args) < 1 || len(args) > 3 {
			return "", script.WrongArgs("xDuplicate msgHandle ?copies? ?gap_ms?")
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		n := 1
		if len(args) >= 2 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 1 {
				return "", fmt.Errorf("bad copy count %q", args[1])
			}
			n = v
		}
		gap := time.Duration(0)
		if len(args) == 3 {
			var ok bool
			if gap, ok = parseMS(args[2]); !ok {
				return "", fmt.Errorf("bad gap %q", args[2])
			}
		}
		f.cur.dupExtra = n
		f.cur.dupGap = gap
		return "", nil
	})

	in.Register("msg_set_byte", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 3 {
			return "", script.WrongArgs("msg_set_byte msgHandle offset value")
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		off, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad offset %q", args[1])
		}
		val, err := strconv.ParseUint(args[2], 0, 8)
		if err != nil {
			return "", fmt.Errorf("bad byte value %q", args[2])
		}
		if s, ok := f.curInfo.Fields.(Settler); ok {
			s.Settle()
		}
		return "", m.SetByte(off, byte(val))
	})

	in.Register("msg_byte", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("msg_byte msgHandle offset")
		}
		m, err := curOf(f, args[0])
		if err != nil {
			return "", err
		}
		off, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad offset %q", args[1])
		}
		b, err := m.ByteAt(off)
		if err != nil {
			return "", err
		}
		return strconv.Itoa(int(b)), nil
	})

	// --- hold / release (deterministic reordering) -----------------------

	in.Register("xHold", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("xHold msgHandle")
		}
		if _, err := curOf(f, args[0]); err != nil {
			return "", err
		}
		f.holdNow()
		return "", nil
	})

	in.Register("xRelease", func(_ *script.Interp, args []string) (string, error) {
		n := 0
		if len(args) == 1 {
			v, err := strconv.Atoi(args[0])
			if err != nil {
				return "", fmt.Errorf("bad count %q", args[0])
			}
			n = v
		} else if len(args) > 1 {
			return "", script.WrongArgs("xRelease ?count?")
		}
		return "", f.release(n, false)
	})

	in.Register("xReleaseLIFO", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 0 {
			return "", script.WrongArgs("xReleaseLIFO")
		}
		return "", f.release(0, true)
	})

	in.Register("held_count", func(_ *script.Interp, args []string) (string, error) {
		return strconv.Itoa(len(f.held)), nil
	})

	// --- injection --------------------------------------------------------

	in.Register("xInject", func(_ *script.Interp, args []string) (string, error) {
		if len(args) < 1 || len(args) > 3 {
			return "", script.WrongArgs("xInject type ?{field value ...}? ?down|up?")
		}
		typ := args[0]
		fields := map[string]string{}
		if len(args) >= 2 {
			kvs, err := script.ListSplit(args[1])
			if err != nil {
				return "", err
			}
			if len(kvs)%2 != 0 {
				return "", fmt.Errorf("field list %q has odd length", args[1])
			}
			for i := 0; i < len(kvs); i += 2 {
				fields[kvs[i]] = kvs[i+1]
			}
		}
		dir := f.dir
		if len(args) == 3 {
			switch args[2] {
			case "down":
				dir = Send
			case "up":
				dir = Receive
			default:
				return "", fmt.Errorf("bad direction %q: must be down or up", args[2])
			}
		}
		return "", f.inject(typ, fields, dir)
	})

	// --- time and timers ---------------------------------------------------

	in.RegisterTyped("now", func(_ *script.Interp, args []string) (script.Value, error) {
		return script.Int(time.Duration(l.env.Now()).Milliseconds()), nil
	})

	in.Register("now_s", func(_ *script.Interp, args []string) (string, error) {
		return strconv.FormatFloat(l.env.Now().Seconds(), 'f', -1, 64), nil
	})

	in.Register("after", func(si *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("after milliseconds script")
		}
		d, ok := parseMS(args[0])
		if !ok {
			return "", fmt.Errorf("bad delay %q", args[0])
		}
		body := args[1]
		l.env.Sched.After(d, "script-after", func() {
			if _, err := si.Eval(body); err != nil {
				l.log.Addf(l.env.Now(), l.env.Node, "script-error", "", 0, err.Error())
			}
		})
		return "", nil
	})

	// --- probability distributions (the paper's dst_* utilities) ----------

	in.Register("dst_normal", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("dst_normal mean variance")
		}
		mean, ok1 := parseFinite(args[0])
		variance, ok2 := parseFinite(args[1])
		if !ok1 || !ok2 {
			return "", fmt.Errorf("bad arguments %q %q", args[0], args[1])
		}
		return formatFloat(l.rng.Normal(mean, variance)), nil
	})

	in.Register("dst_uniform", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("dst_uniform lo hi")
		}
		lo, ok1 := parseFinite(args[0])
		hi, ok2 := parseFinite(args[1])
		if !ok1 || !ok2 {
			return "", fmt.Errorf("bad arguments %q %q", args[0], args[1])
		}
		return formatFloat(l.rng.Uniform(lo, hi)), nil
	})

	in.Register("dst_exponential", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("dst_exponential mean")
		}
		mean, ok := parseFinite(args[0])
		if !ok {
			return "", fmt.Errorf("bad mean %q", args[0])
		}
		return formatFloat(l.rng.Exponential(mean)), nil
	})

	in.Register("coin", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("coin probability")
		}
		p, err := strconv.ParseFloat(args[0], 64)
		if err != nil || math.IsNaN(p) { // ±Inf clamps like any p outside [0,1]
			return "", fmt.Errorf("bad probability %q", args[0])
		}
		if l.rng.Bernoulli(p) {
			return "1", nil
		}
		return "0", nil
	})

	in.Register("rand_int", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("rand_int n")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return "", fmt.Errorf("bad bound %q", args[0])
		}
		return strconv.Itoa(l.rng.Intn(n)), nil
	})

	// --- cross-interpreter state (send <-> receive) ------------------------

	in.Register("peer_set", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("peer_set varName value")
		}
		f.peer().engine().SetGlobal(args[0], args[1])
		return args[1], nil
	})

	in.Register("peer_get", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 && len(args) != 2 {
			return "", script.WrongArgs("peer_get varName ?default?")
		}
		v, ok := f.peer().engine().Global(args[0])
		if !ok {
			if len(args) == 2 {
				return args[1], nil
			}
			return "", fmt.Errorf("peer has no variable %q", args[0])
		}
		return v, nil
	})

	// --- cross-node synchronization ----------------------------------------

	in.Register("sync_signal", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("sync_signal name")
		}
		l.bus.Signal(args[0])
		return "", nil
	})

	in.Register("sync_clear", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("sync_clear name")
		}
		l.bus.Clear(args[0])
		return "", nil
	})

	in.Register("sync_test", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("sync_test name")
		}
		if l.bus.IsSet(args[0]) {
			return "1", nil
		}
		return "0", nil
	})

	in.Register("sync_wait", func(si *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("sync_wait name script")
		}
		body := args[1]
		l.bus.OnSignal(args[0], func() {
			if _, err := si.Eval(body); err != nil {
				l.log.Addf(l.env.Now(), l.env.Node, "script-error", "", 0, err.Error())
			}
		})
		return "", nil
	})

	// --- misc ---------------------------------------------------------------

	in.Register("node", func(_ *script.Interp, args []string) (string, error) {
		return l.env.Node, nil
	})

	in.Register("dir", func(_ *script.Interp, args []string) (string, error) {
		return f.dir.String(), nil
	})

	in.Register("log", func(_ *script.Interp, args []string) (string, error) {
		l.log.Addf(l.env.Now(), l.env.Node, "script", "", 0, strings.Join(args, " "))
		return "", nil
	})
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
