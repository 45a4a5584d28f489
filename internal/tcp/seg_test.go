package tcp

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"pfi/internal/message"
)

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	seg := &Segment{
		SrcPort: 32769, DstPort: 80, Seq: 1<<31 + 7, Ack: 42,
		Flags: FlagACK | FlagPSH, Window: 4096,
		Payload: []byte("payload bytes"),
	}
	m := seg.Encode()
	got, err := Decode(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != seg.SrcPort || got.DstPort != seg.DstPort ||
		got.Seq != seg.Seq || got.Ack != seg.Ack ||
		got.Flags != seg.Flags || got.Window != seg.Window ||
		!bytes.Equal(got.Payload, seg.Payload) {
		t.Fatalf("round trip: got %+v, want %+v", got, seg)
	}
}

func TestPropertySegmentRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, payload []byte) bool {
		seg := &Segment{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags, Window: win, Payload: payload}
		got, err := Decode(seg.Encode())
		if err != nil {
			return false
		}
		return got.SrcPort == sp && got.DstPort == dp && got.Seq == seq &&
			got.Ack == ack && got.Flags == flags && got.Window == win &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShortSegment(t *testing.T) {
	if _, err := Decode(message.New([]byte{1, 2, 3})); err == nil {
		t.Fatal("short segment decoded")
	}
}

func TestSegmentType(t *testing.T) {
	tests := []struct {
		flags   uint8
		payload int
		want    string
	}{
		{FlagSYN, 0, "SYN"},
		{FlagSYN | FlagACK, 0, "SYN-ACK"},
		{FlagACK, 0, "ACK"},
		{FlagACK, 10, "DATA"},
		{FlagACK | FlagPSH, 10, "DATA"},
		{FlagFIN | FlagACK, 0, "FIN"},
		{FlagRST | FlagACK, 0, "RST"},
	}
	for _, tt := range tests {
		seg := &Segment{Flags: tt.flags, Payload: make([]byte, tt.payload)}
		if got := seg.Type(); got != tt.want {
			t.Errorf("Type(flags=%#x, len=%d) = %q, want %q", tt.flags, tt.payload, got, tt.want)
		}
	}
}

func TestSeqSpace(t *testing.T) {
	if n := (&Segment{Flags: FlagSYN}).SeqSpace(); n != 1 {
		t.Errorf("SYN SeqSpace = %d", n)
	}
	if n := (&Segment{Flags: FlagFIN, Payload: []byte("ab")}).SeqSpace(); n != 3 {
		t.Errorf("FIN+2 SeqSpace = %d", n)
	}
	if n := (&Segment{Flags: FlagACK}).SeqSpace(); n != 0 {
		t.Errorf("bare ACK SeqSpace = %d", n)
	}
}

func TestSeqArithmeticWraps(t *testing.T) {
	if !seqLess(0xFFFFFFF0, 0x10) {
		t.Error("wrap-around comparison failed")
	}
	if seqLess(0x10, 0xFFFFFFF0) {
		t.Error("wrap-around comparison inverted")
	}
	if !seqLEQ(5, 5) {
		t.Error("seqLEQ not reflexive")
	}
}

// TestFields pins every field a filter script can read off a segment.
func TestFields(t *testing.T) {
	seg := Segment{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4,
		Flags: FlagSYN | FlagACK, Window: 5, Payload: []byte("xy")}
	for _, tt := range []struct{ name, want string }{
		{"srcport", "1"}, {"dstport", "2"}, {"seq", "3"}, {"ack", "4"},
		{"flags", "SYN|ACK"}, {"win", "5"}, {"len", "2"}, {"urg", ""},
	} {
		if got := seg.Field(tt.name); got != tt.want {
			t.Errorf("Field(%s) = %q, want %q", tt.name, got, tt.want)
		}
	}
}

func TestRTOEstimatorJacobson(t *testing.T) {
	e := newRTOEstimator(SunOS413())
	if got := e.rto(); got != 1500*time.Millisecond {
		t.Fatalf("initial rto = %v", got)
	}
	e.sample(100 * time.Millisecond)
	// First sample: SRTT=100ms, RTTVAR=50ms, RTO=300ms -> floored to 1 s.
	if got := e.rto(); got != time.Second {
		t.Fatalf("rto after small sample = %v, want floor 1 s", got)
	}
	// Feed a run of 3 s samples; RTO converges to just over 3 s.
	for i := 0; i < 40; i++ {
		e.sample(3 * time.Second)
	}
	if got := e.rto(); got < 3*time.Second || got > 5*time.Second {
		t.Fatalf("rto after 3 s samples = %v", got)
	}
}

func TestRTOEstimatorBackoffCaps(t *testing.T) {
	e := newRTOEstimator(SunOS413())
	e.sample(100 * time.Millisecond) // rto = 1 s floor
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		16 * time.Second, 32 * time.Second, 64 * time.Second,
		64 * time.Second, 64 * time.Second,
	}
	for n, w := range want {
		if got := e.backedOff(n); got != w {
			t.Errorf("backedOff(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestRTOEstimatorSolarisCrude(t *testing.T) {
	e := newRTOEstimator(Solaris23())
	if got := e.rto(); got != 330*time.Millisecond {
		t.Fatalf("Solaris initial rto = %v", got)
	}
	// Jacobson samples are ignored in crude mode.
	e.sample(10 * time.Second)
	if got := e.rto(); got != 330*time.Millisecond {
		t.Fatalf("Solaris rto moved on jacobson sample: %v", got)
	}
	// Crude sampling adopts 0.8x the last measurement.
	e.sampleCrude(3 * time.Second)
	if got := e.rto(); got != 2400*time.Millisecond {
		t.Fatalf("Solaris crude rto = %v, want 2.4 s", got)
	}
	// And a short measurement pulls it straight back to the floor.
	e.sampleCrude(5 * time.Millisecond)
	if got := e.rto(); got != 330*time.Millisecond {
		t.Fatalf("Solaris crude rto after LAN sample = %v, want floor", got)
	}
}

func TestProfileValidation(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("vendor profile %s invalid: %v", p.Name, err)
		}
	}
	if err := (Profile{}).Validate(); err == nil {
		t.Error("zero profile validated")
	}
	bad := SunOS413()
	bad.RTOMax = bad.RTOMin - 1
	if err := bad.Validate(); err == nil {
		t.Error("inverted RTO bounds validated")
	}
	bad = SunOS413()
	bad.MSS = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MSS validated")
	}
}

func TestVendorProfileDistinctions(t *testing.T) {
	sun, aix, next, sol := SunOS413(), AIX323(), NeXTMach(), Solaris23()
	// The three BSD stacks share every behavioural parameter except the
	// keep-alive garbage byte (SunOS only).
	if !sun.KeepAliveGarbage || aix.KeepAliveGarbage || next.KeepAliveGarbage {
		t.Error("keep-alive garbage byte: want SunOS only")
	}
	if sun.MaxRetransmits != 12 || sol.MaxRetransmits != 9 {
		t.Error("retransmit limits: want BSD 12, Solaris 9")
	}
	if !sol.GlobalErrorCounter || sun.GlobalErrorCounter {
		t.Error("global error counter: want Solaris only")
	}
	if sol.UseJacobson || !sun.UseJacobson {
		t.Error("Jacobson: want BSD only")
	}
	if sol.KeepAliveIdle != 6752*time.Second || sun.KeepAliveIdle != 7200*time.Second {
		t.Error("keep-alive idle thresholds wrong")
	}
	if sol.ZWPMax != 56*time.Second || sun.ZWPMax != 60*time.Second {
		t.Error("zero-window probe caps wrong")
	}
	// The paper's footnote: 56/60 ≈ 6752/7200 (the clock-skew ratio),
	// equal to within half a percent.
	ratioZWP := 56.0 / 60.0
	ratioKA := 6752.0 / 7200.0
	if diff := ratioKA - ratioZWP; diff < -0.005 || diff > 0.005 {
		t.Errorf("clock-skew ratios diverge: %v vs %v", ratioZWP, ratioKA)
	}
}

func TestPFIStubRecognize(t *testing.T) {
	stub := PFIStub{}
	seg := &Segment{SrcPort: 9, DstPort: 80, Seq: 100, Flags: FlagACK | FlagPSH,
		Window: 512, Payload: []byte("hi")}
	info, err := stub.Recognize(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if info.Type != "DATA" || info.Field("seq") != "100" || info.Field("len") != "2" {
		t.Fatalf("info %+v", info)
	}
	if _, err := stub.Recognize(message.New([]byte{0})); err == nil {
		t.Fatal("short packet recognized")
	}
}

// A stub generates what it recognizes: every segment type but DATA (which
// needs the connection's sequence state) comes back from Generate.
func TestPFIStubGeneratesWhatItRecognizes(t *testing.T) {
	stub := PFIStub{}
	for _, typ := range []string{"SYN", "SYN-ACK", "ACK", "FIN", "RST"} {
		m, err := stub.Generate(typ, map[string]string{"seq": "7"})
		if err != nil {
			t.Errorf("Generate(%s): %v", typ, err)
			continue
		}
		info, err := stub.Recognize(m)
		if err != nil || info.Type != typ || info.Field("seq") != "7" {
			t.Errorf("Generate(%s) recognized as %q seq %q, err %v", typ, info.Type, info.Field("seq"), err)
		}
	}
}

func TestPFIStubGenerate(t *testing.T) {
	stub := PFIStub{}
	m, err := stub.Generate("ACK", map[string]string{
		"srcport": "80", "dstport": "9", "seq": "5", "ack": "6", "win": "100",
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := Decode(m)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Type() != "ACK" || seg.Seq != 5 || seg.Ack != 6 || seg.Window != 100 {
		t.Fatalf("generated %v", seg)
	}
	if _, err := stub.Generate("DATA", nil); err == nil {
		t.Fatal("stateless stub generated DATA")
	}
	if _, err := stub.Generate("ACK", map[string]string{"seq": "banana"}); err == nil {
		t.Fatal("bad field accepted")
	}
	if m, err := stub.Generate("RST", nil); err != nil {
		t.Fatal(err)
	} else if seg, _ := Decode(m); seg.Type() != "RST" {
		t.Fatalf("generated %v, want RST", seg)
	}
}

func BenchmarkSegmentEncode(b *testing.B) {
	seg := &Segment{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: FlagACK,
		Window: 512, Payload: bytes.Repeat([]byte("x"), 512)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seg.Encode()
	}
}

func BenchmarkSegmentDecode(b *testing.B) {
	m := (&Segment{Flags: FlagACK, Payload: bytes.Repeat([]byte("x"), 512)}).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(m); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Decode(message.New(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
