package message

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewCopiesData(t *testing.T) {
	src := []byte{1, 2, 3}
	m := New(src)
	src[0] = 99
	if m.Bytes()[0] != 1 {
		t.Fatal("New did not copy its input")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New([]byte("abc"))
	m.SetSrc("a")
	m.SetDst("b")
	c := new(Pool).Clone(m)
	if c == m {
		t.Fatal("clone is the original")
	}
	if err := c.SetByte(0, 'z'); err != nil {
		t.Fatal(err)
	}
	if m.Bytes()[0] != 'a' {
		t.Fatal("mutating clone changed original")
	}
	if c.Src() != "a" || c.Dst() != "b" {
		t.Fatalf("clone addressing = %q -> %q, want a -> b", c.Src(), c.Dst())
	}
	c.SetDst("c")
	if m.Dst() != "b" {
		t.Fatal("readdressing the clone changed the original")
	}
}

func TestSetByteAndByteAt(t *testing.T) {
	m := New([]byte("abc"))
	if err := m.SetByte(1, 'X'); err != nil {
		t.Fatal(err)
	}
	b, err := m.ByteAt(1)
	if err != nil || b != 'X' {
		t.Fatalf("ByteAt = %q, %v", b, err)
	}
	if err := m.SetByte(3, 0); err == nil {
		t.Fatal("SetByte out of range did not fail")
	}
	if _, err := m.ByteAt(-1); err == nil {
		t.Fatal("ByteAt(-1) did not fail")
	}
}

func TestAddressing(t *testing.T) {
	m := New(nil)
	if m.Src() != "" || m.Dst() != "" {
		t.Fatalf("fresh message addressed %q -> %q", m.Src(), m.Dst())
	}
	m.SetSrc("a")
	m.SetDst("b")
	if m.Src() != "a" || m.Dst() != "b" {
		t.Fatalf("addressing = %q -> %q, want a -> b", m.Src(), m.Dst())
	}
}

func TestSaveRestoreState(t *testing.T) {
	m := New([]byte("abcdef"))
	m.SetSrc("a")
	m.SetDst("b")
	st := m.SaveState()
	for round := 0; round < 2; round++ { // a saved state restores repeatedly
		m.buf = m.buf[:2]
		if err := m.SetByte(0, 'z'); err != nil {
			t.Fatal(err)
		}
		m.SetSrc("x")
		m.SetDst("")
		m.RestoreState(st)
		if string(m.Bytes()) != "abcdef" || m.Src() != "a" || m.Dst() != "b" {
			t.Fatalf("round %d: restored %q %q -> %q", round, m.Bytes(), m.Src(), m.Dst())
		}
	}
}

// TestBuildWritesIntoTheMessage: what an encoder writes through Build is
// the message's bytes — in the message's own inline array when the frame
// was sized to fit, in one exactly-sized buffer when not — and a frame that
// outgrows the size it announced still arrives whole.
func TestBuildWritesIntoTheMessage(t *testing.T) {
	small := Build(8).U8(7).U32(1 << 30).Str8("ab").Message()
	if got := small.Bytes(); !bytes.Equal(got, []byte{7, 0x40, 0, 0, 0, 2, 'a', 'b'}) {
		t.Fatalf("built % x", got)
	}
	if &small.Bytes()[0] != &small.inline[0] {
		t.Fatal("a frame under InlineCap was not built inline")
	}
	if n := unsafe.Sizeof(Message{}); n != 144 {
		t.Fatalf("a Message is %d bytes, not one 144-byte size class", n)
	}
	payload := bytes.Repeat([]byte("x"), InlineCap)
	big := Build(1 + len(payload)).U8(9).Bytes(payload).Message()
	if big.Len() != 1+InlineCap || cap(big.Bytes()) != 1+InlineCap || big.Bytes()[0] != 9 {
		t.Fatalf("spilled frame: %d bytes, capacity %d", big.Len(), cap(big.Bytes()))
	}
	grown := Build(4).Bytes(payload).Message()
	if !bytes.Equal(grown.Bytes(), payload) {
		t.Fatal("a frame that outgrew its announced size lost bytes")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Message on a NewWriter Writer did not panic")
		}
	}()
	NewWriter(4).U8(1).Message()
}

// TestCopiesShareNoStorage: Clone and SaveState/RestoreState give copies
// that share no bytes with the original, whether the payload lives in the
// message's inline array or has spilled to a buffer — corrupt either side
// and the other is unchanged.
func TestCopiesShareNoStorage(t *testing.T) {
	for _, size := range []int{InlineCap / 2, InlineCap, InlineCap + 1, 4 * InlineCap} {
		payload := bytes.Repeat([]byte("p"), size)
		m := New(payload)
		m.SetSrc("a")
		c := new(Pool).Clone(m)
		st := m.SaveState()
		corrupt := func(x *Message) {
			t.Helper()
			for off := 0; off < x.Len(); off++ {
				if err := x.SetByte(off, 'X'); err != nil {
					t.Fatal(err)
				}
			}
		}
		corrupt(m)
		if !bytes.Equal(c.Bytes(), payload) {
			t.Fatalf("%d bytes: corrupting the original changed its clone", size)
		}
		corrupt(c)
		m.RestoreState(st)
		if !bytes.Equal(m.Bytes(), payload) || m.Src() != "a" {
			t.Fatalf("%d bytes: restore did not bring back the saved content", size)
		}
		corrupt(m)
		m.RestoreState(New(bytes.Repeat([]byte("g"), 2*InlineCap)).SaveState()) // grow past any inline room
		m.RestoreState(st)
		if !bytes.Equal(m.Bytes(), payload) {
			t.Fatalf("%d bytes: corrupting a restored message reached the saved state", size)
		}
		if size <= InlineCap && &c.Bytes()[0] != &c.inline[0] {
			t.Fatalf("%d bytes: the clone's payload is not in its own inline array", size)
		}
	}
}

// TestKeepOutlivesRelease: Release is a no-op on a message someone kept or a
// snapshot saved — addressing and bytes stay what they were, in a normal
// build (where an unkept message goes back to the pool for reuse) and under
// the race detector (where it is poisoned) alike. Keeping is the holder's
// own business: it does not pass to a clone.
func TestKeepOutlivesRelease(t *testing.T) {
	intact := func(m *Message, body string) {
		t.Helper()
		if m.Src() != "a" || m.Dst() != "b" || string(m.Bytes()) != body {
			t.Fatalf("released though kept: %v %s->%s", m, m.Src(), m.Dst())
		}
	}
	for _, body := range []string{"held", strings.Repeat("spilled ", InlineCap)} {
		p := new(Pool)
		m := p.New([]byte(body))
		m.SetSrc("a")
		m.SetDst("b")
		m.Keep()
		c := p.Clone(m)
		if c.kept {
			t.Fatal("the clone of a kept message is kept")
		}
		p.Release(c)
		p.Release(m)
		intact(m, body)

		s := p.Clone(m)
		st := s.SaveState()
		p.Release(s)
		intact(s, body)
		s.buf = s.buf[:1]
		s.RestoreState(st)
		intact(s, body)
	}
}

// TestNameReusesKnownStrings: Reader.Name hands back the very string the
// receiver already holds when the wire bytes spell it, and allocates only
// for a name it was not told about.
func TestNameReusesKnownStrings(t *testing.T) {
	wire := NewWriter(16).Str8("r12").Str8("r7").Str8("stranger").Str8("").Done()
	src, peers := "r12", []string{"r1", "r7", "r12"}
	r := NewReader(wire)
	if got := r.Name(src, peers); got != "r12" || unsafe.StringData(got) != unsafe.StringData(src) {
		t.Fatalf("network source not reused: %q", got)
	}
	if got := r.Name(src, peers); got != "r7" || unsafe.StringData(got) != unsafe.StringData(peers[1]) {
		t.Fatalf("peer name not reused: %q", got)
	}
	if got := r.Name(src, peers); got != "stranger" {
		t.Fatalf("unknown name read as %q", got)
	}
	if got := r.Name(src, peers); got != "" || r.Err() != nil {
		t.Fatalf("empty name read as %q, %v", got, r.Err())
	}
	if got := r.Name(src, peers); got != "" || r.Err() == nil {
		t.Fatalf("a name past the end read as %q, %v", got, r.Err())
	}
	long := NewWriter(300).Str8(string(bytes.Repeat([]byte("n"), 300))).Done()
	if got := NewReader(long).Name("", nil); len(long) != 256 || len(got) != 255 {
		t.Fatalf("a 300-byte name was written as %d bytes and read back as %d", len(long), len(got))
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	hdr := NewWriter(32).
		U8(7).U16(513).U32(1 << 30).U64(1 << 40).
		Bytes([]byte("tail")).Done()
	r := NewReader(hdr)
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U16(); v != 513 {
		t.Fatalf("U16 = %d", v)
	}
	if v := r.U32(); v != 1<<30 {
		t.Fatalf("U32 = %d", v)
	}
	if v := r.U64(); v != 1<<40 {
		t.Fatalf("U64 = %d", v)
	}
	if tail := r.take(4); string(tail) != "tail" {
		t.Fatalf("take = %q", tail)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U32()
	if r.Err() == nil {
		t.Fatal("short U32 did not set error")
	}
	if v := r.U8(); v != 0 {
		t.Fatal("read after error returned data")
	}
	// The error names the first short read, not a later one.
	_ = r.U64()
	if got, want := r.Err().Error(), "message: short read: need 4 bytes, have 1"; got != want {
		t.Fatalf("Err() = %q, want %q", got, want)
	}
	if NewReader(nil).Err() != nil {
		t.Fatal("a reader that read nothing reports an error")
	}
}

// Property: Writer/Reader round-trip arbitrary field values.
func TestPropertyWriterReader(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64) bool {
		buf := NewWriter(15).U8(a).U16(b).U32(c).U64(d).Done()
		r := NewReader(buf)
		return r.U8() == a && r.U16() == b && r.U32() == c && r.U64() == d && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
