package snapshot

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// cell is a one-value component that logs every capture and restore.
type cell struct {
	name string
	v    int
	log  *[]string
}

func (c *cell) SnapshotState() any {
	*c.log = append(*c.log, "capture "+c.name)
	return c.v
}

func (c *cell) RestoreState(state any) {
	*c.log = append(*c.log, "restore "+c.name)
	c.v = state.(int)
}

// panicMessage runs fn and returns what it panicked with ("" if it did not).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func TestRegistryContract(t *testing.T) {
	var log []string
	a, b, c := &cell{"a", 1, &log}, &cell{"b", 2, &log}, &cell{"c", 3, &log}
	reg := NewRegistry()
	reg.Register("a", a)
	reg.Register("b", b)
	reg.Register("c", c)
	if len(reg.comps) != 3 {
		t.Fatalf("%d components registered, want 3", len(reg.comps))
	}
	snap := reg.Capture()

	// The cases share one registry and one capture and run in order.
	for _, tc := range []struct {
		name   string
		do     func()
		calls  string // every SnapshotState/RestoreState call since the last case
		values []int  // a, b, c afterwards
		panics string // "": must not panic
	}{
		{name: "capture walks in registration order",
			do:     func() {},
			calls:  "capture a, capture b, capture c",
			values: []int{1, 2, 3}},
		{name: "restore walks in registration order",
			do:     func() { a.v, b.v, c.v = 10, 20, 30; snap.Restore() },
			calls:  "restore a, restore b, restore c",
			values: []int{1, 2, 3}},
		{name: "a second restore from the same capture lands on the same state",
			do:     func() { a.v, c.v = -1, -3; snap.Restore(); b.v = -2; snap.Restore() },
			calls:  "restore a, restore b, restore c, restore a, restore b, restore c",
			values: []int{1, 2, 3}},
		{name: "registering nil panics",
			do:     func() { reg.Register("ghost", nil) },
			values: []int{1, 2, 3},
			panics: `snapshot: nil snapshotter "ghost"`},
		{name: "restoring onto a grown registry panics before touching anything",
			do: func() {
				reg.Register("d", &cell{"d", 4, &log})
				a.v = 99
				snap.Restore()
			},
			values: []int{99, 2, 3},
			panics: "snapshot: registry grew from 3 to 4 components since capture"},
	} {
		if got := panicMessage(tc.do); got != tc.panics {
			t.Errorf("%s: panic %q, want %q", tc.name, got, tc.panics)
		}
		if got := strings.Join(log, ", "); got != tc.calls {
			t.Errorf("%s: calls %q, want %q", tc.name, got, tc.calls)
		}
		if got := []int{a.v, b.v, c.v}; !reflect.DeepEqual(got, tc.values) {
			t.Errorf("%s: values %v, want %v", tc.name, got, tc.values)
		}
		log = log[:0]
	}
}
