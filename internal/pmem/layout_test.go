package pmem

import (
	"reflect"
	"testing"
)

// TestHeapCounterLayout keeps the persistence counters, which every store
// and persist increments, at least a line away from every other field of
// Heap — committedW, lat and hooks, which every access reads, among them.
// The offsets are reflect's (what unsafe.Offsetof returns), taken over every
// field so that one added later is caught wherever it goes.
func TestHeapCounterLayout(t *testing.T) {
	st := reflect.TypeOf(Heap{})
	bf, _ := st.FieldByName("stats")
	start, end := bf.Offset, bf.Offset+bf.Type.Size()
	for _, n := range []string{"committedW", "lat", "hooks"} {
		if _, ok := st.FieldByName(n); !ok {
			t.Fatalf("Heap has no field %s", n)
		}
	}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		fend := f.Offset + f.Type.Size()
		switch {
		case f.Name == "_" || f.Name == "stats":
		case fend <= start && start-fend < LineSize:
			t.Errorf("Heap.%s ends %d bytes before the counters", f.Name, start-fend)
		case f.Offset >= end && f.Offset-end < LineSize:
			t.Errorf("Heap.%s starts %d bytes after the counters", f.Name, f.Offset-end)
		case fend > start && f.Offset < end:
			t.Errorf("Heap.%s overlaps the counters", f.Name)
		}
	}
}
