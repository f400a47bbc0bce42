// Package obj layers typed values — Redis-shaped hashes and sets — and
// per-key TTL expiry on top of the flat kv store (DESIGN.md §15). Objects
// are ordinary value-log records living under a reserved key namespace, so
// they inherit kv's crash consistency, compaction, replication LSNs and
// recovery for free; what this package adds is the multi-key atomicity a
// composite update needs (an HSET touches the object header AND a field
// record).
//
// Key namespace: every record of an object is a kv routed key whose route is
// the object's name, so it lives in the partition of the flat key of that
// name (first byte 0x01 is reserved; the server rejects flat keys that start
// with it):
//
//	0x01 <u16le len(name)> <name> 'H'          object header
//	0x01 <u16le len(name)> <name> 'h' <field>  hash field record
//	0x01 <u16le len(name)> <name> 'X'          expiry record (u64 LE deadline, ms)
//
// Every write of a name — a typed verb, the expirer's reap, a sweep delete —
// is one kv.Store.Update step on that partition: its reads are current, and
// its records commit as one batch under the partition lock, so no other
// writer of the name can interleave. Within a step the tree publishes follow
// the order the records were queued, so a crash mid-publish still lands on a
// prefix: the header is every composite's commit point, and a reap deletes
// its expiry record last.
//
// The header carries the object's type and its field/member list; a set is
// its header and nothing else. A field record is live iff its object's
// header lists it, and HGET checks that before it reads the record:
//
//	HSET fresh field   put(field), put(header)
//	HDEL               put(header'), delete(field)
//	HDEL last field    delete(header), delete(field), delete(expiry)
//	reap               delete(flat key, fields, header), then delete(expiry)
//
// A crash or a failover between two publishes leaves at most records no
// header lists: unobservable through this API, and deleted by the sweep
// Attach and Activate run (sweep.go). A reap cut short stays masked, and the
// next tick re-runs it.
package obj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rntree/internal/clock"
	"rntree/kv"
)

// Namespace bytes. NSByte prefixes every record this package owns: it is
// kv's routed-key byte.
const (
	NSByte = kv.RouteByte

	tagHeader = 'H'
	tagField  = 'h'
	tagExpiry = 'X'
)

// Object types stored in byte 0 of a header value.
const (
	TypeHash = 'h'
	TypeSet  = 's'
)

var (
	// ErrWrongType is returned when an op's verb disagrees with the stored
	// object's type (HGET against a set, SADD against a hash).
	ErrWrongType = errors.New("obj: operation against a key holding the wrong kind of value")
	// ErrBadName rejects empty names/fields/members and names longer than
	// the u16 length frame.
	ErrBadName = errors.New("obj: empty or oversized object name, field or member")
	// ErrReserved is returned for a name inside the reserved object
	// namespace, by every typed verb.
	ErrReserved = errors.New("obj: key is in the reserved object namespace")
	// ErrBadTTL rejects an EXPIRE whose deadline would pass maxDeadline.
	ErrBadTTL = errors.New("obj: TTL deadline out of range")
)

const maxName = 1<<16 - 1

// maxDeadline is the latest TTL deadline in ms: the last that fits as ns
// since the Unix epoch, so a timer's Duration can reach it.
const maxDeadline = (1<<63 - 1) / 1_000_000

// IsInternalKey reports whether k lives in the reserved object namespace and
// must be hidden from flat-key reads and scans.
func IsInternalKey(k []byte) bool { return len(k) > 0 && k[0] == NSByte }

// ParseInternalKey decodes a reserved-namespace key into its tag ('H'
// header, 'h' hash field, 'X' expiry) and the object name it belongs to; a
// field key's field follows the tag. Diagnostic helper — the fault
// explorer's oracle sweeps raw records with it; ok is false outside the
// namespace or for a key too short to carry its layout.
func ParseInternalKey(k []byte) (tag byte, name []byte, ok bool) {
	if len(k) < 4 || k[0] != NSByte {
		return 0, nil, false
	}
	n := 3 + int(binary.LittleEndian.Uint16(k[1:3]))
	if n >= len(k) {
		return 0, nil, false
	}
	return k[n], k[3:n], true
}

// objKey builds the key of one of name's records. Callers on hot paths keep
// what it returns for the rest of the step.
func objKey(name []byte, tag byte, rest []byte) []byte {
	return appendObjKey(make([]byte, 0, 4+len(name)+len(rest)), name, tag, rest)
}

// appendObjKey appends the key of one of name's records to dst; a read builds
// its keys this way in a stack buffer.
func appendObjKey(dst, name []byte, tag byte, rest []byte) []byte {
	return append(append(kv.AppendRoute(dst, name), tag), rest...)
}

func headerKey(name []byte) []byte       { return objKey(name, tagHeader, nil) }
func expiryKey(name []byte) []byte       { return objKey(name, tagExpiry, nil) }
func fieldKey(name, field []byte) []byte { return objKey(name, tagField, field) }

// Options configures an object layer attached to a kv store.
type Options struct {
	// ReadOnly attaches in replica mode: expired keys are masked on read
	// but never reaped, and unlisted records are left alone (the primary's
	// stream supplies their header). Activate flips the layer to primary
	// mode.
	ReadOnly bool
}

// Stats are monotonic counters for the STATS verb and tests.
type Stats struct {
	Reaps        uint64 // keys reaped (expirer or lazy read-path reap)
	LazyExpiries uint64 // reads masked by an expired-but-unreaped key
	// IntentsUndone counts fresh-field HSETs whose step failed to commit:
	// kv publishes a step's records all or none, so the field record was
	// never published either (the gating benchmark reads it).
	IntentsUndone uint64
}

// Store is the typed-object layer. All methods are safe for concurrent use:
// every write of a name runs under the lock of the name's kv partition.
//
// The expiry index's mu nests inside that lock (a step reads and updates the
// index), never the other way round; the expirer holds reapMu across steps:
//
//rnvet:lockorder obj.Store.reapMu<kv.kvPart.mu<obj.Store.mu
type Store struct {
	st *kv.Store // its clock's ms since the Unix epoch are a deadline's unit

	active atomic.Bool // primary mode: may mutate (reap, sweep)

	// mu guards the DRAM expiry index: deadline per name plus a min-heap
	// the expirer pops. Heap entries go stale when a TTL is overwritten or
	// removed; pops validate against the map. timer is pending for the
	// head's deadline, or firing.
	mu    sync.RWMutex
	exp   map[string]int64
	heap  expHeap
	timer clock.Timer

	// reapMu orders the timer's reaps before Close. closed is set under
	// reapMu and mu, so either guards a read.
	reapMu sync.Mutex
	closed bool

	reaps         atomic.Uint64
	lazyExpiries  atomic.Uint64
	intentsUndone atomic.Uint64
}

type expEntry struct {
	deadline int64
	name     string
}

type expHeap []expEntry

func (h expHeap) Len() int           { return len(h) }
func (h expHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h expHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expHeap) Push(x any)        { *h = append(*h, x.(expEntry)) }
func (h *expHeap) Pop() any {
	e := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return e
}

// Attach layers a typed-object store over st: rebuilds the DRAM expiry
// index from persisted expiry records, then, in primary mode only, sweeps the
// records no header lists (on a replica the stream may still deliver their
// header) and arms the expirer.
func Attach(st *kv.Store, opts Options) (*Store, error) {
	o := &Store{st: st, exp: make(map[string]int64)}
	o.timer = st.Clock().AfterFunc(time.Hour, o.fire)
	o.timer.Stop()
	im := o.scan(!opts.ReadOnly)
	for name, d := range im.expiry {
		o.setDeadline([]byte(name), d) // arms nothing: the layer is not active yet
	}
	if !opts.ReadOnly {
		if err := o.sweep(im); err != nil {
			return nil, err
		}
		o.active.Store(true)
		o.armHead()
	}
	return o, nil
}

// Close stops the expirer once its running reap, if any, ends. The
// underlying kv store is not closed.
func (o *Store) Close() {
	o.reapMu.Lock()
	o.mu.Lock()
	o.closed = true
	o.timer.Stop()
	o.mu.Unlock()
	o.reapMu.Unlock()
}

// Activate flips a replica-attached layer into primary mode after a
// promotion: sweeps the records a composite cut short by the failover left
// unlisted, then enables reaping. Idempotent, and safe under live writers:
// each sweep delete is a step of its own (sweep.go).
func (o *Store) Activate() error {
	if err := o.sweep(o.scan(true)); err != nil {
		return err
	}
	o.active.Store(true)
	o.armHead()
	return nil
}

// Active reports whether the layer is in primary (mutating) mode.
func (o *Store) Active() bool { return o.active.Load() }

// Stats returns a snapshot of the layer's counters.
func (o *Store) Stats() Stats {
	return Stats{
		Reaps:         o.reaps.Load(),
		LazyExpiries:  o.lazyExpiries.Load(),
		IntentsUndone: o.intentsUndone.Load(),
	}
}

// checkName vets a typed verb's name and its field or member, if it takes
// one. Any bytes may spell either, but not none or more than the u16 length
// frame holds, and a name may not lie in the reserved namespace: as a flat
// key it is another name's record (TTL of the header key of "foo" would
// answer for object foo).
func checkName(name []byte, elem ...[]byte) error {
	for _, e := range elem {
		if len(e) == 0 || len(e) > maxName {
			return ErrBadName
		}
	}
	switch {
	case len(name) == 0 || len(name) > maxName:
		return ErrBadName
	case IsInternalKey(name):
		return ErrReserved
	}
	return nil
}

// ---- header codec ----
//
// A header value is [type byte][u32le count]([u16le len][elem])*. Writes
// edit it in place; only listing decodes it.

// elems decodes the element list of header value v; the elements alias v.
func elems(v []byte) ([][]byte, error) {
	if len(v) < 5 {
		return nil, fmt.Errorf("obj: short header (%d bytes)", len(v))
	}
	var out [][]byte
	pos := 5
	for n := binary.LittleEndian.Uint32(v[1:5]); n > 0; n-- {
		if pos+2 > len(v) {
			return nil, errors.New("obj: truncated header")
		}
		end := pos + 2 + int(binary.LittleEndian.Uint16(v[pos:]))
		if end > len(v) {
			return nil, errors.New("obj: truncated header")
		}
		out = append(out, v[pos+2:end:end])
		pos = end
	}
	return out, nil
}

// elemAt returns the span [pos, end) of elem's entry in v if v is the
// encoded header of a typ object that lists it, and pos < 0 otherwise. An
// absent (empty) or malformed header lists nothing.
func elemAt(v []byte, typ byte, elem []byte) (pos, end int) {
	if len(v) < 5 || v[0] != typ {
		return -1, 0
	}
	pos = 5
	for n := binary.LittleEndian.Uint32(v[1:5]); n > 0 && pos+2 <= len(v); n-- {
		end = pos + 2 + int(binary.LittleEndian.Uint16(v[pos:]))
		if end > len(v) {
			break
		}
		if string(v[pos+2:end]) == string(elem) {
			return pos, end
		}
		pos = end
	}
	return -1, 0
}

func headerLists(v []byte, typ byte, elem []byte) bool {
	pos, _ := elemAt(v, typ, elem)
	return pos >= 0
}

// withElem returns header value v (nil: an absent typ object) with elem
// appended to its list.
func withElem(v []byte, typ byte, elem []byte) []byte {
	out := make([]byte, 0, max(len(v), 5)+2+len(elem))
	if len(v) < 5 {
		out = append(out, typ, 0, 0, 0, 0)
	} else {
		out = append(out, v...)
	}
	binary.LittleEndian.PutUint32(out[1:5], binary.LittleEndian.Uint32(out[1:5])+1)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(elem)))
	return append(out, elem...)
}

// withoutElem returns header value v without its entry [pos, end), or nil
// when that entry was the last.
func withoutElem(v []byte, pos, end int) []byte {
	n := binary.LittleEndian.Uint32(v[1:5]) - 1
	if n == 0 {
		return nil
	}
	out := append(append(make([]byte, 0, len(v)-(end-pos)), v[:pos]...), v[end:]...)
	binary.LittleEndian.PutUint32(out[1:5], n)
	return out
}

// typed checks that header value v is a typ object's.
func typed(v []byte, typ byte) error {
	if len(v) == 0 || v[0] != typ {
		return ErrWrongType
	}
	return nil
}

// ---- expiry index ----

// deadline returns name's TTL deadline from the DRAM index.
func (o *Store) deadline(name []byte) (int64, bool) {
	o.mu.RLock()
	d, ok := o.exp[string(name)]
	o.mu.RUnlock()
	return d, ok
}

// Expired reports whether name's TTL has passed: it is masked at once (a
// lazy expiry) until the expirer reaps it. The server asks on the flat GET
// path before its hot-key cache, so such a key is never served from DRAM.
func (o *Store) Expired(name []byte) bool {
	d, ok := o.deadline(name)
	if !ok || o.now() < d {
		return false
	}
	o.lazyExpiries.Add(1)
	return true
}

func (o *Store) now() int64 { return o.st.Clock().Now().UnixMilli() }

func (o *Store) setDeadline(name []byte, d int64) {
	o.mu.Lock()
	o.exp[string(name)] = d
	o.pushLocked(expEntry{d, string(name)})
	o.mu.Unlock()
}

func (o *Store) hasDeadline(name []byte) bool {
	_, ok := o.deadline(name)
	return ok
}

func (o *Store) clearDeadline(name []byte) {
	o.mu.Lock()
	delete(o.exp, string(name))
	o.mu.Unlock()
}
