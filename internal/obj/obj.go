// Package obj layers typed values — Redis-shaped hashes and sets — and
// per-key TTL expiry on top of the flat kv store (DESIGN.md §15). Objects
// are ordinary value-log records living under a reserved key namespace, so
// they inherit kv's crash consistency, compaction, replication LSNs and
// recovery for free; what this package adds is the multi-key atomicity a
// composite update needs (an HSET touches the object header AND a field
// record), and it gets it from ordering alone: the header is every
// composite's commit point.
//
// Key namespace (first byte 0x01 is reserved; the server rejects flat keys
// that start with it):
//
//	0x01 'H' <name>                         object header
//	0x01 'h' <u16 len(name)> <name> <field> hash field record
//	0x01 'X' <name>                         expiry record (u64 LE deadline, ms)
//
// The header carries the object's type and its field/member list; a set is
// its header and nothing else. A field record is live iff its object's
// header lists it, and HGET checks that before it reads the record, so
// every composite is ordered around its ONE header write (or delete) — kv's
// single-record commit makes that step atomic — with everything else either
// invisible before it or garbage after it:
//
//	HSET fresh field   put(field)      then  put(header)
//	HDEL               put(header')    then  delete(field)
//	HDEL last field    delete(header)  then  delete(field), delete(expiry)
//	reap               delete(flat key, fields), delete(header), delete(expiry)
//
// A crash, a failed second write or a failover between two steps leaves at
// most records no header lists: unobservable through this API, and deleted
// by the sweep Attach and Activate run (sweep.go). A reap deletes its expiry
// record last, so a half-done reap stays masked and the next tick re-runs it.
package obj

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rntree/kv"
)

// Namespace bytes. NSByte prefixes every record this package owns.
const (
	NSByte = 0x01

	tagHeader = 'H'
	tagField  = 'h'
	tagExpiry = 'X'

	// Tags only an image written before the header became the commit point
	// can hold: set member records (the sweep deletes them — a set is its
	// header) and the composite log's records (Attach refuses the image).
	oldTagMember = 's'
	oldTagLog    = 'I'
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
	// ErrReserved is returned for flat-key operations on keys inside the
	// reserved object namespace.
	ErrReserved = errors.New("obj: key is in the reserved object namespace")
	// ErrOldImage is returned by Attach and Activate for a store that holds
	// a record of the retired composite log (0x01 'I'): nothing resolves
	// those any more, so the image has to be reopened by the build that
	// wrote it.
	ErrOldImage = errors.New("obj: image holds a record of the retired composite log")
)

const maxName = 1<<16 - 1

// IsInternalKey reports whether k lives in the reserved object namespace and
// must be hidden from flat-key reads and scans.
func IsInternalKey(k []byte) bool { return len(k) > 0 && k[0] == NSByte }

// ParseInternalKey decodes a reserved-namespace key into its tag ('H'
// header, 'h' hash field, 'X' expiry; 's' and 'I' on older images) and the
// object name it belongs to. Diagnostic helper — the fault explorer's
// oracle sweeps raw records with it; ok is false outside the namespace or
// for a key too short to carry its layout.
func ParseInternalKey(k []byte) (tag byte, name []byte, ok bool) {
	if len(k) < 2 || k[0] != NSByte {
		return 0, nil, false
	}
	switch k[1] {
	case tagHeader, tagExpiry, oldTagLog:
		return k[1], k[2:], true
	case tagField, oldTagMember:
		if len(k) < 4 {
			return 0, nil, false
		}
		n := int(binary.LittleEndian.Uint16(k[2:4]))
		if len(k) < 4+n {
			return 0, nil, false
		}
		return k[1], k[4 : 4+n], true
	}
	return 0, nil, false
}

// Key constructors. All allocate; callers on hot paths reuse via op buffers.

func headerKey(name []byte) []byte {
	k := make([]byte, 0, 2+len(name))
	return append(append(k, NSByte, tagHeader), name...)
}

func expiryKey(name []byte) []byte {
	k := make([]byte, 0, 2+len(name))
	return append(append(k, NSByte, tagExpiry), name...)
}

func fieldKey(name, field []byte) []byte {
	k := make([]byte, 0, 4+len(name)+len(field))
	k = append(k, NSByte, tagField)
	k = binary.LittleEndian.AppendUint16(k, uint16(len(name)))
	k = append(k, name...)
	return append(k, field...)
}

// Options configures an object layer attached to a kv store.
type Options struct {
	// Clock returns the current time in milliseconds. Nil means wall clock.
	// Injected by tests and the fault explorer for determinism.
	Clock func() int64
	// ExpireInterval is the background expirer cadence; 0 disables the
	// goroutine (ticks can still be driven manually via ExpireTick).
	ExpireInterval time.Duration
	// ReadOnly attaches in replica mode: expired keys are masked on read
	// but never reaped, and unlisted records are left alone (the primary's
	// stream supplies their header). Activate flips the layer to primary
	// mode.
	ReadOnly bool
	// Invalidate, when non-nil, is called with every user-visible name a
	// reap removes, after the reap commits — the server wires this to its
	// hot-key cache so a reaped flat key cannot be served from DRAM.
	// SetInvalidate installs or replaces it after Attach.
	Invalidate func(name []byte)
}

// Stats are monotonic counters for the STATS verb and tests.
type Stats struct {
	Reaps        uint64 // keys reaped (expirer or lazy read-path reap)
	LazyExpiries uint64 // reads masked by an expired-but-unreaped key
	// IntentsUndone counts composites whose header write failed and whose
	// first write was taken back (the name predates the header-as-commit-
	// point ordering; the gating benchmark reads it).
	IntentsUndone uint64
}

// Store is the typed-object layer. All methods are safe for concurrent use.
type Store struct {
	st   *kv.Store
	opts Options

	active atomic.Bool // primary mode: may mutate (reap, sweep)

	// locks stripe-serializes composite operations per object name, so two
	// HSETs on one object cannot interleave their header read-modify-write,
	// and a reap cannot race a concurrent field write on the same name.
	locks [64]sync.Mutex

	// mu guards the DRAM expiry index: deadline per name plus a min-heap
	// the expirer pops. Heap entries go stale when a TTL is overwritten or
	// removed; pops validate against the map.
	mu   sync.RWMutex
	exp  map[string]int64
	heap expHeap

	invalidate atomic.Pointer[func(name []byte)]

	reaps         atomic.Uint64
	lazyExpiries  atomic.Uint64
	intentsUndone atomic.Uint64

	stopc chan struct{}
	done  sync.WaitGroup
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
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// Attach layers a typed-object store over st: rebuilds the DRAM expiry
// index from persisted expiry records, sweeps the records no header lists
// (primary mode only — on a replica the stream may still deliver their
// header), and starts the background expirer if an interval is configured.
func Attach(st *kv.Store, opts Options) (*Store, error) {
	if opts.Clock == nil {
		opts.Clock = func() int64 { return time.Now().UnixMilli() }
	}
	o := &Store{
		st:    st,
		opts:  opts,
		exp:   make(map[string]int64),
		stopc: make(chan struct{}),
	}
	o.active.Store(!opts.ReadOnly)
	if opts.Invalidate != nil {
		o.invalidate.Store(&opts.Invalidate)
	}

	im, err := o.scan(o.active.Load())
	if err != nil {
		return nil, err
	}
	for name, d := range im.expiry {
		o.exp[name] = d
		o.heap = append(o.heap, expEntry{d, name})
	}
	heap.Init(&o.heap)
	if o.active.Load() {
		if err := o.sweep(im); err != nil {
			return nil, err
		}
	}
	if opts.ExpireInterval > 0 {
		o.done.Add(1)
		go o.expireLoop(opts.ExpireInterval)
	}
	return o, nil
}

// Close stops the background expirer. The underlying kv store is not closed.
func (o *Store) Close() {
	select {
	case <-o.stopc:
	default:
		close(o.stopc)
	}
	o.done.Wait()
}

// Activate flips a replica-attached layer into primary mode after a
// promotion: sweeps the records a composite cut short by the failover left
// unlisted, then enables reaping. Idempotent, and safe under live writers —
// the server flips the node's role before it calls this, so HSETs from other
// connections overlap the sweep (which is why the sweep locks, sweep.go).
func (o *Store) Activate() error {
	im, err := o.scan(true)
	if err != nil {
		return err
	}
	if err := o.sweep(im); err != nil {
		return err
	}
	o.active.Store(true)
	return nil
}

// Active reports whether the layer is in primary (mutating) mode.
func (o *Store) Active() bool { return o.active.Load() }

// SetInvalidate installs the reap-notification hook (nil uninstalls). The
// server wires this to its hot-key cache after construction.
func (o *Store) SetInvalidate(fn func(name []byte)) {
	if fn == nil {
		o.invalidate.Store(nil)
		return
	}
	o.invalidate.Store(&fn)
}

// Stats returns a snapshot of the layer's counters.
func (o *Store) Stats() Stats {
	return Stats{
		Reaps:         o.reaps.Load(),
		LazyExpiries:  o.lazyExpiries.Load(),
		IntentsUndone: o.intentsUndone.Load(),
	}
}

func (o *Store) lockFor(name []byte) *sync.Mutex {
	// FNV-1a, same shape as kv.Hash, folded to the stripe count.
	h := uint64(1469598103934665603)
	for _, b := range name {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &o.locks[h&63]
}

func checkName(name []byte) error {
	if len(name) == 0 || len(name) > maxName {
		return ErrBadName
	}
	return nil
}

// ---- header codec ----

// header value: [type byte][u32 count]([u16 len][bytes])*
type header struct {
	typ   byte
	elems [][]byte
}

func decodeHeader(v []byte) (header, error) {
	var h header
	if len(v) < 5 {
		return h, fmt.Errorf("obj: short header (%d bytes)", len(v))
	}
	h.typ = v[0]
	n := binary.LittleEndian.Uint32(v[1:5])
	pos := 5
	for i := uint32(0); i < n; i++ {
		if pos+2 > len(v) {
			return h, errors.New("obj: truncated header element length")
		}
		l := int(binary.LittleEndian.Uint16(v[pos:]))
		pos += 2
		if pos+l > len(v) {
			return h, errors.New("obj: truncated header element")
		}
		h.elems = append(h.elems, v[pos:pos+l:pos+l])
		pos += l
	}
	return h, nil
}

func (h header) encode() []byte {
	sz := 5
	for _, e := range h.elems {
		sz += 2 + len(e)
	}
	v := make([]byte, 0, sz)
	v = append(v, h.typ)
	v = binary.LittleEndian.AppendUint32(v, uint32(len(h.elems)))
	for _, e := range h.elems {
		v = binary.LittleEndian.AppendUint16(v, uint16(len(e)))
		v = append(v, e...)
	}
	return v
}

// headerLists reports whether v is the encoded header of a typ object that
// lists elem, scanning it in place. An absent (empty) or malformed header
// lists nothing.
func headerLists(v []byte, typ byte, elem []byte) bool {
	if len(v) < 5 || v[0] != typ {
		return false
	}
	pos := 5
	for n := binary.LittleEndian.Uint32(v[1:5]); n > 0 && pos+2 <= len(v); n-- {
		end := pos + 2 + int(binary.LittleEndian.Uint16(v[pos:]))
		if end > len(v) {
			return false
		}
		if string(v[pos+2:end]) == string(elem) {
			return true
		}
		pos = end
	}
	return false
}

func (h header) index(elem []byte) int {
	for i, e := range h.elems {
		if string(e) == string(elem) {
			return i
		}
	}
	return -1
}

// readHeader fetches and decodes name's header; ok=false when absent.
func (o *Store) readHeader(name []byte) (header, bool, error) {
	v, err := o.st.Get(headerKey(name))
	if err == kv.ErrNotFound {
		return header{}, false, nil
	}
	if err != nil {
		return header{}, false, err
	}
	h, err := decodeHeader(v)
	if err != nil {
		return header{}, false, err
	}
	return h, true, nil
}

// ---- expiry index ----

// alive reports whether name is unexpired right now. Expired names are
// masked immediately (lazy expiry) and, in primary mode, reaped in the
// background by the next expirer tick — reads never block on the reap.
func (o *Store) alive(name []byte) bool {
	o.mu.RLock()
	d, ok := o.exp[string(name)]
	o.mu.RUnlock()
	if !ok || o.opts.Clock() < d {
		return true
	}
	o.lazyExpiries.Add(1)
	return false
}

// Expired reports whether key has a TTL that has already passed. The server
// consults this on the flat GET path before its hot-key cache, so an
// expired-but-unreaped key is never served from DRAM.
func (o *Store) Expired(key []byte) bool { return !o.alive(key) }

func (o *Store) setDeadline(name []byte, d int64) {
	o.mu.Lock()
	o.exp[string(name)] = d
	heap.Push(&o.heap, expEntry{d, string(name)})
	o.mu.Unlock()
}

func (o *Store) hasDeadline(name []byte) bool {
	o.mu.RLock()
	_, ok := o.exp[string(name)]
	o.mu.RUnlock()
	return ok
}

func (o *Store) clearDeadline(name []byte) {
	o.mu.Lock()
	delete(o.exp, string(name))
	o.mu.Unlock()
}
