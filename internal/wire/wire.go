// Package wire defines the length-prefixed binary protocol spoken between
// rnserved and its clients.
//
// A frame is a 4-byte big-endian payload length followed by the payload:
//
//	uint32  payload length N (9 <= N <= MaxFrame)
//	uint64  request id (echoed verbatim in the response; clients use it to
//	        match pipelined, possibly out-of-order responses)
//	uint8   opcode (requests) — responses carry a status byte here and echo
//	        the opcode after it, so response bodies are self-describing
//	...     op-specific body
//
// Variable-length fields are encoded as uint32 length + raw bytes. The
// decoder is total: any truncated, oversized or otherwise malformed payload
// returns an error — it never panics and never allocates more than the
// payload it was handed (FuzzDecodeRequest / FuzzDecodeResponse enforce
// this).
//
// Request bodies:
//
//	PING, STATS        (empty)
//	GET, DEL           key
//	PUT                key, value [, uint8 1 — durable-ack flag, absent = async]
//	SCAN               uint32 max, prefix
//	REPL.HELLO         uint8 role, uint64 epoch
//	REPL.SUBSCRIBE     uint32 n, then n x uint64 from-LSN (one per partition)
//	REPL.RECORD        uint32 part, uint64 lsn, uint8 kind, key, value
//	REPL.ACK           uint32 n, then n x uint64 durable LSN (one per partition)
//	PROMOTE            uint64 epoch to supersede
//	HSET               name, field, value
//	HGET, HDEL         name, field
//	SADD, SREM         name, member
//	SMEMBERS, TTL,
//	PERSIST            name
//	EXPIRE             name, uint64 ttl milliseconds
//
// Response bodies (status OK unless noted):
//
//	PING, PUT, DEL     (empty)
//	GET                value
//	SCAN               uint32 n, then n x (key, value)
//	STATS              uint32 n, then n x (name, uint64 value)
//	REPL.HELLO         uint8 role, uint64 epoch, uint32 n, then n x uint64 LSN
//	REPL.SUBSCRIBE     (empty)
//	REPL.RECORD        uint32 part, uint64 lsn, uint8 kind, key, value
//	REPL.ACK           (empty)
//	PROMOTE            uint8 role, uint64 epoch
//	HGET               value
//	SMEMBERS           uint32 n, then n x member
//	TTL                uint64 remaining ms (two's-complement -1 = no TTL)
//	HSET, HDEL, SADD,
//	SREM, EXPIRE,
//	PERSIST            (empty)
//	any with StatusErr message
//
// Replication rides the same framing in both directions: after a replica's
// REPL.SUBSCRIBE is acknowledged, the primary streams REPL.RECORD frames as
// unsolicited *responses* (the ID is a per-connection ship sequence, the Op
// field distinguishes them from request responses), and the replica sends
// REPL.ACK *requests* that receive no response. See DESIGN.md §13.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds one frame's payload. It comfortably fits the kv store's
// largest record (one log chunk, default 1 MiB) plus framing overhead.
const MaxFrame = 4 << 20

// minPayload is id (8) + opcode/status (1).
const minPayload = 9

// Opcodes.
const (
	OpPing  = 1
	OpGet   = 2
	OpPut   = 3
	OpDel   = 4
	OpScan  = 5
	OpStats = 6

	// Replication verbs (DESIGN.md §13).
	OpReplHello     = 7  // role/epoch handshake
	OpReplSubscribe = 8  // replica asks for the stream from per-partition LSNs
	OpReplRecord    = 9  // one shipped log record (streamed as responses)
	OpReplAck       = 10 // replica's durable per-partition watermarks (no response)
	OpPromote       = 11 // client asks a replica to take over as primary

	// Typed-object verbs (DESIGN.md §15).
	OpHSet     = 12 // hash field write
	OpHGet     = 13 // hash field read
	OpHDel     = 14 // hash field delete
	OpSAdd     = 15 // set member add
	OpSRem     = 16 // set member remove
	OpSMembers = 17 // set member list
	OpExpire   = 18 // set a key's TTL
	OpTTL      = 19 // read a key's remaining TTL
	OpPersist  = 20 // drop a key's TTL
)

// Replication roles carried by REPL.HELLO and PROMOTE frames.
const (
	RolePrimary = 1
	RoleReplica = 2
)

// Response status codes.
const (
	StatusOK         = 0
	StatusNotFound   = 1 // GET/DEL on an absent key
	StatusErr        = 2 // server-side error; body carries the message
	StatusOverloaded = 3 // backpressure rejection: retry later
	StatusClosing    = 4 // server is draining; reconnect elsewhere
	StatusReadOnly   = 5 // write on a replica: promote it or find the primary
	StatusNoRepl     = 6 // replication verb on a server with replication disabled
)

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrFrameTooSmall = errors.New("wire: frame below minimum payload")
	ErrTruncated     = errors.New("wire: truncated payload")
	ErrTrailingData  = errors.New("wire: trailing bytes after payload")
	ErrBadOp         = errors.New("wire: unknown opcode")
	ErrBadStatus     = errors.New("wire: unknown status")
	ErrBadFlag       = errors.New("wire: bad trailing flag byte")
)

// Request is one decoded client request.
type Request struct {
	ID  uint64
	Op  uint8
	Key []byte // GET, PUT, DEL; REPL.RECORD record key
	Val []byte // PUT; REPL.RECORD record value

	ScanMax    uint32 // SCAN: max pairs returned
	ScanPrefix []byte // SCAN: key prefix filter (may be empty)

	// Durable asks the primary to delay the PUT ack until a replica has
	// persisted the record (wait-for-replica-durable mode). Encoded as an
	// optional trailing flag byte so pre-replication PUT frames — and the
	// committed fuzz corpus — decode unchanged.
	Durable bool

	ReplRole  uint8    // REPL.HELLO: sender role
	ReplEpoch uint64   // REPL.HELLO: sender epoch; PROMOTE: epoch to supersede
	ReplLSNs  []uint64 // REPL.SUBSCRIBE: resume LSNs; REPL.ACK: durable watermarks
	ReplPart  uint32   // REPL.RECORD: partition index
	ReplLSN   uint64   // REPL.RECORD: record LSN
	ReplKind  uint8    // REPL.RECORD: record kind (kv.ReplPut / kv.ReplDelete)

	Field []byte // HSET/HGET/HDEL: field; SADD/SREM: member (Key is the name)
	TTLMs uint64 // EXPIRE: milliseconds until expiry
}

// KV is one key/value pair in a SCAN response.
type KV struct {
	Key, Val []byte
}

// Counter is one named STATS value.
type Counter struct {
	Name string
	Val  uint64
}

// Response is one decoded server response.
type Response struct {
	ID     uint64
	Status uint8
	Op     uint8 // opcode of the request this answers

	Val      []byte    // GET; REPL.RECORD record value
	Msg      string    // StatusErr
	Pairs    []KV      // SCAN
	Counters []Counter // STATS

	Key       []byte   // REPL.RECORD: record key
	ReplRole  uint8    // REPL.HELLO / PROMOTE: responder's role
	ReplEpoch uint64   // REPL.HELLO / PROMOTE: responder's epoch
	ReplLSNs  []uint64 // REPL.HELLO: responder's per-partition LSNs
	ReplPart  uint32   // REPL.RECORD: partition index
	ReplLSN   uint64   // REPL.RECORD: record LSN
	ReplKind  uint8    // REPL.RECORD: record kind

	Members [][]byte // SMEMBERS
	TTL     int64    // TTL: remaining ms, -1 = key exists with no TTL
}

// OpName returns a printable opcode name.
func OpName(op uint8) string {
	switch op {
	case OpPing:
		return "PING"
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDel:
		return "DEL"
	case OpScan:
		return "SCAN"
	case OpStats:
		return "STATS"
	case OpReplHello:
		return "REPL.HELLO"
	case OpReplSubscribe:
		return "REPL.SUBSCRIBE"
	case OpReplRecord:
		return "REPL.RECORD"
	case OpReplAck:
		return "REPL.ACK"
	case OpPromote:
		return "PROMOTE"
	case OpHSet:
		return "HSET"
	case OpHGet:
		return "HGET"
	case OpHDel:
		return "HDEL"
	case OpSAdd:
		return "SADD"
	case OpSRem:
		return "SREM"
	case OpSMembers:
		return "SMEMBERS"
	case OpExpire:
		return "EXPIRE"
	case OpTTL:
		return "TTL"
	case OpPersist:
		return "PERSIST"
	}
	return fmt.Sprintf("OP(%d)", op)
}

func validOp(op uint8) bool { return op >= OpPing && op <= OpPersist }

func validStatus(st uint8) bool { return st <= StatusNoRepl }

// --- encoding ---------------------------------------------------------

// appendU32/appendU64/appendBytes build payloads big-endian.
func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func appendBytes(dst, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// appendLSNs encodes a per-partition LSN vector: uint32 count, then the
// values.
func appendLSNs(dst []byte, lsns []uint64) []byte {
	dst = appendU32(dst, uint32(len(lsns)))
	for _, l := range lsns {
		dst = appendU64(dst, l)
	}
	return dst
}

// finishFrame patches the 4-byte length placeholder at base.
func finishFrame(dst []byte, base int) ([]byte, error) {
	n := len(dst) - base - 4
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[base:], uint32(n))
	return dst, nil
}

// AppendRequest appends r as a complete frame (length prefix included).
func AppendRequest(dst []byte, r Request) ([]byte, error) {
	if !validOp(r.Op) {
		return nil, ErrBadOp
	}
	base := len(dst)
	dst = appendU32(dst, 0) // length placeholder
	dst = appendU64(dst, r.ID)
	dst = append(dst, r.Op)
	switch r.Op {
	case OpGet, OpDel:
		dst = appendBytes(dst, r.Key)
	case OpPut:
		dst = appendBytes(dst, r.Key)
		dst = appendBytes(dst, r.Val)
		if r.Durable {
			dst = append(dst, 1)
		}
	case OpScan:
		dst = appendU32(dst, r.ScanMax)
		dst = appendBytes(dst, r.ScanPrefix)
	case OpReplHello:
		dst = append(dst, r.ReplRole)
		dst = appendU64(dst, r.ReplEpoch)
	case OpReplSubscribe, OpReplAck:
		dst = appendLSNs(dst, r.ReplLSNs)
	case OpReplRecord:
		dst = appendU32(dst, r.ReplPart)
		dst = appendU64(dst, r.ReplLSN)
		dst = append(dst, r.ReplKind)
		dst = appendBytes(dst, r.Key)
		dst = appendBytes(dst, r.Val)
	case OpPromote:
		dst = appendU64(dst, r.ReplEpoch)
	case OpHSet:
		dst = appendBytes(dst, r.Key)
		dst = appendBytes(dst, r.Field)
		dst = appendBytes(dst, r.Val)
	case OpHGet, OpHDel, OpSAdd, OpSRem:
		dst = appendBytes(dst, r.Key)
		dst = appendBytes(dst, r.Field)
	case OpSMembers, OpTTL, OpPersist:
		dst = appendBytes(dst, r.Key)
	case OpExpire:
		dst = appendBytes(dst, r.Key)
		dst = appendU64(dst, r.TTLMs)
	}
	return finishFrame(dst, base)
}

// AppendResponse appends r as a complete frame (length prefix included).
func AppendResponse(dst []byte, r Response) ([]byte, error) {
	if !validOp(r.Op) {
		return nil, ErrBadOp
	}
	if !validStatus(r.Status) {
		return nil, ErrBadStatus
	}
	base := len(dst)
	dst = appendU32(dst, 0) // length placeholder
	dst = appendU64(dst, r.ID)
	dst = append(dst, r.Status, r.Op)
	switch {
	case r.Status == StatusErr:
		dst = appendBytes(dst, []byte(r.Msg))
	case r.Status != StatusOK:
		// Rejections carry no body.
	case r.Op == OpGet:
		dst = appendBytes(dst, r.Val)
	case r.Op == OpScan:
		dst = appendU32(dst, uint32(len(r.Pairs)))
		for _, p := range r.Pairs {
			dst = appendBytes(dst, p.Key)
			dst = appendBytes(dst, p.Val)
		}
	case r.Op == OpStats:
		dst = appendU32(dst, uint32(len(r.Counters)))
		for _, c := range r.Counters {
			dst = appendBytes(dst, []byte(c.Name))
			dst = appendU64(dst, c.Val)
		}
	case r.Op == OpReplHello:
		dst = append(dst, r.ReplRole)
		dst = appendU64(dst, r.ReplEpoch)
		dst = appendLSNs(dst, r.ReplLSNs)
	case r.Op == OpReplRecord:
		dst = appendU32(dst, r.ReplPart)
		dst = appendU64(dst, r.ReplLSN)
		dst = append(dst, r.ReplKind)
		dst = appendBytes(dst, r.Key)
		dst = appendBytes(dst, r.Val)
	case r.Op == OpPromote:
		dst = append(dst, r.ReplRole)
		dst = appendU64(dst, r.ReplEpoch)
	case r.Op == OpHGet:
		dst = appendBytes(dst, r.Val)
	case r.Op == OpSMembers:
		dst = appendU32(dst, uint32(len(r.Members)))
		for _, m := range r.Members {
			dst = appendBytes(dst, m)
		}
	case r.Op == OpTTL:
		dst = appendU64(dst, uint64(r.TTL))
	}
	return finishFrame(dst, base)
}

// --- framing ----------------------------------------------------------

// ReadFrame reads one frame from r and returns its payload. buf, if large
// enough, is reused for the payload; pass the previous return value to
// amortize allocation. Oversized or undersized frames are rejected before
// any payload byte is read, so a malicious length cannot force a large
// allocation.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if n < minPayload {
		return nil, ErrFrameTooSmall
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// FrameBuffered reports whether r already holds the next frame whole, so
// that ReadFrame reading it cannot block.
func FrameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4)
	return r.Buffered()-4 >= int(binary.BigEndian.Uint32(hdr))
}

// --- decoding ---------------------------------------------------------

// cursor walks a payload, failing cleanly on truncation.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) u8() uint8 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 1 {
		c.err = ErrTruncated
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 4 {
		c.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 8 {
		c.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// bytes reads a length-prefixed field. The returned slice aliases the
// payload; callers that retain it across frames must copy.
func (c *cursor) bytes() []byte {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(c.b)) {
		c.err = ErrTruncated
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// lsns reads a per-partition LSN vector. Counts the remaining payload
// cannot possibly hold are rejected before allocating for them.
func (c *cursor) lsns() []uint64 {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	if uint64(n)*8 > uint64(len(c.b)) {
		c.err = ErrTruncated
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.u64()
	}
	return out
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return ErrTrailingData
	}
	return nil
}

// DecodeRequest decodes a request payload (a frame minus its length
// prefix). The returned slices alias p.
func DecodeRequest(p []byte) (Request, error) {
	if len(p) < minPayload {
		return Request{}, ErrFrameTooSmall
	}
	c := cursor{b: p}
	var r Request
	r.ID = c.u64()
	r.Op = c.u8()
	if !validOp(r.Op) {
		return Request{}, ErrBadOp
	}
	switch r.Op {
	case OpGet, OpDel:
		r.Key = c.bytes()
	case OpPut:
		r.Key = c.bytes()
		r.Val = c.bytes()
		// Optional durable-ack flag. Only the value 1 is valid — decoding
		// stays the exact inverse of encoding, which the fuzz round-trip
		// check requires.
		if c.err == nil && len(c.b) > 0 {
			if c.u8() != 1 {
				return Request{}, ErrBadFlag
			}
			r.Durable = true
		}
	case OpScan:
		r.ScanMax = c.u32()
		r.ScanPrefix = c.bytes()
	case OpReplHello:
		r.ReplRole = c.u8()
		r.ReplEpoch = c.u64()
	case OpReplSubscribe, OpReplAck:
		r.ReplLSNs = c.lsns()
	case OpReplRecord:
		r.ReplPart = c.u32()
		r.ReplLSN = c.u64()
		r.ReplKind = c.u8()
		r.Key = c.bytes()
		r.Val = c.bytes()
	case OpPromote:
		r.ReplEpoch = c.u64()
	case OpHSet:
		r.Key = c.bytes()
		r.Field = c.bytes()
		r.Val = c.bytes()
	case OpHGet, OpHDel, OpSAdd, OpSRem:
		r.Key = c.bytes()
		r.Field = c.bytes()
	case OpSMembers, OpTTL, OpPersist:
		r.Key = c.bytes()
	case OpExpire:
		r.Key = c.bytes()
		r.TTLMs = c.u64()
	}
	if err := c.done(); err != nil {
		return Request{}, err
	}
	return r, nil
}

// DecodeResponse decodes a response payload. The returned slices alias p.
func DecodeResponse(p []byte) (Response, error) {
	if len(p) < minPayload+1 {
		return Response{}, ErrFrameTooSmall
	}
	c := cursor{b: p}
	var r Response
	r.ID = c.u64()
	r.Status = c.u8()
	r.Op = c.u8()
	if !validStatus(r.Status) {
		return Response{}, ErrBadStatus
	}
	if !validOp(r.Op) {
		return Response{}, ErrBadOp
	}
	switch {
	case r.Status == StatusErr:
		r.Msg = string(c.bytes())
	case r.Status != StatusOK:
	case r.Op == OpGet:
		r.Val = c.bytes()
	case r.Op == OpScan:
		n := c.u32()
		// Each pair costs at least 8 bytes of length prefixes; reject
		// counts the remaining payload cannot possibly hold before
		// allocating for them.
		if c.err == nil && uint64(n)*8 > uint64(len(c.b)) {
			return Response{}, ErrTruncated
		}
		if c.err == nil && n > 0 {
			r.Pairs = make([]KV, 0, n)
			for i := uint32(0); i < n && c.err == nil; i++ {
				k := c.bytes()
				v := c.bytes()
				r.Pairs = append(r.Pairs, KV{Key: k, Val: v})
			}
		}
	case r.Op == OpStats:
		n := c.u32()
		if c.err == nil && uint64(n)*12 > uint64(len(c.b)) {
			return Response{}, ErrTruncated
		}
		if c.err == nil && n > 0 {
			r.Counters = make([]Counter, 0, n)
			for i := uint32(0); i < n && c.err == nil; i++ {
				name := string(c.bytes())
				v := c.u64()
				r.Counters = append(r.Counters, Counter{Name: name, Val: v})
			}
		}
	case r.Op == OpReplHello:
		r.ReplRole = c.u8()
		r.ReplEpoch = c.u64()
		r.ReplLSNs = c.lsns()
	case r.Op == OpReplRecord:
		r.ReplPart = c.u32()
		r.ReplLSN = c.u64()
		r.ReplKind = c.u8()
		r.Key = c.bytes()
		r.Val = c.bytes()
	case r.Op == OpPromote:
		r.ReplRole = c.u8()
		r.ReplEpoch = c.u64()
	case r.Op == OpHGet:
		r.Val = c.bytes()
	case r.Op == OpSMembers:
		n := c.u32()
		// Each member costs at least a 4-byte length prefix; reject counts
		// the remaining payload cannot possibly hold before allocating.
		if c.err == nil && uint64(n)*4 > uint64(len(c.b)) {
			return Response{}, ErrTruncated
		}
		if c.err == nil && n > 0 {
			r.Members = make([][]byte, 0, n)
			for i := uint32(0); i < n && c.err == nil; i++ {
				r.Members = append(r.Members, c.bytes())
			}
		}
	case r.Op == OpTTL:
		r.TTL = int64(c.u64())
	}
	if err := c.done(); err != nil {
		return Response{}, err
	}
	return r, nil
}
