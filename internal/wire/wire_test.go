package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"
)

// roundTripReq encodes r, reads it back through the framing layer and
// decodes it.
func roundTripReq(t *testing.T, r Request) Request {
	t.Helper()
	frame, err := AppendRequest(nil, r)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := DecodeRequest(payload)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return got
}

func roundTripResp(t *testing.T, r Response) Response {
	t.Helper()
	frame, err := AppendResponse(nil, r)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := DecodeResponse(payload)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpStats},
		{ID: 3, Op: OpGet, Key: []byte("k")},
		{ID: 4, Op: OpDel, Key: []byte("gone")},
		{ID: 5, Op: OpPut, Key: []byte("k"), Val: []byte("v")},
		{ID: 6, Op: OpPut, Key: []byte("k"), Val: nil},
		{ID: 7, Op: OpScan, ScanMax: 100, ScanPrefix: []byte("user:")},
		{ID: 8, Op: OpScan, ScanMax: 0, ScanPrefix: nil},
		{ID: 1<<64 - 1, Op: OpPut, Key: bytes.Repeat([]byte("K"), 4096), Val: bytes.Repeat([]byte("V"), 65536)},
	}
	for _, r := range reqs {
		got := roundTripReq(t, r)
		if got.ID != r.ID || got.Op != r.Op || !bytes.Equal(got.Key, r.Key) ||
			!bytes.Equal(got.Val, r.Val) || got.ScanMax != r.ScanMax ||
			!bytes.Equal(got.ScanPrefix, r.ScanPrefix) {
			t.Errorf("round trip mismatch: sent %+v got %+v", r, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{ID: 1, Status: StatusOK, Op: OpPing},
		{ID: 2, Status: StatusOK, Op: OpPut},
		{ID: 3, Status: StatusOK, Op: OpGet, Val: []byte("value")},
		{ID: 4, Status: StatusNotFound, Op: OpGet},
		{ID: 5, Status: StatusErr, Op: OpPut, Msg: "kv: record larger than log chunk"},
		{ID: 6, Status: StatusOverloaded, Op: OpPut},
		{ID: 7, Status: StatusClosing, Op: OpGet},
		{ID: 8, Status: StatusOK, Op: OpScan, Pairs: []KV{
			{Key: []byte("a"), Val: []byte("1")},
			{Key: []byte("b"), Val: nil},
		}},
		{ID: 9, Status: StatusOK, Op: OpScan},
		{ID: 10, Status: StatusOK, Op: OpStats, Counters: []Counter{
			{Name: "live_keys", Val: 42},
			{Name: "persists", Val: 1 << 40},
		}},
	}
	for _, r := range resps {
		got := roundTripResp(t, r)
		if got.ID != r.ID || got.Status != r.Status || got.Op != r.Op ||
			!bytes.Equal(got.Val, r.Val) || got.Msg != r.Msg {
			t.Errorf("round trip mismatch: sent %+v got %+v", r, got)
		}
		if len(got.Pairs) != len(r.Pairs) {
			t.Fatalf("pairs len: sent %d got %d", len(r.Pairs), len(got.Pairs))
		}
		for i := range r.Pairs {
			if !bytes.Equal(got.Pairs[i].Key, r.Pairs[i].Key) || !bytes.Equal(got.Pairs[i].Val, r.Pairs[i].Val) {
				t.Errorf("pair %d mismatch", i)
			}
		}
		if !reflect.DeepEqual(got.Counters, r.Counters) && !(len(got.Counters) == 0 && len(r.Counters) == 0) {
			t.Errorf("counters mismatch: sent %v got %v", r.Counters, got.Counters)
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	// Oversized length prefix is rejected without reading the payload.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: %v", err)
	}
	// Undersized.
	binary.BigEndian.PutUint32(hdr[:], 3)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil); err != ErrFrameTooSmall {
		t.Fatalf("undersized frame: %v", err)
	}
	// Truncated payload.
	binary.BigEndian.PutUint32(hdr[:], 100)
	in := append(append([]byte{}, hdr[:]...), make([]byte, 10)...)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(in)), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: %v", err)
	}
	// Clean EOF at a frame boundary surfaces as io.EOF.
	if _, err := ReadFrame(bufio.NewReader(strings.NewReader("")), nil); err != io.EOF {
		t.Fatalf("eof: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{1, 2, 3},                         // below min payload
		append(make([]byte, 8), 0),        // opcode 0
		append(make([]byte, 8), 99),       // unknown opcode
		append(make([]byte, 8), OpGet),    // missing key length
		append(make([]byte, 8), OpGet, 0), // truncated key length
		// GET whose key length points past the payload.
		append(append(make([]byte, 8), OpGet), 0xff, 0xff, 0xff, 0xff),
		// PING with trailing junk.
		append(append(make([]byte, 8), OpPing), 1, 2, 3),
	}
	for i, p := range cases {
		if _, err := DecodeRequest(p); err == nil {
			t.Errorf("case %d: garbage request decoded without error", i)
		}
	}
	respCases := [][]byte{
		append(make([]byte, 8), StatusOK),            // missing op byte
		append(make([]byte, 8), 77, OpGet),           // unknown status
		append(make([]byte, 8), StatusOK, 99),        // unknown op
		append(make([]byte, 8), StatusOK, OpGet),     // missing value
		append(make([]byte, 8), StatusErr, OpGet, 9), // truncated message length
		// SCAN claiming 2^31 pairs in a 4-byte body.
		append(append(make([]byte, 8), StatusOK, OpScan), 0x80, 0, 0, 0),
	}
	for i, p := range respCases {
		if _, err := DecodeResponse(p); err == nil {
			t.Errorf("case %d: garbage response decoded without error", i)
		}
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	frame, err := AppendRequest(nil, Request{ID: 9, Op: OpPut, Key: []byte("k"), Val: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	p, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &p[0] != &buf[:1][0] {
		t.Fatal("payload did not reuse the caller's buffer")
	}
}

// chunks is a reader that returns one chunk per Read, the way a socket
// hands over whatever has arrived.
type chunks [][]byte

func (c *chunks) Read(p []byte) (int, error) {
	if len(*c) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*c)[0])
	if (*c)[0] = (*c)[0][n:]; len((*c)[0]) == 0 {
		*c = (*c)[1:]
	}
	return n, nil
}

// FrameBuffered holds only for a next frame that is whole in the buffer:
// not for part of a header, nor for a header and part of its payload.
func TestFrameBuffered(t *testing.T) {
	frame, err := AppendRequest(nil, Request{ID: 9, Op: OpPut, Key: []byte("k"), Val: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 2, 4, len(frame) - 1, len(frame)} {
		first := append(append([]byte{}, frame...), frame[:cut]...)
		c := chunks{first, frame[cut:]}
		br := bufio.NewReader(&c)
		if _, err := ReadFrame(br, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := FrameBuffered(br), cut == len(frame); got != want {
			t.Fatalf("%d bytes of the next frame buffered: FrameBuffered %v, want %v", cut, got, want)
		}
	}
}

func TestAppendRequestRejectsOversized(t *testing.T) {
	big := make([]byte, MaxFrame)
	if _, err := AppendRequest(nil, Request{ID: 1, Op: OpPut, Key: []byte("k"), Val: big}); err != ErrFrameTooLarge {
		t.Fatalf("oversized request: %v", err)
	}
}
