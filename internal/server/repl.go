package server

import (
	"errors"

	"rntree/internal/repl"
	"rntree/internal/wire"
)

// Replication serving (DESIGN.md §13). A replica's applier connects like
// any client and speaks three verbs: REPL.HELLO (role/epoch handshake),
// REPL.SUBSCRIBE (start the stream from per-partition LSN watermarks), and
// REPL.ACK (durable watermark vectors, no response). Once subscribed, the
// connection becomes a ship stream: records ride the ordinary writer
// goroutine as unsolicited OpReplRecord responses whose IDs are a ship
// sequence, interleaving with nothing (a subscribed connection carries no
// other traffic). The handshake verbs run on the connection's reader like any
// read; acks are folded there too and take no inflight tokens — they carry
// no response, and a token could deadlock a drain.

// shipHighWater bounds the ship stream's write-buffer growth when the
// replica's TCP stalls: past it the subscriber's Run goroutine waits for
// the writer to drain instead of queueing more frames. Half of maxBacklog,
// so the stream's own backlog plus a record does not park the reader that
// folds the replica's acks.
const shipHighWater = maxBacklog / 2

var errShipConnDead = errors.New("server: replication connection dead")

// handleReplHello reports this node's role, epoch and LSN vector.
func (cn *conn) handleReplHello(req wire.Request, resp *wire.Response) {
	node := cn.s.repl
	if node == nil {
		resp.Status = wire.StatusNoRepl
		return
	}
	resp.Status = wire.StatusOK
	resp.ReplRole = node.Role()
	resp.ReplEpoch = node.Epoch()
	resp.ReplLSNs = cn.s.st.ReplLSNs()
}

// handleReplSubscribe registers this connection as a replica subscriber and
// returns the subscriber to start (the caller sends its answer first, so the
// OK frame precedes every shipped record on the wire).
func (cn *conn) handleReplSubscribe(req wire.Request, resp *wire.Response) *repl.Subscriber {
	node := cn.s.repl
	if node == nil {
		resp.Status = wire.StatusNoRepl
		return nil
	}
	if node.Role() != repl.Primary {
		resp.Status, resp.Msg = wire.StatusErr, "server: not a primary"
		return nil
	}
	cn.s.mu.Lock()
	draining := cn.s.draining
	cn.s.mu.Unlock()
	if draining {
		resp.Status = wire.StatusClosing
		return nil
	}
	cn.subMu.Lock()
	defer cn.subMu.Unlock()
	if cn.sub.Load() != nil {
		resp.Status, resp.Msg = wire.StatusErr, "server: already subscribed"
		return nil
	}
	sub, err := node.Subscribe(req.ReplLSNs, cn.sendRecord)
	if err != nil {
		resp.Status, resp.Msg = wire.StatusErr, err.Error()
		return nil
	}
	cn.sub.Store(sub)
	resp.Status = wire.StatusOK
	return sub
}

// handlePromote promotes this node to primary at an epoch superseding the
// client's last known one. Valid on any role (retrying a promote against
// the node that already won is idempotent).
func (cn *conn) handlePromote(req wire.Request, resp *wire.Response) {
	node := cn.s.repl
	if node == nil {
		resp.Status = wire.StatusNoRepl
		return
	}
	epoch, err := node.Promote(req.ReplEpoch)
	if err != nil {
		resp.Status, resp.Msg = wire.StatusErr, err.Error()
		return
	}
	resp.Status = wire.StatusOK
	resp.ReplRole = node.Role()
	resp.ReplEpoch = epoch
}

// readOnly reports whether replication currently forbids local mutations:
// replica role, or a fenced primary (repl.Node.Fenced). Fence rejections are
// counted (repl_fence_rejects) as the operator's alarm signal.
func (s *Server) readOnly() bool {
	node := s.repl
	if node == nil {
		return false
	}
	if node.Role() != repl.Primary {
		return true
	}
	if node.Fenced() {
		s.fenceRejects.Add(1)
		return true
	}
	return false
}

// sendRecord is the subscriber's transport: encode one record as an
// unsolicited OpReplRecord response into shipBuf and queue it on the writer
// (Send copies it out, so the buffer serves the next record). It runs on
// the subscriber's Run goroutine, so blocking here (the high-water wait, woken
// by the writer's progress) is the stream's backpressure, not anyone else's.
func (cn *conn) sendRecord(rec repl.Record) error {
	if !cn.w.AwaitBacklog(shipHighWater, nil) {
		return errShipConnDead
	}
	cn.shipSeq++
	frame, err := wire.AppendResponse(cn.shipBuf[:0], wire.Response{
		ID:       cn.shipSeq,
		Status:   wire.StatusOK,
		Op:       wire.OpReplRecord,
		ReplPart: uint32(rec.Part),
		ReplLSN:  rec.LSN,
		ReplKind: rec.Kind,
		Key:      rec.Key,
		Val:      rec.Val,
	})
	if err != nil {
		return err
	}
	cn.shipBuf = frame
	if !cn.w.Send(frame) {
		return errShipConnDead
	}
	return nil
}
