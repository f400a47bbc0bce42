package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rntree/internal/sync2"
)

// Failover is a client over a primary/replica pair (or any fixed set of
// candidate servers): it tracks which node is primary, routes every call
// there, and on connection loss or a read-only rejection elects a new
// primary — preferring a live one, promoting a replica otherwise — and
// retries the call once.
//
// Epoch discipline prevents split-brain flapping: the wrapper remembers the
// highest primary epoch it has acted on and refuses to adopt a node whose
// epoch is lower (a deposed primary that came back). Promotions pass that
// epoch as the floor, so the new primary always supersedes the old one.
//
// Semantics under failover are at-least-once for mutations: a PUT whose
// connection died after the server committed but before the response
// arrived is retried against the new primary and applied again. PUT and
// DELETE are idempotent per key, so the visible end state matches a single
// application; callers needing exactly-once must layer their own sequence
// numbers on top.
type Failover struct {
	opts  Options
	addrs []string

	// mu serializes reconnect rounds; the wrapped client's own locks are
	// always acquired inside it:
	//
	//rnvet:lockorder client.Failover.mu<client.Client.connMu
	//rnvet:lockorder client.Failover.mu<wire.Writer.mu
	//rnvet:lockorder client.Failover.mu<client.Client.pendMu
	mu    sync.Mutex
	c     *Client
	cur   int    // index into addrs of the node c is connected to
	epoch uint64 // highest primary epoch acted on (0 until learned)
}

// failoverRounds is how many passes over the candidate list one failover
// makes before giving up.
const failoverRounds = 8

// DialFailover connects to the first usable node and locates the primary
// among addrs. A node without replication enabled counts as a primary (so a
// single plain server works unchanged); replicas are only promoted if no
// live primary is found.
func DialFailover(addrs []string, opts Options) (*Failover, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: no addresses")
	}
	fo := &Failover{
		opts:  opts,
		addrs: append([]string(nil), addrs...),
		cur:   -1,
	}
	if err := fo.electLocked(false); err != nil {
		return nil, err
	}
	return fo, nil
}

// Addr returns the address of the node currently treated as primary.
func (fo *Failover) Addr() string {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return fo.addrs[fo.cur]
}

// Epoch returns the highest primary epoch observed (0 when the cluster has
// replication disabled).
func (fo *Failover) Epoch() uint64 {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return fo.epoch
}

// Close releases the underlying connection.
func (fo *Failover) Close() error {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	if fo.c == nil {
		return ErrClosed
	}
	err := fo.c.Close()
	fo.c = nil
	return err
}

// retryable reports whether err means "this node is gone or no longer
// primary" — the cases a failover can cure. Timeouts are excluded: the
// server may just be slow, and failing over on them would promote
// spuriously.
func retryable(err error) bool {
	return errors.Is(err, ErrConnLost) || errors.Is(err, ErrClosing) ||
		errors.Is(err, ErrReadOnly) || errors.Is(err, ErrDial)
}

// call runs op against the current primary, failing over and retrying when
// the node is unreachable or rejects us as read-only. ErrReadOnly in
// particular is retried with backoff rather than returned after one
// failover: a FENCED primary answers elections as a primary (it holds the
// highest epoch) yet rejects writes until a replica resubscribes — a
// transient the cluster cures on its own, which a terminal error would
// wrongly surface to the caller. Attempts are bounded by failoverRounds;
// a cluster that stays write-rejecting that long returns the last error.
func (fo *Failover) call(op func(c *Client) error) error {
	fo.mu.Lock()
	c := fo.c
	fo.mu.Unlock()
	if c == nil {
		return ErrClosed
	}
	err := op(c)
	for attempt := 0; err != nil && attempt < failoverRounds; attempt++ {
		if errors.Is(err, ErrClosed) {
			// op ran against a client a concurrent election had already
			// retired (elections Close the connection they replace). Pick
			// up the replacement and retry; a Close()d wrapper has none.
			fo.mu.Lock()
			nc := fo.c
			fo.mu.Unlock()
			if nc == nil || nc == c {
				return err
			}
			c = nc
			err = op(c)
			continue
		}
		if !retryable(err) {
			return err
		}
		if attempt > 0 {
			// Re-electing instantly would re-adopt the same still-fenced
			// (or still-draining) node and spin through the budget in
			// microseconds; pace the retries like election rounds.
			sleepRound(attempt - 1)
		}
		if ferr := fo.failover(c); ferr != nil {
			return fmt.Errorf("%w (failover: %v)", err, ferr)
		}
		fo.mu.Lock()
		c = fo.c
		fo.mu.Unlock()
		if c == nil {
			return ErrClosed
		}
		err = op(c)
	}
	return err
}

// failover replaces prev with a newly elected primary. Concurrent callers
// that lost on the same connection piggyback on the first election.
func (fo *Failover) failover(prev *Client) error {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	if fo.c == nil {
		return ErrClosed
	}
	if fo.c != prev {
		return nil // someone else already failed over
	}
	return fo.electLocked(true)
}

// electLocked finds a primary among addrs and swaps the connection to it.
// With promote set, a replica is promoted when no acceptable primary
// answers in a round — the cutover path; without it (initial dial) only an
// existing primary (or a replication-less server) is accepted, so merely
// constructing a client never deposes anyone.
func (fo *Failover) electLocked(promote bool) error {
	if fo.c != nil {
		fo.c.Close()
		fo.c = nil
	}
	probeOpts := fo.opts
	probeOpts.ReconnectAttempts = 1
	var lastErr error
	for round := 0; round < failoverRounds; round++ {
		var bestReplica *Client
		bestIdx, bestEpoch := -1, uint64(0)
		for i, addr := range fo.addrs {
			c, err := Dial(addr, probeOpts)
			if err != nil {
				lastErr = err
				continue
			}
			role, epoch, _, err := c.ReplState()
			switch {
			case errors.Is(err, ErrNoRepl):
				// Plain server: it is the primary by construction.
				fo.adoptLocked(c, i, fo.epoch)
				if bestReplica != nil {
					bestReplica.Close()
				}
				return nil
			case err != nil:
				lastErr = err
				c.Close()
				continue
			case role == RolePrimary && epoch >= fo.epoch:
				fo.adoptLocked(c, i, epoch)
				if bestReplica != nil {
					bestReplica.Close()
				}
				return nil
			case role == RolePrimary:
				// Stale primary (epoch < ours): deposed node that came
				// back. Adopting it would fork history; skip it.
				lastErr = fmt.Errorf("client: stale primary %s: epoch %d < %d", addr, epoch, fo.epoch)
				c.Close()
			case promote && (bestReplica == nil || epoch >= bestEpoch):
				if bestReplica != nil {
					bestReplica.Close()
				}
				bestReplica, bestIdx, bestEpoch = c, i, epoch
			default:
				c.Close()
			}
		}
		if bestReplica != nil {
			epoch, err := bestReplica.Promote(fo.epoch)
			if err == nil {
				fo.adoptLocked(bestReplica, bestIdx, epoch)
				return nil
			}
			lastErr = err
			bestReplica.Close()
		}
		sleepRound(round)
	}
	if lastErr == nil {
		lastErr = errors.New("client: no primary found")
	}
	return lastErr
}

func (fo *Failover) adoptLocked(c *Client, idx int, epoch uint64) {
	fo.c, fo.cur = c, idx
	if epoch > fo.epoch {
		fo.epoch = epoch
	}
}

// sleepRound waits round's slot of a jittered exponential schedule (10ms
// doubling to 500ms) so several clients racing through a dead cluster don't
// probe in lockstep. It holds no lock of its own: a caller outside fo.mu is
// not serialized behind a sleeping one.
func sleepRound(round int) {
	time.Sleep(sync2.RetryDelay(round, 10*time.Millisecond, 500*time.Millisecond))
}

// Ping checks liveness of the current primary.
func (fo *Failover) Ping() error {
	return fo.call(func(c *Client) error { return c.Ping() })
}

// Get fetches the value for key from the primary.
func (fo *Failover) Get(key []byte) (val []byte, err error) {
	err = fo.call(func(c *Client) error {
		val, err = c.Get(key)
		return err
	})
	return val, err
}

// Put stores key → value on the primary (at-least-once under failover).
func (fo *Failover) Put(key, value []byte) error {
	return fo.call(func(c *Client) error { return c.Put(key, value) })
}

// PutDurable stores key → value and waits for replica durability; a nil
// return means the write survives the loss of either node, even if a
// failover happened mid-call.
func (fo *Failover) PutDurable(key, value []byte) error {
	return fo.call(func(c *Client) error { return c.PutDurable(key, value) })
}

// Delete removes key on the primary (at-least-once under failover).
func (fo *Failover) Delete(key []byte) error {
	return fo.call(func(c *Client) error { return c.Delete(key) })
}

// Scan returns up to max pairs with the given prefix from the primary.
func (fo *Failover) Scan(prefix []byte, max int) (kvs []KV, err error) {
	err = fo.call(func(c *Client) error {
		kvs, err = c.Scan(prefix, max)
		return err
	})
	return kvs, err
}

// HSet stores field → value in the hash named key on the primary
// (at-least-once under failover; HSET is idempotent per field).
func (fo *Failover) HSet(key, field, value []byte) error {
	return fo.call(func(c *Client) error { return c.HSet(key, field, value) })
}

// HGet fetches field of the hash named key from the primary.
func (fo *Failover) HGet(key, field []byte) (val []byte, err error) {
	err = fo.call(func(c *Client) error {
		val, err = c.HGet(key, field)
		return err
	})
	return val, err
}

// HDel removes field from the hash named key on the primary.
func (fo *Failover) HDel(key, field []byte) error {
	return fo.call(func(c *Client) error { return c.HDel(key, field) })
}

// SAdd adds member to the set named key on the primary.
func (fo *Failover) SAdd(key, member []byte) error {
	return fo.call(func(c *Client) error { return c.SAdd(key, member) })
}

// SRem removes member from the set named key on the primary.
func (fo *Failover) SRem(key, member []byte) error {
	return fo.call(func(c *Client) error { return c.SRem(key, member) })
}

// SMembers fetches the members of the set named key from the primary.
func (fo *Failover) SMembers(key []byte) (members [][]byte, err error) {
	err = fo.call(func(c *Client) error {
		members, err = c.SMembers(key)
		return err
	})
	return members, err
}

// Expire sets key's TTL on the primary.
func (fo *Failover) Expire(key []byte, ttlMs uint64) error {
	return fo.call(func(c *Client) error { return c.Expire(key, ttlMs) })
}

// TTL fetches key's remaining TTL from the primary.
func (fo *Failover) TTL(key []byte) (ttl int64, err error) {
	err = fo.call(func(c *Client) error {
		ttl, err = c.TTL(key)
		return err
	})
	return ttl, err
}

// Persist removes key's TTL on the primary.
func (fo *Failover) Persist(key []byte) error {
	return fo.call(func(c *Client) error { return c.Persist(key) })
}

// Stats fetches the primary's counters.
func (fo *Failover) Stats() (m map[string]uint64, err error) {
	err = fo.call(func(c *Client) error {
		m, err = c.Stats()
		return err
	})
	return m, err
}
