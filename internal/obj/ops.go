package obj

import (
	"encoding/binary"

	"rntree/kv"
)

// Typed operations. Every write of a name is one kv step on the name's
// partition (write); reads are lock-free against kv (expiry masking is a
// DRAM map lookup) and see a composite all-or-nothing, because the header
// record that commits it publishes after every record it lists.

// write runs one write of name as a single kv.Store.Update step. A name whose
// TTL has lapsed is reaped inside the same step, before fn runs: fn then
// finds the object gone (reaped), and the expiry record's delete is queued
// after whatever fn queued, so the name stays masked until the step's last
// publish. The expiry index forgets the name once that commits, still under
// the lock — and after kv has dropped the reaped flat key from its hot-key
// cache, which it does before any commit returns, so an unmasked name is
// never served its deleted value. write reports whether the step reaped.
func (o *Store) write(name []byte, fn func(tx *kv.Tx, reaped bool) error) (reaped bool, err error) {
	err = o.st.Update(name, func(tx *kv.Tx) error {
		r, err := o.reapRecords(tx, name)
		if err != nil {
			return err
		}
		err = fn(tx, r)
		if !r {
			return err
		}
		if cerr := o.dropExpiry(tx, name); cerr != nil {
			return cerr
		}
		reaped = true
		return err
	})
	if reaped {
		o.reaps.Add(1)
	}
	return reaped, err
}

// dropExpiry queues the delete of name's expiry record, commits it with what
// the step queued before it, and then forgets name's deadline.
func (o *Store) dropExpiry(tx *kv.Tx, name []byte) error {
	tx.Delete(expiryKey(name))
	if err := tx.Commit(); err != nil {
		return err
	}
	o.clearDeadline(name)
	return nil
}

// open reads the encoded header hv of name (header key hk) for a typed write
// of type typ; reaped says the step has just reaped the name, whose object is
// then gone. A first write (hv == nil) starts from nothing — after dropping
// an unexpired expiry record still under the absent name (the tail of a
// removal cut short after its header delete), so the new object does not
// inherit the old one's deadline.
func (o *Store) open(tx *kv.Tx, name, hk []byte, typ byte, reaped bool) (hv []byte, err error) {
	if reaped {
		return nil, nil
	}
	hv, err = o.st.Get(hk)
	switch {
	case err == nil:
		return hv, typed(hv, typ)
	case o.hasDeadline(name) && !o.st.Has(name):
		return nil, o.dropExpiry(tx, name)
	}
	return nil, nil
}

// HSet writes field=val on hash name, creating the object if absent. A new
// field is two records — the field, then the header that lists it, which is
// the commit point; overwriting a listed field is one.
func (o *Store) HSet(name, field, val []byte) error {
	if err := checkName(name, field); err != nil {
		return err
	}
	fresh := false
	_, err := o.write(name, func(tx *kv.Tx, reaped bool) error {
		hk := headerKey(name)
		hv, err := o.open(tx, name, hk, TypeHash, reaped)
		if err != nil {
			return err
		}
		tx.Put(fieldKey(name, field), val)
		if fresh = !headerLists(hv, TypeHash, field); fresh {
			tx.Put(hk, withElem(hv, TypeHash, field))
		}
		return nil
	})
	if err != nil && fresh {
		o.intentsUndone.Add(1)
	}
	return err
}

// HGet reads field from hash name. The header is read first: a record it
// does not list is not part of the object, whatever is on media.
func (o *Store) HGet(name, field []byte) ([]byte, error) {
	if err := checkName(name, field); err != nil {
		return nil, err
	}
	if o.Expired(name) {
		return nil, kv.ErrNotFound
	}
	hv, err := o.st.Get(headerKey(name))
	if err != nil {
		return nil, err
	}
	if !headerLists(hv, TypeHash, field) {
		return nil, kv.ErrNotFound
	}
	return o.st.Get(fieldKey(name, field))
}

// HDel removes field from hash name; deleting the last field removes the
// object (and its TTL) entirely.
func (o *Store) HDel(name, field []byte) error { return o.removeElem(name, field, TypeHash) }

// SAdd adds member to set name, creating the object if absent: one header
// write. A repeated add is a no-op.
func (o *Store) SAdd(name, member []byte) error {
	if err := checkName(name, member); err != nil {
		return err
	}
	_, err := o.write(name, func(tx *kv.Tx, reaped bool) error {
		hk := headerKey(name)
		hv, err := o.open(tx, name, hk, TypeSet, reaped)
		if err != nil || headerLists(hv, TypeSet, member) {
			return err
		}
		tx.Put(hk, withElem(hv, TypeSet, member))
		return nil
	})
	return err
}

// SRem removes member from set name; removing the last member removes the
// object entirely.
func (o *Store) SRem(name, member []byte) error { return o.removeElem(name, member, TypeSet) }

// SMembers lists set name's members. An absent (or expired) set is an
// empty list, Redis-style.
func (o *Store) SMembers(name []byte) ([][]byte, error) { return o.list(name, TypeSet) }

// HKeys lists hash name's field names, SMembers-style: an absent (or
// expired) hash is an empty list.
func (o *Store) HKeys(name []byte) ([][]byte, error) { return o.list(name, TypeHash) }

func (o *Store) list(name []byte, typ byte) ([][]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	if o.Expired(name) {
		return nil, nil
	}
	hv, err := o.st.Get(headerKey(name))
	if err != nil {
		return nil, nil // absent
	}
	if err := typed(hv, typ); err != nil {
		return nil, err
	}
	// The elements alias the one buffer kv.Get copied the header into.
	return elems(hv)
}

// removeElem is the shared HDel/SRem composite. The header record commits
// it — rewritten without elem, or deleted when elem was the last — and the
// field record (hashes only) and an object-only TTL go after it.
func (o *Store) removeElem(name, elem []byte, typ byte) error {
	if err := checkName(name, elem); err != nil {
		return err
	}
	_, err := o.write(name, func(tx *kv.Tx, reaped bool) error {
		hk := headerKey(name)
		hv, err := o.open(tx, name, hk, typ, reaped)
		if err != nil {
			return err
		}
		pos, end := elemAt(hv, typ, elem)
		if pos < 0 {
			return kv.ErrNotFound
		}
		rest := withoutElem(hv, pos, end)
		if rest != nil {
			tx.Put(hk, rest)
		} else {
			tx.Delete(hk)
		}
		if typ == TypeHash {
			tx.Delete(fieldKey(name, elem))
		}
		if rest == nil && o.hasDeadline(name) && !o.st.Has(name) {
			// The TTL belonged to the object alone (no flat key shares the
			// name): it goes with it.
			return o.dropExpiry(tx, name)
		}
		return nil
	})
	return err
}

// exists reports whether name is visible as a flat key or an object.
func (o *Store) exists(name []byte) bool { return o.st.Has(name) || o.st.Has(headerKey(name)) }

// Expire sets name's TTL to ttl milliseconds from now. name may be a flat
// key or an object; an absent name is an error, and so is a TTL whose
// deadline would lie past maxDeadline (ErrBadTTL, leaving name as it was).
// The deadline persists as a single expiry record, so the update is atomic on
// its own, and the expiry index takes it once that record commits.
func (o *Store) Expire(name []byte, ttlMs uint64) error {
	if err := checkName(name); err != nil {
		return err
	}
	_, err := o.write(name, func(tx *kv.Tx, reaped bool) error {
		if reaped || !o.exists(name) {
			return kv.ErrNotFound
		}
		d := o.now() + int64(ttlMs)
		if ttlMs > maxDeadline || d > maxDeadline {
			return ErrBadTTL
		}
		tx.Put(expiryKey(name), binary.LittleEndian.AppendUint64(nil, uint64(d)))
		if err := tx.Commit(); err != nil {
			return err
		}
		o.setDeadline(name, d)
		return nil
	})
	return err
}

// TTL returns name's remaining time-to-live in milliseconds, -1 when the
// name exists without a TTL, and ErrNotFound when it is absent or expired.
func (o *Store) TTL(name []byte) (int64, error) {
	if err := checkName(name); err != nil {
		return 0, err
	}
	d, ok := o.deadline(name)
	rem := d - o.now()
	if ok && rem <= 0 {
		o.lazyExpiries.Add(1)
		return 0, kv.ErrNotFound
	}
	// A deadline counts only while its name exists: an expiry record that
	// outlived its object is garbage, not a TTL.
	if !o.exists(name) {
		return 0, kv.ErrNotFound
	}
	if !ok {
		return -1, nil
	}
	return rem, nil
}

// Persist removes name's TTL, keeping the value. A name without a TTL is a
// no-op; an absent or expired name is an error.
func (o *Store) Persist(name []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	_, err := o.write(name, func(tx *kv.Tx, reaped bool) error {
		switch {
		case reaped || !o.exists(name):
			return kv.ErrNotFound
		case !o.hasDeadline(name):
			return nil
		}
		return o.dropExpiry(tx, name)
	})
	return err
}
