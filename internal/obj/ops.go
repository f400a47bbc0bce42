package obj

import (
	"encoding/binary"

	"rntree/kv"
)

// Typed operations. Writes stripe-lock on the object name so a composite
// read-modify-write of the header cannot interleave with another writer or
// a reap of the same object; reads are lock-free against kv (expiry masking
// is a DRAM map lookup) and see a composite all-or-nothing, because the
// header write that commits it is one kv record.

// del deletes key; an absent key is fine — the step already ran (a re-run
// reap, a cleanup the sweep got to first).
func (o *Store) del(key []byte) error {
	if err := o.st.Delete(key); err != nil && err != kv.ErrNotFound {
		return err
	}
	return nil
}

// dropExpiry removes name's expiry record and its DRAM deadline.
func (o *Store) dropExpiry(name []byte) error {
	if err := o.del(expiryKey(name)); err != nil {
		return err
	}
	o.clearDeadline(name)
	return nil
}

// open is the head of every typed write, under name's stripe lock: reap the
// expired corpse if there is one, then read the header. A first write
// (found=false) starts from an empty object of type typ — after dropping an
// unexpired expiry record still under the absent name (the tail of a removal
// cut short after its header delete), so the new object does not inherit the
// old one's deadline.
func (o *Store) open(name []byte, typ byte) (h header, found bool, err error) {
	if !o.alive(name) {
		if err := o.reapLocked(name); err != nil {
			return h, false, err
		}
	}
	h, found, err = o.readHeader(name)
	switch {
	case err != nil:
		return h, false, err
	case found && h.typ != typ:
		return h, true, ErrWrongType
	case found:
		return h, true, nil
	}
	if o.hasDeadline(name) && !o.st.Has(name) {
		if err := o.dropExpiry(name); err != nil {
			return h, false, err
		}
	}
	return header{typ: typ}, false, nil
}

// HSet writes field=val on hash name, creating the object if absent. A new
// field is two commits — the field record, then the header that lists it,
// which is the commit point; overwriting a listed field is one.
func (o *Store) HSet(name, field, val []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	if err := checkName(field); err != nil {
		return err
	}
	mu := o.lockFor(name)
	mu.Lock()
	defer mu.Unlock()
	h, _, err := o.open(name, TypeHash)
	if err != nil {
		return err
	}
	fk := fieldKey(name, field)
	listed := h.index(field) >= 0
	if err := o.st.Put(fk, val); err != nil || listed {
		// Overwriting a listed field leaves the header alone, so that one
		// record is the whole update.
		return err
	}
	h.elems = append(h.elems, field)
	if err := o.st.Put(headerKey(name), h.encode()); err != nil {
		// The field never got listed, so no reader can have seen it. Take
		// the record back; if that fails too it stays invisible garbage
		// for the sweep, and err is the failure the caller must hear about.
		_ = o.st.Delete(fk)
		o.intentsUndone.Add(1)
		return err
	}
	return nil
}

// HGet reads field from hash name. The header is read first: a record it
// does not list is not part of the object, whatever is on media.
func (o *Store) HGet(name, field []byte) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	if err := checkName(field); err != nil {
		return nil, err
	}
	if !o.alive(name) {
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
func (o *Store) HDel(name, field []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	if err := checkName(field); err != nil {
		return err
	}
	return o.removeElem(name, field, TypeHash)
}

// SAdd adds member to set name, creating the object if absent: one header
// write. A repeated add is a no-op.
func (o *Store) SAdd(name, member []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	if err := checkName(member); err != nil {
		return err
	}
	mu := o.lockFor(name)
	mu.Lock()
	defer mu.Unlock()
	h, _, err := o.open(name, TypeSet)
	if err != nil || h.index(member) >= 0 {
		return err
	}
	h.elems = append(h.elems, member)
	return o.st.Put(headerKey(name), h.encode())
}

// SRem removes member from set name; removing the last member removes the
// object entirely.
func (o *Store) SRem(name, member []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	if err := checkName(member); err != nil {
		return err
	}
	return o.removeElem(name, member, TypeSet)
}

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
	if !o.alive(name) {
		return nil, nil
	}
	h, found, err := o.readHeader(name)
	if err != nil || !found {
		return nil, err
	}
	if h.typ != typ {
		return nil, ErrWrongType
	}
	// The elements alias the one buffer kv.Get copied the header into.
	return h.elems, nil
}

// removeElem is the shared HDel/SRem composite. The header write commits
// it — rewritten without elem, or deleted when elem was the last — and the
// field record (hashes only) and an object-only TTL go after it: an error
// from those trailing deletes reports a removal that has already taken
// effect and left garbage for the sweep.
func (o *Store) removeElem(name, elem []byte, typ byte) error {
	mu := o.lockFor(name)
	mu.Lock()
	defer mu.Unlock()
	h, found, err := o.open(name, typ)
	if err != nil {
		return err
	}
	i := h.index(elem)
	if !found || i < 0 {
		return kv.ErrNotFound
	}
	h.elems = append(h.elems[:i], h.elems[i+1:]...)
	if len(h.elems) > 0 {
		err = o.st.Put(headerKey(name), h.encode())
	} else {
		err = o.st.Delete(headerKey(name))
	}
	if err != nil {
		return err
	}
	if typ == TypeHash {
		if err := o.del(fieldKey(name, elem)); err != nil {
			return err
		}
	}
	if len(h.elems) == 0 && o.hasDeadline(name) && !o.st.Has(name) {
		// The TTL belonged to the object alone (no flat key shares the
		// name): it goes with it.
		return o.dropExpiry(name)
	}
	return nil
}

// exists reports whether name is visible as a flat key or an object.
func (o *Store) exists(name []byte) bool {
	if o.st.Has(name) {
		return true
	}
	return o.st.Has(headerKey(name))
}

// Expire sets name's TTL to ttl milliseconds from now. name may be a flat
// key or an object; an absent name is an error. The deadline persists as a
// single expiry record, so the update is atomic on its own.
func (o *Store) Expire(name []byte, ttlMs uint64) error {
	if err := checkName(name); err != nil {
		return err
	}
	if IsInternalKey(name) {
		return ErrReserved
	}
	mu := o.lockFor(name)
	mu.Lock()
	defer mu.Unlock()
	if !o.alive(name) {
		if err := o.reapLocked(name); err != nil {
			return err
		}
		return kv.ErrNotFound
	}
	if !o.exists(name) {
		return kv.ErrNotFound
	}
	d := o.opts.Clock() + int64(ttlMs)
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], uint64(d))
	if err := o.st.Put(expiryKey(name), v[:]); err != nil {
		return err
	}
	o.setDeadline(name, d)
	return nil
}

// TTL returns name's remaining time-to-live in milliseconds, -1 when the
// name exists without a TTL, and ErrNotFound when it is absent or expired.
func (o *Store) TTL(name []byte) (int64, error) {
	if err := checkName(name); err != nil {
		return 0, err
	}
	o.mu.RLock()
	d, ok := o.exp[string(name)]
	o.mu.RUnlock()
	rem := d - o.opts.Clock()
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
	mu := o.lockFor(name)
	mu.Lock()
	defer mu.Unlock()
	if !o.alive(name) {
		if err := o.reapLocked(name); err != nil {
			return err
		}
		return kv.ErrNotFound
	}
	if !o.exists(name) {
		return kv.ErrNotFound
	}
	if !o.hasDeadline(name) {
		return nil
	}
	return o.dropExpiry(name)
}
