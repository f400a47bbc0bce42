package obj

import (
	"encoding/binary"
	"fmt"

	"rntree/kv"
)

// Recovery is a sweep, not a log replay (DESIGN.md §15.2). Every composite
// is ordered around its one header write, so what a crash, a failed write or
// a failover can leave behind is only garbage the API already hides: a field
// record its header does not list (an HSET that never reached its header, an
// HDEL that never reached its field delete) and an expiry record under a
// name with neither flat key nor header (a last-element removal or a reap of
// a flat key cut short before its final delete). Attach (primary mode) and
// Activate find both in one Range and delete them.

// image is what that Range collects.
type image struct {
	expiry  map[string]int64  // name → deadline, every expiry record
	headers map[string][]byte // name → encoded header (sweep only)
	elems   [][]byte          // field-record keys, 's' keys of older images (sweep only)
}

// scan reads the namespace once. sweep=false (a replica's Attach) collects
// only the expiry records.
func (o *Store) scan(sweep bool) (image, error) {
	im := image{expiry: map[string]int64{}, headers: map[string][]byte{}}
	var err error
	o.st.Range(func(key, value []byte) bool {
		if len(key) < 2 || key[0] != NSByte {
			return true
		}
		switch key[1] {
		case tagExpiry:
			if len(value) == 8 {
				im.expiry[string(key[2:])] = int64(binary.LittleEndian.Uint64(value))
			}
		case tagHeader:
			if sweep {
				im.headers[string(key[2:])] = value
			}
		case tagField, oldTagMember:
			if sweep {
				im.elems = append(im.elems, key)
			}
		case oldTagLog:
			err = fmt.Errorf("%w: %q", ErrOldImage, key)
			return false
		}
		return true
	})
	return im, err
}

// sweep deletes what scan found unlisted. Each delete happens under its
// name's stripe lock and only after re-reading the header there: Activate
// runs with the node's role already flipped, so an HSET on another
// connection may sit between its field write and its header write — the
// Range saw that field unlisted, and an unlocked sweep would delete the
// record of an add that is about to commit. One stripe lock at a time,
// never two.
func (o *Store) sweep(im image) error {
	for _, k := range im.elems {
		_, name, ok := ParseInternalKey(k)
		if !ok {
			continue
		}
		elem := k[4+len(name):]
		if k[1] == tagField && headerLists(im.headers[string(name)], TypeHash, elem) {
			continue
		}
		mu := o.lockFor(name)
		mu.Lock()
		err := o.dropUnlisted(k, name, elem)
		mu.Unlock()
		if err != nil {
			return fmt.Errorf("obj: sweeping %q: %w", k, err)
		}
	}
	for n := range im.expiry {
		name := []byte(n)
		if _, ok := im.headers[n]; ok || o.st.Has(name) {
			continue
		}
		mu := o.lockFor(name)
		mu.Lock()
		var err error
		if !o.exists(name) {
			err = o.dropExpiry(name)
		}
		mu.Unlock()
		if err != nil {
			return fmt.Errorf("obj: sweeping expiry of %q: %w", name, err)
		}
	}
	return nil
}

// dropUnlisted deletes element record k of object name unless the header,
// as it stands now, lists it. Caller holds name's stripe lock. A set member
// record is never listed: nothing reads those.
func (o *Store) dropUnlisted(k, name, elem []byte) error {
	if k[1] == tagField {
		hv, err := o.st.Get(headerKey(name))
		if err != nil && err != kv.ErrNotFound {
			return err
		}
		if headerLists(hv, TypeHash, elem) {
			return nil
		}
	}
	return o.del(k)
}
