package obj

import (
	"encoding/binary"
	"fmt"

	"rntree/kv"
)

// Recovery is a sweep, not a log replay (DESIGN.md §15.2). Every composite
// is ordered around its one header write, so what a crash or a failover can
// leave behind is only garbage the API already hides: a field record its
// header does not list (an HSET whose header never published, an HDEL whose
// field delete never did) and an expiry record under a name with neither
// flat key nor header (a last-element removal or a reap of a flat key cut
// short before its final delete). Attach (primary mode) and Activate find
// both in one Range and delete them.

// image is what that Range collects.
type image struct {
	expiry  map[string]int64  // name → deadline, every expiry record
	headers map[string][]byte // name → encoded header (sweep only)
	fields  [][]byte          // field-record keys (sweep only)
}

// scan reads the namespace once. sweep=false (a replica's Attach) collects
// only the expiry records.
func (o *Store) scan(sweep bool) image {
	im := image{expiry: map[string]int64{}, headers: map[string][]byte{}}
	o.st.Range(func(key, value []byte) bool {
		tag, name, ok := ParseInternalKey(key)
		switch {
		case !ok:
		case tag == tagExpiry && len(value) == 8:
			im.expiry[string(name)] = int64(binary.LittleEndian.Uint64(value))
		case !sweep:
		case tag == tagHeader:
			im.headers[string(name)] = value
		case tag == tagField:
			im.fields = append(im.fields, key)
		}
		return true
	})
	return im
}

// sweep deletes what scan found unlisted, each delete a step of its own on
// the name's partition that re-checks, under the lock, what the Range saw:
// Activate runs with the node's role already flipped, so a write on another
// connection may have listed that field, or rebuilt that name, since.
func (o *Store) sweep(im image) error {
	for _, k := range im.fields {
		_, name, _ := ParseInternalKey(k)
		field := k[4+len(name):]
		if headerLists(im.headers[string(name)], TypeHash, field) {
			continue
		}
		err := o.st.Update(name, func(tx *kv.Tx) error {
			if hv, _ := o.st.Get(headerKey(name)); !headerLists(hv, TypeHash, field) {
				tx.Delete(k)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("obj: sweeping %q: %w", k, err)
		}
	}
	for n := range im.expiry {
		name := []byte(n)
		if _, ok := im.headers[n]; ok || o.st.Has(name) {
			continue
		}
		err := o.st.Update(name, func(tx *kv.Tx) error {
			if o.exists(name) {
				return nil
			}
			return o.dropExpiry(tx, name)
		})
		if err != nil {
			return fmt.Errorf("obj: sweeping expiry of %q: %w", name, err)
		}
	}
	return nil
}
