package rtlil

import "bytes"

// recordHash is a hash.Hash that keeps the bytes written to it, so tests
// can compare the canonical stream itself rather than its digest.
type recordHash struct{ bytes.Buffer }

func (*recordHash) Sum(b []byte) []byte { return b }
func (*recordHash) Size() int           { return 0 }
func (*recordHash) BlockSize() int      { return 1 }

// CanonicalBytes returns the byte stream the canonical hasher feeds
// SHA-256 for the modules, in the order given.
func CanonicalBytes(mods ...*Module) []byte {
	rec := &recordHash{}
	c := &canonWriter{h: rec}
	for _, m := range mods {
		c.module(m)
	}
	c.flush()
	return rec.Bytes()
}
