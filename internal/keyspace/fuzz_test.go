package keyspace

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalBinary feeds arbitrary bytes to the key decoder: it must
// never panic, and every successfully decoded key must re-encode to a
// form that decodes back to an equal key.
func FuzzUnmarshalBinary(f *testing.F) {
	f.Add(New("hello").AppendBinary(nil))
	f.Add(Low().AppendBinary(nil))
	f.Add(High().AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		var k Key
		if err := k.UnmarshalBinary(data); err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		out := k.AppendBinary(nil)
		var back Key
		if err := back.UnmarshalBinary(out); err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if !back.Equal(k) {
			t.Fatalf("round trip changed key: %s vs %s", k, back)
		}
		// Canonical form: re-encoding a decoded normal key reproduces
		// the input.
		if !k.IsSentinel() && !bytes.Equal(out, data) {
			t.Fatalf("encoding not canonical: %x vs %x", out, data)
		}
	})
}

// FuzzCompareOrdering checks that Compare stays antisymmetric for
// arbitrary spellings.
func FuzzCompareOrdering(f *testing.F) {
	f.Add("a", "b")
	f.Add("", "")
	f.Add("zz", "z")
	f.Fuzz(func(t *testing.T, a, b string) {
		ka, kb := New(a), New(b)
		if ka.Compare(kb) != -kb.Compare(ka) {
			t.Fatalf("Compare(%q,%q) not antisymmetric", a, b)
		}
		if (ka.Compare(kb) == 0) != (a == b) {
			t.Fatalf("Compare equality mismatch for %q vs %q", a, b)
		}
	})
}
