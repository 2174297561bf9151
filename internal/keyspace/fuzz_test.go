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

// FuzzTupleRoundTrip: arbitrary components survive encode/decode, and
// arbitrary bytes never panic the decoder.
func FuzzTupleRoundTrip(f *testing.F) {
	f.Add("a", "b", []byte("probe"))
	f.Add("", "\x00", []byte{0x00})
	f.Add("x\x00\x01y", "\xff", []byte{0x00, 0x01})
	f.Fuzz(func(t *testing.T, c1, c2 string, raw []byte) {
		k := EncodeTuple(c1, c2)
		comps, err := DecodeTuple(k)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if len(comps) != 2 || comps[0] != c1 || comps[1] != c2 {
			t.Fatalf("round trip (%q,%q) -> %q", c1, c2, comps)
		}
		// Arbitrary bytes: decode may fail but must not panic, and any
		// successful decode must re-encode to the same key.
		if comps, err := DecodeTuple(New(string(raw))); err == nil {
			if !EncodeTuple(comps...).Equal(New(string(raw))) {
				t.Fatalf("decode/encode of %x not canonical", raw)
			}
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
