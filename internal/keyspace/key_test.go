package keyspace

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSentinelOrdering(t *testing.T) {
	low, high := Low(), High()
	keys := []Key{New(""), New("a"), New("zzz"), FromUint64(0), FromUint64(1 << 60)}
	for _, k := range keys {
		if !low.Less(k) {
			t.Errorf("LOW should sort before %s", k)
		}
		if !k.Less(high) {
			t.Errorf("%s should sort before HIGH", k)
		}
	}
	if !low.Less(high) {
		t.Error("LOW should sort before HIGH")
	}
	if low.Less(low) || high.Less(high) {
		t.Error("sentinels must not sort before themselves")
	}
}

func TestSentinelIdentity(t *testing.T) {
	if !Low().Equal(Low()) || !High().Equal(High()) {
		t.Error("sentinel constructors must return equal values")
	}
	if Low().Equal(High()) {
		t.Error("LOW must not equal HIGH")
	}
	if !Low().IsSentinel() || !High().IsSentinel() {
		t.Error("sentinels must report IsSentinel")
	}
	if !Low().IsLow() || Low().IsHigh() {
		t.Error("LOW kind predicates wrong")
	}
	if !High().IsHigh() || High().IsLow() {
		t.Error("HIGH kind predicates wrong")
	}
	if New("x").IsSentinel() {
		t.Error("normal keys must not be sentinels")
	}
}

func TestCompareMatchesStringOrder(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"a", "b", -1},
		{"b", "a", 1},
		{"a", "a", 0},
		{"", "a", -1},
		{"ab", "abc", -1},
		{"zz", "z", 1},
	}
	for _, tt := range tests {
		if got := New(tt.a).Compare(New(tt.b)); got != tt.want {
			t.Errorf("Compare(%q, %q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestFromUint64SortsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nums := make([]uint64, 200)
	for i := range nums {
		nums[i] = rng.Uint64()
	}
	keys := make([]Key, len(nums))
	for i, n := range nums {
		keys[i] = FromUint64(n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for i := range nums {
		if !keys[i].Equal(FromUint64(nums[i])) {
			t.Fatalf("key order diverges from numeric order at %d", i)
		}
	}
}

func TestMinMax(t *testing.T) {
	a, b := New("a"), New("b")
	if !Min(a, b).Equal(a) || !Min(b, a).Equal(a) {
		t.Error("Min wrong")
	}
	if !Max(a, b).Equal(b) || !Max(b, a).Equal(b) {
		t.Error("Max wrong")
	}
	if !Min(Low(), a).Equal(Low()) || !Max(a, High()).Equal(High()) {
		t.Error("Min/Max with sentinels wrong")
	}
}

func TestString(t *testing.T) {
	if Low().String() != "<LOW>" || High().String() != "<HIGH>" {
		t.Error("sentinel rendering wrong")
	}
	if New("ab").String() != `"ab"` {
		t.Errorf("normal key rendering wrong: %s", New("ab"))
	}
}

func TestRawRoundTrip(t *testing.T) {
	if New("payload").Raw() != "payload" {
		t.Error("Raw should return the spelling of a normal key")
	}
	if Low().Raw() != "" || High().Raw() != "" {
		t.Error("sentinel Raw should be empty")
	}
}

// Property: Compare is a total order consistent with Less and Equal.
func TestCompareTotalOrderProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		ka, kb, kc := New(a), New(b), New(c)
		// Antisymmetry.
		if ka.Compare(kb) != -kb.Compare(ka) {
			return false
		}
		// Transitivity (only check the <= chain).
		if ka.Compare(kb) <= 0 && kb.Compare(kc) <= 0 && ka.Compare(kc) > 0 {
			return false
		}
		// Consistency with Less/Equal.
		if ka.Less(kb) != (ka.Compare(kb) < 0) {
			return false
		}
		return ka.Equal(kb) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: binary round trip preserves keys, including sentinels.
func TestBinaryRoundTripProperty(t *testing.T) {
	roundTrip := func(k Key) bool {
		data := k.AppendBinary(nil)
		var back Key
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		return back.Equal(k)
	}
	if !roundTrip(Low()) || !roundTrip(High()) {
		t.Error("sentinel round trip failed")
	}
	f := func(s string) bool { return roundTrip(New(s)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var k Key
	if err := k.UnmarshalBinary(nil); err == nil {
		t.Error("empty input should fail")
	}
	if err := k.UnmarshalBinary([]byte{99}); err == nil {
		t.Error("unknown tag should fail")
	}
}
