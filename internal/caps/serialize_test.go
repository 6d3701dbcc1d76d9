package caps

import (
	"testing"
	"testing/quick"

	"multikernel/internal/memory"
)

// TestCapabilityWireRoundTrip pins the packed layout the monitor puts in a
// URPC message (w0 = base, w1 = bytes, w2 = type<<16 | level<<8 | rights)
// and decodes it back.
func TestCapabilityWireRoundTrip(t *testing.T) {
	c := Capability{Type: PageTable, Level: 3, Base: 0xdead000, Bytes: 4096, Rights: CanRead | CanGrant}
	w0, w1, w2 := c.PackWords()
	if w0 != 0xdead000 || w1 != 4096 || w2 != uint64(PageTable)<<16|3<<8|uint64(CanRead|CanGrant) {
		t.Fatalf("packed %#x %#x %#x", w0, w1, w2)
	}
	if got := UnpackWords(w0, w1, w2); got != c {
		t.Fatalf("got %+v want %+v", got, c)
	}
}

func TestPackWordsRoundTripProperty(t *testing.T) {
	f := func(typ uint8, level uint8, base uint64, bytes uint64, rights uint8) bool {
		c := Capability{
			Type:   Type(typ % 9),
			Level:  int(level % 5),
			Base:   memory.Addr(base),
			Bytes:  bytes,
			Rights: Rights(rights & 0x0f),
		}
		return UnpackWords(c.PackWords()) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
