package server

import (
	"fmt"
	"testing"
)

// TestPCStringMatchesFormat pins the hand-rolled PC rendering to the
// "0x%03x" the wire goldens were recorded with.
func TestPCStringMatchesFormat(t *testing.T) {
	for _, pc := range []uint32{0, 8, 0x78, 0x80, 0xff8, 0x1000, 0x12345, 1<<32 - 8} {
		if got, want := pcString(pc), fmt.Sprintf("0x%03x", pc); got != want {
			t.Errorf("pcString(%#x) = %q, want %q", pc, got, want)
		}
	}
}
