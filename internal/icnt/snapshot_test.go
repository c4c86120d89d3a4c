package icnt

import (
	"bytes"
	"strings"
	"testing"

	"critload/internal/checkpoint"
)

func snapNet(t *testing.T) *Network {
	t.Helper()
	n, err := New(4, 6, Config{Latency: 8, InputQueueCap: 4}, func(p *Packet, now int64) {})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func snapBytes(t *testing.T, n *Network) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	n.Snapshot(w)
	return w.Bytes()
}

// TestSnapshotRoundTrip checks that port busy horizons, the quiet cache and
// the traffic statistics survive a restore into a fresh network byte for
// byte.
func TestSnapshotRoundTrip(t *testing.T) {
	src := snapNet(t)
	src.srcBusy[1] = 33
	src.srcBusy[3] = 7
	src.dstBusy[5] = 91
	src.quietUntil = 120
	src.Injected = 44
	src.Delivered = 44
	src.TotalDelay = 13

	b1 := snapBytes(t, src)
	dst := snapNet(t)
	if err := dst.Restore(checkpoint.NewReader(b1)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if b2 := snapBytes(t, dst); !bytes.Equal(b1, b2) {
		t.Fatalf("re-snapshot differs")
	}
	if dst.srcBusy[1] != 33 || dst.dstBusy[5] != 91 || dst.quietUntil != 120 {
		t.Errorf("horizons not restored: src %v dst %v quiet %d", dst.srcBusy, dst.dstBusy, dst.quietUntil)
	}
	if dst.Injected != 44 || dst.Delivered != 44 || dst.TotalDelay != 13 {
		t.Errorf("stats not restored")
	}
}

// TestSnapshotPanicsWithPackets checks the drain invariant.
func TestSnapshotPanicsWithPackets(t *testing.T) {
	n := snapNet(t)
	n.pending = 1
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot of a non-drained network did not panic")
		}
	}()
	n.Snapshot(checkpoint.NewWriter())
}

// TestRestoreRejections covers the refusal paths: packets in flight on the
// receiver, a port-count mismatch, and truncation.
func TestRestoreRejections(t *testing.T) {
	good := snapBytes(t, snapNet(t))

	busy := snapNet(t)
	busy.pending = 1
	if err := busy.Restore(checkpoint.NewReader(good)); err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Errorf("busy restore: %v", err)
	}

	mismatched, err := New(6, 4, Config{Latency: 8, InputQueueCap: 4}, func(p *Packet, now int64) {})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := mismatched.Restore(checkpoint.NewReader(good)); err == nil || !strings.Contains(err.Error(), "ports") {
		t.Errorf("port mismatch: %v", err)
	}

	dst := snapNet(t)
	if err := dst.Restore(checkpoint.NewReader(good[:len(good)-1])); err == nil {
		t.Error("truncated payload accepted")
	}
}
