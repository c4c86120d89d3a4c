package trace

import (
	"reflect"
	"strings"
	"testing"

	"critload/internal/memreq"
)

func req(id uint64, pc uint32, nondet bool, issued, returned int64) *memreq.Request {
	return &memreq.Request{
		ID: id, Kernel: "k", PC: pc, Block: 0x1000, Kind: memreq.Load,
		NonDet: nondet, Lanes: 4, Issued: issued, Returned: returned,
		Serviced: memreq.LvlL2,
	}
}

func TestBufferRecordsAndLatency(t *testing.T) {
	b := NewBuffer(8)
	b.Add(req(1, 0x10, false, 100, 350))
	b.Add(req(2, 0x20, true, 100, 700))
	if b.Len() != 2 || b.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", b.Len(), b.Dropped())
	}
	recs := b.Records()
	if recs[0].Latency() != 250 || recs[1].Latency() != 600 {
		t.Errorf("latencies = %d/%d", recs[0].Latency(), recs[1].Latency())
	}
	// An unreturned request reports zero latency.
	if (Record{Issued: 10}).Latency() != 0 {
		t.Errorf("unreturned latency nonzero")
	}
}

func TestBufferCapacityDrops(t *testing.T) {
	b := NewBuffer(2)
	for i := uint64(0); i < 5; i++ {
		b.Add(req(i, 0x10, false, 0, 10))
	}
	if b.Len() != 2 || b.Dropped() != 3 {
		t.Errorf("len=%d dropped=%d, want 2/3", b.Len(), b.Dropped())
	}
}

func TestWriteCSV(t *testing.T) {
	b := NewBuffer(8)
	b.Add(req(1, 0x110, true, 5, 105))
	var sb strings.Builder
	if err := b.WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "id,kernel,pc,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "0x110") || !strings.Contains(lines[1], ",L2,100") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestSummarizeByPC(t *testing.T) {
	b := NewBuffer(16)
	b.Add(req(1, 0x10, false, 0, 100))
	b.Add(req(2, 0x10, false, 0, 300))
	b.Add(req(3, 0x20, true, 0, 50))
	sum := SummarizeByPC(b.Records())
	if len(sum) != 2 {
		t.Fatalf("summaries = %d", len(sum))
	}
	if sum[0].PC != 0x10 || sum[0].Requests != 2 || sum[0].MeanLatency != 200 || sum[0].MaxLatency != 300 {
		t.Errorf("pc 0x10 summary = %+v", sum[0])
	}
	if sum[1].PC != 0x20 || !sum[1].NonDet {
		t.Errorf("pc 0x20 summary = %+v", sum[1])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	b := NewBuffer(8)
	b.Add(&memreq.Request{ID: 1<<48 | 7, Kernel: "k1", PC: 0x110, Block: 0xdeadbe80, Kind: memreq.Load,
		SM: 13, Partition: 5, NonDet: true, Lanes: 32, Issued: 5, AcceptedL1: 9, InjectedICNT: 10,
		ArrivedL2: 20, DoneL2: 140, Returned: 150, Serviced: memreq.LvlDRAM})
	b.Add(&memreq.Request{ID: 2, Kernel: "k2", PC: 0x8, Kind: memreq.Store, Lanes: 1, Issued: 7})
	b.Add(req(3, 0x20, false, 100, 119))
	var sb strings.Builder
	if err := b.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadCSV: %v\n%s", err, sb.String())
	}
	if !reflect.DeepEqual(got, b.Records()) {
		t.Errorf("round trip changed the records:\n got %+v\nwant %+v", got, b.Records())
	}
}

func TestReadCSVRejects(t *testing.T) {
	b := NewBuffer(2)
	b.Add(req(1, 0x10, false, 0, 100))
	var sb strings.Builder
	b.WriteCSV(&sb)
	header, row, _ := strings.Cut(strings.TrimSpace(sb.String()), "\n")

	tests := []struct{ name, in, want string }{
		{"missing column", strings.Replace(header, ",accepted_l1", "", 1) + "\n" + row, `line 1: missing column "accepted_l1"`},
		{"short row", header + "\n" + row + "\n1,k,0x10", "line 3: 3 fields, want 17"},
		{"bad number", header + "\n" + strings.Replace(row, ",100,", ",1e2,", 1), "line 2: bad returned"},
		{"bad hex", header + "\n" + strings.Replace(row, "0x10,", "0xzz,", 1), "line 2: bad pc"},
		{"bad level", header + "\n" + strings.Replace(row, ",L2,", ",L9,", 1), `line 2: bad serviced "L9"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tt.in))
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("ReadCSV error = %v, want it to contain %q", err, tt.want)
			}
		})
	}
}
