package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// TestRandomGraphGolden pins the inputs of the five graph workloads: the
// SHA-256 of randomGraph's rowPtr, cols and wts, drawn from the seed and with
// the degree each Setup uses (Params.Seed 1 plus the workload's offset), at
// n = 1024 and at the workload's default size. benchmark/golden.json digests
// only bfs and sssp runs, so without this ccl, mis and mst inputs could drift
// unnoticed.
func TestRandomGraphGolden(t *testing.T) {
	cases := []struct {
		workload string
		seed     int64
		degree   int
		n        int
		want     string
	}{
		{"bfs", 1 + 11, 8, 1024,
			"e2399769f24f9a614657e243f03e738fc3efa08c429d59f8a248d5c7fcfd7796"},
		{"bfs", 1 + 11, 8, 65536,
			"0820ffcb00bb014695e5befda0820b18f786f9331516dcb26d68b0ebe6a16442"},
		{"sssp", 1 + 12, 8, 1024,
			"3a242456eb44e96876574fb4564fd5cb67f5404330a5ac683d030d7e5f0e0c22"},
		{"sssp", 1 + 12, 8, 32768,
			"db10fd51ae27ed3bcb9f53352355a76d63feae3d8e677e1cb92791a8db85d1e5"},
		{"ccl", 1 + 13, 2, 1024,
			"bf4db4450fb6283f2ad99e1cf04d499a84f21bb7dd97cd348a6a52ebc8d059d5"},
		{"ccl", 1 + 13, 2, 32768,
			"79757f69f8467a897662e647d2244a080c7897183d5963c43f4785f3b42055bf"},
		{"mis", 1 + 14, 8, 1024,
			"3455428654db06120bb3e6f58e19dc7e7f1544495671d4399b8145fdb7abbe16"},
		{"mis", 1 + 14, 8, 32768,
			"4c0df396428e93ba9a083cc90a558ef49bfa4afbfb8f7aaff09d3d4b13c9085b"},
		{"mst", 1 + 15, 6, 1024,
			"44bd6e1cbdf95f6ebe6c2fb72b7421000be680281290b427c5ce52f6238c682d"},
		{"mst", 1 + 15, 6, 16384,
			"a9e1475d2c6d3d7d957fa0226416c7bbd4f458864f9037ec5944ffbb6f1af383"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%d", c.workload, c.n), func(t *testing.T) {
			g := randomGraph(rand.New(rand.NewSource(c.seed)), c.n, c.degree)
			var buf []byte
			for _, part := range [][]uint32{g.rowPtr, g.cols, g.wts} {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(len(part)))
				for _, v := range part {
					buf = binary.LittleEndian.AppendUint32(buf, v)
				}
			}
			sum := sha256.Sum256(buf)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("graph digest = %s, want %s", got, c.want)
			}
		})
	}
}
