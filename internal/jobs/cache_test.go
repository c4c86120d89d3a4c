package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	return k
}

// len reports the memory tier's entry count.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// raw is a result encoding whose bytes name n.
func raw(n int) json.RawMessage { return json.RawMessage(fmt.Sprint(n)) }

func TestResultCacheLRUEviction(t *testing.T) {
	tests := []struct {
		name    string
		cap     int
		store   bool // back the memory tier with a result store
		ops     func(t *testing.T, c *cache)
		present []byte // in memory
		absent  []byte // not in memory
		stored  []byte // on disk
	}{
		{
			name: "evicts oldest beyond capacity",
			cap:  2,
			ops: func(_ *testing.T, c *cache) {
				c.put(key(1), raw(1))
				c.put(key(2), raw(2))
				c.put(key(3), raw(3))
			},
			present: []byte{2, 3},
			absent:  []byte{1},
		},
		{
			name: "get refreshes recency",
			cap:  2,
			ops: func(_ *testing.T, c *cache) {
				c.put(key(1), raw(1))
				c.put(key(2), raw(2))
				c.get(key(1)) // 2 is now the least recently used
				c.put(key(3), raw(3))
			},
			present: []byte{1, 3},
			absent:  []byte{2},
		},
		{
			name: "re-adding refreshes recency without growing",
			cap:  2,
			ops: func(_ *testing.T, c *cache) {
				c.put(key(1), raw(1))
				c.put(key(2), raw(2))
				c.put(key(1), raw(10))
				c.put(key(3), raw(3))
			},
			present: []byte{1, 3},
			absent:  []byte{2},
		},
		{
			name: "zero capacity disables caching",
			cap:  0,
			ops: func(_ *testing.T, c *cache) {
				c.put(key(1), raw(1))
			},
			absent: []byte{1},
		},
		{
			name:  "a disk hit warms memory",
			cap:   2,
			store: true,
			ops: func(t *testing.T, c *cache) {
				if err := c.store.Put(key(1), raw(1)); err != nil {
					t.Fatal(err)
				}
				if _, from := c.peek(key(1)); from != missed {
					t.Fatal("peek found a result only the disk holds")
				}
				if v, from := c.get(key(1)); from != fromDisk || string(v) != "1" {
					t.Fatalf("get = %s from tier %d, want 1 from disk", v, from)
				}
				if _, from := c.get(key(1)); from != fromMemory {
					t.Fatalf("second get answered from tier %d, want memory", from)
				}
			},
			present: []byte{1},
			stored:  []byte{1},
		},
		{
			name:  "put reaches disk before memory",
			cap:   64,
			store: true,
			ops: func(t *testing.T, c *cache) {
				// A reader that finds a key in memory finds it on disk too.
				done := make(chan struct{})
				go func() {
					defer close(done)
					for b := byte(1); b <= 64; {
						if _, from := c.peek(key(b)); from == fromMemory {
							if _, err := os.Stat(resultPath(c.store, key(b))); err != nil {
								t.Errorf("key %d in memory before it is on disk: %v", b, err)
							}
							b++
						}
					}
				}()
				for b := 1; b <= 64; b++ {
					c.put(key(byte(b)), raw(b))
				}
				<-done
			},
			present: []byte{1, 64},
			stored:  []byte{1, 64},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var store *ResultStore
			if tt.store {
				var err error
				if store, err = OpenResultStore(t.TempDir(), 0); err != nil {
					t.Fatal(err)
				}
			}
			c := newCache(tt.cap, store)
			tt.ops(t, c)
			if tt.cap > 0 && c.len() > tt.cap {
				t.Errorf("len = %d beyond capacity %d", c.len(), tt.cap)
			}
			for _, b := range tt.present {
				if _, from := c.peek(key(b)); from != fromMemory {
					t.Errorf("key %d missing, want present", b)
				}
			}
			for _, b := range tt.absent {
				if _, from := c.peek(key(b)); from != missed {
					t.Errorf("key %d present, want evicted", b)
				}
			}
			for _, b := range tt.stored {
				if v, ok := store.Get(key(b)); !ok || string(v) != fmt.Sprint(b) {
					t.Errorf("store holds %s, %v for key %d; want %d", v, ok, b, b)
				}
			}
		})
	}
}

func TestResultCacheUpdatesValue(t *testing.T) {
	c := newCache(4, nil)
	c.put(key(1), json.RawMessage(`"old"`))
	c.put(key(1), json.RawMessage(`"new"`))
	v, from := c.get(key(1))
	if from != fromMemory || string(v) != `"new"` {
		t.Fatalf("get = %s from tier %d; want \"new\" from memory", v, from)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}
