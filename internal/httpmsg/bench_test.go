package httpmsg

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"phttp/internal/core"
)

// BenchmarkReadRequestInternedParallel measures the front-end's parse path
// — request head parse plus parse-time interning — from parallel
// goroutines, the shape of concurrent connection handlers. The capped
// variants put the evictable interner's lock-free hit path under real
// parser traffic; comparing stripes=1 against stripes=auto isolates what
// interner sharding contributes once GOMAXPROCS > 1.
func BenchmarkReadRequestInternedParallel(b *testing.B) {
	const hotSet = 256
	raw := make([][]byte, hotSet)
	for i := range raw {
		raw[i] = []byte(fmt.Sprintf("GET /doc/%04d HTTP/1.1\r\nHost: bench\r\n\r\n", i))
	}
	run := func(b *testing.B, in *core.Interner) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			br := bufio.NewReader(nil)
			rd := bytes.NewReader(nil)
			i := uint32(0)
			for pb.Next() {
				i = i*1664525 + 1013904223
				rd.Reset(raw[i%hotSet])
				br.Reset(rd)
				req, err := ReadRequestInterned(br, in)
				if err != nil {
					b.Fatal(err)
				}
				in.Release(req.ID)
			}
		})
	}
	b.Run("pinned", func(b *testing.B) {
		run(b, core.NewInterner())
	})
	b.Run("capped/stripes=auto", func(b *testing.B) {
		run(b, core.NewEvictableInterner(4096))
	})
}
