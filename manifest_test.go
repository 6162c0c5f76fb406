package mview

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// randManifest draws a manifest with relation names that need quoting
// (spaces, quotes, newlines, non-ASCII, a "crc " look-alike) and
// segment files named as Checkpoint names them.
func randManifest(rng *rand.Rand) *manifest {
	gen := rng.Uint64N(1 << 40)
	m := &manifest{
		gen:       gen,
		lsn:       rng.Uint64(),
		shards:    rng.IntN(64),
		catalog:   fmt.Sprintf("ckpt-%d-0.seg", gen),
		relShards: make(map[string]int),
	}
	names := []string{"r", "acct", "a b", `q"uote`, "new\nline", "ſK", "crc 7", ""}
	for i, n := 0, rng.IntN(5); i < n; i++ {
		rel := names[rng.IntN(len(names))]
		shards := 1 + rng.IntN(8)
		m.relShards[rel] = shards
		for s := 0; s < shards; s++ {
			if rng.IntN(2) == 0 {
				m.segs = append(m.segs, manifestSeg{file: fmt.Sprintf("ckpt-%d-%d.seg", gen, len(m.segs)+1), rel: rel, shard: s})
			}
		}
	}
	return m
}

// FuzzManifest: arbitrary bytes decode to a manifest or an error, never
// a panic, and whatever decodes re-encodes to the same manifest; the
// input also seeds a random manifest, which must round-trip through
// encode and decodeManifest.
func FuzzManifest(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 4))
	for range 3 {
		f.Add(randManifest(rng).encode())
	}
	f.Add([]byte{})
	f.Add([]byte("MVMANIFEST1\ncrc 0\n"))
	f.Add([]byte("crc 4294967296\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := decodeManifest(data); err == nil {
			again, err := decodeManifest(m.encode())
			if err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("decoded manifest %+v re-encodes to %+v (err %v)", m, again, err)
			}
		}
		var seed [16]byte
		copy(seed[:], data)
		rng := rand.New(rand.NewPCG(binary.LittleEndian.Uint64(seed[:8]), binary.LittleEndian.Uint64(seed[8:])))
		want := randManifest(rng)
		got, err := decodeManifest(want.encode())
		if err != nil {
			t.Fatalf("decoding %q: %v", want.encode(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decoded to %+v, want %+v", want.encode(), got, want)
		}
	})
}
