package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"emucheck/internal/sim"
)

// sink keeps benchmarked results live.
var sink int64

// BenchmarkDeltaWrites writes a block space into the current delta and
// commits the epoch (EpochBlocks, then a Merge), on the
// Volume and on the map-based reference model. Sequential writes are
// 512 KiB guest writes in address order; random ones are single blocks
// at uniform addresses, overwrites included; random-reads also locates
// a random block after each write, the one pattern a hash index serves
// in O(1). The Volume's figures include its disk requests.
func BenchmarkDeltaWrites(b *testing.B) {
	const seqBlocks = (512 << 10) / BlockSize
	for _, pattern := range []string{"sequential", "random", "random-reads"} {
		for _, n := range []int{16 << 10, 64 << 10} {
			rng := rand.New(rand.NewSource(1))
			var writes, reads []int64
			for i := 0; i < n; {
				if pattern == "sequential" {
					writes, i = append(writes, int64(i)), i+seqBlocks
					continue
				}
				writes, i = append(writes, int64(rng.Intn(n))), i+1
				if pattern == "random-reads" {
					reads = append(reads, int64(rng.Intn(n)))
				}
			}
			width := int64(1)
			if pattern == "sequential" {
				width = seqBlocks
			}
			name := fmt.Sprintf("%s/%dk", pattern, n>>10)
			b.Run(name+"/run", func(b *testing.B) {
				s := sim.New(1)
				v := newTestVolume(s)
				for range b.N {
					for i, vba := range writes {
						v.Write(vba*BlockSize, width*BlockSize, nil)
						if reads != nil {
							sink += v.locate(reads[i])
						}
					}
					s.Run()
					sink += v.EpochBlocks(nil).Blocks()
					sink += v.Merge(nil)
				}
			})
			b.Run(name+"/map", func(b *testing.B) {
				r := newRefVolume()
				for range b.N {
					for i, vba := range writes {
						r.write(vba, width)
						if reads != nil {
							sink += r.lba(reads[i])
						}
					}
					sink += int64(len(runOf(r.view(r.curIndex, nil))))
					sink += r.merge(nil)
				}
			})
		}
	}
}
