package rollup

import (
	"fmt"
	"testing"

	"onoffchain/internal/types"
)

// BenchmarkSeedPostedEpochs seeds a sequencer from a fold of E posted
// epochs whose posts are on chain, at E = 16 and E = 256. Seed reads the
// registry's posts in one pass, so its cost per epoch (ns/epoch) is the
// same at both sizes; a read per epoch over every post would grow it
// sixteenfold.
func BenchmarkSeedPostedEpochs(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("epochs=%d", n), func(b *testing.B) {
			_, party := seqFixture(b)
			bind, err := DeployRegistryAsync(party, 2, party.Addr, registryDeployGas)
			if err != nil {
				b.Fatal(err)
			}
			reg, err := bind()
			if err != nil {
				b.Fatal(err)
			}
			f := &Folded{Registry: reg.Addr, Depth: 2, Pending: map[uint64]Leaf{}, postedEpochs: map[uint64]*sealedState{}}
			for i := 0; i < n; i++ {
				leaves := []Leaf{{SID: uint64(i + 1), Contract: types.Address{byte(i), byte(i >> 8)}, Outcome: 1}}
				tree, err := NewTree(2, leaves)
				if err != nil {
					b.Fatal(err)
				}
				hash, err := reg.PostEpochAsync(party, tree.Root(), 1, epochPostGas)
				if err != nil {
					b.Fatal(err)
				}
				if r, err := party.WaitReceipt(hash); err != nil || !r.Succeeded() {
					b.Fatalf("posting epoch %d: %v", i, err)
				}
				f.postedEpochs[uint64(i)] = &sealedState{number: uint64(i), root: tree.Root(), leaves: leaves}
			}
			f.PostedThru = uint64(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(Config{Party: party, Depth: 2})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Seed(f); err != nil {
					b.Fatal(err)
				}
				if len(s.CachedEpochs()) != n {
					b.Fatalf("seeded %d epochs, want %d", len(s.CachedEpochs()), n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/epoch")
		})
	}
}
