package chain

import (
	"testing"

	"onoffchain/internal/store"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// persistWorld builds a journaled chain: two log-emitting contracts and
// several blocks of interleaved calls, every sealed block written to st.
func persistWorld(t *testing.T, st *store.Store) (*Chain, types.Address, types.Address, map[types.Address]*uint256.Int) {
	t.Helper()
	alice, bob := newAccount(9900), newAccount(9901)
	alloc := map[types.Address]*uint256.Int{alice.addr: eth(100), bob.addr: eth(100)}
	cfg := DefaultConfig()
	cfg.AutoMine = false
	c := New(cfg, alloc)
	c.AttachJournal(st.Append, func(err error) { t.Errorf("journal: %v", err) })

	deployA := types.NewContractCreation(0, nil, 300_000, uint256.NewInt(1), deployInit(counterRuntime))
	if err := deployA.Sign(alice.key); err != nil {
		t.Fatal(err)
	}
	deployB := types.NewContractCreation(0, nil, 300_000, uint256.NewInt(1), deployInit(counterRuntime))
	if err := deployB.Sign(bob.key); err != nil {
		t.Fatal(err)
	}
	for _, tx := range []*types.Transaction{deployA, deployB} {
		if _, err := c.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	c.MineBlock()
	ra, _ := c.Receipt(deployA.Hash())
	rb, _ := c.Receipt(deployB.Hash())

	nonce := map[types.Address]uint64{alice.addr: 1, bob.addr: 1}
	for block := 0; block < 4; block++ {
		for i, who := range []account{alice, bob, alice} {
			target := ra.ContractAddress
			if i == 1 {
				target = rb.ContractAddress
			}
			tx := callCounter(t, who, target, byte(block%2), nonce[who.addr])
			nonce[who.addr]++
			if _, err := c.SendTransaction(tx); err != nil {
				t.Fatal(err)
			}
		}
		c.MineBlock()
	}
	return c, ra.ContractAddress, rb.ContractAddress, alloc
}

// TestChainRestoreEquivalence is the cold-restart contract: a chain
// rebuilt from its block journal serves FilterLogs — whole-history and
// resumed from a block — identically to the original — from the rebuilt in-memory index, with
// the full-scan fallback never touched.
func TestChainRestoreEquivalence(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig, addrA, addrB, alloc := persistWorld(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recs, err := st2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.AutoMine = false
	restored := New(cfg, alloc)
	n, err := RestoreChain(restored, recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(orig.Height()); n != want {
		t.Fatalf("restored %d blocks, want %d", n, want)
	}
	if restored.Height() != orig.Height() {
		t.Fatalf("height %d, want %d", restored.Height(), orig.Height())
	}
	if restored.Latest().Hash() != orig.Latest().Hash() {
		t.Fatal("head hash diverged after restore")
	}

	// FilterLogs equivalence across both contracts, and a resume from the
	// middle of the chain.
	for _, addr := range []types.Address{addrA, addrB} {
		addr := addr
		want := orig.FilterLogs(FilterQuery{Address: &addr})
		got := restored.FilterLogs(FilterQuery{Address: &addr})
		if len(got) != len(want) {
			t.Fatalf("contract %s: %d logs after restore, want %d", addr.Hex(), len(got), len(want))
		}
		for i := range got {
			if got[i].BlockNumber != want[i].BlockNumber || got[i].TxHash != want[i].TxHash ||
				string(got[i].Data) != string(want[i].Data) {
				t.Fatalf("contract %s: log %d diverged", addr.Hex(), i)
			}
		}
		wl := orig.FilterLogs(FilterQuery{Address: &addr, FromBlock: 3})
		gl := restored.FilterLogs(FilterQuery{Address: &addr, FromBlock: 3})
		if len(gl) != len(wl) {
			t.Fatalf("contract %s: resume from block 3 returned %d logs, want %d", addr.Hex(), len(gl), len(wl))
		}
	}

	// The point of persisting the index: no full receipt scan served any
	// of the addressed queries above.
	if scanned, indexed := restored.LogScanStats(); scanned != 0 || indexed == 0 {
		t.Fatalf("restored chain scanned %d blocks (indexed queries %d), want pure index service", scanned, indexed)
	}

	// The restored chain is live, not a read replica: it can mine new
	// journaled blocks on top of the restored head.
	restored.AttachJournal(st2.Append, func(err error) { t.Errorf("journal: %v", err) })
	carol := newAccount(9902)
	alice := newAccount(9900)
	tip := types.NewTransaction(restored.NonceAt(alice.addr), carol.addr, uint256.NewInt(7), 21_000, uint256.NewInt(1), nil)
	if err := tip.Sign(alice.key); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.SendTransaction(tip); err != nil {
		t.Fatal(err)
	}
	restored.MineBlock()
	if restored.Height() != orig.Height()+1 {
		t.Fatalf("post-restore mining: height %d, want %d", restored.Height(), orig.Height()+1)
	}
}

// TestChainRestoreDetectsCorruption: a journal whose recorded hash does
// not match the replayed block must fail the restore, not fork silently.
func TestChainRestoreDetectsCorruption(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, alloc := persistWorld(t, st)
	st.Close()

	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recs, err := st2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == store.KindChainBlock && r.U1 == 2 {
			r.Blob[0] ^= 0xFF // corrupt the recorded header hash
		}
	}
	cfg := DefaultConfig()
	cfg.AutoMine = false
	if _, err := RestoreChain(New(cfg, alloc), recs); err == nil {
		t.Fatal("corrupted journal restored without error")
	}
}
