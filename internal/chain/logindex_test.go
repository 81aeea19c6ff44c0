package chain

import (
	"testing"

	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// logIndexWorld builds a chain with two log-emitting contracts and mines
// several blocks of interleaved calls, returning the contract addresses.
func logIndexWorld(t *testing.T) (*Chain, types.Address, types.Address) {
	t.Helper()
	alice, bob := newAccount(9800), newAccount(9801)
	cfg := DefaultConfig()
	cfg.AutoMine = false
	c := New(cfg, map[types.Address]*uint256.Int{alice.addr: eth(100), bob.addr: eth(100)})

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
	return c, ra.ContractAddress, rb.ContractAddress
}

// TestLogIndexEquivalence: the indexed path must return exactly what the
// full receipt scan returns — same logs, same pointers, same order — for
// single-address, address-list, topic-constrained and range-bounded queries.
func TestLogIndexEquivalence(t *testing.T) {
	c, addrA, addrB := logIndexWorld(t)
	both := []types.Address{addrA, addrB}
	queries := []FilterQuery{
		{Address: &addrA},
		{Address: &addrB, FromBlock: 2, ToBlock: 3},
		{Addresses: both},
		{Addresses: both, FromBlock: 3},
	}
	for qi, q := range queries {
		indexed := c.FilterLogs(q)
		// Reference: full scan with the address selectors stripped, then
		// client-side matchLog — the pre-index behaviour.
		ref := q
		var want []*types.Log
		for _, l := range c.FilterLogs(FilterQuery{FromBlock: q.FromBlock, ToBlock: q.ToBlock}) {
			if matchLog(&ref, l) {
				want = append(want, l)
			}
		}
		if len(indexed) != len(want) {
			t.Fatalf("query %d: indexed %d logs, scan %d", qi, len(indexed), len(want))
		}
		for i := range want {
			if indexed[i] != want[i] {
				t.Fatalf("query %d: log %d differs: indexed %+v scan %+v", qi, i, indexed[i], want[i])
			}
		}
		if len(want) == 0 {
			t.Fatalf("query %d matched nothing — world setup broken", qi)
		}
	}
}

// TestResumeQueryUsesIndex: a resume from a persisted block number — the
// watchtower's catch-up query after a restart — returns exactly the logs
// at or after that block, no duplicates and no gaps, and is served
// entirely from the log index: zero blocks walked by the full scan.
func TestResumeQueryUsesIndex(t *testing.T) {
	c, addrA, _ := logIndexWorld(t)
	scan0, idx0 := c.LogScanStats()

	all := c.FilterLogs(FilterQuery{Address: &addrA})
	if len(all) == 0 {
		t.Fatal("world emitted no logs")
	}
	const resumeAt = 3
	before := 0
	for _, l := range all {
		if l.BlockNumber < resumeAt {
			before++
		}
	}
	resumed := c.FilterLogs(FilterQuery{Address: &addrA, FromBlock: resumeAt})
	if before == 0 || len(resumed) != len(all)-before {
		t.Fatalf("resume at block %d returned %d logs, want %d of %d", resumeAt, len(resumed), len(all)-before, len(all))
	}
	for i, l := range resumed {
		if l != all[before+i] {
			t.Fatalf("resumed log %d is not log %d of the full history", i, before+i)
		}
	}

	scan1, idx1 := c.LogScanStats()
	if scan1 != scan0 {
		t.Errorf("resume walked %d blocks in the full-scan path, want 0", scan1-scan0)
	}
	if idx1 != idx0+2 {
		t.Errorf("indexed queries grew by %d, want 2", idx1-idx0)
	}

	// An address-less query still takes (and counts) the full scan.
	c.FilterLogs(FilterQuery{})
	scan2, _ := c.LogScanStats()
	if scan2 == scan1 {
		t.Error("address-less query did not use the scan path")
	}
}
