package chain

import (
	"context"
	"errors"
	"testing"
	"time"

	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// batchChain builds a chain with AutoMine off (manual MineBlock or a
// StartMining driver produce the blocks).
func batchChain(accounts ...account) *Chain {
	cfg := DefaultConfig()
	cfg.AutoMine = false
	alloc := map[types.Address]*uint256.Int{}
	for _, a := range accounts {
		alloc[a.addr] = eth(100)
	}
	return New(cfg, alloc)
}

// TestWaitReceiptAutoMine: under AutoMine the receipt already exists when
// WaitReceipt is called; it must resolve immediately, identically to
// Receipt.
func TestWaitReceiptAutoMine(t *testing.T) {
	alice, bob := newAccount(301), newAccount(302)
	c := testChain(alice, bob)
	hash, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), 0))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.WaitReceipt(context.Background(), hash)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Succeeded() {
		t.Error("transfer receipt not successful")
	}
	if r2, _ := c.Receipt(hash); r2 != r {
		t.Error("WaitReceipt and Receipt disagree")
	}
}

// TestWaitReceiptResolvesAtMineTime: with transactions pooled, WaitReceipt
// blocks until MineBlock executes them, then delivers every receipt.
func TestWaitReceiptResolvesAtMineTime(t *testing.T) {
	alice, bob := newAccount(303), newAccount(304)
	c := batchChain(alice, bob)
	h1, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), 0))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), 1))
	if err != nil {
		t.Fatal(err)
	}

	type res struct {
		r   *types.Receipt
		err error
	}
	done := make(chan res, 2)
	for _, h := range []types.Hash{h1, h2} {
		h := h
		go func() {
			r, err := c.WaitReceipt(context.Background(), h)
			done <- res{r, err}
		}()
	}
	select {
	case <-done:
		t.Fatal("WaitReceipt resolved before any block was mined")
	case <-time.After(20 * time.Millisecond):
	}
	b := c.MineBlock()
	if len(b.Transactions) != 2 {
		t.Fatalf("block carries %d txs, want 2", len(b.Transactions))
	}
	for i := 0; i < 2; i++ {
		out := <-done
		if out.err != nil || !out.r.Succeeded() {
			t.Fatalf("waiter %d: receipt=%v err=%v", i, out.r, out.err)
		}
	}
}

// TestWaitReceiptDroppedAtExecution: a transaction that passes admission
// but is invalidated by an earlier transaction in its block (balance
// drained) must resolve WaitReceipt with ErrTxDropped — not hang, and not
// pretend to have mined.
func TestWaitReceiptDroppedAtExecution(t *testing.T) {
	alice, bob := newAccount(305), newAccount(306)
	c := batchChain(alice, bob)
	// Admission checks both against the CURRENT state balance (100 ether),
	// so both enter the pool; execution drains alice with the first, so
	// the second is dropped at execution time.
	nearlyAll := eth(99)
	h1, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, nearlyAll, 0))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, nearlyAll, 1))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.WaitReceipt(context.Background(), h2)
		errc <- err
	}()
	c.MineBlock()
	if r, err := c.WaitReceipt(context.Background(), h1); err != nil || !r.Succeeded() {
		t.Fatalf("first transfer: receipt=%v err=%v", r, err)
	}
	err = <-errc
	if !errors.Is(err, ErrTxDropped) {
		t.Fatalf("dropped tx resolved with %v, want ErrTxDropped", err)
	}
	// Late waiters get the same answer from the drop ledger.
	if _, err := c.WaitReceipt(context.Background(), h2); !errors.Is(err, ErrTxDropped) {
		t.Fatalf("late WaitReceipt on dropped tx: %v, want ErrTxDropped", err)
	}
	// And the poll API still reports it unknown (it never mined).
	if _, err := c.Receipt(h2); !errors.Is(err, ErrUnknownTransaction) {
		t.Fatalf("Receipt on dropped tx: %v, want ErrUnknownTransaction", err)
	}
}

// TestResubmitAfterDrop: re-accepting the identical transaction after an
// execution-time drop supersedes the drop verdict — WaitReceipt must
// track the live pool entry, not report the stale ErrTxDropped.
func TestResubmitAfterDrop(t *testing.T) {
	alice, bob := newAccount(319), newAccount(320)
	c := batchChain(alice, bob)
	tx1 := signedTransfer(t, alice, bob.addr, eth(99), 0)
	tx2 := signedTransfer(t, alice, bob.addr, eth(99), 1)
	if _, err := c.SendTransaction(tx1); err != nil {
		t.Fatal(err)
	}
	h2, err := c.SendTransaction(tx2)
	if err != nil {
		t.Fatal(err)
	}
	c.MineBlock() // tx1 drains alice; tx2 dropped at execution
	if _, err := c.WaitReceipt(context.Background(), h2); !errors.Is(err, ErrTxDropped) {
		t.Fatalf("setup: %v, want ErrTxDropped", err)
	}
	// Bob refunds alice; the IDENTICAL tx2 (same hash, nonce still valid)
	// is resubmitted and must mine cleanly.
	if _, err := c.SendTransaction(signedTransfer(t, bob, alice.addr, eth(99), 0)); err != nil {
		t.Fatal(err)
	}
	c.MineBlock()
	if _, err := c.SendTransaction(tx2); err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		r, err := c.WaitReceipt(context.Background(), h2)
		if err == nil && !r.Succeeded() {
			err = errors.New("resubmitted tx receipt not successful")
		}
		done <- err
	}()
	c.MineBlock()
	if err := <-done; err != nil {
		t.Fatalf("resubmitted tx: %v", err)
	}
}

// TestWaitReceiptContextAndUnknown: cancellation returns ctx.Err without
// leaking the waiter; a hash the chain never accepted fails fast.
func TestWaitReceiptContextAndUnknown(t *testing.T) {
	alice, bob := newAccount(307), newAccount(308)
	c := batchChain(alice, bob)
	if _, err := c.WaitReceipt(context.Background(), types.Hash{1, 2, 3}); !errors.Is(err, ErrUnknownTransaction) {
		t.Fatalf("unknown hash: %v, want ErrUnknownTransaction", err)
	}
	h, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.WaitReceipt(ctx, h); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait: %v, want context.Canceled", err)
	}
	c.mu.Lock()
	leaked := len(c.waiters)
	c.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d waiter entries leaked after cancellation", leaked)
	}
	// The transaction is unaffected: it still mines and resolves.
	c.MineBlock()
	if r, err := c.WaitReceipt(context.Background(), h); err != nil || !r.Succeeded() {
		t.Fatalf("post-cancel mine: receipt=%v err=%v", r, err)
	}
}

// TestWaitReceiptParksAcrossACappedBlock: a cap-only driver seals the first
// two of three pooled transfers; a waiter on the third stays parked across
// that block and resolves at the next MineBlock, which carries it. A waiter
// canceled while parked returns ctx.Err(), and the transaction it waited
// on still mines.
func TestWaitReceiptParksAcrossACappedBlock(t *testing.T) {
	alice, bob := newAccount(315), newAccount(316)
	c := batchChain(alice, bob)
	var hashes []types.Hash
	for i := uint64(0); i < 3; i++ {
		h, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), i))
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		hashes = append(hashes, h)
	}
	type outcome struct {
		r   *types.Receipt
		err error
	}
	wait := func(ctx context.Context) <-chan outcome {
		done := make(chan outcome, 1)
		go func() {
			r, err := c.WaitReceipt(ctx, hashes[2])
			done <- outcome{r, err}
		}()
		return done
	}
	parked := wait(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	canceled := wait(ctx)

	mined := c.Mined()
	if err := c.StartMining(0, 2); err != nil {
		t.Fatal(err)
	}
	defer c.StopMining()
	<-mined
	if c.Height() != 1 || c.PendingCount() != 1 {
		t.Fatalf("after the capped block: height %d, %d pooled; want 1 and 1", c.Height(), c.PendingCount())
	}
	for _, h := range hashes[:2] {
		if _, err := c.Receipt(h); err != nil {
			t.Fatalf("capped block: %v", err)
		}
	}
	select {
	case out := <-parked:
		t.Fatalf("waiter resolved by a block that does not carry its transaction: %v, %v", out.r, out.err)
	case out := <-canceled:
		t.Fatalf("waiter resolved by a block that does not carry its transaction: %v, %v", out.r, out.err)
	case <-time.After(50 * time.Millisecond):
	}

	cancel()
	if out := <-canceled; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("canceled waiter: %v, %v; want context.Canceled", out.r, out.err)
	}
	c.MineBlock()
	out := <-parked
	if out.err != nil || !out.r.Succeeded() || out.r.BlockNumber != 2 {
		t.Fatalf("parked waiter: receipt=%+v err=%v, want a successful receipt from block 2", out.r, out.err)
	}
}

// TestPendingNonceAt: the pending pool reserves nonces, so a sender can
// pipeline transactions without waiting for blocks, and admission stays
// strict about gaps and reuse.
func TestPendingNonceAt(t *testing.T) {
	alice, bob := newAccount(309), newAccount(310)
	c := batchChain(alice, bob)
	if n := c.PendingNonceAt(alice.addr); n != 0 {
		t.Fatalf("fresh pending nonce = %d", n)
	}
	for i := uint64(0); i < 3; i++ {
		if _, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), i)); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	if n := c.PendingNonceAt(alice.addr); n != 3 {
		t.Fatalf("pending nonce = %d, want 3", n)
	}
	if n := c.NonceAt(alice.addr); n != 0 {
		t.Fatalf("state nonce = %d, want 0 (nothing mined)", n)
	}
	// Reuse and gaps are rejected against the pending reservation.
	if _, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), 1)); !errors.Is(err, ErrNonceTooLow) {
		t.Fatalf("nonce reuse: %v, want ErrNonceTooLow", err)
	}
	if _, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), 5)); !errors.Is(err, ErrNonceTooHigh) {
		t.Fatalf("nonce gap: %v, want ErrNonceTooHigh", err)
	}
	c.MineBlock()
	if n, p := c.NonceAt(alice.addr), c.PendingNonceAt(alice.addr); n != 3 || p != 3 {
		t.Fatalf("after mine: state=%d pending=%d, want 3/3", n, p)
	}
}

// TestStartMiningCapDriven: a pool reaching maxTxsPerBlock seals a block
// immediately, without waiting out the interval.
func TestStartMiningCapDriven(t *testing.T) {
	alice, bob := newAccount(311), newAccount(312)
	c := batchChain(alice, bob)
	if err := c.StartMining(time.Minute, 4); err != nil {
		t.Fatal(err)
	}
	defer c.StopMining()
	hashes := make([]types.Hash, 4)
	for i := uint64(0); i < 4; i++ {
		h, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), i))
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, h := range hashes {
		if r, err := c.WaitReceipt(ctx, h); err != nil || !r.Succeeded() {
			t.Fatalf("tx %d never resolved despite a full pool: receipt=%v err=%v", i, r, err)
		}
	}
	if got := c.Height(); got != 1 {
		t.Fatalf("cap-driven mining produced %d blocks, want 1", got)
	}
}

// TestStartMiningIntervalDriven: a partial pool is sealed when the
// deadline expires, and pre-driver transactions are picked up at start.
func TestStartMiningIntervalDriven(t *testing.T) {
	alice, bob := newAccount(313), newAccount(314)
	c := batchChain(alice, bob)
	h, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartMining(time.Millisecond, 1024); err != nil {
		t.Fatal(err)
	}
	defer c.StopMining()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r, err := c.WaitReceipt(ctx, h); err != nil || !r.Succeeded() {
		t.Fatalf("interval mining never sealed the pool: receipt=%v err=%v", r, err)
	}
	// Idle driver mints no empty blocks.
	height := c.Height()
	time.Sleep(20 * time.Millisecond)
	if got := c.Height(); got != height {
		t.Fatalf("idle driver minted %d empty blocks", got-height)
	}
}

// TestStartMiningGuards: the driver refuses AutoMine chains, double
// starts, and nonsense caps; StopMining is idempotent.
func TestStartMiningGuards(t *testing.T) {
	auto := testChain(newAccount(315))
	if err := auto.StartMining(time.Millisecond, 8); !errors.Is(err, ErrAutoMineDriver) {
		t.Fatalf("StartMining on AutoMine: %v, want ErrAutoMineDriver", err)
	}
	c := batchChain(newAccount(316))
	if err := c.StartMining(time.Millisecond, 0); err == nil {
		t.Fatal("StartMining accepted a non-positive cap")
	}
	if err := c.StartMining(time.Millisecond, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.StartMining(time.Millisecond, 8); !errors.Is(err, ErrMiningStarted) {
		t.Fatalf("double StartMining: %v, want ErrMiningStarted", err)
	}
	c.StopMining()
	c.StopMining() // idempotent
	// A stopped driver can be restarted.
	if err := c.StartMining(time.Millisecond, 8); err != nil {
		t.Fatal(err)
	}
	c.StopMining()
}

// TestMineBlockRespectsCap: while a driver with a cap is active, sealing
// splits an over-full pool across consecutive cap-sized blocks (the
// sub-cap leftover waits for the interval deadline), and leftover
// senders' nonce reservations stay intact.
func TestMineBlockRespectsCap(t *testing.T) {
	alice, bob := newAccount(317), newAccount(318)
	c := batchChain(alice, bob)
	if err := c.StartMining(50*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	defer c.StopMining()
	hashes := make([]types.Hash, 5)
	for i := uint64(0); i < 5; i++ {
		h, err := c.SendTransaction(signedTransfer(t, alice, bob.addr, eth(1), i))
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, h := range hashes {
		if r, err := c.WaitReceipt(ctx, h); err != nil || !r.Succeeded() {
			t.Fatalf("tx %d: receipt=%v err=%v", i, r, err)
		}
	}
	// Exact block layout depends on tick timing; the invariants do not:
	// the cap is never exceeded, so 5 txs need at least 3 blocks, and at
	// least one pool filled to the cap and sealed early.
	full := false
	for bn := uint64(1); bn <= c.Height(); bn++ {
		b, err := c.BlockByNumber(bn)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Transactions) > 2 {
			t.Fatalf("block %d carries %d txs, cap is 2", bn, len(b.Transactions))
		}
		if len(b.Transactions) == 2 {
			full = true
		}
	}
	if got := c.Height(); got < 3 {
		t.Fatalf("5 txs under cap 2 sealed in %d blocks, want >= 3", got)
	}
	if !full {
		t.Error("no block was sealed at the cap")
	}
}
