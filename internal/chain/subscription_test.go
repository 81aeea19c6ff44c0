package chain

import (
	"sync"
	"testing"
	"time"

	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/vm"
)

// deployLogger deploys a contract that LOG1s the given topic byte on
// every call and returns its address plus the next nonce.
func deployLogger(t *testing.T, c *Chain, who account, nonce uint64, topicByte byte) (types.Address, uint64) {
	t.Helper()
	code := []byte{
		byte(vm.PUSH1), topicByte,
		byte(vm.PUSH1), 0, byte(vm.PUSH1), 0, byte(vm.LOG1),
		byte(vm.STOP),
	}
	init := []byte{
		byte(vm.PUSH1), byte(len(code)), byte(vm.PUSH1), 12, byte(vm.PUSH1), 0, byte(vm.CODECOPY),
		byte(vm.PUSH1), byte(len(code)), byte(vm.PUSH1), 0, byte(vm.RETURN),
	}
	tx := types.NewContractCreation(nonce, nil, 300000, uint256.NewInt(1), append(init, code...))
	if err := tx.Sign(who.key); err != nil {
		t.Fatal(err)
	}
	h, err := c.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Receipt(h)
	if err != nil || !r.Succeeded() {
		t.Fatalf("logger deploy failed: %v", err)
	}
	return r.ContractAddress, nonce + 1
}

func callLogger(t *testing.T, c *Chain, who account, nonce uint64, addr types.Address) uint64 {
	t.Helper()
	tx := types.NewTransaction(nonce, addr, nil, 100000, uint256.NewInt(1), nil)
	if err := tx.Sign(who.key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	return nonce + 1
}

func TestFilterLogsBlockRangeBounds(t *testing.T) {
	alice := newAccount(130)
	c := testChain(alice)
	addr, nonce := deployLogger(t, c, alice, 0, 0x55)
	// Three calls -> logs in three distinct blocks (auto-mine).
	firstLogBlock := c.Height() + 1
	for i := 0; i < 3; i++ {
		nonce = callLogger(t, c, alice, nonce, addr)
	}
	head := c.Height()

	// ToBlock == 0 means head: all three logs.
	if got := c.FilterLogs(FilterQuery{Address: &addr}); len(got) != 3 {
		t.Errorf("full scan found %d logs, want 3", len(got))
	}
	// Exact single-block range.
	one := c.FilterLogs(FilterQuery{FromBlock: firstLogBlock, ToBlock: firstLogBlock, Address: &addr})
	if len(one) != 1 {
		t.Errorf("single-block range found %d logs, want 1", len(one))
	}
	if len(one) == 1 && one[0].BlockNumber != firstLogBlock {
		t.Errorf("log block number %d, want %d", one[0].BlockNumber, firstLogBlock)
	}
	// ToBlock beyond head clamps to head.
	if got := c.FilterLogs(FilterQuery{FromBlock: 0, ToBlock: head + 100, Address: &addr}); len(got) != 3 {
		t.Errorf("over-range scan found %d logs, want 3", len(got))
	}
	// FromBlock beyond head yields nothing.
	if got := c.FilterLogs(FilterQuery{FromBlock: head + 1, ToBlock: head + 5, Address: &addr}); len(got) != 0 {
		t.Errorf("past-head scan found %d logs, want 0", len(got))
	}
	// Inverted range (From > To, To nonzero) yields nothing.
	if got := c.FilterLogs(FilterQuery{FromBlock: head, ToBlock: 1, Address: &addr}); len(got) != 0 {
		t.Errorf("inverted range found %d logs, want 0", len(got))
	}
}

func TestFilterLogsTopicMatching(t *testing.T) {
	alice := newAccount(131)
	c := testChain(alice)
	addrA, nonce := deployLogger(t, c, alice, 0, 0x11)
	addrB, nonce := deployLogger(t, c, alice, nonce, 0x22)
	nonce = callLogger(t, c, alice, nonce, addrA)
	nonce = callLogger(t, c, alice, nonce, addrB)
	_ = callLogger(t, c, alice, nonce, addrB)

	topicA := types.BytesToHash([]byte{0x11})
	topicB := types.BytesToHash([]byte{0x22})
	// Topic-only filters cut across contracts.
	if got := c.FilterLogs(FilterQuery{Topic: &topicA}); len(got) != 1 {
		t.Errorf("topic A matched %d logs, want 1", len(got))
	}
	if got := c.FilterLogs(FilterQuery{Topic: &topicB}); len(got) != 2 {
		t.Errorf("topic B matched %d logs, want 2", len(got))
	}
	// Address + mismatched topic matches nothing.
	if got := c.FilterLogs(FilterQuery{Address: &addrA, Topic: &topicB}); len(got) != 0 {
		t.Errorf("addrA+topicB matched %d logs, want 0", len(got))
	}
	// No selectors: every log.
	if got := c.FilterLogs(FilterQuery{}); len(got) != 3 {
		t.Errorf("unfiltered scan found %d logs, want 3", len(got))
	}
}

// TestSubscriptionDelivery: two subscribers with different filters each
// receive their own view of the same blocks — only logs mined after the
// subscription, only the ones their selectors match, one batch per block.
func TestSubscriptionDelivery(t *testing.T) {
	alice := newAccount(132)
	c := testChain(alice)
	addr, nonce := deployLogger(t, c, alice, 0, 0x33)
	other, nonce := deployLogger(t, c, alice, nonce, 0x34)
	// Mined before the subscriptions: never replayed.
	nonce = callLogger(t, c, alice, nonce, addr)

	topic := types.BytesToHash([]byte{0x33})
	exact := c.SubscribeBlockLogs(FilterQuery{Address: &addr, Topic: &topic})
	defer exact.Unsubscribe()
	all := c.SubscribeBlockLogs(FilterQuery{})
	defer all.Unsubscribe()

	start := c.Height()
	for i := 0; i < 3; i++ {
		nonce = callLogger(t, c, alice, nonce, addr)
	}
	callLogger(t, c, alice, nonce, other)
	for i := uint64(1); i <= 4; i++ {
		e, a := recvBatch(t, exact), recvBatch(t, all)
		if e.Number != start+i || a.Number != start+i {
			t.Fatalf("batch %d: numbers %d/%d, want %d", i, e.Number, a.Number, start+i)
		}
		if len(a.Logs) != 1 {
			t.Fatalf("batch %d: unfiltered subscriber got %d logs, want 1", i, len(a.Logs))
		}
		if i == 4 {
			if len(e.Logs) != 0 || a.Logs[0].Address != other {
				t.Fatalf("batch 4: exact filter got %d logs, unfiltered got %s", len(e.Logs), a.Logs[0].Address.Hex())
			}
			continue
		}
		if len(e.Logs) != 1 || e.Logs[0].Address != addr || e.Logs[0].Topics[0] != topic {
			t.Fatalf("batch %d: wrong address/topic: %+v", i, e.Logs)
		}
	}
	select {
	case b := <-exact.BlockLogs():
		t.Fatalf("unexpected extra batch for block %d", b.Number)
	default:
	}
}

func TestSubscribeUnsubscribeClosesChannel(t *testing.T) {
	alice := newAccount(133)
	c := testChain(alice)
	sub := c.SubscribeBlockLogs(FilterQuery{})
	sub.Unsubscribe()
	sub.Unsubscribe() // idempotent
	if _, ok := <-sub.BlockLogs(); ok {
		t.Error("channel not closed after Unsubscribe")
	}
	// Detached: the mined-block fan-out no longer reaches it.
	c.mu.Lock()
	n := len(c.subs)
	c.mu.Unlock()
	if n != 0 {
		t.Errorf("%d subscriptions still registered after Unsubscribe", n)
	}
}

// TestSubscriptionsUnderConcurrentMining hammers manual mining (AutoMine
// off) from several goroutines while subscribers consume: every mined
// block must be delivered exactly once and in order — to a subscriber
// whose empty-set filter lets no log through as much as to one that
// matches — and every log must reach the matching subscriber. Run with
// -race.
func TestSubscriptionsUnderConcurrentMining(t *testing.T) {
	alice := newAccount(134)
	cfg := DefaultConfig()
	cfg.AutoMine = false
	c := New(cfg, map[types.Address]*uint256.Int{alice.addr: eth(100)})

	// Deploy the logger with a manual mine.
	code := []byte{
		byte(vm.PUSH1), 0x44,
		byte(vm.PUSH1), 0, byte(vm.PUSH1), 0, byte(vm.LOG1),
		byte(vm.STOP),
	}
	init := []byte{
		byte(vm.PUSH1), byte(len(code)), byte(vm.PUSH1), 12, byte(vm.PUSH1), 0, byte(vm.CODECOPY),
		byte(vm.PUSH1), byte(len(code)), byte(vm.PUSH1), 0, byte(vm.RETURN),
	}
	deployTx := types.NewContractCreation(0, nil, 300000, uint256.NewInt(1), append(init, code...))
	if err := deployTx.Sign(alice.key); err != nil {
		t.Fatal(err)
	}
	h, err := c.SendTransaction(deployTx)
	if err != nil {
		t.Fatal(err)
	}
	c.MineBlock()
	r, err := c.Receipt(h)
	if err != nil || !r.Succeeded() {
		t.Fatalf("deploy: %v", err)
	}
	addr := r.ContractAddress

	tickSub := c.SubscribeBlockLogs(FilterQuery{AddressIn: NewAddressSet()})
	logSub := c.SubscribeBlockLogs(FilterQuery{Address: &addr})
	startHeight := c.Height()

	const (
		miners        = 4
		blocksPerGoro = 25
		loggedTxs     = 20
	)
	var wg sync.WaitGroup
	// One goroutine submits transactions that log; miners race to mine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		nonce := uint64(1)
		for i := 0; i < loggedTxs; i++ {
			tx := types.NewTransaction(nonce, addr, nil, 100000, uint256.NewInt(1), nil)
			if err := tx.Sign(alice.key); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.SendTransaction(tx); err != nil {
				t.Error(err)
				return
			}
			nonce++
		}
	}()
	for m := 0; m < miners; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < blocksPerGoro; i++ {
				c.MineBlock()
			}
		}()
	}
	wg.Wait()
	// Everything submitted is mined now; flush any stragglers.
	c.MineBlock()

	mined := c.Height() - startHeight
	logs := 0
	for i := uint64(1); i <= mined; i++ {
		tick, b := recvBatch(t, tickSub), recvBatch(t, logSub)
		if tick.Number != startHeight+i || b.Number != startHeight+i {
			t.Fatalf("blocks out of order: got %d/%d, want %d", tick.Number, b.Number, startHeight+i)
		}
		if len(tick.Logs) != 0 {
			t.Fatalf("block %d: empty-set filter delivered %d logs", tick.Number, len(tick.Logs))
		}
		for _, l := range b.Logs {
			if l.Address != addr || l.BlockNumber != b.Number {
				t.Fatalf("block %d: log from %s in block %d", b.Number, l.Address.Hex(), l.BlockNumber)
			}
		}
		logs += len(b.Logs)
	}
	if logs != loggedTxs {
		t.Fatalf("%d logs delivered, want %d", logs, loggedTxs)
	}
	select {
	case b := <-logSub.BlockLogs():
		t.Fatalf("batch for block %d past the head", b.Number)
	default:
	}
	tickSub.Unsubscribe()
	logSub.Unsubscribe()
}

// Empty blocks (manual mining with nothing pending) must carry the SAME
// state root as their parent: identical state, identical commitment.
func TestEmptyBlockKeepsStateRoot(t *testing.T) {
	alice := newAccount(135)
	cfg := DefaultConfig()
	cfg.AutoMine = false
	c := New(cfg, map[types.Address]*uint256.Int{alice.addr: eth(100)})
	root := c.Latest().Header.Root
	for i := 0; i < 3; i++ {
		b := c.MineBlock()
		if b.Header.Root != root {
			t.Fatalf("empty block %d changed state root: %s -> %s", b.Number(), root.Hex(), b.Header.Root.Hex())
		}
	}
}

// recvBatch reads one BlockLogs batch or fails the test.
func recvBatch(t *testing.T, sub *BlockLogSubscription) *BlockLogs {
	t.Helper()
	select {
	case b, ok := <-sub.BlockLogs():
		if !ok {
			t.Fatal("block-log channel closed")
		}
		return b
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for a block-log batch")
	}
	return nil
}

// TestSubscribeBlockLogsAddressSet: the live AddressIn filter delivers
// only the watched contracts' logs while still ticking every block
// boundary — the per-tower filtering the watchtower rides on.
func TestSubscribeBlockLogsAddressSet(t *testing.T) {
	alice := newAccount(140)
	c := testChain(alice)
	addrA, nonce := deployLogger(t, c, alice, 0, 0xA1)
	addrB, nonce := deployLogger(t, c, alice, nonce, 0xB2)

	set := NewAddressSet()
	set.Add(addrA)
	sub := c.SubscribeBlockLogs(FilterQuery{AddressIn: set})
	defer sub.Unsubscribe()

	// A's log matches; B's block arrives as an empty boundary batch.
	nonce = callLogger(t, c, alice, nonce, addrA)
	b := recvBatch(t, sub)
	if len(b.Logs) != 1 || b.Logs[0].Address != addrA {
		t.Fatalf("batch 1: want A's log, got %+v", b.Logs)
	}
	if b.Number != c.Height() {
		t.Fatalf("batch 1: number %d, head %d", b.Number, c.Height())
	}
	nonce = callLogger(t, c, alice, nonce, addrB)
	if b = recvBatch(t, sub); len(b.Logs) != 0 {
		t.Fatalf("batch 2: unwatched address delivered logs: %+v", b.Logs)
	}

	// Growing the set takes effect for the next mined block.
	set.Add(addrB)
	nonce = callLogger(t, c, alice, nonce, addrB)
	if b = recvBatch(t, sub); len(b.Logs) != 1 || b.Logs[0].Address != addrB {
		t.Fatalf("batch 3: want B's log after Add, got %+v", b.Logs)
	}

	// Shrinking mutes a previously watched contract.
	set.Remove(addrA)
	callLogger(t, c, alice, nonce, addrA)
	if b = recvBatch(t, sub); len(b.Logs) != 0 {
		t.Fatalf("batch 4: removed address still delivered: %+v", b.Logs)
	}
	if len(set.Snapshot()) != 1 || set.Contains(addrA) || !set.Contains(addrB) {
		t.Fatal("set state after Add/Remove is wrong")
	}
}

// TestSubscribeBlockLogsTopicsAnyOf: the Topics selector is an any-of
// match on topic[0].
func TestSubscribeBlockLogsTopicsAnyOf(t *testing.T) {
	alice := newAccount(141)
	c := testChain(alice)
	addrA, nonce := deployLogger(t, c, alice, 0, 0x11)
	addrB, nonce := deployLogger(t, c, alice, nonce, 0x22)
	addrC, nonce := deployLogger(t, c, alice, nonce, 0x33)

	t1 := types.BytesToHash([]byte{0x11})
	t2 := types.BytesToHash([]byte{0x22})
	sub := c.SubscribeBlockLogs(FilterQuery{Topics: []types.Hash{t1, t2}})
	defer sub.Unsubscribe()

	nonce = callLogger(t, c, alice, nonce, addrA)
	if b := recvBatch(t, sub); len(b.Logs) != 1 || b.Logs[0].Topics[0] != t1 {
		t.Fatalf("topic 0x11 not matched: %+v", b.Logs)
	}
	nonce = callLogger(t, c, alice, nonce, addrB)
	if b := recvBatch(t, sub); len(b.Logs) != 1 || b.Logs[0].Topics[0] != t2 {
		t.Fatalf("topic 0x22 not matched: %+v", b.Logs)
	}
	callLogger(t, c, alice, nonce, addrC)
	if b := recvBatch(t, sub); len(b.Logs) != 0 {
		t.Fatalf("topic 0x33 should not match: %+v", b.Logs)
	}

	// FilterLogs honors the same selectors (poll side).
	if got := len(c.FilterLogs(FilterQuery{Topics: []types.Hash{t1, t2}})); got != 2 {
		t.Fatalf("FilterLogs any-of matched %d logs, want 2", got)
	}
	set := NewAddressSet()
	set.Add(addrC)
	if got := len(c.FilterLogs(FilterQuery{AddressIn: set})); got != 1 {
		t.Fatalf("FilterLogs AddressIn matched %d logs, want 1", got)
	}
}
