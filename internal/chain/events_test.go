package chain

import (
	"slices"
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

// TestMinedUnderConcurrentMining: four miners race (AutoMine off) while
// a reader takes Mined before it reads the head, then reads the new blocks'
// logs. The reader sees every block and every log exactly once, each wake
// follows a new block, and it never waits on a block already sealed: once
// the miners stop, it reaches the final head with no further block mined.
// Run with -race.
func TestMinedUnderConcurrentMining(t *testing.T) {
	alice := newAccount(134)
	cfg := DefaultConfig()
	cfg.AutoMine = false
	c := New(cfg, map[types.Address]*uint256.Int{alice.addr: eth(100)})

	// A channel taken before a seal is closed by it; one taken after is not.
	before := c.Mined()
	c.MineBlock()
	select {
	case <-before:
	default:
		t.Fatal("Mined channel taken before a seal is still open after it")
	}
	select {
	case <-c.Mined():
		t.Fatal("Mined channel taken after the last seal is already closed")
	default:
	}

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

	const (
		miners        = 4
		blocksPerGoro = 25
		loggedTxs     = 20
	)
	start := c.Height()
	final := start + miners*blocksPerGoro + 1 // the miners' blocks, then one flush

	var logs, wakes int
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		seen := start
		for seen < final {
			mined := c.Mined()
			head := c.Height()
			if head == seen {
				select {
				case <-mined:
				case <-time.After(10 * time.Second):
					t.Errorf("reader waits at block %d with the head at %d", seen, c.Height())
					return
				}
				if c.Height() == seen {
					t.Errorf("Mined fired with the head still at %d", seen)
					return
				}
				wakes++
				continue
			}
			for _, l := range c.FilterLogs(FilterQuery{FromBlock: seen + 1, ToBlock: head, Addresses: []types.Address{addr}}) {
				if l.Address != addr || l.BlockNumber <= seen || l.BlockNumber > head {
					t.Errorf("log from %s in block %d read for blocks %d..%d", l.Address.Hex(), l.BlockNumber, seen+1, head)
				}
				logs++
			}
			seen = head
		}
	}()

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
	<-readerDone

	if c.Height() != final {
		t.Fatalf("head %d, want %d", c.Height(), final)
	}
	if logs != loggedTxs {
		t.Fatalf("reader read %d logs, want %d", logs, loggedTxs)
	}
	if wakes == 0 {
		t.Error("the reader never waited on Mined")
	}
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

// TestFilterLogsAddresses: Addresses is an any-of selector on the emitting
// address — a listed contract's logs match, an unlisted one's do not, a
// duplicate entry adds nothing — and an empty list matches nothing: a tower
// guarding no contract reads no log.
func TestFilterLogsAddresses(t *testing.T) {
	alice := newAccount(140)
	c := testChain(alice)
	addrA, nonce := deployLogger(t, c, alice, 0, 0xA1)
	addrB, nonce := deployLogger(t, c, alice, nonce, 0xB2)
	addrC, nonce := deployLogger(t, c, alice, nonce, 0xC3)
	from := c.Height() + 1
	nonce = callLogger(t, c, alice, nonce, addrA)
	nonce = callLogger(t, c, alice, nonce, addrB)
	callLogger(t, c, alice, nonce, addrC)

	addrsOf := func(q FilterQuery) []types.Address {
		q.FromBlock = from
		var out []types.Address
		for _, l := range c.FilterLogs(q) {
			out = append(out, l.Address)
		}
		return out
	}
	if got := addrsOf(FilterQuery{Addresses: []types.Address{addrC, addrA}}); !slices.Equal(got, []types.Address{addrA, addrC}) {
		t.Errorf("Addresses {C, A} read %v, want A's log then C's", got)
	}
	if got := addrsOf(FilterQuery{Addresses: []types.Address{addrB, addrB}}); !slices.Equal(got, []types.Address{addrB}) {
		t.Errorf("Addresses {B, B} read %v, want B's one log", got)
	}
	if got := addrsOf(FilterQuery{Addresses: []types.Address{}}); len(got) != 0 {
		t.Errorf("an empty Addresses list read %v, want nothing", got)
	}
	if got := addrsOf(FilterQuery{}); len(got) != 3 {
		t.Errorf("no address selector read %d logs, want all 3", len(got))
	}
	topic := types.BytesToHash([]byte{0xB2})
	if got := addrsOf(FilterQuery{Addresses: []types.Address{addrA, addrB}, Topic: &topic}); !slices.Equal(got, []types.Address{addrB}) {
		t.Errorf("Addresses {A, B} with B's topic read %v, want B's log", got)
	}
}

// TestFilterLogsTopicsAnyOf: the Topics selector is an any-of match on
// topic[0], on the full scan and on the index alike.
func TestFilterLogsTopicsAnyOf(t *testing.T) {
	alice := newAccount(141)
	c := testChain(alice)
	addrA, nonce := deployLogger(t, c, alice, 0, 0x11)
	addrB, nonce := deployLogger(t, c, alice, nonce, 0x22)
	addrC, nonce := deployLogger(t, c, alice, nonce, 0x33)
	nonce = callLogger(t, c, alice, nonce, addrA)
	nonce = callLogger(t, c, alice, nonce, addrB)
	callLogger(t, c, alice, nonce, addrC)

	t1 := types.BytesToHash([]byte{0x11})
	t2 := types.BytesToHash([]byte{0x22})
	for _, q := range []FilterQuery{
		{Topics: []types.Hash{t1, t2}},
		{Topics: []types.Hash{t1, t2}, Addresses: []types.Address{addrA, addrB, addrC}},
	} {
		logs := c.FilterLogs(q)
		if len(logs) != 2 || logs[0].Topics[0] != t1 || logs[1].Topics[0] != t2 {
			t.Fatalf("Topics {0x11, 0x22} (Addresses %v) read %d logs, want 0x11's then 0x22's", q.Addresses, len(logs))
		}
	}
}
