package chain

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"onoffchain/internal/store"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/vm"
)

// balanceRuntime returns BALANCE(calldata word 0): Call's view of an
// account.
var balanceRuntime = []byte{
	byte(vm.PUSH1), 0, byte(vm.CALLDATALOAD), byte(vm.BALANCE), // [balance]
	byte(vm.PUSH1), 0, byte(vm.MSTORE), // []
	byte(vm.PUSH1), 32, byte(vm.PUSH1), 0, byte(vm.RETURN),
}

// TestPooledEffectsInvisibleUntilSeal: the serial engine executes each
// transaction as it is pooled, but nothing of it — receipt, drop, balance,
// nonce, log, call result — is visible before its block is sealed.
func TestPooledEffectsInvisibleUntilSeal(t *testing.T) {
	alice, bob, carol := newAccount(7100), newAccount(7101), newAccount(7102)
	cfg := DefaultConfig()
	cfg.AutoMine = false
	c := New(cfg, map[types.Address]*uint256.Int{alice.addr: eth(100), bob.addr: eth(100), carol.addr: eth(1)})

	var contracts [2]types.Address
	for i, runtime := range [][]byte{counterRuntime, balanceRuntime} {
		deploy := types.NewContractCreation(uint64(i), nil, 300_000, uint256.NewInt(1), deployInit(runtime))
		if err := deploy.Sign(alice.key); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SendTransaction(deploy); err != nil {
			t.Fatal(err)
		}
		c.MineBlock()
		r, err := c.Receipt(deploy.Hash())
		if err != nil || !r.Succeeded() {
			t.Fatalf("deploy %d: %v", i, err)
		}
		contracts[i] = r.ContractAddress
	}
	counter, balanceOf := contracts[0], contracts[1]
	callBalance := func(addr types.Address) *uint256.Int {
		t.Helper()
		var data [32]byte
		copy(data[12:], addr.Bytes())
		ret, _, err := c.Call(CallMsg{From: alice.addr, To: balanceOf, Data: data[:]})
		if err != nil {
			t.Fatal(err)
		}
		return new(uint256.Int).SetBytes(ret)
	}

	before := map[types.Address]*uint256.Int{}
	for _, a := range []account{alice, bob, carol} {
		before[a.addr] = c.BalanceAt(a.addr)
	}
	nonceAlice, nonceCarol := c.NonceAt(alice.addr), c.NonceAt(carol.addr)
	head := c.Height()

	// Pool an increment that logs, and two transfers from carol: both
	// pass admission against her sealed balance, but the first leaves too
	// little for the second, which is dropped at execution.
	incr := callCounter(t, alice, counter, 0, nonceAlice)
	pay1 := signedTransfer(t, carol, bob.addr, new(uint256.Int).Mul(uint256.NewInt(6), uint256.NewInt(ether/10)), 0)
	pay2 := signedTransfer(t, carol, bob.addr, new(uint256.Int).Mul(uint256.NewInt(6), uint256.NewInt(ether/10)), 1)
	for _, tx := range []*types.Transaction{incr, pay1, pay2} {
		if _, err := c.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}

	// They have run: the next block holds their outcomes, pay2's a drop.
	c.mu.Lock()
	next := c.next
	c.mu.Unlock()
	if next == nil || len(next.outcomes) != 3 || next.outcomes[0].err != nil || next.outcomes[1].err != nil ||
		!errors.Is(next.outcomes[2].err, ErrInsufficientFunds) {
		t.Fatalf("pooled transactions were not executed into the next block as pooled: %+v", next)
	}

	// Nothing of it shows before the seal.
	for _, tx := range []*types.Transaction{incr, pay1, pay2} {
		if _, err := c.Receipt(tx.Hash()); !errors.Is(err, ErrUnknownTransaction) {
			t.Fatalf("Receipt before the seal: %v, want ErrUnknownTransaction", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := c.WaitReceipt(ctx, tx.Hash())
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("WaitReceipt before the seal: %v, want the context's deadline", err)
		}
	}
	for addr, want := range before {
		if got := c.BalanceAt(addr); !got.Eq(want) {
			t.Fatalf("BalanceAt(%s) before the seal = %s, want %s", addr.Hex(), got, want)
		}
		if got := callBalance(addr); !got.Eq(want) {
			t.Fatalf("Call sees balance %s of %s before the seal, want %s", got, addr.Hex(), want)
		}
	}
	if c.NonceAt(alice.addr) != nonceAlice || c.NonceAt(carol.addr) != nonceCarol {
		t.Fatal("NonceAt moved before the seal")
	}
	if logs := c.FilterLogs(FilterQuery{Address: &counter}); len(logs) != 0 {
		t.Fatalf("FilterLogs shows %d logs before the seal", len(logs))
	}
	if c.Height() != head {
		t.Fatal("height moved before the seal")
	}

	// The seal publishes all of it at once.
	b := c.MineBlock()
	if len(b.Transactions) != 2 {
		t.Fatalf("block holds %d transactions, want 2", len(b.Transactions))
	}
	for _, tx := range []*types.Transaction{incr, pay1} {
		r, err := c.WaitReceipt(context.Background(), tx.Hash())
		if err != nil || !r.Succeeded() {
			t.Fatalf("receipt after the seal: %v", err)
		}
	}
	if _, err := c.WaitReceipt(context.Background(), pay2.Hash()); !errors.Is(err, ErrTxDropped) || !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("dropped transfer after the seal: %v, want ErrTxDropped wrapping ErrInsufficientFunds", err)
	}
	if got := c.BalanceAt(bob.addr); got.Eq(before[bob.addr]) || !callBalance(bob.addr).Eq(got) {
		t.Fatalf("bob's balance %s (call %s) unchanged after the seal", got, callBalance(bob.addr))
	}
	if c.NonceAt(alice.addr) != nonceAlice+1 || c.NonceAt(carol.addr) != nonceCarol+1 {
		t.Fatal("nonces did not move at the seal")
	}
	if logs := c.FilterLogs(FilterQuery{Address: &counter}); len(logs) != 1 {
		t.Fatalf("FilterLogs shows %d logs after the seal, want 1", len(logs))
	}
}

// TestPooledSendRacesTheSeal races senders, clock moves and the mining
// driver's seals, so blocks are sealed fresh (executed as pooled), stale
// (a clock move slipped in) and with tails carried over a cap. Replaying the
// journal re-executes every block at its seal, on each engine; both must
// rebuild the same head.
func TestPooledSendRacesTheSeal(t *testing.T) {
	senders := []account{newAccount(7200), newAccount(7201), newAccount(7202), newAccount(7203)}
	sink := newAccount(7299)
	alloc := func() map[types.Address]*uint256.Int {
		m := map[types.Address]*uint256.Int{}
		for _, a := range senders {
			m[a.addr] = eth(100)
		}
		return m
	}
	cfg := DefaultConfig()
	cfg.AutoMine = false
	c := New(cfg, alloc())
	var journal []*store.Record
	c.AttachJournal(func(r *store.Record) error {
		journal = append(journal, r) // under the chain lock
		return nil
	}, func(err error) { t.Error(err) })
	if err := c.StartMining(2*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}

	deploy := types.NewContractCreation(0, nil, 300_000, uint256.NewInt(1), deployInit(stampRuntime))
	if err := deploy.Sign(senders[0].key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendTransaction(deploy); err != nil {
		t.Fatal(err)
	}
	r, err := c.WaitReceipt(context.Background(), deploy.Hash())
	if err != nil {
		t.Fatal(err)
	}
	stamp := r.ContractAddress

	stop := make(chan struct{})
	clockDone := make(chan struct{})
	go func() {
		defer close(clockDone)
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				if err := c.AdvanceTime(1); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for i, from := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nonce := c.PendingNonceAt(from.addr)
			var hashes []types.Hash
			for k := 0; k < 15; k++ {
				tx := types.NewTransaction(nonce, sink.addr, uint256.NewInt(uint64(1+k)), 21_000, uint256.NewInt(1), nil)
				if k%3 == 0 {
					tx = types.NewTransaction(nonce, stamp, nil, 100_000, uint256.NewInt(1), nil)
				}
				if err := tx.Sign(from.key); err != nil {
					t.Error(err)
					return
				}
				h, err := c.SendTransaction(tx)
				if err != nil {
					t.Errorf("sender %d: %v", i, err)
					return
				}
				nonce++
				hashes = append(hashes, h)
				time.Sleep(time.Duration((i+k)%3) * time.Millisecond)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for _, h := range hashes {
				if r, err := c.WaitReceipt(ctx, h); err != nil || !r.Succeeded() {
					t.Errorf("sender %d: receipt %s: %v", i, h.Hex(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-clockDone
	c.StopMining()
	if t.Failed() {
		return
	}

	for _, exec := range []ExecPolicy{ExecSerial, ExecParallel} {
		rcfg := cfg
		rcfg.Exec = exec
		restored := New(rcfg, alloc())
		c.mu.Lock()
		recs := append([]*store.Record(nil), journal...)
		c.mu.Unlock()
		if _, err := RestoreChain(restored, recs); err != nil {
			t.Fatalf("%s replay: %v", exec, err)
		}
		if restored.Latest().Hash() != c.Latest().Hash() {
			t.Fatalf("%s replay rebuilt head %s, want %s", exec, restored.Latest().Hash().Hex(), c.Latest().Hash().Hex())
		}
	}
}
