package chain

import (
	"fmt"
	"testing"

	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/vm"
)

// execPair builds two identical pooling chains — one serial, one parallel —
// over the same genesis alloc. Feeding both the same transactions and
// mining in lockstep must produce bit-identical blocks.
func execPair(workers int, accounts ...account) (serial, parallel *Chain) {
	alloc := func() map[types.Address]*uint256.Int {
		m := map[types.Address]*uint256.Int{}
		for _, a := range accounts {
			m[a.addr] = eth(100)
		}
		return m
	}
	scfg := DefaultConfig()
	scfg.AutoMine = false
	pcfg := scfg
	pcfg.Exec = ExecParallel
	pcfg.ExecWorkers = workers
	return New(scfg, alloc()), New(pcfg, alloc())
}

// sendBoth admits the same transaction on both chains and fails the test
// if the two admission verdicts disagree.
func sendBoth(t *testing.T, serial, parallel *Chain, tx *types.Transaction) {
	t.Helper()
	_, errS := serial.SendTransaction(tx)
	_, errP := parallel.SendTransaction(tx)
	if (errS == nil) != (errP == nil) {
		t.Fatalf("admission diverged: serial=%v parallel=%v", errS, errP)
	}
}

// mineBoth seals one block on each chain and asserts the results are
// bit-identical: header fields (root, tx hash, receipt hash, bloom, gas)
// plus a deep comparison of receipts and logs.
func mineBoth(t *testing.T, serial, parallel *Chain) {
	t.Helper()
	bs := serial.MineBlock()
	bp := parallel.MineBlock()
	assertBlocksEqual(t, bs, bp)
	if ns, np := serial.PendingCount(), parallel.PendingCount(); ns != np {
		t.Fatalf("block %d left %d transactions pooled on the serial chain, %d on the parallel one", bs.Number(), ns, np)
	}
	// Drop ledgers must agree too (same hashes dropped for the same cause).
	ds, dp := dropLedger(serial), dropLedger(parallel)
	if len(ds) != len(dp) {
		t.Fatalf("dropped-ledger size diverged: serial=%d parallel=%d", len(ds), len(dp))
	}
	for h, cause := range ds {
		if dp[h] != cause {
			t.Fatalf("drop of %s diverged: serial=%q parallel=%q", h.Hex(), cause, dp[h])
		}
	}
}

// dropLedger copies c's drop ledger, each error as its text.
func dropLedger(c *Chain) map[types.Hash]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[types.Hash]string, len(c.dropped))
	for h, err := range c.dropped {
		m[h] = err.Error()
	}
	return m
}

func assertBlocksEqual(t *testing.T, bs, bp *types.Block) {
	t.Helper()
	if bs.Header.Root != bp.Header.Root {
		t.Fatalf("block %d state root diverged: serial=%x parallel=%x", bs.Number(), bs.Header.Root, bp.Header.Root)
	}
	if bs.Header.TxHash != bp.Header.TxHash {
		t.Fatalf("block %d tx hash diverged (serial %d txs, parallel %d txs)", bs.Number(), len(bs.Transactions), len(bp.Transactions))
	}
	if bs.Header.ReceiptHash != bp.Header.ReceiptHash {
		t.Fatalf("block %d receipt hash diverged", bs.Number())
	}
	if bs.Header.GasUsed != bp.Header.GasUsed {
		t.Fatalf("block %d gas diverged: serial=%d parallel=%d", bs.Number(), bs.Header.GasUsed, bp.Header.GasUsed)
	}
	if len(bs.Receipts) != len(bp.Receipts) {
		t.Fatalf("block %d receipt count diverged: serial=%d parallel=%d", bs.Number(), len(bs.Receipts), len(bp.Receipts))
	}
	for i := range bs.Receipts {
		rs, rp := bs.Receipts[i], bp.Receipts[i]
		if rs.Status != rp.Status || rs.GasUsed != rp.GasUsed || rs.CumulativeGasUsed != rp.CumulativeGasUsed {
			t.Fatalf("block %d receipt %d diverged: serial={%d %d %d} parallel={%d %d %d}",
				bs.Number(), i, rs.Status, rs.GasUsed, rs.CumulativeGasUsed, rp.Status, rp.GasUsed, rp.CumulativeGasUsed)
		}
		if len(rs.Logs) != len(rp.Logs) {
			t.Fatalf("block %d receipt %d log count diverged: %d vs %d", bs.Number(), i, len(rs.Logs), len(rp.Logs))
		}
		for j := range rs.Logs {
			ls, lp := rs.Logs[j], rp.Logs[j]
			if ls.Address != lp.Address || ls.BlockNumber != lp.BlockNumber ||
				fmt.Sprintf("%x%x", ls.Topics, ls.Data) != fmt.Sprintf("%x%x", lp.Topics, lp.Data) {
				t.Fatalf("block %d receipt %d log %d diverged: %+v vs %+v", bs.Number(), i, j, ls, lp)
			}
		}
	}
	if bs.Hash() != bp.Hash() {
		t.Fatalf("block %d header hash diverged (time %d vs %d)", bs.Number(), bs.Header.Time, bp.Header.Time)
	}
}

// TestParallelIndependentTransfers: fully disjoint transfers — every
// speculative result merges without a single re-execution.
func TestParallelIndependentTransfers(t *testing.T) {
	var accounts []account
	for i := int64(0); i < 8; i++ {
		accounts = append(accounts, newAccount(9100+i))
	}
	serial, parallel := execPair(4, accounts...)
	for i, a := range accounts[:4] {
		tx := signedTransfer(t, a, accounts[4+i].addr, eth(1), 0)
		sendBoth(t, serial, parallel, tx)
	}
	mineBoth(t, serial, parallel)
	if got := parallel.BalanceAt(accounts[4].addr); !got.Eq(eth(101)) {
		t.Errorf("recipient balance = %s, want 101 ether", got)
	}
}

// TestParallelSameSenderSequence: consecutive nonces from one sender must
// all land, in order, via conflict re-execution (each later transaction
// reads the nonce the earlier one wrote).
func TestParallelSameSenderSequence(t *testing.T) {
	alice, bob := newAccount(9200), newAccount(9201)
	reg := telemetry.NewRegistry()
	alloc := map[types.Address]*uint256.Int{alice.addr: eth(100)}
	cfg := DefaultConfig()
	cfg.AutoMine = false
	cfg.Exec = ExecParallel
	cfg.ExecWorkers = 4
	cfg.Telemetry = reg
	c := New(cfg, alloc)
	for n := uint64(0); n < 5; n++ {
		tx := signedTransfer(t, alice, bob.addr, eth(1), n)
		if _, err := c.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	b := c.MineBlock()
	if len(b.Transactions) != 5 {
		t.Fatalf("included %d txs, want 5", len(b.Transactions))
	}
	if got := c.BalanceAt(bob.addr); !got.Eq(eth(5)) {
		t.Errorf("bob balance = %s, want 5 ether", got)
	}
	if c.NonceAt(alice.addr) != 5 {
		t.Errorf("alice nonce = %d, want 5", c.NonceAt(alice.addr))
	}
	// Nonces 1..4 each read nonce written by the predecessor: 4 re-execs.
	if v := reg.Counter("chain_parallel_reexec_total").Value(); v != 4 {
		t.Errorf("reexec count = %d, want 4", v)
	}
	if v := reg.Counter("chain_parallel_txs_total").Value(); v != 5 {
		t.Errorf("parallel txs count = %d, want 5", v)
	}
}

// TestParallelCommonRecipient: distinct senders crediting one recipient is
// the classic blind write-write conflict — the replay of a later
// speculative balance (computed against block-start state) would erase the
// earlier credit if writes did not conflict with writes.
func TestParallelCommonRecipient(t *testing.T) {
	var accounts []account
	for i := int64(0); i < 5; i++ {
		accounts = append(accounts, newAccount(9300+i))
	}
	sink := accounts[4]
	serial, parallel := execPair(4, accounts...)
	for _, a := range accounts[:4] {
		sendBoth(t, serial, parallel, signedTransfer(t, a, sink.addr, eth(2), 0))
	}
	mineBoth(t, serial, parallel)
	if got := parallel.BalanceAt(sink.addr); !got.Eq(eth(108)) {
		t.Errorf("sink balance = %s, want 108 ether", got)
	}
}

// TestParallelDropParity: two admitted transactions from one sender where
// the first drains the balance the second needs. Serial drops the second
// at execution; parallel must reach the identical verdict (the second
// conflicts on the sender account, re-executes serially, and drops there).
func TestParallelDropParity(t *testing.T) {
	alice, bob := newAccount(9400), newAccount(9401)
	serial, parallel := execPair(4, alice, bob)
	sendBoth(t, serial, parallel, signedTransfer(t, alice, bob.addr, eth(99), 0))
	sendBoth(t, serial, parallel, signedTransfer(t, alice, bob.addr, eth(50), 1))
	mineBoth(t, serial, parallel)
	if h := parallel.Latest(); len(h.Transactions) != 1 {
		t.Fatalf("included %d txs, want 1 (second must drop)", len(h.Transactions))
	}
}

// TestParallelCoinbaseRecipient: a transfer TO the miner after another
// transaction has committed must take the serial path (its footprint
// touches the coinbase account, whose fee credits live outside the
// recorded footprint) and still match serial execution exactly.
func TestParallelCoinbaseRecipient(t *testing.T) {
	alice, bob := newAccount(9500), newAccount(9501)
	serial, parallel := execPair(4, alice, bob)
	sendBoth(t, serial, parallel, signedTransfer(t, alice, bob.addr, eth(1), 0))
	sendBoth(t, serial, parallel, signedTransfer(t, bob, Coinbase, eth(3), 0))
	mineBoth(t, serial, parallel)
	// 3 ether + both fees.
	want := new(uint256.Int).Add(eth(3), uint256.NewInt(42000))
	if got := parallel.BalanceAt(Coinbase); !got.Eq(want) {
		t.Errorf("coinbase balance = %s, want %s", got, want)
	}
}

// counterContract deploys (on both chains of a pair) a contract that
// treats calldata word 0 as a storage slot, increments it, and LOG1s with
// the caller as topic. The workhorse of the storage-contention tests.
//
//	slot := CALLDATALOAD(0); SSTORE(slot, SLOAD(slot)+1); LOG1(topic=CALLER)
var counterRuntime = []byte{
	byte(vm.PUSH1), 0, byte(vm.CALLDATALOAD), // [slot]
	byte(vm.DUP1), byte(vm.SLOAD), // [slot, val]
	byte(vm.PUSH1), 1, byte(vm.ADD), // [slot, val+1]
	byte(vm.SWAP1), byte(vm.SSTORE), // []
	byte(vm.CALLER),                      // [caller]
	byte(vm.PUSH1), 0, byte(vm.PUSH1), 0, // [caller, 0, 0]
	byte(vm.LOG1),
	byte(vm.STOP),
}

func deployInit(runtime []byte) []byte {
	init := []byte{
		byte(vm.PUSH1), byte(len(runtime)), byte(vm.PUSH1), 12, byte(vm.PUSH1), 0, byte(vm.CODECOPY),
		byte(vm.PUSH1), byte(len(runtime)), byte(vm.PUSH1), 0, byte(vm.RETURN),
	}
	return append(init, runtime...)
}

// callCounter builds a signed increment of slot on the counter contract.
func callCounter(t *testing.T, from account, contract types.Address, slot byte, nonce uint64) *types.Transaction {
	t.Helper()
	var data [32]byte
	data[31] = slot
	tx := types.NewTransaction(nonce, contract, nil, 200_000, uint256.NewInt(1), data[:])
	if err := tx.Sign(from.key); err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestParallelStorageContention: many senders hammering two slots of one
// contract. Every transaction reads the contract's code (account-level
// read) but that must NOT serialize against slot writes; the slot-level
// conflicts must.
func TestParallelStorageContention(t *testing.T) {
	var accounts []account
	for i := int64(0); i < 6; i++ {
		accounts = append(accounts, newAccount(9600+i))
	}
	serial, parallel := execPair(4, accounts...)
	deploy := types.NewContractCreation(0, nil, 300_000, uint256.NewInt(1), deployInit(counterRuntime))
	if err := deploy.Sign(accounts[0].key); err != nil {
		t.Fatal(err)
	}
	sendBoth(t, serial, parallel, deploy)
	mineBoth(t, serial, parallel)
	r, err := parallel.Receipt(deploy.Hash())
	if err != nil {
		t.Fatal(err)
	}
	contract := r.ContractAddress

	nonce := map[types.Address]uint64{accounts[0].addr: 1}
	for round := 0; round < 3; round++ {
		for i, a := range accounts {
			slot := byte(i % 2) // two slots, three writers each
			sendBoth(t, serial, parallel, callCounter(t, a, contract, slot, nonce[a.addr]))
			nonce[a.addr]++
		}
		mineBoth(t, serial, parallel)
	}
	for slot := byte(0); slot < 2; slot++ {
		got := parallel.StorageAt(contract, types.BytesToHash([]byte{slot}))
		if want := types.BytesToHash([]byte{9}); got != want {
			t.Errorf("slot %d = %x, want 9 (3 rounds x 3 writers)", slot, got)
		}
	}
}

// TestParallelTornReadSet is the dedicated race-detector workout: a wide
// worker pool (far above GOMAXPROCS) speculating over transactions that
// all read and write overlapping slots of one contract, repeatedly. Run
// with -race this exercises concurrent forks sharing the parent's trie,
// object cache and code store.
func TestParallelTornReadSet(t *testing.T) {
	var accounts []account
	for i := int64(0); i < 12; i++ {
		accounts = append(accounts, newAccount(9700+i))
	}
	alloc := map[types.Address]*uint256.Int{}
	for _, a := range accounts {
		alloc[a.addr] = eth(100)
	}
	cfg := DefaultConfig()
	cfg.AutoMine = false
	cfg.Exec = ExecParallel
	cfg.ExecWorkers = 16 // oversubscribed on purpose
	c := New(cfg, alloc)

	deploy := types.NewContractCreation(0, nil, 300_000, uint256.NewInt(1), deployInit(counterRuntime))
	if err := deploy.Sign(accounts[0].key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendTransaction(deploy); err != nil {
		t.Fatal(err)
	}
	c.MineBlock()
	r, _ := c.Receipt(deploy.Hash())
	contract := r.ContractAddress

	nonce := map[types.Address]uint64{accounts[0].addr: 1}
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		for i, a := range accounts {
			tx := callCounter(t, a, contract, byte(i%3), nonce[a.addr])
			nonce[a.addr]++
			if _, err := c.SendTransaction(tx); err != nil {
				t.Fatal(err)
			}
		}
		if b := c.MineBlock(); len(b.Transactions) != len(accounts) {
			t.Fatalf("round %d: included %d txs, want %d", round, len(b.Transactions), len(accounts))
		}
	}
	var total uint64
	for slot := byte(0); slot < 3; slot++ {
		v := c.StorageAt(contract, types.BytesToHash([]byte{slot}))
		total += uint64(v[31]) | uint64(v[30])<<8
	}
	if want := uint64(rounds * len(accounts)); total != want {
		t.Errorf("total increments = %d, want %d", total, want)
	}
}

// TestExecWorkerCount: explicit worker counts are honoured, including
// values above the core count; zero falls back to GOMAXPROCS.
func TestExecWorkerCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExecWorkers = 64
	c := New(cfg, nil)
	if got := c.execWorkerCount(); got != 64 {
		t.Errorf("execWorkerCount = %d, want 64", got)
	}
	cfg.ExecWorkers = 0
	c2 := New(cfg, nil)
	if got := c2.execWorkerCount(); got < 1 {
		t.Errorf("execWorkerCount = %d, want >= 1", got)
	}
}
