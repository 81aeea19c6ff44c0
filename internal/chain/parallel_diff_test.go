package chain

import (
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/vm"
)

// The differential determinism harness: randomized workloads full of
// deliberate conflicts — shared counters, transfers to common recipients,
// storage contention, coinbase payments, execution-time drops — driven
// through a serial chain and a parallel chain in lockstep, asserting
// byte-identical results (state roots, receipts, logs, gas, drop ledgers)
// after every block. The workload count defaults to defaultDiffWorkloads
// (reduced under -race, where each workload costs ~10x) and can be forced
// with ONOFFCHAIN_DETERMINISM_WORKLOADS.

func diffWorkloadCount(tb testing.TB) int {
	if s := os.Getenv("ONOFFCHAIN_DETERMINISM_WORKLOADS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			tb.Fatalf("bad ONOFFCHAIN_DETERMINISM_WORKLOADS=%q", s)
		}
		return n
	}
	return defaultDiffWorkloads
}

// diffAccounts is the fixed key pool shared by every workload (key
// derivation is not what the harness is probing, and fixed keys keep the
// per-workload setup cheap).
var diffAccounts = func() []account {
	var as []account
	for i := int64(0); i < 6; i++ {
		as = append(as, newAccount(20_000+i))
	}
	return as
}()

// stampRuntime stores the block's timestamp in slot 0 and LOG0s it, so a
// transaction executed at the wrong block time shows in the root and the
// receipts.
var stampRuntime = []byte{
	byte(vm.TIMESTAMP), byte(vm.DUP1), // [t, t]
	byte(vm.PUSH1), 0, byte(vm.SSTORE), // [t]
	byte(vm.PUSH1), 0, byte(vm.MSTORE), // []
	byte(vm.PUSH1), 32, byte(vm.PUSH1), 0, byte(vm.LOG0),
	byte(vm.STOP),
}

// runDiffWorkload drives one randomized conflicting workload, derived
// entirely from seed, through a serial/parallel chain pair. The serial
// chain executes each transaction as it is pooled, the parallel one at the
// seal; seeded clock moves between sends make the serial chain's next block
// stale, and a seeded mining cap carries leftovers into later blocks, so
// the serial engine's seal-time path is compared too.
func runDiffWorkload(t *testing.T, seed int64, workers int) {
	rng := rand.New(rand.NewSource(seed))
	accounts := diffAccounts

	// Small, uneven balances so large transfers overdraft mid-block and
	// exercise the drop-parity path.
	balances := make([]uint64, len(accounts))
	for i := range balances {
		balances[i] = uint64(1 + rng.Intn(4))
	}
	alloc := func() map[types.Address]*uint256.Int {
		m := map[types.Address]*uint256.Int{}
		for i, a := range accounts {
			m[a.addr] = eth(balances[i])
		}
		return m
	}
	scfg := DefaultConfig()
	scfg.AutoMine = false
	pcfg := scfg
	pcfg.Exec = ExecParallel
	pcfg.ExecWorkers = workers
	serial, parallel := New(scfg, alloc()), New(pcfg, alloc())
	if rng.Intn(2) == 0 {
		// A small cap, as a StartMining driver would set: blocks seal at
		// most this many transactions and leave the rest pooled.
		serial.mineCap = 2 + rng.Intn(3)
		parallel.mineCap = serial.mineCap
	}

	send := func(tx *types.Transaction) error {
		_, errS := serial.SendTransaction(tx)
		_, errP := parallel.SendTransaction(tx)
		if (errS == nil) != (errP == nil) || (errS != nil && errS.Error() != errP.Error()) {
			t.Fatalf("seed %d: admission diverged: serial=%v parallel=%v", seed, errS, errP)
		}
		return errS
	}

	// Deploy the shared counter contract (the storage-contention target)
	// and the timestamp stamp.
	var contracts [2]types.Address
	for i, runtime := range [][]byte{counterRuntime, stampRuntime} {
		deploy := types.NewContractCreation(uint64(i), nil, 300_000, uint256.NewInt(1), deployInit(runtime))
		if err := deploy.Sign(accounts[0].key); err != nil {
			t.Fatal(err)
		}
		if err := send(deploy); err != nil {
			t.Fatalf("seed %d: deploy rejected: %v", seed, err)
		}
		mineBoth(t, serial, parallel)
		r, err := parallel.Receipt(deploy.Hash())
		if err != nil || !r.Succeeded() {
			t.Fatalf("seed %d: deploy failed: %v", seed, err)
		}
		contracts[i] = r.ContractAddress
	}
	contract, stamp := contracts[0], contracts[1]

	nonce := map[types.Address]uint64{}
	resync := func() {
		for _, a := range accounts {
			nonce[a.addr] = serial.PendingNonceAt(a.addr)
		}
	}
	resync()

	blocks := 1 + rng.Intn(3)
	for b := 0; b < blocks; b++ {
		ops := 3 + rng.Intn(11)
		for o := 0; o < ops; o++ {
			switch rng.Intn(8) {
			case 0:
				// A clock move between sends: the serial chain's next block
				// is stale and its seal executes the batch.
				dt := uint64(1 + rng.Intn(30))
				if err := serial.AdvanceTime(dt); err != nil {
					t.Fatal(err)
				}
				if err := parallel.AdvanceTime(dt); err != nil {
					t.Fatal(err)
				}
			case 1:
				// A seal mid-round; under a cap it may leave a tail pooled.
				mineBoth(t, serial, parallel)
				resync() // execution-time drops leave nonces behind local tracking
			}
			from := accounts[rng.Intn(len(accounts))]
			var tx *types.Transaction
			switch k := rng.Intn(11); {
			case k < 4:
				// Transfer to a common recipient — the pool's first two
				// accounts act as shared sinks, maximizing balance conflicts.
				to := accounts[rng.Intn(2)].addr
				amt := new(uint256.Int).Mul(uint256.NewInt(uint64(1+rng.Intn(20))), uint256.NewInt(ether/10))
				tx = types.NewTransaction(nonce[from.addr], to, amt, 21_000, uint256.NewInt(1), nil)
			case k < 8:
				// Contract storage contention on a 3-slot counter.
				var data [32]byte
				data[31] = byte(rng.Intn(3))
				tx = types.NewTransaction(nonce[from.addr], contract, nil, 200_000, uint256.NewInt(1), data[:])
			case k < 9:
				// Pay the miner: forces the coinbase serial path.
				tx = types.NewTransaction(nonce[from.addr], Coinbase, uint256.NewInt(uint64(1+rng.Intn(1000))), 21_000, uint256.NewInt(1), nil)
			case k < 10:
				// Record the block time: wrong if executed at a stale one.
				tx = types.NewTransaction(nonce[from.addr], stamp, nil, 100_000, uint256.NewInt(1), nil)
			default:
				// Deliberate near-overdraft: admitted against committed
				// state, often dropped at execution once earlier transfers
				// in the block drain the balance.
				bal := serial.BalanceAt(from.addr)
				amt := new(uint256.Int).Sub(bal, uint256.NewInt(100_000))
				if amt.IsZero() || bal.Lt(amt) {
					amt = uint256.NewInt(1)
				}
				tx = types.NewTransaction(nonce[from.addr], accounts[rng.Intn(len(accounts))].addr, amt, 21_000, uint256.NewInt(1), nil)
			}
			if err := tx.Sign(from.key); err != nil {
				t.Fatal(err)
			}
			switch err := send(tx); {
			case err == nil:
				nonce[from.addr]++
			case errors.Is(err, ErrNonceTooLow) || errors.Is(err, ErrNonceTooHigh):
				t.Fatalf("seed %d: harness nonce tracking broke: %v", seed, err)
			default:
				// Insufficient funds / gas rejections are fine — both chains
				// rejected identically; the nonce stays unconsumed.
			}
		}
		mineBoth(t, serial, parallel)
		for serial.PendingCount() > 0 {
			mineBoth(t, serial, parallel) // a capped block's carried tail
		}
		resync()
	}
}

// TestParallelDeterminism is the PR's headline acceptance test: serial and
// parallel execution agree bit-for-bit across >= defaultDiffWorkloads
// randomized conflicting workloads (1000 in the normal build).
func TestParallelDeterminism(t *testing.T) {
	n := diffWorkloadCount(t)
	if testing.Short() {
		n = min(n, 25)
	}
	for i := 0; i < n; i++ {
		// Worker count cycles 1..8: 1 exercises the degenerate pool, >4
		// oversubscribes the scheduler on small CI hosts.
		runDiffWorkload(t, int64(i)+1, i%8+1)
	}
}

// FuzzParallelExecDiff lets the fuzzer drive the workload generator — the
// seed chooses the transaction mix AND the submission interleaving across
// senders (each op picks a random sender, so orderings are fuzzed too),
// while the worker count varies the commit/speculation overlap.
func FuzzParallelExecDiff(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(42), uint8(1))
	f.Add(int64(-7_777_777), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, workers uint8) {
		runDiffWorkload(t, seed, int(workers%8)+1)
	})
}
