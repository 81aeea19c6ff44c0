// Package chain implements a single-node development blockchain in the
// style of the Kovan testnet the paper evaluated on: instant (or manual)
// block production, full EVM transaction execution with the yellow-paper
// gas schedule, receipts and logs, and a controllable clock so the betting
// protocol's T0..T3 deadlines can be driven deterministically in tests and
// benchmarks.
package chain

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"onoffchain/internal/keccak"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/state"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/vm"
)

// Validation errors.
var (
	ErrNonceTooLow        = errors.New("chain: nonce too low")
	ErrNonceTooHigh       = errors.New("chain: nonce too high")
	ErrInsufficientFunds  = errors.New("chain: insufficient funds for gas * price + value")
	ErrIntrinsicGas       = errors.New("chain: intrinsic gas too low")
	ErrGasLimitExceeded   = errors.New("chain: exceeds block gas limit")
	ErrUnknownTransaction = errors.New("chain: unknown transaction")
	ErrUnknownBlock       = errors.New("chain: unknown block")
	// ErrTxDropped resolves WaitReceipt for a transaction that passed
	// admission but became invalid by the time its block executed it (for
	// example its sender's balance was consumed by an earlier transaction
	// in the same block). The wrapped cause is the execution-time
	// validation failure.
	ErrTxDropped = errors.New("chain: transaction dropped at execution")
)

// ExecPolicy selects the block-execution engine.
type ExecPolicy string

const (
	// ExecSerial executes a block's transactions one after another — the
	// reference engine and the default.
	ExecSerial ExecPolicy = "serial"
	// ExecParallel executes a block's transactions concurrently on forked
	// states with optimistic read/write-set scheduling, committing in
	// canonical order and re-executing serially any transaction whose
	// footprint overlaps an earlier transaction's writes. Bit-identical to
	// ExecSerial by construction (see parallel.go and DESIGN.md §11).
	ExecParallel ExecPolicy = "parallel"
)

// Config tunes chain behaviour.
type Config struct {
	// GasLimit is the per-block gas limit.
	GasLimit uint64
	// Coinbase receives transaction fees.
	Coinbase types.Address
	// BlockInterval is the simulated seconds between blocks.
	BlockInterval uint64
	// Exec selects the block-execution engine: ExecSerial (the default,
	// also chosen by the empty string) or ExecParallel. Serial and
	// parallel execution produce byte-identical blocks — state root,
	// receipts, logs and gas — which the differential harness in
	// parallel_diff_test.go pins.
	Exec ExecPolicy
	// ExecWorkers bounds the speculative execution pool of ExecParallel
	// (default GOMAXPROCS). Values above the core count are honoured —
	// useful for wringing schedule variety out of race tests on small
	// hosts.
	ExecWorkers int
	// AutoMine, when true, mines a block after every accepted transaction
	// (dev-chain behaviour): the degenerate mining policy of one
	// transaction per block, applied synchronously inside SendTransaction.
	// When false, transactions pool until MineBlock or until the
	// background driver started with StartMining seals a batch block.
	// Either way receipts are delivered through the same pipeline —
	// clients observe them with WaitReceipt, never by assuming one is
	// ready when SendTransaction returns.
	AutoMine bool
	// Telemetry, when set, publishes the chain's series (blocks mined,
	// txs per block, pool depth, mine latency) into the registry. Nil
	// disables exposition; the per-call cost is a nil check.
	Telemetry *telemetry.Registry
	// Tracer, when set, records a "mine_block" span per sealed block.
	// Block production serves every session at once, so these are root
	// spans in the chain's own recorder, not children of any one session
	// trace; per-session chain spans come from the participants' Trace
	// hooks instead.
	Tracer *telemetry.Tracer
}

// DefaultConfig mirrors a developer testnet.
func DefaultConfig() Config {
	return Config{
		GasLimit:      10_000_000,
		Coinbase:      types.BytesToAddress([]byte("miner")),
		BlockInterval: 4, // Kovan's PoA block time
		AutoMine:      true,
	}
}

// Chain is a single-node blockchain.
type Chain struct {
	mu sync.Mutex

	config   Config
	state    *state.StateDB
	blocks   []*types.Block
	byHash   map[types.Hash]*types.Block
	receipts map[types.Hash]*types.Receipt
	txs      map[types.Hash]*types.Transaction
	pending  []*types.Transaction
	now      uint64 // current simulated time

	// Receipt pipeline (see WaitReceipt): accepted-but-unmined hashes,
	// execution-time drop errors, and the per-tx notification channels
	// resolved when the transaction's block is mined.
	pendingSet   map[types.Hash]struct{}
	dropped      map[types.Hash]error
	waiters      map[types.Hash][]chan receiptOutcome
	pendingNonce map[types.Address]uint64 // next expected nonce per sender with pending txs

	// Background mining driver (see StartMining).
	mineKick chan struct{}
	mineStop chan struct{}
	mineDone chan struct{}
	mineCap  int

	// Push subscriptions (see subscription.go).
	subID uint64
	subs  map[uint64]*BlockLogSubscription

	// In-memory log index (see appendBlock/filterIndexedLocked): every
	// mined log, keyed by emitting address, in chain order.
	// Address-filtered FilterLogs queries walk only their matching logs
	// instead of scanning every receipt of every block.
	logIndex   map[types.Address][]indexedLog
	logSeq     uint64 // global chain-order sequence for cross-address merges
	logScanned uint64 // blocks walked by the fallback full-scan path
	logIndexed uint64 // queries served by the index

	// Block journal (see persist.go): sealJournal, when attached, makes
	// each sealed block durable before subscribers hear about it;
	// importing suppresses it while RestoreChain replays those records.
	sealJournal func(*types.Block)
	importing   bool

	// Telemetry series (nil handles are no-ops when Config.Telemetry is
	// unset).
	mBlocksMined  *telemetry.Counter
	mTxsAccepted  *telemetry.Counter
	mTxsDropped   *telemetry.Counter
	hBlockTxs     *telemetry.Histogram
	hMineSeconds  *telemetry.Histogram
	mParTxs       *telemetry.Counter
	mParReexec    *telemetry.Counter
	hParWidth     *telemetry.Histogram
	hExecSerial   *telemetry.Histogram
	hExecParallel *telemetry.Histogram

	// Mining-liveness clock for the chain_mining health check (under mu):
	// lastSeal is the wall time of the most recent sealed block, oldestWait
	// the wall time the oldest still-pending transaction was accepted.
	lastSeal   time.Time
	oldestWait time.Time
}

// indexedLog is one log's position in the per-address index.
type indexedLog struct {
	block uint64
	seq   uint64
	log   *types.Log
}

// receiptOutcome is what a WaitReceipt waiter learns at mine time: the
// receipt, or the reason the transaction was dropped.
type receiptOutcome struct {
	receipt *types.Receipt
	err     error
}

// New creates a chain with the given genesis balance allocation.
func New(config Config, alloc map[types.Address]*uint256.Int) *Chain {
	c := &Chain{
		config:       config,
		state:        state.New(),
		byHash:       make(map[types.Hash]*types.Block),
		receipts:     make(map[types.Hash]*types.Receipt),
		txs:          make(map[types.Hash]*types.Transaction),
		pendingSet:   make(map[types.Hash]struct{}),
		dropped:      make(map[types.Hash]error),
		waiters:      make(map[types.Hash][]chan receiptOutcome),
		pendingNonce: make(map[types.Address]uint64),
		logIndex:     make(map[types.Address][]indexedLog),
		now:          1_500_000_000, // arbitrary epoch start
	}
	if reg := config.Telemetry; reg != nil {
		c.mBlocksMined = reg.Counter("chain_blocks_mined_total")
		c.mTxsAccepted = reg.Counter("chain_txs_accepted_total")
		c.mTxsDropped = reg.Counter("chain_txs_dropped_total")
		c.hBlockTxs = reg.Histogram("chain_block_txs", telemetry.SizeBuckets())
		c.hMineSeconds = reg.Histogram("chain_mine_seconds", telemetry.DurationBuckets())
		c.mParTxs = reg.Counter("chain_parallel_txs_total")
		c.mParReexec = reg.Counter("chain_parallel_reexec_total")
		c.hParWidth = reg.Histogram("chain_parallel_batch_width", telemetry.SizeBuckets())
		c.hExecSerial = reg.Histogram("chain_exec_seconds", telemetry.DurationBuckets(), "exec", "serial")
		c.hExecParallel = reg.Histogram("chain_exec_seconds", telemetry.DurationBuckets(), "exec", "parallel")
		reg.GaugeFunc("chain_pool_depth", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.pending))
		})
		reg.GaugeFunc("chain_height", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.blocks[len(c.blocks)-1].Number())
		})
		// Crypto hot-path counters: cumulative totals maintained by the
		// keccak and secp256k1 packages themselves, surfaced here so one
		// scrape shows hashes-per-block and GLV splits alongside chain
		// throughput. Keccak's counter costs an atomic add per permutation,
		// so it stays off until a registry asks for it.
		keccak.EnableMetrics()
		reg.GaugeFunc("keccak_permutes_total", func() float64 {
			return float64(keccak.Permutes())
		})
		reg.GaugeFunc("secp_glv_splits_total", func() float64 {
			return float64(secp256k1.GLVSplits())
		})
		// SLO: with transactions pooled, a block must seal within seconds of
		// wall time (the dev chain mines on demand); a silent mining stall
		// strands every open challenge window behind it.
		reg.RegisterHealth("chain_mining", telemetry.StalenessCheck(
			func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				return len(c.pending) > 0
			},
			func() time.Time {
				c.mu.Lock()
				defer c.mu.Unlock()
				if c.lastSeal.After(c.oldestWait) {
					return c.lastSeal
				}
				return c.oldestWait
			},
			5*time.Second, 30*time.Second))
	}
	for addr, balance := range alloc {
		c.state.SetBalance(addr, balance)
	}
	c.state.Finalise()
	root := c.state.Commit()
	genesis := &types.Block{
		Header: &types.Header{
			Number:   0,
			GasLimit: config.GasLimit,
			Time:     c.now,
			Root:     root,
			Coinbase: config.Coinbase,
			Extra:    []byte("on/off-chain dev chain genesis"),
		},
	}
	c.appendBlock(genesis)
	return c
}

// NewDefault creates a chain with DefaultConfig.
func NewDefault(alloc map[types.Address]*uint256.Int) *Chain {
	return New(DefaultConfig(), alloc)
}

func (c *Chain) appendBlock(b *types.Block) {
	c.blocks = append(c.blocks, b)
	c.byHash[b.Hash()] = b
	// Index the block's logs by emitting address, in chain order. The seq
	// stamp lets multi-address queries merge per-address runs back into
	// exactly the order a full receipt scan would produce.
	for _, r := range b.Receipts {
		for _, l := range r.Logs {
			c.logSeq++
			c.logIndex[l.Address] = append(c.logIndex[l.Address],
				indexedLog{block: b.Number(), seq: c.logSeq, log: l})
		}
	}
}

// Now returns the current simulated time.
func (c *Chain) Now() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// SetTime moves the simulated clock forward to t (no-op if t is earlier).
func (c *Chain) SetTime(t uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

// AdvanceTime moves the simulated clock forward by delta seconds.
func (c *Chain) AdvanceTime(delta uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += delta
}

// Latest returns the head block.
func (c *Chain) Latest() *types.Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks[len(c.blocks)-1]
}

// BlockByNumber returns block n.
func (c *Chain) BlockByNumber(n uint64) (*types.Block, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= uint64(len(c.blocks)) {
		return nil, ErrUnknownBlock
	}
	return c.blocks[n], nil
}

// BalanceAt returns the current balance of addr.
func (c *Chain) BalanceAt(addr types.Address) *uint256.Int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.GetBalance(addr)
}

// NonceAt returns the current nonce of addr.
func (c *Chain) NonceAt(addr types.Address) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.GetNonce(addr)
}

// PendingNonceAt returns the nonce addr's next transaction must carry:
// the state nonce plus any transactions already pooled for the next block
// (eth_getTransactionCount with "pending"). Under AutoMine this equals
// NonceAt; under batch mining it is the only correct nonce source for a
// sender with in-flight transactions.
func (c *Chain) PendingNonceAt(addr types.Address) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.pendingNonce[addr]; ok {
		return n
	}
	return c.state.GetNonce(addr)
}

// PendingCount returns how many accepted transactions are pooled for the
// next block. Under manual mining it is the one signal that tells a caller
// everything it is waiting for has been sent.
func (c *Chain) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// CodeAt returns the contract code at addr.
func (c *Chain) CodeAt(addr types.Address) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte{}, c.state.GetCode(addr)...)
}

// StorageAt returns a raw storage slot.
func (c *Chain) StorageAt(addr types.Address, slot types.Hash) types.Hash {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.GetState(addr, slot)
}

// Receipt returns the receipt for a mined transaction.
func (c *Chain) Receipt(txHash types.Hash) (*types.Receipt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.receipts[txHash]
	if !ok {
		return nil, ErrUnknownTransaction
	}
	return r, nil
}

// SendTransaction validates and accepts a signed transaction into the
// pending pool and returns its hash. When the transaction executes (the
// next block under AutoMine, a later batch block otherwise) its outcome is
// published through WaitReceipt — use that, not Receipt-after-send, to
// observe it.
func (c *Chain) SendTransaction(tx *types.Transaction) (types.Hash, error) {
	// Recover (and cache) the sender before taking the chain lock, so the
	// elliptic-curve work of concurrent submitters runs in parallel
	// instead of serializing inside the mining critical section.
	sender, err := tx.Sender()
	if err != nil {
		return types.Hash{}, fmt.Errorf("chain: invalid signature: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.validateTx(tx); err != nil {
		return types.Hash{}, err
	}
	if len(c.pending) == 0 {
		c.oldestWait = time.Now()
	}
	c.pending = append(c.pending, tx)
	c.pendingSet[tx.Hash()] = struct{}{}
	// Re-accepting a hash that was previously dropped at execution (the
	// sender retried the identical transaction once conditions changed)
	// supersedes the old drop verdict — without this, WaitReceipt would
	// report the stale drop for a transaction that is live in the pool.
	delete(c.dropped, tx.Hash())
	c.pendingNonce[sender] = tx.Nonce + 1
	c.mTxsAccepted.Inc()
	if c.config.AutoMine {
		c.mineLocked()
	} else if c.mineKick != nil && len(c.pending) >= c.mineCap {
		// Cap-driven mining: the pool is full enough for a block; wake the
		// driver instead of waiting out its interval.
		select {
		case c.mineKick <- struct{}{}:
		default:
		}
	}
	return tx.Hash(), nil
}

// WaitReceipt blocks until txHash's transaction executes and returns its
// receipt — the asynchronous counterpart of the old "receipt is ready when
// SendTransaction returns" AutoMine contract, and the only receipt API
// that is correct under every mining policy. A transaction that was
// invalidated at execution time (dropped from its block) resolves with an
// ErrTxDropped error instead of hanging; a hash the chain never accepted
// resolves immediately with ErrUnknownTransaction; ctx cancellation
// returns ctx.Err().
func (c *Chain) WaitReceipt(ctx context.Context, txHash types.Hash) (*types.Receipt, error) {
	c.mu.Lock()
	if r, ok := c.receipts[txHash]; ok {
		c.mu.Unlock()
		return r, nil
	}
	if err, ok := c.dropped[txHash]; ok {
		c.mu.Unlock()
		return nil, err
	}
	if _, ok := c.pendingSet[txHash]; !ok {
		c.mu.Unlock()
		return nil, ErrUnknownTransaction
	}
	ch := make(chan receiptOutcome, 1) // buffered: mine-time resolution never blocks on a gone waiter
	c.waiters[txHash] = append(c.waiters[txHash], ch)
	c.mu.Unlock()

	select {
	case out := <-ch:
		return out.receipt, out.err
	case <-ctx.Done():
		// Withdraw the waiter so an abandoned wait does not accumulate; the
		// resolution may have raced us, in which case the entry is gone
		// already and the buffered send succeeded harmlessly.
		c.mu.Lock()
		ws := c.waiters[txHash]
		for i, w := range ws {
			if w == ch {
				c.waiters[txHash] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(c.waiters[txHash]) == 0 {
			delete(c.waiters, txHash)
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// resolveWaitersLocked delivers a transaction's outcome to every waiter
// registered for it. Called from mineLocked with c.mu held.
func (c *Chain) resolveWaitersLocked(txHash types.Hash, out receiptOutcome) {
	ws, ok := c.waiters[txHash]
	if !ok {
		return
	}
	delete(c.waiters, txHash)
	for _, w := range ws {
		w <- out // buffered(1), registered exactly once: never blocks
	}
}

// MineBlock executes pending transactions into one block — all of them,
// unless a StartMining driver is active, in which case its
// maxTxsPerBlock cap applies and an over-full pool needs repeated calls
// (or the driver's own re-kick) to drain.
func (c *Chain) MineBlock() *types.Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mineLocked()
}

func (c *Chain) validateTx(tx *types.Transaction) error {
	sender, err := tx.Sender()
	if err != nil {
		return fmt.Errorf("chain: invalid signature: %w", err)
	}
	// The pending-nonce map replaces a per-sender scan of the whole pool:
	// admission stays O(1) even when batch mining holds hundreds of
	// transactions pending.
	expect, ok := c.pendingNonce[sender]
	if !ok {
		expect = c.state.GetNonce(sender)
	}
	if tx.Nonce < expect {
		return fmt.Errorf("%w: have %d, want %d", ErrNonceTooLow, tx.Nonce, expect)
	}
	if tx.Nonce > expect {
		return fmt.Errorf("%w: have %d, want %d", ErrNonceTooHigh, tx.Nonce, expect)
	}
	if tx.Gas > c.config.GasLimit {
		return ErrGasLimitExceeded
	}
	if vm.IntrinsicGas(tx.Data, tx.IsContractCreation()) > tx.Gas {
		return ErrIntrinsicGas
	}
	if c.state.GetBalance(sender).Lt(tx.Cost()) {
		return ErrInsufficientFunds
	}
	return nil
}

func (c *Chain) mineLocked() *types.Block {
	mineStart := time.Now()
	parent := c.blocks[len(c.blocks)-1]
	c.now += c.config.BlockInterval
	number := parent.Number() + 1

	// Under a cap-driven mining policy, seal at most mineCap transactions
	// per block and leave the rest pooled for the next one.
	batch := c.pending
	if c.mineCap > 0 && len(batch) > c.mineCap {
		batch = batch[:c.mineCap]
	}

	var (
		receipts []*types.Receipt
		included []*types.Transaction
	)
	execStart := time.Now()
	if c.config.Exec == ExecParallel && len(batch) > 1 {
		included, receipts = c.executeParallelLocked(batch, number)
		c.hExecParallel.ObserveSince(execStart)
	} else {
		included, receipts = c.executeSerialLocked(batch, number)
		c.hExecSerial.ObserveSince(execStart)
	}
	var cumulative uint64
	for _, receipt := range receipts {
		cumulative += receipt.GasUsed
		receipt.CumulativeGasUsed = cumulative
	}
	leftover := c.pending[len(batch):]
	c.pending = append([]*types.Transaction(nil), leftover...)
	// Rebuild the admission nonce map from what is still pooled: senders
	// fully drained fall back to state nonces (which now reflect this
	// block), senders with queued transactions keep their reservations.
	clear(c.pendingNonce)
	for _, tx := range c.pending {
		s, _ := tx.Sender()
		c.pendingNonce[s] = tx.Nonce + 1
	}

	root := c.state.Commit()
	header := &types.Header{
		ParentHash:  parent.Hash(),
		Coinbase:    c.config.Coinbase,
		Root:        root,
		TxHash:      types.DeriveTxListHash(included),
		ReceiptHash: types.DeriveReceiptListHash(receipts),
		Bloom:       types.CreateBloom(receipts),
		Number:      number,
		GasLimit:    c.config.GasLimit,
		GasUsed:     cumulative,
		Time:        c.now,
	}
	block := &types.Block{Header: header, Transactions: included, Receipts: receipts}
	c.appendBlock(block)
	if c.sealJournal != nil && !c.importing {
		c.sealJournal(block)
	}
	c.notifySubs(block)
	c.mBlocksMined.Inc()
	c.hBlockTxs.Observe(float64(len(included)))
	c.hMineSeconds.ObserveSince(mineStart)
	c.lastSeal = time.Now()
	c.oldestWait = c.lastSeal
	c.config.Tracer.Record(0, "chain", "mine_block", mineStart, time.Since(mineStart),
		fmt.Sprintf("height=%d txs=%d", number, len(included)))
	return block
}

// executeSerialLocked is the reference block-execution engine: every
// transaction of the batch applied one after another against the canonical
// state, in pool order.
func (c *Chain) executeSerialLocked(batch []*types.Transaction, number uint64) ([]*types.Transaction, []*types.Receipt) {
	var (
		receipts []*types.Receipt
		included []*types.Transaction
	)
	for _, tx := range batch {
		hash := tx.Hash()
		delete(c.pendingSet, hash)
		receipt, err := c.applyTransaction(tx, number, uint(len(included)))
		if err != nil {
			c.dropTxLocked(hash, err)
			continue
		}
		receipts = append(receipts, receipt)
		included = append(included, tx)
		c.receipts[hash] = receipt
		c.txs[hash] = tx
		c.resolveWaitersLocked(hash, receiptOutcome{receipt: receipt})
	}
	return included, receipts
}

// dropTxLocked records a transaction invalid at execution time (e.g. its
// balance was consumed by an earlier transaction in the same block) and
// resolves any receipt waiter with the distinct dropped error so nobody
// blocks forever on a transaction that will never mine. Both errors stay
// unwrappable: errors.Is sees ErrTxDropped AND the execution-time cause.
// The drop ledger is retained for the chain's lifetime so late waiters
// fail fast — same unbounded-by-design footprint as the receipts and txs
// maps.
func (c *Chain) dropTxLocked(hash types.Hash, err error) {
	dropErr := fmt.Errorf("%w: %w", ErrTxDropped, err)
	c.dropped[hash] = dropErr
	c.mTxsDropped.Inc()
	c.resolveWaitersLocked(hash, receiptOutcome{err: dropErr})
}

func (c *Chain) blockContext(number, timestamp uint64) vm.BlockContext {
	return vm.BlockContext{
		Coinbase: c.config.Coinbase,
		Number:   number,
		Time:     timestamp,
		GasLimit: c.config.GasLimit,
		BlockHash: func(n uint64) types.Hash {
			if n < uint64(len(c.blocks)) {
				return c.blocks[n].Hash()
			}
			return types.Hash{}
		},
	}
}

// applyTransaction runs one transaction against the canonical state.
func (c *Chain) applyTransaction(tx *types.Transaction, blockNumber uint64, txIndex uint) (*types.Receipt, error) {
	return c.applyTransactionOn(c.state, tx, blockNumber, c.now, txIndex, true)
}

// applyTransactionOn runs one transaction against st — the canonical state
// for serial execution and conflict re-execution, a recording fork for the
// speculative phase of the parallel engine. creditCoinbase=false defers
// the miner's fee: speculative runs must keep the coinbase account out of
// their write sets (every transaction pays a fee, so recording it would
// serialize the whole block), and the committer applies the fee to the
// canonical state in commit order instead. A transaction that reads the
// coinbase for any other reason still records that access and is re-run
// serially by the scheduler.
func (c *Chain) applyTransactionOn(st *state.StateDB, tx *types.Transaction, blockNumber, timestamp uint64, txIndex uint, creditCoinbase bool) (*types.Receipt, error) {
	sender, err := tx.Sender()
	if err != nil {
		return nil, err
	}
	if st.GetNonce(sender) != tx.Nonce {
		return nil, ErrNonceTooLow
	}
	if st.GetBalance(sender).Lt(tx.Cost()) {
		return nil, ErrInsufficientFunds
	}
	intrinsic := vm.IntrinsicGas(tx.Data, tx.IsContractCreation())
	if intrinsic > tx.Gas {
		return nil, ErrIntrinsicGas
	}

	// Buy gas up front.
	upfront := new(uint256.Int).SetUint64(tx.Gas)
	upfront.Mul(upfront, tx.GasPrice)
	st.SubBalance(sender, upfront)

	st.SetTxContext(tx.Hash(), txIndex, blockNumber)
	evm := vm.NewEVM(c.blockContext(blockNumber, timestamp), vm.TxContext{
		Origin:   sender,
		GasPrice: tx.GasPrice,
	}, st)

	gas := tx.Gas - intrinsic
	var (
		leftover     uint64
		execErr      error
		ret          []byte
		contractAddr types.Address
	)
	if tx.IsContractCreation() {
		ret, contractAddr, leftover, execErr = evm.Create(sender, tx.Data, gas, tx.Value)
	} else {
		st.SetNonce(sender, tx.Nonce+1)
		ret, leftover, execErr = evm.Call(sender, *tx.To, tx.Data, gas, tx.Value)
	}

	gasUsed := tx.Gas - leftover
	// Apply refund counter, capped at half the gas used (pre-London).
	refund := st.GetRefund()
	if max := gasUsed / vm.RefundQuotient; refund > max {
		refund = max
	}
	gasUsed -= refund
	leftover += refund

	// Return unused gas, pay the miner.
	back := new(uint256.Int).SetUint64(leftover)
	back.Mul(back, tx.GasPrice)
	st.AddBalance(sender, back)
	if creditCoinbase {
		fee := new(uint256.Int).SetUint64(gasUsed)
		fee.Mul(fee, tx.GasPrice)
		st.AddBalance(c.config.Coinbase, fee)
	}

	receipt := &types.Receipt{
		Status:      types.ReceiptStatusSuccessful,
		GasUsed:     gasUsed,
		TxHash:      tx.Hash(),
		BlockNumber: blockNumber,
		Logs:        st.TakeLogs(),
	}
	if execErr != nil {
		receipt.Status = types.ReceiptStatusFailed
		receipt.Logs = nil
		if execErr == vm.ErrExecutionReverted {
			receipt.RevertReason = ret
		}
	}
	if tx.IsContractCreation() && execErr == nil {
		receipt.ContractAddress = contractAddr
	}
	for _, l := range receipt.Logs {
		receipt.Bloom.AddLog(l)
	}
	st.Finalise()
	return receipt, nil
}

// CallMsg describes a read-only call.
type CallMsg struct {
	From  types.Address
	To    types.Address
	Data  []byte
	Value *uint256.Int
	Gas   uint64
}

// Call executes a message against a copy of the head state without mining
// a block (eth_call). It returns the output, the gas used, and the
// execution error, if any.
func (c *Chain) Call(msg CallMsg) ([]byte, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if msg.Gas == 0 {
		msg.Gas = c.config.GasLimit
	}
	st := c.state.Fork()
	head := c.blocks[len(c.blocks)-1]
	evm := vm.NewEVM(c.blockContext(head.Number(), c.now), vm.TxContext{
		Origin:   msg.From,
		GasPrice: new(uint256.Int),
	}, st)
	ret, leftover, err := evm.Call(msg.From, msg.To, msg.Data, msg.Gas, msg.Value)
	return ret, msg.Gas - leftover, err
}

// EstimateGas runs the message and reports total gas including intrinsic
// cost, padded the way wallets do (exact execution cost, no search).
func (c *Chain) EstimateGas(msg CallMsg) (uint64, error) {
	_, used, err := c.Call(msg)
	if err != nil {
		return 0, err
	}
	return used + vm.IntrinsicGas(msg.Data, false), nil
}

// FilterQuery selects logs.
type FilterQuery struct {
	FromBlock uint64
	ToBlock   uint64 // 0 means head
	Address   *types.Address
	Topic     *types.Hash // matched against topic[0] if set

	// AddressIn, when set, restricts matches to addresses in the (mutable)
	// set. Unlike Address it is a live filter: a subscriber may grow and
	// shrink the set after subscribing, which is how a watchtower tracks a
	// changing population of guarded contracts without re-subscribing —
	// and without every other tower paying to receive its logs.
	AddressIn *AddressSet
	// Topics, when non-empty, matches topic[0] against any entry (an
	// "any-of" selector, where Topic is exact-match).
	Topics []types.Hash
}

// FilterLogs returns mined logs matching q. Address-selective queries
// (Address or AddressIn set) are served from the in-memory per-address log
// index — O(matching logs + log n), not O(blocks) — which is what keeps a
// watchtower's catch-up after a restart from re-walking every receipt of
// every block in range. Queries with no address selector still fall back
// to the full scan.
func (c *Chain) FilterLogs(q FilterQuery) []*types.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	to := q.ToBlock
	if to == 0 || to >= uint64(len(c.blocks)) {
		to = uint64(len(c.blocks)) - 1
	}
	if q.FromBlock > to {
		return nil
	}
	if addrs, ok := queryAddresses(&q); ok {
		c.logIndexed++
		return c.filterIndexedLocked(&q, addrs, q.FromBlock, to)
	}
	c.logScanned += to - q.FromBlock + 1
	var out []*types.Log
	for n := q.FromBlock; n <= to; n++ {
		for _, r := range c.blocks[n].Receipts {
			for _, l := range r.Logs {
				if matchLog(&q, l) {
					out = append(out, l)
				}
			}
		}
	}
	return out
}

// queryAddresses extracts the candidate address list of an
// address-selective query (ok=false for queries that need a full scan).
// The indexed path re-applies matchLog to every candidate log, so
// returning the tighter of Address/AddressIn is purely a pruning choice.
func queryAddresses(q *FilterQuery) ([]types.Address, bool) {
	if q.Address != nil {
		return []types.Address{*q.Address}, true
	}
	if q.AddressIn != nil {
		return q.AddressIn.Snapshot(), true
	}
	return nil, false
}

// filterIndexedLocked serves an address-selective query from the log
// index: binary-search each address's run for the block range, then merge
// the per-address runs by their global sequence stamps so the result order
// is exactly what the full receipt scan would produce.
func (c *Chain) filterIndexedLocked(q *FilterQuery, addrs []types.Address, from, to uint64) []*types.Log {
	var hits []indexedLog
	for _, addr := range addrs {
		list := c.logIndex[addr]
		i := sort.Search(len(list), func(i int) bool { return list[i].block >= from })
		for ; i < len(list) && list[i].block <= to; i++ {
			if matchLog(q, list[i].log) {
				hits = append(hits, list[i])
			}
		}
	}
	if len(hits) == 0 {
		return nil
	}
	if len(addrs) > 1 {
		sort.Slice(hits, func(i, j int) bool { return hits[i].seq < hits[j].seq })
	}
	out := make([]*types.Log, len(hits))
	for i := range hits {
		out[i] = hits[i].log
	}
	return out
}

// LogScanStats reports how FilterLogs queries have been served since the
// chain started: blocks walked by the fallback full-scan path, and queries
// answered entirely from the per-address log index. The log-index and
// recovery tests pin "served from the index" with it.
func (c *Chain) LogScanStats() (scannedBlocks, indexedQueries uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logScanned, c.logIndexed
}

// GasLimit returns the per-block gas limit.
func (c *Chain) GasLimit() uint64 { return c.config.GasLimit }

// Height returns the head block number.
func (c *Chain) Height() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return uint64(len(c.blocks)) - 1
}
