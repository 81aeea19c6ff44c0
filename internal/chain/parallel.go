// Optimistic parallel block execution (Config.Exec = ExecParallel).
//
// The engine is a two-phase optimistic scheduler in the Block-STM family:
//
//  1. Speculative phase: every transaction of the batch runs concurrently
//     on its own recording fork of the block-start state (worker pool,
//     Config.ExecWorkers). Each run captures a read/write footprint
//     (state.Access) and, on success, the final values of its writes
//     (state.WriteSet). Forks never see each other, so every speculative
//     result is "as if this transaction ran first".
//
//  2. Ordered commit phase: transactions are visited in canonical pool
//     order. A transaction whose footprint (reads AND writes) is disjoint
//     from the writes committed so far would have observed exactly the
//     block-start values in a serial run too, so its speculative result is
//     replayed onto the canonical state verbatim — no second EVM run. A
//     transaction that overlaps an earlier write (or touches the coinbase
//     account after any fee credit, see below) is re-executed serially on
//     the canonical state, which is the plain serial engine and therefore
//     trivially correct. Its writes are recorded too so later conflict
//     checks see them.
//
// Coinbase fees are the one deliberate hole in the footprint: every
// transaction credits the miner, so recording the credit would serialize
// every block. Speculative runs skip it (creditCoinbase=false) and the
// commit phase applies gasUsed*gasPrice as a commutative delta instead.
// Any transaction that touches the coinbase account for a *visible* reason
// (BALANCE on the miner, miner as sender or recipient) still records that
// access and is forced onto the serial path once any fee has been credited.
//
// Writes conflict with writes — not only reads with writes — because the
// replay applies final values computed against block-start state; layering
// it over an earlier transaction's write would silently discard that write
// (e.g. two blind AddBalance increments to the same account).
//
// The result is bit-identical to the serial engine (executeLocked, one
// transaction after another on a fork as they are pooled) — same state
// root, receipts, logs, gas, same drop decisions — which
// parallel_diff_test.go pins across randomized conflicting workloads.
package chain

import (
	"runtime"
	"sync"
	"sync/atomic"

	"onoffchain/internal/state"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// specResult is the outcome of one speculative fork execution.
type specResult struct {
	receipt *types.Receipt
	err     error           // admission/validation failure inside the fork
	access  *state.Access   // recorded footprint (valid even when err != nil)
	writes  *state.WriteSet // final values, nil when err != nil
}

// execWorkerCount resolves the speculative pool size. Values above the
// core count are honoured: race tests use oversubscription to wring out
// more goroutine interleavings on small hosts.
func (c *Chain) execWorkerCount() int {
	if c.config.ExecWorkers > 0 {
		return c.config.ExecWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// executeParallelLocked is the optimistic block-execution engine: it
// executes batch onto the canonical state and returns one outcome per
// transaction, for mineLocked to publish. Called from mineLocked with c.mu
// held; the canonical state and the blocks slice stay read-only for the
// whole speculative phase (the forks only read committed trie data and the
// shared code store), so the forks race with nothing.
func (c *Chain) executeParallelLocked(batch []*types.Transaction, number uint64) []receiptOutcome {
	workers := c.execWorkerCount()
	if workers > len(batch) {
		workers = len(batch)
	}

	// Recover every sender up front across the pool: signature recovery is
	// the measured scalar-mul hot spot, and priming the per-transaction
	// cache here keeps it off the speculative runs' critical path.
	types.RecoverSenders(batch, workers)

	// Phase 1: speculative execution on recording forks.
	results := make([]*specResult, len(batch))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				fork := c.state.ForkRecording()
				receipt, err := c.applyTransactionOn(fork, batch[i], number, c.now, false)
				res := &specResult{receipt: receipt, err: err}
				res.access = fork.TakeAccess()
				if err == nil {
					res.writes = fork.ExtractWrites(res.access)
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()

	c.mParTxs.Add(uint64(len(batch)))

	// Phase 2: ordered commit.
	outcomes := make([]receiptOutcome, len(batch))
	ix := state.NewAccessIndex()
	feeCredited := false
	for i, tx := range batch {
		res := results[i]
		conflict := ix.Conflicts(res.access) || (feeCredited && res.access.Touches(Coinbase))
		var receipt *types.Receipt
		if conflict {
			// Serial re-execution on the canonical state: the authoritative
			// path, recording its writes so later conflict checks see them.
			c.mParReexec.Inc()
			c.state.StartRecording()
			r, err := c.applyTransactionOn(c.state, tx, number, c.now, true)
			a := c.state.TakeAccess()
			if err != nil {
				outcomes[i].err = err
				continue
			}
			ix.Add(a)
			receipt = r
		} else {
			if res.err != nil {
				// Nothing this transaction read was written by an earlier
				// one, so the serial engine would have seen the same values
				// and failed the same way. Drop decisions in
				// applyTransactionOn precede any mutation, so there is
				// nothing to undo.
				outcomes[i].err = res.err
				continue
			}
			// Disjoint footprint: replay the speculative result verbatim.
			c.state.ApplyWrites(res.writes)
			fee := new(uint256.Int).SetUint64(res.receipt.GasUsed)
			fee.Mul(fee, tx.GasPrice)
			c.state.AddBalance(Coinbase, fee)
			c.state.Finalise()
			ix.Add(res.access)
			receipt = res.receipt
		}
		feeCredited = true
		outcomes[i].receipt = receipt
	}
	return outcomes
}
