// Chain persistence: journal every sealed block to a write-ahead store
// and rebuild the whole chain — state, receipts, and the per-address log
// index — by re-executing those blocks on restart. A restarted cmd/chaind
// serves address-selective FilterLogs straight from the rebuilt index: the
// full-scan fallback stays cold (LogScanStats' scanned counter is the
// regression tripwire).
//
// The journal holds transactions, not state: blocks re-execute through
// the same engine that sealed them, and the recorded header hash pins the
// replay — any divergence (corrupt segment, edited record, changed
// genesis allocation) fails the restore loudly instead of silently
// forking the restarted chain.
package chain

import (
	"fmt"

	"onoffchain/internal/store"
	"onoffchain/internal/types"
)

// AttachJournal makes every block sealed from now on durable: after the
// block is appended (and before it is announced to subscribers), write
// one KindChainBlock record — number, timestamp, header hash, raw
// transactions — followed by a KindChainIndex record carrying the log
// index's high-water mark (the global log sequence after this block).
// Both writes happen under the chain lock, so the journal order IS the
// chain order. onErr (optional) observes write failures; sealing itself
// never blocks on them.
func (c *Chain) AttachJournal(write func(*store.Record) error, onErr func(error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealJournal = func(b *types.Block) {
		txs := make([][]byte, len(b.Transactions))
		for i, tx := range b.Transactions {
			txs[i] = tx.EncodeRLP()
		}
		hash := b.Hash()
		err := write(&store.Record{
			Kind: store.KindChainBlock,
			U1:   b.Number(), U2: b.Header.Time,
			Blob: hash[:], Blobs: txs,
		})
		if err == nil {
			err = write(&store.Record{Kind: store.KindChainIndex, U1: b.Number(), U2: c.logSeq})
		}
		if err != nil && onErr != nil {
			onErr(err)
		}
	}
}

// importBlock replays one journaled block onto the head: admit its
// transactions, force the recorded timestamp, and seal through the normal
// mining path so receipts, waiter resolution, and the log index are
// rebuilt by exactly the code that built them originally. The recorded
// header hash must match the replayed one — covering state root, receipt
// root, bloom, and transaction list at once.
func (c *Chain) importBlock(number, btime uint64, wantHash types.Hash, txRLPs [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	parent := c.blocks[len(c.blocks)-1]
	if number != parent.Number()+1 {
		return fmt.Errorf("chain: import block %d onto height %d", number, parent.Number())
	}
	if len(c.pending) != 0 {
		return fmt.Errorf("chain: import block %d with %d live transactions pending", number, len(c.pending))
	}
	txs := make([]*types.Transaction, len(txRLPs))
	for i, raw := range txRLPs {
		tx, err := types.DecodeTransaction(raw)
		if err != nil {
			return fmt.Errorf("chain: import block %d tx %d: %w", number, i, err)
		}
		txs[i] = tx
	}
	c.pending = txs
	if btime >= c.config.BlockInterval {
		c.now = btime - c.config.BlockInterval // mineLocked advances by one interval
	} else {
		c.now = 0
	}
	c.importing = true
	b := c.mineLocked()
	c.importing = false
	if got := b.Hash(); got != wantHash {
		return fmt.Errorf("chain: restored block %d hash mismatch: got %s want %s (journal corrupt or genesis changed)",
			number, got.Hex(), wantHash.Hex())
	}
	return nil
}

// RestoreChain replays journaled blocks (as returned by store.Replay, in
// write order) onto a freshly constructed chain with the ORIGINAL genesis
// allocation, then cross-checks the rebuilt log index against the last
// KindChainIndex high-water mark. Returns the number of blocks restored.
// Call before StartMining and before serving queries.
func RestoreChain(c *Chain, recs []*store.Record) (int, error) {
	blocks := 0
	var idx *store.Record
	for _, r := range recs {
		switch r.Kind {
		case store.KindChainBlock:
			if len(r.Blob) != len(types.Hash{}) {
				return blocks, fmt.Errorf("chain: block record %d: malformed hash (%d bytes)", r.U1, len(r.Blob))
			}
			var h types.Hash
			copy(h[:], r.Blob)
			if err := c.importBlock(r.U1, r.U2, h, r.Blobs); err != nil {
				return blocks, err
			}
			blocks++
		case store.KindChainIndex:
			idx = r
		}
	}
	if idx != nil {
		c.mu.Lock()
		height, seq := c.blocks[len(c.blocks)-1].Number(), c.logSeq
		c.mu.Unlock()
		// A block record may outrun its index record across a torn write
		// (block first, index second) — never the other way around.
		if height < idx.U1 {
			return blocks, fmt.Errorf("chain: index high-water mark %d ahead of restored height %d", idx.U1, height)
		}
		if height == idx.U1 && seq != idx.U2 {
			return blocks, fmt.Errorf("chain: rebuilt log index at seq %d, journal recorded %d", seq, idx.U2)
		}
	}
	return blocks, nil
}
