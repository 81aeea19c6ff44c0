package tower

import (
	"onoffchain/internal/rollup"
	"onoffchain/internal/types"
)

// rollupLeafOpenGas bounds one openLeaf transaction: a fixed number of
// keccak folds (the tree depth) plus one storage write.
const rollupLeafOpenGas = 1_000_000

// rollupLeaf pins a watch's leaf inside a posted epoch — everything a
// dispute needs to open the leaf against the batch root.
type rollupLeaf struct {
	reg   *rollup.Registry
	epoch uint64
	index int
	leaf  rollup.Leaf
	proof []types.Hash
}

// onEpochPosted resolves an EpochPosted log to its epoch and opens a batch
// window per guarded leaf at the log's block time. Only the block loop reads
// the registry, so the clock step counts these windows before the
// block is marked processed. The Source serves every epoch from its seal
// until its window has closed, so a miss is an epoch nobody can open any
// more.
func (w *Watchtower) onEpochPosted(l *types.Log) {
	if w.rollupSrc == nil || l.Address != w.rollupReg.Addr {
		return
	}
	ev, err := rollup.DecodeEpochPosted(l)
	if err != nil {
		return
	}
	ep, ok := w.rollupSrc.EpochByNumber(ev.Epoch)
	if !ok {
		return
	}
	b, err := w.chain.BlockByNumber(l.BlockNumber)
	if err != nil {
		return
	}
	for i, leaf := range ep.Leaves {
		w.mu.Lock()
		e := w.entries[leaf.Contract]
		w.mu.Unlock()
		if e != nil { // nil: another guard's session, or already settled/released
			w.openBatchWindow(e, ep, i, b.Time())
		}
	}
}

// seedBatchWindow opens the batch window of a watch guarded after its
// epoch's log went by: a recovered hub's guards, and a federated backup
// whose guard gossip trails the chain. It reads the epoch's log and the
// block that carries it, as onEpochPosted does; no log means the post has
// not landed yet, and onEpochPosted opens the window when it does.
func (w *Watchtower) seedBatchWindow(e *Watch) {
	if w.rollupSrc == nil {
		return
	}
	for _, ep := range w.rollupSrc.CachedEpochs() {
		for i, leaf := range ep.Leaves {
			if leaf.Contract != e.sess.OnChainAddr {
				continue
			}
			if p, ok := w.rollupReg.Posts(w.chain)[ep.Number]; ok {
				w.openBatchWindow(e, ep, i, p.At)
			}
			return
		}
	}
}

// openBatchWindow gives leaf i of ep a batch challenge window (postedAt ..
// postedAt + Window) plus its Merkle context, and hands it to the same
// dispute pipeline as a per-session submission — with enforcement routed
// through a leaf-open against the posted root first. Its two callers are
// the only routes that open a batch window, and both pass the time of the
// block that carries the post, which is what openLeaf enforces, never an
// epoch copy's PostedAt.
func (w *Watchtower) openBatchWindow(e *Watch, ep *rollup.Epoch, i int, postedAt uint64) {
	proof, err := ep.Tree.Proof(i)
	if err != nil {
		return
	}
	leaf := ep.Leaves[i]
	e.mu.Lock()
	if e.rollup == nil {
		e.rollup = &rollupLeaf{reg: w.rollupReg, epoch: ep.Number, index: i, leaf: leaf, proof: proof}
	}
	e.mu.Unlock()
	w.examine(e, leaf.Outcome, postedAt+rollup.Window)
}

// release drops a guarded contract whose batch window the tower's sandbox
// found clean: the leaf's outcome is fixed by its epoch root, so the verdict
// is final. Settlement events end the other guards (onSettled), but a
// rolled-up honest session emits no per-contract event.
func (w *Watchtower) release(addr types.Address) {
	w.mu.Lock()
	_, ok := w.entries[addr]
	delete(w.entries, addr)
	w.mu.Unlock()
	if !ok {
		return
	}
	if o, _ := w.federated(); o != nil {
		o.WindowClosed(addr)
	}
}

// batched reports whether the watch's window is a batch window.
func (e *Watch) batched() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rollup != nil
}
