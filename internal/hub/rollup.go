package hub

import (
	"errors"
	"fmt"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/store"
	"onoffchain/internal/types"
)

// RollupConfig switches the hub from per-session settlement (one submit +
// one finalize transaction per session) to Merkle-batched settlement: a
// hub-hosted sequencer collects finished-session outcomes into epochs and
// posts ONE rollup transaction per epoch to a generated rollup-registry
// contract. The challenge window moves to the batch — disputing means
// opening one leaf against the posted root with a Merkle proof, then
// running the existing signed-copy dispute — so the whole enforcement
// stack downstream of the leaf-open is unchanged. Nil keeps the
// per-session path, which remains the default and the differential oracle
// the rollup path is tested against.
type RollupConfig struct {
	// Depth fixes the epoch Merkle tree (and proof) depth; an epoch holds
	// at most 2^Depth leaves. Default 8.
	Depth int
	// EpochCap seals an epoch as soon as it holds this many leaves
	// (default 2^Depth).
	EpochCap int
	// EpochAge seals a partial epoch this long after its first leaf
	// arrived (default 250ms) — the liveness bound for a trickle of
	// sessions.
	EpochAge time.Duration
	// Window is the batch challenge period in chain seconds; leaves can
	// be disputed until postedAt + Window. Default 600, matching the
	// default per-session challenge period.
	Window uint64
}

// sequencerIndex is the sequencer's place among the hub's own keys, which
// live under session ID 0: the faucet shards count up from 0, so no worker
// count reaches it. Generation-stable like every derived key, as it must be:
// the rollup registry admits exactly one posting address, so a recovered hub
// has to come back as the sequencer the crashed generation deployed the
// registry with.
const sequencerIndex = -1

// initRollup builds (without starting) the hub-hosted sequencer: mint its
// identity, seed it from folded WAL state (nil for a fresh hub), fund it and
// deploy its registry, and hook its durable state into WAL compaction. Split
// from launchRollup because recovery must re-arm session guards between the
// two — Start can re-post torn epochs, and those posts must open batch
// windows on a tower that already knows the sessions.
func (h *Hub) initRollup(f *rollup.Folded) error {
	rc := h.cfg.Rollup
	key, err := h.deriveKey(0, sequencerIndex)
	if err != nil {
		return err
	}
	party := hybrid.NewParticipant(key, h.chain, nil)
	party.Ctx = h.ctx
	window := rc.Window
	if window == 0 {
		window = 600
	}
	seq, err := rollup.New(rollup.Config{
		Party:     party,
		Depth:     rc.Depth,
		EpochCap:  rc.EpochCap,
		EpochAge:  rc.EpochAge,
		Window:    window,
		Journal:   h.journal.log,
		OnEpoch:   h.onEpoch,
		Telemetry: h.cfg.Telemetry,
		Tracer:    h.tracer,
	})
	if err != nil {
		return err
	}
	if err := seq.Seed(f); err != nil {
		return err
	}
	h.seq = seq
	h.journal.extra = seq.StateRecords
	return h.fundAndDeployRollup(party)
}

// fundAndDeployRollup is rollup start-up on chain, in one block: the root
// faucet sends the sequencer's funding (it pays for every epoch post) and,
// directly behind it, the registry's creation — one sender, consecutive
// nonces under faucetMu, the argument of fundAndDeploy. Either half is
// skipped when a dead generation already did it: a funded sequencer, a
// registry seeded from the WAL.
func (h *Hub) fundAndDeployRollup(party *hybrid.Participant) error {
	var (
		funding types.Hash
		bind    func() error
		err     error
	)
	fund := h.chain.BalanceAt(party.Addr).Lt(eth(100))
	h.faucetMu.Lock()
	if fund {
		funding, err = h.faucet.SendTxAsync(&party.Addr, eth(1000), 21_000, nil)
	}
	if err == nil && h.seq.Registry() == nil {
		bind, err = h.seq.DeployRegistryAsync(h.faucet)
	}
	h.faucetMu.Unlock()
	if err != nil {
		return fmt.Errorf("hub: rollup start-up: %w", err)
	}
	if fund {
		r, err := h.faucet.WaitReceipt(funding)
		if err != nil {
			return fmt.Errorf("hub: fund sequencer: %w", err)
		}
		if !r.Succeeded() {
			return errors.New("hub: sequencer funding reverted (faucet empty?)")
		}
	}
	if bind != nil {
		return bind()
	}
	return nil
}

// launchRollup arms the tower — initRollup left the registry installed —
// and then starts the sequencer. The order matters on recovery: Start
// re-posts epochs the crash tore between seal and receipt, and those posts
// must open batch windows. The CachedEpochs sweep re-examines every posted
// epoch whose batch window may still be open (recovery's replacement for
// the per-session RestoreWindow path, which cannot carry Merkle context).
func (h *Hub) launchRollup() error {
	h.tower.ArmRollup(h.seq.Registry(), h.seq)
	if err := h.seq.Start(); err != nil {
		return err
	}
	for _, ep := range h.seq.CachedEpochs() {
		h.tower.IngestEpoch(ep)
	}
	return nil
}

func (h *Hub) startRollup() error {
	if err := h.initRollup(nil); err != nil {
		return err
	}
	return h.launchRollup()
}

// RollupHandles exposes the hub-hosted sequencer's registry and epoch
// source so federated backup towers can guard the same batches via
// federation.Config.RollupRegistry/RollupSource. Returns (nil, nil) in
// per-session mode.
func (h *Hub) RollupHandles() (*rollup.Registry, rollup.Source) {
	if h.seq == nil {
		return nil, nil
	}
	return h.seq.Registry(), h.seq
}

// onEpoch runs after each epoch's post transaction lands: meter the
// settlement commit and open the batch windows on the hub's own tower.
// The tower also ingests the epoch via its EpochPosted subscription —
// IngestEpoch is idempotent — but this direct feed covers recovery
// re-posts that land before the tower's log replay runs.
func (h *Hub) onEpoch(e *rollup.Epoch) {
	if e.GasUsed > 0 { // zero: reconciled as already posted by a dead generation
		h.metrics.settleTxs.Inc()
		h.metrics.settleGas.Add(e.GasUsed)
	}
	h.tower.IngestEpoch(e)
}

// settleRollup replaces the per-session submit transaction with a leaf
// enqueue. The durable intent (KindSubmitted) still precedes the
// irreversible hand-off, and StageSubmitted now means "leaf enqueued with
// the sequencer". An adversarial spec enqueues the flipped outcome — the
// sequencer faithfully posts the lie, and the tower must catch it by
// opening the leaf.
func (h *Hub) settleRollup(lc *lifecycle, sess *hybrid.Session, watch *Watch, submitted uint64) *Report {
	t := lc.t
	fail := func(err error) *Report { return h.failSession(lc, err) }
	if rep := h.gate(lc, StageSubmitted); rep != nil {
		return rep
	}
	if err := h.journal.log(&store.Record{Kind: store.KindSubmitted, SID: t.ID, U1: submitted}); err != nil {
		return fail(fmt.Errorf("hub: wal: %w", err))
	}
	fut, err := h.seq.Enqueue(rollup.Leaf{SID: t.ID, Contract: sess.OnChainAddr, Outcome: submitted}, t.tc)
	if err != nil {
		if h.crashed.Load() || errors.Is(err, rollup.ErrHalted) {
			return h.crashReport(t, lc.rep.Stage)
		}
		return fail(fmt.Errorf("hub: rollup enqueue: %w", err))
	}
	if !h.advance(lc, StageSubmitted) {
		return h.crashReport(t, StageSubmitted)
	}
	return h.awaitRollup(lc, sess, watch, fut)
}

// awaitRollup is the rollup-mode tail of the lifecycle: wait for the
// leaf's epoch to post, wait for the tower's verdict on this leaf, then
// classify the outcome from chain truth — the shape of awaitSettlement,
// with the finalize transaction (and the clock jump and all-verdicts
// barrier in front of it) replaced by nothing at all: the epoch post IS
// the settlement commit.
func (h *Hub) awaitRollup(lc *lifecycle, sess *hybrid.Session, watch *Watch, fut *rollup.Future) *Report {
	t, rep := lc.t, lc.rep
	fail := func(err error) *Report { return h.failSession(lc, err) }

	lc.began = time.Now()
	_, _, err := fut.Wait(h.ctx)
	if err != nil {
		if h.crashed.Load() || h.ctx.Err() != nil || errors.Is(err, rollup.ErrHalted) {
			return h.crashReport(t, StageSubmitted)
		}
		return fail(fmt.Errorf("hub: rollup post: %w", err))
	}
	// Own verdict before reporting: the post receipt has landed, so the
	// epoch's block is ≤ the height read here. After WaitVerdict the tower
	// has examined the leaf window that post opened for THIS session and
	// reached its decision — a fraudulent leaf has already been opened and
	// enforced. Other leaves of the epoch may still be in dispute; nothing
	// here moves the clock, so an honest leaf does not wait for them.
	verdictStart := time.Now()
	h.tower.WaitVerdict(watch, h.chain.Height())
	h.barrierSpan(lc, verdictStart, time.Since(verdictStart), 0)
	if h.crashed.Load() {
		return h.crashReport(t, StageSubmitted)
	}
	settled, err := sess.IsSettled()
	if err != nil {
		return fail(err)
	}
	if settled {
		return h.reportSettled(lc, sess, watch)
	}
	// Not settled with the verdict in means the leaf was clean — unless the
	// tower filed and could not enforce: that leaf is a lie, not a roll-up.
	if raised, _ := watch.Disputed(); raised {
		return fail(errors.New("hub: dispute filed but not enforced"))
	}
	// Honest leaf: the posted root commits the true outcome and no
	// per-session transaction exists. The batch window may still be open,
	// but the tower's dispute decision for this leaf is already final
	// (that is what WaitVerdict waited for) — release the guard.
	if !h.advance(lc, StageRolledUp) {
		return h.crashReport(t, StageRolledUp)
	}
	h.terminal(lc, StageRolledUp)
	h.tower.release(sess.OnChainAddr)
	return rep
}
