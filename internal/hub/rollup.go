package hub

import (
	"errors"
	"fmt"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/tower"
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
}

// sequencerIndex is the sequencer's place among the hub's own keys, which
// live under session ID 0, an ID Submit never issues. Generation-stable like
// every derived key, as it must be: the rollup registry admits exactly one
// posting address, so a recovered hub has to come back as the sequencer the
// crashed generation deployed the registry with.
const sequencerIndex = -1

// initRollup builds (without starting) the hub-hosted sequencer: mint its
// identity, seed it from folded WAL state (nil for a fresh hub), fund it and
// deploy its registry, and hook its durable state into WAL compaction.
func (h *Hub) initRollup(f *rollup.Folded) error {
	rc := h.cfg.Rollup
	key, err := h.deriveKey(0, sequencerIndex)
	if err != nil {
		return err
	}
	party := hybrid.NewParticipant(key, h.chain, nil)
	party.Ctx = h.ctx
	seq, err := rollup.New(rollup.Config{
		Party:     party,
		Depth:     rc.Depth,
		EpochCap:  rc.EpochCap,
		EpochAge:  rc.EpochAge,
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

// fundAndDeployRollup is rollup start-up on chain, in one block: the faucet
// sends the sequencer's funding (it pays for every epoch post) and, directly
// behind it, the registry's creation — one sender, consecutive nonces under
// faucetMu, the argument of fundAndDeploy. Either half is
// skipped when a dead generation already did it: a funded sequencer, a
// registry seeded from the WAL.
func (h *Hub) fundAndDeployRollup(party *hybrid.Participant) error {
	var (
		funding types.Hash
		bind    func() error
	)
	fund := h.chain.BalanceAt(party.Addr).Lt(eth(100))
	err := h.faucetRun(func() (err error) {
		if fund {
			funding, err = h.faucet.SendTxAsync(&party.Addr, eth(1000), 21_000, nil)
		}
		if err == nil && h.seq.Registry() == nil {
			bind, err = h.seq.DeployRegistryAsync(h.faucet)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("hub: rollup start-up: %w", err)
	}
	if fund {
		if _, err := awaitSuccess(h.faucet, funding, "fund sequencer"); err != nil {
			return err
		}
	}
	if bind != nil {
		return bind()
	}
	return nil
}

// RollupHandles exposes the hub-hosted sequencer as an epoch source — it
// names its registry — so federated backup towers can guard the same
// batches via federation.Config.Rollup. Nil in per-session mode.
func (h *Hub) RollupHandles() rollup.Source {
	if h.seq == nil {
		return nil
	}
	return h.seq
}

// onEpoch runs after each epoch's post transaction lands: meter the
// settlement commit. The windows the post opens are the tower's business,
// from the EpochPosted log.
func (h *Hub) onEpoch(e *rollup.Epoch) {
	if e.GasUsed > 0 { // zero: reconciled as already posted by a dead generation
		h.metrics.settleTxs.Inc()
		h.metrics.settleGas.Add(e.GasUsed)
	}
}

// settleRollup replaces the per-session submit transaction with a leaf
// enqueue, and StageSubmitted now means "leaf enqueued with the
// sequencer". The leaf's own record (KindEpochLeaf, which Enqueue makes
// durable before the hand-off) is the session's submit record. An
// adversarial spec enqueues the flipped outcome — the sequencer faithfully
// posts the lie, and the tower must catch it by opening the leaf. A
// recovered session re-enters here too: Enqueue is idempotent per SID, so
// it adopts the live ticket if the crash left one pending, or resolves
// instantly if the leaf already rode a posted epoch.
func (h *Hub) settleRollup(lc *lifecycle, sess *hybrid.Session, watch *tower.Watch, submitted uint64) *Report {
	t := lc.t
	if rep := h.gate(lc); rep != nil {
		return rep
	}
	fut, err := h.seq.Enqueue(rollup.Leaf{SID: t.ID, Contract: sess.OnChainAddr, Outcome: submitted}, t.tc)
	if err != nil {
		if h.crashed.Load() || errors.Is(err, rollup.ErrHalted) {
			return h.crashReport(t, lc.rep.Stage)
		}
		return h.failSession(lc, fmt.Errorf("hub: rollup enqueue: %w", err))
	}
	if !h.advance(lc, StageSubmitted) {
		return h.crashReport(t, StageSubmitted)
	}
	return h.awaitRollup(lc, sess, watch, fut)
}

// awaitRollup is the rollup-mode tail of the lifecycle: wait for the
// leaf's epoch to post, then take the verdict step — the shape of
// awaitSettlement, with the finalize transaction (and the tower's clock
// step in front of it) replaced by nothing at all: the
// epoch post IS the settlement commit.
func (h *Hub) awaitRollup(lc *lifecycle, sess *hybrid.Session, watch *tower.Watch, fut *rollup.Future) *Report {
	t, rep := lc.t, lc.rep

	lc.began = time.Now()
	if err := fut.Wait(h.ctx); err != nil {
		if h.crashed.Load() || h.ctx.Err() != nil || errors.Is(err, rollup.ErrHalted) {
			return h.crashReport(t, StageSubmitted)
		}
		return h.failSession(lc, fmt.Errorf("hub: rollup post: %w", err))
	}
	// The post receipt has landed, so the epoch's block is ≤ the height the
	// verdict step waits for: the tower has examined the leaf window that
	// post opened for THIS session. Other leaves of the epoch may still be
	// in dispute; nothing here moves the clock, so an honest leaf does not
	// wait for them.
	verdictStart := time.Now()
	own, done := h.verdict(lc, sess, watch)
	h.barrierSpan(lc, verdictStart, own, 0)
	if done != nil {
		return done
	}
	// Honest leaf: the posted root commits the true outcome and no
	// per-session transaction exists. The tower ended the guard when its
	// sandbox found the leaf clean, before the verdict step returned.
	if !h.advance(lc, StageRolledUp) {
		return h.crashReport(t, StageRolledUp)
	}
	h.terminal(lc, StageRolledUp)
	return rep
}
