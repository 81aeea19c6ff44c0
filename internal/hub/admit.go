package hub

// Admission and funding: a spec enters the hub as a ticket, and its
// session's parties and contract are paid for in one faucet run.

import (
	"encoding/binary"
	"fmt"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/keccak"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// Submit enqueues a session for the worker pool. It blocks only when the
// queue is full (backpressure). The acceptance is logged to the WAL
// before the ticket enters the queue, so a crash cannot silently lose a
// queued session.
func (h *Hub) Submit(spec *Spec) *Ticket {
	t := &Ticket{ID: h.sid.Add(1), Spec: spec, done: make(chan struct{})}
	if h.crashed.Load() {
		t.report = h.crashReport(t, StagePending)
		close(t.done)
		return t
	}
	h.metrics.sessionsStarted.Inc()
	if err := h.journal.log(&store.Record{Kind: store.KindAccepted, SID: t.ID, Str: spec.Scenario}); err != nil {
		// The WAL cannot record the acceptance, so the hub must not
		// accept: a queued-but-unlogged session would be silently lost by
		// the next recovery. Fail loudly with the real cause instead.
		t.report = &Report{ID: t.ID, Scenario: spec.Scenario, Stage: StageFailed, Err: fmt.Errorf("hub: wal: %w", err)}
		h.metrics.sessionsFailed.Inc()
		close(t.done)
		return t
	}
	// Admission is the trace root: everything the session causes — stage
	// advances, chain txs, whisper posts, tower windows, federated
	// disputes — hangs below this span, across process boundaries.
	if h.tracer != nil {
		t.tc = h.tracer.NewTrace()
		h.tracer.RecordSpan(t.tc, 0, t.ID, "hub", "session", time.Now(), 0, "scenario="+spec.Scenario)
	}
	h.jobs <- t
	return t
}

// Run submits every spec and waits for all reports, in order.
func (h *Hub) Run(specs []*Spec) []*Report {
	tickets := make([]*Ticket, len(specs))
	for i, s := range specs {
		tickets[i] = h.Submit(s)
	}
	reports := make([]*Report, len(specs))
	for i, t := range tickets {
		reports[i] = t.Report()
	}
	return reports
}

// split returns the (cached) stage-1 artifacts for a spec. SplitResult is
// immutable after creation, so one instance is shared by every session of
// the scenario.
func (h *Hub) split(spec *Spec) (*hybrid.SplitResult, error) {
	key := types.Hash(keccak.Sum256Bytes(
		[]byte(spec.Source), []byte(spec.Contract),
		[]byte(fmt.Sprintf("%+v", spec.Policy)),
	))
	h.splitMu.Lock()
	defer h.splitMu.Unlock()
	if sr, ok := h.splits[key]; ok {
		return sr, nil
	}
	sr, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
	if err != nil {
		return nil, err
	}
	h.splits[key] = sr
	return sr, nil
}

// deriveKey returns the key of party (or, under session ID 0, the
// sequencer) number index: a pure function of (hub secret, sid, index).
// Which worker runs a session, and in what order workers reach this point,
// cannot change the session's addresses — twin worlds fed the same fleet
// agree on every address-seeded outcome at any core count — and the scalars
// are not guessable without the hub's secret. Session IDs are never reissued
// (Recover floors the allocator above the WAL's high mark), so neither are
// keys.
func (h *Hub) deriveKey(sid uint64, index int) (*secp256k1.PrivateKey, error) {
	var tag [16]byte
	binary.BigEndian.PutUint64(tag[:8], sid)
	binary.BigEndian.PutUint64(tag[8:], uint64(index))
	d := keccak.Sum256(h.keySecret[:], tag[:])
	return secp256k1.PrivateKeyFromBytes(d[:])
}

// faucetRun sends one of the faucet's nonce runs: run pools the faucet's
// transactions back to back and awaits none of them. Every session's run and
// rollup start-up share the faucet's nonces, so runs are serialized under
// faucetMu, which covers the sends and none of the waits.
func (h *Hub) faucetRun(run func() error) error {
	h.faucetMu.Lock()
	defer h.faucetMu.Unlock()
	return run()
}

// awaitSuccess waits for a transaction of sender's and requires it to have
// succeeded; what names the transaction in the error.
func awaitSuccess(sender *hybrid.Participant, hash types.Hash, what string) (*types.Receipt, error) {
	r, err := sender.WaitReceipt(hash)
	if err != nil {
		return nil, fmt.Errorf("hub: %s: %w", what, err)
	}
	if !r.Succeeded() {
		return nil, fmt.Errorf("hub: %s reverted", what)
	}
	return r, nil
}

// fundAndDeploy is the whole of StageDeployed on chain, in one block: the
// faucet sends partyFunding to every party and, directly behind those
// transfers, the on-chain contract's creation. One sender, consecutive nonces:
// no block can carry the creation without the transfers, and nothing stops one
// block carrying all of them — whereas a party could not deploy before a block
// had funded it, because the pool admits no transaction its sender cannot yet
// pay for. Everything is sent first and awaited afterwards, and the session
// binds to the address the creation's receipt reports. Sessions running at
// once queue for faucetMu only while they sign and pool, so a wave's runs
// still land back to back in one block.
func (h *Hub) fundAndDeploy(t *Ticket, sess *hybrid.Session, gas uint64, ctorArgs []interface{}) error {
	addrs := sess.ParticipantAddrs()
	sent := time.Now()
	hashes := make([]types.Hash, len(addrs))
	var creation types.Hash
	err := h.faucetRun(func() (err error) {
		for i := range addrs {
			if hashes[i], err = h.faucet.SendTxAsync(&addrs[i], partyFunding, 21_000, nil); err != nil {
				return fmt.Errorf("hub: fund %s: %w", addrs[i].Hex(), err)
			}
		}
		if creation, err = sess.DeployOnChainAsync(h.faucet, gas, ctorArgs...); err != nil {
			return fmt.Errorf("hub: deploy: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var funded uint64
	for i, hash := range hashes {
		r, err := awaitSuccess(h.faucet, hash, "fund "+addrs[i].Hex())
		if err != nil {
			return err
		}
		funded = r.BlockNumber
	}
	h.tracer.RecordChild(t.tc, t.ID, "chain", "fund", sent, time.Since(sent), fmt.Sprintf("block=%d", funded))
	r, err := h.faucet.WaitReceipt(creation)
	if err != nil {
		return fmt.Errorf("hub: deploy: %w", err)
	}
	if err := sess.BindOnChain(r); err != nil {
		return fmt.Errorf("hub: deploy: %w", err)
	}
	h.tracer.RecordChild(t.tc, t.ID, "chain", "deploy", sent, time.Since(sent), fmt.Sprintf("block=%d", r.BlockNumber))
	return nil
}

// partyFunding is the balance the faucet grants each party: 5 ether.
var partyFunding = new(uint256.Int).Mul(uint256.NewInt(5), uint256.NewInt(1e18))
