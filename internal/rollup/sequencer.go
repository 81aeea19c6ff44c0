package rollup

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

// Config parameterizes a Sequencer.
type Config struct {
	// Party is the funded sequencer identity: it deploys the registry and
	// pays for every epoch post.
	Party *hybrid.Participant
	// Depth fixes the Merkle tree (and proof) depth; an epoch holds at
	// most 2^Depth leaves. Default 8 (256 leaves).
	Depth int
	// EpochCap seals an epoch as soon as it holds this many leaves.
	// Default 2^Depth, clamped to it.
	EpochCap int
	// EpochAge seals a partial epoch this long after its FIRST leaf
	// arrived: the liveness bound that keeps a trickle of sessions from
	// waiting forever for a full batch. Default 250ms.
	EpochAge time.Duration
	// Journal, when set, makes epoch state durable: it receives every
	// rollup record BEFORE the action it describes (the hub passes its
	// WAL journal here, so epochs ride the session log).
	Journal func(*store.Record) error
	// OnEpoch runs after each epoch's post transaction is mined (the hub
	// meters the settlement commit).
	OnEpoch func(*Epoch)
	// Telemetry / Tracer are optional observability handles.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// Epoch is one sealed-and-posted batch: everything needed to derive any
// leaf's Merkle proof during the batch challenge window.
type Epoch struct {
	Number   uint64
	Root     types.Hash
	Tree     *Tree
	Leaves   []Leaf
	PostedAt uint64 // time of the block that carries the post
	GasUsed  uint64 // actual gas of the post transaction
}

// Source hands out epochs by number — the seam between the hub's sequencer,
// which holds the epoch data, and the watchtowers that need leaves + proofs
// to guard a batch.
type Source interface {
	// Registry is the contract the epochs are posted to: its EpochPosted
	// logs open batch windows, each at the time of the block that carries it.
	Registry() *Registry
	// EpochByNumber returns epoch n from its seal until its batch window
	// has closed — posted, or sealed with its post still landing — and
	// false otherwise.
	EpochByNumber(n uint64) (*Epoch, bool)
	// CachedEpochs lists every epoch EpochByNumber serves, in epoch order.
	CachedEpochs() []*Epoch
}

// Future is one session's pending leaf, and the caller's handle on it:
// resolved (done closed) when the epoch carrying it is posted on chain.
type Future struct {
	leaf    Leaf
	tc      telemetry.TraceContext
	done    chan struct{}
	err     error // set before done closes
	arrived time.Time
}

// Wait blocks until the leaf's epoch posts or ctx ends.
func (f *Future) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-f.done:
		return f.err
	}
}

// ErrHalted rejects enqueues after Stop/Halt and resolves tickets the
// sequencer abandoned mid-flight.
var ErrHalted = errors.New("rollup: sequencer halted")

type seqMetrics struct {
	epochs, leaves, postGas *telemetry.Counter
	hSeconds                *telemetry.Histogram
}

// postWindow is how many sent epoch posts may sit between the seal loop and
// the landing goroutine: the landing queue's capacity. A burst of
// postWindow·EpochCap leaves is sealed and sent without waiting for any
// receipt, so one block can carry all of those posts; past it the seal loop
// waits for the oldest post to land. It also bounds what a crash can tear:
// Start re-posts at most postWindow+2 epochs (queue, the one landing, the one
// sealed and not yet sent).
const postWindow = 8

// Gas limits of the registry's deployment and of one epoch post.
const (
	registryDeployGas = 3_000_000
	epochPostGas      = 2_000_000
)

// Sequencer batches finished-session outcomes into epochs and posts one
// rollup transaction per epoch. Two goroutines split the cycle. The seal loop
// cuts a batch when the cap fills or the age deadline passes, journals it,
// sends its post without waiting and goes back to sealing; it is the one
// sender and its nonces are consecutive, so the registry numbers the epochs
// in seal order even when one block carries several. The landing goroutine
// awaits the receipts in that same order, checks each against what was
// sealed, journals the landing and resolves the leaf futures. Batches form by
// cap or age only — nothing waits on a receipt to seal.
type Sequencer struct {
	cfg      Config
	registry *Registry

	mu        sync.Mutex
	pending   []*Future
	bySID     map[uint64]*Future // every unresolved ticket, for idempotent re-enqueue
	epochs    map[uint64]*Epoch  // posted, by number
	inflight  map[uint64]*Epoch  // sealed, post receipt pending — already visible to Source
	nextEpoch uint64
	sealed    []*Epoch // folded sealed-but-maybe-unposted epochs to reconcile at Start, in seal order
	halted    bool
	arrivedCh chan struct{} // pulsed when pending goes non-empty

	landing chan *sentEpoch // sent posts, in send order; capacity postWindow

	metrics seqMetrics
	logf    func(string, ...interface{})

	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// sentEpoch is a sealed epoch whose post transaction has been sent and whose
// receipt nobody has read yet.
type sentEpoch struct {
	*Epoch
	hash  types.Hash
	sent  time.Time
	first time.Time // earliest leaf arrival; zero for a recovery re-post
}

// sealedState is a folded KindEpochSealed awaiting on-chain
// reconciliation (posted or not?) at Start.
type sealedState struct {
	number uint64
	root   types.Hash
	leaves []Leaf
}

// New builds a sequencer. Call Seed (optionally) then Start.
func New(cfg Config) (*Sequencer, error) {
	if cfg.Party == nil {
		return nil, errors.New("rollup: sequencer needs a funded party")
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 8
	}
	if cfg.EpochCap <= 0 || cfg.EpochCap > 1<<cfg.Depth {
		cfg.EpochCap = 1 << cfg.Depth
	}
	if cfg.EpochAge <= 0 {
		cfg.EpochAge = 250 * time.Millisecond
	}
	s := &Sequencer{
		cfg:       cfg,
		bySID:     make(map[uint64]*Future),
		epochs:    make(map[uint64]*Epoch),
		inflight:  make(map[uint64]*Epoch),
		arrivedCh: make(chan struct{}, 1),
		landing:   make(chan *sentEpoch, postWindow),
		logf:      telemetry.Default().Layer("rollup").Logf,
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if reg := cfg.Telemetry; reg != nil {
		s.metrics = seqMetrics{
			epochs:   reg.Counter("rollup_epochs_total"),
			leaves:   reg.Counter("rollup_leaves_total"),
			postGas:  reg.Counter("rollup_post_gas_total"),
			hSeconds: reg.Histogram("rollup_epoch_seconds", telemetry.DurationBuckets()),
		}
	}
	return s, nil
}

// Folded is the sequencer state a WAL record stream folds to; hub.Recover
// feeds it back through Seed so a restarted sequencer resumes exactly
// where the crash left it (modulo what the chain says actually landed).
type Folded struct {
	Registry     types.Address // zero: never deployed
	Depth        int
	Pending      map[uint64]Leaf // enqueued, not in any sealed epoch
	Sealed       []*sealedState  // sealed; posted-or-not decided on chain
	PostedThru   uint64          // next epoch number after the highest posted
	postedEpochs map[uint64]*sealedState
}

// Fold extracts rollup sequencer state from a WAL record stream. Records
// of other subsystems are ignored, so the hub can pass its whole replay.
func Fold(recs []*store.Record) *Folded {
	f := &Folded{Pending: map[uint64]Leaf{}, postedEpochs: map[uint64]*sealedState{}}
	sealed := map[uint64]*sealedState{} // by number: a record replayed twice is one epoch
	posted := map[uint64]bool{}
	for _, rec := range recs {
		switch rec.Kind {
		case store.KindRollupRegistry:
			// U1 carried the batch window in older WALs; it is Window.
			f.Registry = types.BytesToAddress(rec.Blob)
			f.Depth = int(rec.U2)
		case store.KindEpochLeaf:
			f.Pending[rec.SID] = Leaf{SID: rec.SID, Contract: types.BytesToAddress(rec.Blob), Outcome: rec.U1}
		case store.KindEpochSealed:
			ss := &sealedState{number: rec.U1, root: types.BytesToHash(rec.Blob)}
			for _, b := range rec.Blobs {
				if l, ok := decodeLeaf(b); ok {
					ss.leaves = append(ss.leaves, l)
				}
			}
			sealed[ss.number] = ss
		case store.KindEpochPosted:
			posted[rec.U1] = true
			if rec.U1+1 > f.PostedThru {
				f.PostedThru = rec.U1 + 1
			}
		}
	}
	for _, ss := range sealed {
		for _, l := range ss.leaves {
			delete(f.Pending, l.SID)
		}
		if posted[ss.number] {
			f.postedEpochs[ss.number] = ss
			continue
		}
		f.Sealed = append(f.Sealed, ss)
	}
	// Start re-posts these in slice order and the registry numbers posts in
	// arrival order, so the order must be the seal order.
	sort.Slice(f.Sealed, func(i, j int) bool { return f.Sealed[i].number < f.Sealed[j].number })
	return f
}

// Seed installs folded state. Must run before Start. From here on the
// Source serves every epoch the WAL knows: a posted one from the proof cache,
// carrying the time of the block that carries its post (what eviction
// counts its window from), a sealed one as in flight until Start has
// reconciled it.
func (s *Sequencer) Seed(f *Folded) error {
	if f == nil {
		return nil
	}
	if !f.Registry.IsZero() {
		if f.Depth != s.cfg.Depth {
			return fmt.Errorf("rollup: journaled registry depth %d, configured %d", f.Depth, s.cfg.Depth)
		}
		reg, err := OpenRegistry(f.Registry, f.Depth)
		if err != nil {
			return err
		}
		s.registry = reg
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextEpoch = f.PostedThru
	for _, ss := range f.Sealed {
		e, err := s.refold(ss)
		if err != nil {
			return err
		}
		s.inflight[e.Number] = e
		s.sealed = append(s.sealed, e)
		if e.Number >= s.nextEpoch {
			s.nextEpoch = e.Number + 1
		}
	}
	var posts map[uint64]Post
	if s.registry != nil {
		posts = s.registry.Posts(s.cfg.Party.Chain)
	}
	for n, ss := range f.postedEpochs {
		e, err := s.refold(ss)
		if err != nil {
			return err
		}
		// No log leaves PostedAt 0: the epoch then stays cached until Stop
		// instead of being evicted, which costs memory only.
		e.PostedAt = posts[n].At
		s.epochs[n] = e
	}
	for _, l := range f.Pending {
		s.enqueueLocked(l, telemetry.TraceContext{}, false)
	}
	return nil
}

// refold rebuilds a journaled epoch and checks it against its journaled
// root, which a leaf whose bytes changed, or that Fold dropped as
// undecodable, no longer matches.
func (s *Sequencer) refold(ss *sealedState) (*Epoch, error) {
	tree, err := NewTree(s.cfg.Depth, ss.leaves)
	if err != nil || tree.Root() != ss.root {
		return nil, fmt.Errorf("rollup: journaled epoch %d does not re-fold to its journaled root", ss.number)
	}
	return &Epoch{Number: ss.number, Root: ss.root, Tree: tree, Leaves: ss.leaves}, nil
}

// DeployRegistryAsync pools the registry's creation from deployer — the
// hub's root faucet, in the same nonce run that funds the sequencer —
// naming this sequencer as the only poster. The returned bind waits for
// the receipt, journals the registry and installs it. A registry comes
// from here or from Seed; Start refuses to run without one.
func (s *Sequencer) DeployRegistryAsync(deployer *hybrid.Participant) (bind func() error, err error) {
	wait, err := DeployRegistryAsync(deployer, s.cfg.Depth, s.cfg.Party.Addr, registryDeployGas)
	if err != nil {
		return nil, err
	}
	return func() error {
		reg, err := wait()
		if err != nil {
			return err
		}
		if err := s.journal(registryRecord(reg)); err != nil {
			return err
		}
		s.registry = reg
		return nil
	}, nil
}

// Start reconciles any sealed-but-maybe-unposted epochs against the chain —
// posting exactly the ones that never landed, in order, all in one block —
// and launches the seal loop and the landing goroutine. The registry must be
// installed already, seeded or deployed through DeployRegistryAsync.
func (s *Sequencer) Start() error {
	if s.registry == nil {
		return errors.New("rollup: no registry installed (Seed or DeployRegistryAsync first)")
	}
	// Torn-epoch reconciliation: a KindEpochSealed without KindEpochPosted
	// means the crash hit between seal and receipt. The CHAIN decides
	// whether the post landed — an EpochPosted log carrying n with the
	// sealed root means it did (only this sequencer's key can post, so no
	// other writer exists) and re-posting would double-settle the batch;
	// anything else means the epoch never landed and is re-posted now.
	s.mu.Lock()
	sealed := s.sealed
	s.sealed = nil
	s.mu.Unlock()
	var posts map[uint64]Post
	if len(sealed) > 0 {
		// The logs are those of mined blocks only, so they are read only once
		// nothing of the dead generation is left to mine.
		if err := s.awaitPoolDrained(); err != nil {
			return err
		}
		posts = s.registry.Posts(s.cfg.Party.Chain)
	}
	var resent []*sentEpoch
	for _, e := range sealed {
		if p, ok := posts[e.Number]; ok && p.Root == e.Root {
			s.logf("rollup: sealed epoch %d already on chain, not re-posting", e.Number)
			if err := s.journal(&store.Record{Kind: store.KindEpochPosted, U1: e.Number, Blob: e.Root[:]}); err != nil {
				return err
			}
			s.finishEpoch(e, 0, p.At)
			continue
		}
		s.logf("rollup: re-posting torn epoch %d (%d leaves)", e.Number, len(e.Leaves))
		se, err := s.send(e, time.Time{})
		if err != nil {
			return fmt.Errorf("rollup: re-posting epoch %d: %w", e.Number, err)
		}
		resent = append(resent, se)
	}
	for _, se := range resent {
		if err := s.land(se); err != nil {
			return fmt.Errorf("rollup: re-posting epoch %d: %w", se.Number, err)
		}
	}
	s.wg.Add(2)
	go s.loop()
	go s.landLoop()
	return nil
}

// awaitPoolDrained returns once the chain's pool holds no transaction of the
// sequencer's: on an interval-mined chain a dead generation's postEpoch can
// outlive it there. Reading the logs before that post mines would find no
// log of epoch n and post the epoch a second time; both copies would mine,
// one as n and one as n+1, and every later epoch would be numbered one off.
func (s *Sequencer) awaitPoolDrained() error {
	c, addr := s.cfg.Party.Chain, s.cfg.Party.Addr
	for {
		mined := c.Mined() // before the check: a block sealed after it wakes us
		if c.NonceAt(addr) == c.PendingNonceAt(addr) {
			return nil
		}
		select {
		case <-s.ctx.Done():
			return s.ctx.Err()
		case <-mined:
		}
	}
}

// Registry exposes the installed registry handle (nil before one is).
func (s *Sequencer) Registry() *Registry { return s.registry }

// EpochByNumber implements Source over the sequencer's posted epochs.
// Sealed epochs whose post receipt is still pending are served too: the
// watchtower's block loop can observe the EpochPosted event before the
// sequencer's own receipt wait returns, and it must find the leaves then.
func (s *Sequencer) EpochByNumber(n uint64) (*Epoch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.epochs[n]; ok {
		return e, true
	}
	e, ok := s.inflight[n]
	return e, ok
}

// Enqueue registers a finished session's outcome for the next epoch and
// returns a future resolving when its batch posts. Idempotent per SID:
// a recovered session re-enqueueing its leaf gets the live ticket (or,
// if the leaf already posted, an immediately-resolved one).
func (s *Sequencer) Enqueue(leaf Leaf, tc telemetry.TraceContext) (*Future, error) {
	if f, err, settled := s.tryResolve(leaf); settled {
		return f, err
	}
	// Journal OUTSIDE the sequencer lock: the hub's compaction holds the
	// journal lock while collecting StateRecords (journal → sequencer lock
	// order), so journaling under s.mu would invert it. Two racing first
	// enqueues of the same SID may both write KindEpochLeaf; Fold is
	// idempotent per SID, and the loser adopts the winner's ticket below.
	if err := s.journal(&store.Record{
		Kind: store.KindEpochLeaf, SID: leaf.SID,
		U1: leaf.Outcome, Blob: leaf.Contract[:],
	}); err != nil {
		return nil, err
	}
	if f, err, settled := s.tryResolve(leaf); settled {
		return f, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return nil, ErrHalted
	}
	if t := s.bySID[leaf.SID]; t != nil {
		return t, nil
	}
	return s.enqueueLocked(leaf, tc, true), nil
}

// tryResolve covers the no-journal-needed cases: halted, an existing live
// ticket for the SID, or a leaf already inside a posted epoch (re-enqueue
// after recovery) which resolves immediately.
func (s *Sequencer) tryResolve(leaf Leaf) (*Future, error, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return nil, ErrHalted, true
	}
	if t := s.bySID[leaf.SID]; t != nil {
		return t, nil, true
	}
	for _, e := range s.epochs {
		for _, l := range e.Leaves {
			if l.SID == leaf.SID {
				t := &Future{leaf: l, done: make(chan struct{})}
				close(t.done)
				return t, nil, true
			}
		}
	}
	return nil, nil, false
}

func (s *Sequencer) enqueueLocked(leaf Leaf, tc telemetry.TraceContext, trace bool) *Future {
	t := &Future{leaf: leaf, tc: tc, done: make(chan struct{}), arrived: time.Now()}
	s.pending = append(s.pending, t)
	s.bySID[leaf.SID] = t
	if trace && s.cfg.Tracer != nil && tc.Valid() {
		s.cfg.Tracer.EventChild(tc, leaf.SID, "rollup", "leaf_enqueued", "")
	}
	select {
	case s.arrivedCh <- struct{}{}:
	default:
	}
	return t
}

// loop is the seal/post cycle: wait for a first leaf, then seal when the
// cap fills or the age deadline passes — the age timer guarantees a
// partial epoch always posts, so a worker waiting on its leaf's future
// can never deadlock the pipeline it feeds.
func (s *Sequencer) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.arrivedCh:
		}
		// A first leaf is in. Grow the batch until cap or age.
		deadline := time.NewTimer(s.cfg.EpochAge)
		grow := true
		for grow {
			s.mu.Lock()
			full := len(s.pending) >= s.cfg.EpochCap
			s.mu.Unlock()
			if full {
				break
			}
			select {
			case <-s.ctx.Done():
				deadline.Stop()
				return
			case <-deadline.C:
				grow = false
			case <-s.arrivedCh:
			}
		}
		deadline.Stop()
		se, err := s.sealAndSend()
		if err != nil {
			s.fail(err)
			return
		}
		if se == nil {
			continue
		}
		select {
		case s.landing <- se:
		case <-s.ctx.Done():
			return
		}
	}
}

// landLoop lands the sent posts one at a time, in the order they were sent.
func (s *Sequencer) landLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case se := <-s.landing:
			if err := s.land(se); err != nil {
				s.fail(err)
				return
			}
		}
	}
}

// fail ends the seal/land cycle on an error from either goroutine: poison the
// sequencer and stop the other goroutine. An error that is only Stop or Halt
// taking the context away is not a failure — a halted sequencer resolves
// nothing and writes nothing.
func (s *Sequencer) fail(err error) {
	if s.ctx.Err() != nil {
		return
	}
	s.logf("rollup: epoch post failed: %v", err)
	s.abort(err)
	s.cancel()
}

// sealAndSend cuts the current batch into an epoch: WAL the sealed epoch
// BEFORE the transaction (tearing recovery's anchor), then send the post
// without waiting for it. Nil without an error means there was no batch.
func (s *Sequencer) sealAndSend() (*sentEpoch, error) {
	s.mu.Lock()
	n := len(s.pending)
	if n == 0 {
		s.mu.Unlock()
		return nil, nil
	}
	if n > s.cfg.EpochCap {
		n = s.cfg.EpochCap
	}
	batch := s.pending[:n:n]
	s.pending = append([]*Future{}, s.pending[n:]...)
	if len(s.pending) > 0 {
		select {
		case s.arrivedCh <- struct{}{}:
		default:
		}
	}
	number := s.nextEpoch
	s.nextEpoch++
	s.mu.Unlock()

	leaves := make([]Leaf, n)
	first := batch[0].arrived
	for i, t := range batch {
		leaves[i] = t.leaf
		if t.arrived.Before(first) {
			first = t.arrived
		}
	}
	tree, err := NewTree(s.cfg.Depth, leaves)
	if err != nil {
		return nil, err
	}
	e := &Epoch{Number: number, Root: tree.Root(), Tree: tree, Leaves: leaves}
	if err := s.journal(sealedRecord(e)); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.inflight[number] = e
	s.mu.Unlock()
	return s.send(e, first)
}

// send pools one sealed epoch's post. Only the seal loop (and Start, before
// the loop exists) calls it, so posts leave in seal order.
func (s *Sequencer) send(e *Epoch, first time.Time) (*sentEpoch, error) {
	sent := time.Now()
	hash, err := s.registry.PostEpochAsync(s.cfg.Party, e.Root, uint64(len(e.Leaves)), epochPostGas)
	if err != nil {
		return nil, err
	}
	return &sentEpoch{Epoch: e, hash: hash, sent: sent, first: first}, nil
}

// land awaits one post's receipt and, only if the chain recorded exactly what
// was sealed, WALs the landing and resolves the epoch's tickets. The number
// check is what keeps the sequencer's count and the registry's the same
// count: a post of this key that the sequencer did not send, or one that
// reverted, shifts every later number, and proofs built for epoch n would be
// opened against the root stored under another.
func (s *Sequencer) land(se *sentEpoch) error {
	c := s.cfg.Party.Chain
	rec, err := c.WaitReceipt(s.ctx, se.hash)
	if err != nil {
		return err
	}
	if !rec.Succeeded() {
		return fmt.Errorf("rollup: postEpoch of epoch %d reverted", se.Number)
	}
	ev, err := s.registry.PostedBy(rec)
	if err != nil {
		return err
	}
	if ev.Epoch != se.Number || ev.Root != se.Root {
		return fmt.Errorf("rollup: sealed epoch %d (root %s) landed as epoch %d (root %s)",
			se.Number, se.Root.Hex(), ev.Epoch, ev.Root.Hex())
	}
	b, err := c.BlockByNumber(rec.BlockNumber)
	if err != nil {
		return fmt.Errorf("rollup: block of epoch %d's post: %w", se.Number, err)
	}
	if err := s.journal(&store.Record{Kind: store.KindEpochPosted, U1: se.Number, U2: rec.BlockNumber, Blob: se.Root[:]}); err != nil {
		return err
	}
	if s.metrics.epochs != nil {
		s.metrics.epochs.Inc()
		s.metrics.leaves.Add(uint64(len(se.Leaves)))
		s.metrics.postGas.Add(rec.GasUsed)
		if !se.first.IsZero() {
			s.metrics.hSeconds.Observe(time.Since(se.first).Seconds())
		}
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(0, "rollup", "post_epoch", se.sent, time.Since(se.sent),
			fmt.Sprintf("epoch=%d leaves=%d gas=%d block=%d", se.Number, len(se.Leaves), rec.GasUsed, rec.BlockNumber))
	}
	s.finishEpoch(se.Epoch, rec.GasUsed, b.Time())
	return nil
}

// finishEpoch records the posted epoch, resolves tickets, and runs the
// OnEpoch hook. sealed stays as it is — Source readers may hold it — and the
// cache gets a copy that carries postedAt, the time of the block that
// carries the post.
func (s *Sequencer) finishEpoch(sealed *Epoch, gasUsed, postedAt uint64) {
	number, leaves := sealed.Number, sealed.Leaves
	e := &Epoch{Number: number, Root: sealed.Root, Tree: sealed.Tree, Leaves: leaves, PostedAt: postedAt, GasUsed: gasUsed}
	s.mu.Lock()
	delete(s.inflight, number)
	s.epochs[number] = e
	// Chain time is monotonic, so any cached epoch whose window closed
	// before THIS post's timestamp can no longer be opened — evict it to
	// bound the proof cache (and the compaction snapshot it feeds).
	for n, old := range s.epochs {
		if old.PostedAt > 0 && old.PostedAt+Window < postedAt {
			delete(s.epochs, n)
		}
	}
	var resolve []*Future
	for _, l := range leaves {
		if t := s.bySID[l.SID]; t != nil {
			resolve = append(resolve, t)
			delete(s.bySID, l.SID)
		}
	}
	s.mu.Unlock()
	for _, t := range resolve {
		if s.cfg.Tracer != nil && t.tc.Valid() {
			s.cfg.Tracer.EventChild(t.tc, t.leaf.SID, "rollup", "leaf_posted", fmt.Sprintf("epoch=%d", number))
		}
		close(t.done)
	}
	if s.cfg.OnEpoch != nil {
		s.cfg.OnEpoch(e)
	}
}

// abort poisons the sequencer: every unresolved ticket fails, later
// enqueues are rejected.
func (s *Sequencer) abort(err error) {
	s.mu.Lock()
	s.halted = true
	var open []*Future
	for sid, t := range s.bySID {
		t.err = fmt.Errorf("%w: %v", ErrHalted, err)
		open = append(open, t)
		delete(s.bySID, sid)
	}
	s.pending = nil
	s.mu.Unlock()
	for _, t := range open {
		close(t.done)
	}
}

// Stop winds the sequencer down. Pending (unsealed) leaves resolve with
// ErrHalted — on a clean shutdown the hub drains workers first, so there
// are none; on a crash the WAL carries them into the next incarnation.
func (s *Sequencer) Stop() {
	s.cancel()
	s.wg.Wait()
	s.abort(errors.New("stopped"))
}

// Halt simulates the sequencer dying mid-flight: the loop stops, tickets
// stay unresolved (their sessions are crashing too), and the journal is
// left exactly as-is for recovery.
func (s *Sequencer) Halt() {
	s.mu.Lock()
	s.halted = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// StateRecords synthesizes the record stream that re-folds to the
// sequencer's durable state — the hub appends it to compaction snapshots
// so WAL compaction cannot lose epoch state. Posted epochs are carried
// while cached, and finishEpoch bounds the cache: each post evicts every
// epoch whose batch window closed before it, so the set is the epochs
// posted within one Window of the newest.
func (s *Sequencer) StateRecords() []*store.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*store.Record
	if s.registry != nil {
		out = append(out, registryRecord(s.registry))
	}
	for _, t := range s.bySID {
		out = append(out, &store.Record{
			Kind: store.KindEpochLeaf, SID: t.leaf.SID,
			U1: t.leaf.Outcome, Blob: t.leaf.Contract[:],
		})
	}
	// In-flight epochs are sealed but their post receipt has not landed:
	// snapshot them WITHOUT a posted record, so a recovery folded from this
	// snapshot reads the chain's logs for them exactly as the raw WAL would.
	for _, e := range s.inflight {
		out = append(out, sealedRecord(e))
	}
	for _, e := range s.epochs {
		root := e.Root
		out = append(out, sealedRecord(e),
			&store.Record{Kind: store.KindEpochPosted, U1: e.Number, Blob: root[:]})
	}
	return out
}

// CachedEpochs implements Source: every posted epoch still in the proof
// cache and every sealed one whose post receipt is still pending, in epoch
// order. A tower that guards a session after the epoch's EpochPosted log
// went by finds the leaf here: a recovered hub's guards, and a backup whose
// guard gossip trails the chain.
func (s *Sequencer) CachedEpochs() []*Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Epoch, 0, len(s.epochs)+len(s.inflight))
	for _, e := range s.epochs {
		out = append(out, e)
	}
	for _, e := range s.inflight {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

func (s *Sequencer) journal(rec *store.Record) error {
	if s.cfg.Journal == nil {
		return nil
	}
	return s.cfg.Journal(rec)
}

func registryRecord(reg *Registry) *store.Record {
	return &store.Record{Kind: store.KindRollupRegistry, Blob: reg.Addr[:], U2: uint64(reg.Depth)}
}

func sealedRecord(e *Epoch) *store.Record {
	blobs := make([][]byte, len(e.Leaves))
	for i, l := range e.Leaves {
		blobs[i] = encodeLeaf(l)
	}
	root := e.Root
	return &store.Record{Kind: store.KindEpochSealed, U1: e.Number, U2: uint64(len(e.Leaves)), Blob: root[:], Blobs: blobs}
}

// encodeLeaf packs a leaf as sid(8) ‖ contract(20) ‖ outcome(8).
func encodeLeaf(l Leaf) []byte {
	b := make([]byte, 36)
	binary.BigEndian.PutUint64(b[0:8], l.SID)
	copy(b[8:28], l.Contract[:])
	binary.BigEndian.PutUint64(b[28:36], l.Outcome)
	return b
}

func decodeLeaf(b []byte) (Leaf, bool) {
	if len(b) != 36 {
		return Leaf{}, false
	}
	return Leaf{
		SID:      binary.BigEndian.Uint64(b[0:8]),
		Contract: types.BytesToAddress(b[8:28]),
		Outcome:  binary.BigEndian.Uint64(b[28:36]),
	}, true
}
