// Package federation removes the watchtower as the challenge-window
// protocol's liveness single-point-of-failure: N independent tower
// processes on one chain share guard duty, so any one of them can crash
// without a fraudulent submission outliving its challenge window
// undisputed — the delegated-guardian design of Celer's State Guardian
// Network and POSE's standby watchdogs, built on this repo's own pieces.
//
// Each federated tower wraps a tower.Watchtower. Members gossip whisper
// envelopes on a dedicated AES-GCM-encrypted topic (key derived from the
// member set via whisper.SharedTopicKey), each signed by its sender and
// verified on receipt: guard state for every session a hub takes under
// guard (enough for a peer to rebuild the session and dispute as the
// honest party — the fleet is one operator's replicas, which is the trust
// model). Nothing else is gossiped: every tower reads windows
// from the chain and checks each one in its own sandbox, so no peer's word
// can stand a tower down, and no peer's word times a filing either.
//
// Dispute duty is assigned per contract by rendezvous hashing over the
// FULL member set (see assign.go): the gate is asked only about a window
// the tower has verified to be a lie; slot 0 files at once, and slot k
// files k*EscalateAfter after the tower's pacer first found the lie. No
// view of who is alive and no word from a peer enters the decision.
// Exactly-once rests on two layers: the staggered slots (partition-proof:
// towers that cannot hear each other still never act at the same instant,
// so a later slot usually finds the contract settled), and the chain — the settled veto, re-checked
// immediately before any filing, and the generated contract's settled flag
// and deployedAddr guard, which admit a single enforcement. A backup whose
// stagger expires while slot 0's filing is still unmined files too; its
// transactions revert against the settled flag, costing gas, never a
// second enforcement.
//
// Wire = disk: the fleet gossips store.Records (the guard kind; see
// journal.go), the encoding its journal holds, so one codec serves both
// directions. Each tower journals guard states and closures to its own
// internal/store WAL; a restarted member re-arms every guard from durable
// state, and each guard reads its contract's chain history from the log
// index. See DESIGN.md §7.
package federation

import (
	"context"
	"fmt"
	"sync"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/tower"
	"onoffchain/internal/types"
	"onoffchain/internal/whisper"
)

// Config tunes one federation member.
type Config struct {
	// Chain is the shared chain every tower monitors.
	Chain *chain.Chain
	// Net is the whisper overlay the fleet gossips on.
	Net *whisper.Network
	// Key is the tower's identity: its whisper node and gossip signatures.
	// Every envelope the tower posts is signed with it, and every envelope
	// it receives must carry a valid signature from the member it claims
	// to be, so a group-key holder cannot impersonate another member.
	Key *secp256k1.PrivateKey
	// Members is the full configured tower-identity set, self included.
	// All members must agree on it (it keys the shared topic secret).
	Members []types.Address
	// Registry resolves gossiped scenario names so a backup can rebuild a
	// peer's session. A guard whose scenario is missing cannot be adopted
	// (logged loudly — an unguardable window is the failure this package
	// exists to prevent).
	Registry hub.SpecRegistry
	// Store, when set, journals guards and closures so a restarted member
	// re-arms from durable state. Each tower owns its store exclusively;
	// never share one with a hub WAL.
	Store *store.Store
	// EscalateAfter is the escalation slot width: a backup in full-member
	// slot k files no earlier than k*EscalateAfter after it first saw the
	// window (default 750ms). It should exceed the fleet's worst-case
	// dispute in-flight time (~2 block intervals under batch mining): a
	// backup whose slot comes up while slot 0's filing is unmined files as
	// well, and its transactions revert against the settled flag — wasted
	// gas, never a second enforcement.
	EscalateAfter time.Duration
	// Logf sinks diagnostics (default: the structured telemetry logger's
	// "federation" layer at Info level).
	Logf func(string, ...interface{})
	// Telemetry, when set, publishes the tower's federation_* series
	// (labeled with the tower's address so a fleet can share one
	// registry). Nil keeps a private registry: Metrics() still works,
	// nothing is exported.
	Telemetry *telemetry.Registry
	// Tracer, when set, records federation-layer spans (guard exports and
	// adoptions) under the gossiped session IDs, so a session's
	// cross-layer timeline shows fleet activity too.
	Tracer *telemetry.Tracer
	// Rollup, when set, arms a Join member's tower for Merkle-batched
	// settlement: EpochPosted events on the Source's registry open batch
	// challenge windows over the epochs it serves, and disputes pin their
	// leaf against the posted root before enforcing through the session
	// contract. The source is the hub's sequencer, handed across by
	// hub.Hub.RollupHandles. AttachHub refuses it: the hub's tower is
	// already armed with the hub's own sequencer. Exactly-once leaf
	// disputes across members come from the same machinery as per-session
	// mode — the gate's slots, the registry's on-chain opened-leaf veto,
	// and the session contract's settled flag.
	Rollup rollup.Source
}

const (
	// fleetLabel names the federation: the gossip topic and the shared
	// topic key both derive from it.
	fleetLabel = "federation/guard"
	// regossipEvery paces the regossip loop: re-posting live guards only
	// needs to beat the escalation stagger.
	regossipEvery = 400 * time.Millisecond
)

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Chain == nil || cfg.Net == nil || cfg.Key == nil {
		return cfg, fmt.Errorf("federation: Chain, Net and Key are required")
	}
	self := types.Address(cfg.Key.EthereumAddress())
	found := false
	for _, m := range cfg.Members {
		if m == self {
			found = true
		}
	}
	if !found {
		return cfg, fmt.Errorf("federation: Members must include self (%s)", self.Hex())
	}
	if cfg.EscalateAfter <= 0 {
		cfg.EscalateAfter = 750 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = telemetry.Default().Layer("federation").Logf
	}
	return cfg, nil
}

// Tower is one federation member: a wrapped tower.Watchtower plus the
// gossip and assignment machinery that shares its guard duty with the
// fleet. The wrapped tower's guard set is the only one: the federation
// keeps no per-contract state beside it.
type Tower struct {
	cfg      Config
	self     types.Address
	node     *whisper.Node
	topic    whisper.Topic
	symKey   []byte
	tower    *tower.Watchtower
	ownTower bool // Join created it (Stop tears it down); AttachHub wraps
	journal  *journal
	metrics  *metrics

	// ctx bounds receipt waits of disputes filed for adopted sessions;
	// canceled by Stop and Kill.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	splits map[string]*hybrid.SplitResult
	killed bool

	inbox    <-chan *whisper.Envelope
	stopCh   chan struct{}
	wg       sync.WaitGroup
	teardown sync.Once
}

// Join starts a standalone guard tower: a federation member with no hub
// of its own that adopts guard duty for sessions its peers gossip. With a
// Store carrying a previous incarnation's journal, the tower re-arms
// every durable guard, reading its contract's chain history, before it
// starts gossiping.
func Join(cfg Config) (*Tower, error) {
	t, err := newTower(cfg)
	if err != nil {
		return nil, err
	}
	t.ownTower = true
	t.attach(tower.NewWatchtower(t.cfg.Chain, nil, t.cfg.Tracer, t.cfg.Rollup))
	return t, nil
}

// AttachHub federates a hub's own watchtower as a member: the hub's
// sessions are exported to the fleet, and guard duty gossiped by peers is
// adopted onto the hub's tower (as standalone watches that never touch
// the hub's WAL). Call it before the hub accepts sessions — or right
// after hub.Recover, in which case the already-guarded sessions are
// back-filled to the fleet. cfg.Rollup must be unset: a rollup hub's tower
// is born armed with the hub's own sequencer.
func AttachHub(h *hub.Hub, cfg Config) (*Tower, error) {
	if cfg.Rollup != nil {
		return nil, fmt.Errorf("federation: AttachHub takes no Rollup; the hub's tower guards the hub's own batches")
	}
	t, err := newTower(cfg)
	if err != nil {
		return nil, err
	}
	t.attach(h.Watchtower())
	return t, nil
}

func newTower(c Config) (*Tower, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	self := types.Address(cfg.Key.EthereumAddress())
	t := &Tower{
		cfg:     cfg,
		self:    self,
		node:    cfg.Net.NewNode(cfg.Key),
		topic:   whisper.TopicFromString(fleetLabel),
		symKey:  whisper.SharedTopicKey(fleetLabel, cfg.Members),
		metrics: newMetrics(cfg.Telemetry, self.Hex()),
		ctx:     ctx,
		cancel:  cancel,
		splits:  make(map[string]*hybrid.SplitResult),
		stopCh:  make(chan struct{}),
	}
	t.journal = &journal{st: cfg.Store, logf: cfg.Logf}
	cfg.Net.RegisterMetrics(cfg.Telemetry)
	return t, nil
}

// attach makes w this member's tower: the federation's observer and gate
// go in, sessions w already guards (a hub recovered before AttachHub) are
// back-filled to the fleet, durable state is re-armed onto it, and the
// gossip and regossip loops start. A journaled guard w already holds — a
// recovered hub's own — is left to w (see adopt).
func (t *Tower) attach(w *tower.Watchtower) {
	t.tower = w
	obs := (*towerObserver)(t)
	w.Federate(obs, t.decide)
	for _, e := range w.Watches() {
		if e.SID() == 0 {
			continue
		}
		obs.Guarded(e, e.Contract())
	}
	t.rearm()
	t.inbox = t.node.Subscribe(t.topic)
	t.wg.Add(2)
	go t.receiverLoop()
	go t.regossipLoop()
}

// rearm rebuilds guard duty from the journal: fold the store, then
// re-guard every contract it leaves open. Each guard reads its contract's
// whole chain history, so every window reopens from the chain — the
// recipe hub.Recover uses, scoped to guard duty. (A batch window opens from
// the Source when the guard is taken; see Watchtower.Guard.)
func (t *Tower) rearm() {
	if t.cfg.Store == nil {
		return
	}
	recs, err := t.cfg.Store.Replay()
	if err != nil {
		t.cfg.Logf("federation: journal replay failed (starting empty): %v", err)
		return
	}
	fs := foldFederation(recs)
	rearmed := 0
	for contract, g := range fs.guards {
		if err := t.adopt(g, false); err != nil {
			t.cfg.Logf("federation: re-arm %s: %v", contract.Hex(), err)
			continue
		}
		rearmed++
	}
	if rearmed > 0 {
		t.cfg.Logf("federation: re-armed %d guards from their chain history", rearmed)
	}
}

// Self returns the tower's member identity.
func (t *Tower) Self() types.Address { return t.self }

// Watchtower exposes the wrapped tower (for tests and monitoring).
func (t *Tower) Watchtower() *tower.Watchtower { return t.tower }

// Metrics returns the tower's federation counters plus its guard count.
// Filings and guards are the wrapped tower's own, read where they are kept.
func (t *Tower) Metrics() Snapshot {
	snap := t.metrics.snapshot()
	tm := t.tower.Metrics()
	snap.Escalations, snap.DisputesFiled, snap.DisputesWon = tm.DisputesEscalated, tm.DisputesRaised, tm.DisputesWon
	snap.Guards = len(t.tower.Watches())
	return snap
}

// Slot returns this tower's escalation slot for the contract (rank in
// the FULL member set — see assign.go).
func (t *Tower) Slot(contract types.Address) int {
	return slotOf(t.cfg.Members, contract, t.self)
}

// Stop winds the member down: loops stop, the gossip subscription is
// released (a dead subscription would absorb every future fleet envelope
// into backpressure drops), and (for Join towers) the wrapped watchtower
// is stopped — also after Kill, which only simulates the death and
// leaves the goroutine reclamation to Stop. Durable state stays on disk
// for the next incarnation.
func (t *Tower) Stop() {
	t.mu.Lock()
	already := t.killed
	t.killed = true
	t.mu.Unlock()
	if !already {
		close(t.stopCh)
		t.cancel()
	}
	t.wg.Wait()
	t.teardown.Do(func() {
		t.node.Unsubscribe(t.topic, t.inbox)
		if t.ownTower {
			t.tower.Stop()
		}
	})
}

// Kill simulates the tower process dying right now: regossip stops, gossip
// is no longer read, the wrapped tower halts (examines and files nothing),
// and in-flight receipt waits are canceled. The journal is left exactly as
// it was — that is what the next incarnation re-arms from. Call Stop
// afterwards to reclaim goroutines.
func (t *Tower) Kill() {
	t.mu.Lock()
	if t.killed {
		t.mu.Unlock()
		return
	}
	t.killed = true
	t.mu.Unlock()
	close(t.stopCh)
	t.cancel()
	t.tower.Halt()
}

// post gossips one record — the bytes a journal would hold — signed by
// this tower and sealed under the fleet key; tc, the trace context of the
// session the record concerns, rides the envelope.
func (t *Tower) post(rec *store.Record, tc telemetry.TraceContext) {
	if _, err := t.node.Post(t.topic, rec.Encode(), whisper.PostOptions{Key: t.symKey, Trace: tc}); err != nil {
		t.cfg.Logf("federation: gossip post failed: %v", err)
	}
}

func (t *Tower) regossipLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(regossipEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
			t.regossip()
		}
	}
}

// regossip re-posts the guard state of the hub's own sessions (SID != 0)
// while their windows are open: the whisper overlay is lossy (full
// subscriber buffers drop envelopes), and a one-shot export that never
// arrived would silently leave that window unguarded on the peer.
// Receivers dedup against their tower's guard set and the chain, so
// repetition costs only bandwidth — and only during the handful of seconds
// a window is actually open. A re-post is marked (U3 = 1) so receivers can
// tell it from the first export.
func (t *Tower) regossip() {
	for _, e := range t.tower.Watches() {
		if e.SID() == 0 || e.OpenWindow() == nil {
			continue // adopted, or nothing at stake right now
		}
		rec := guardRecord(exportOf(e))
		rec.U3 = 1
		t.post(rec, e.TraceCtx())
	}
}

func (t *Tower) receiverLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stopCh:
			return
		case env := <-t.inbox:
			t.handleEnvelope(env)
		}
	}
}

func (t *Tower) handleEnvelope(env *whisper.Envelope) {
	if env.From == t.self || !t.isMember(env.From) {
		return
	}
	// Two gates. The sender's signature binds the envelope to the member it
	// claims to be, so a forged From — a group-key holder impersonating a
	// peer, or an unsigned envelope — is dropped here. AES-GCM under the
	// fleet's shared key then proves it is federation traffic (anything
	// else — topic collisions, outsiders — fails to open).
	if !env.Verify() {
		t.metrics.sigRejected.Inc()
		t.cfg.Logf("federation: dropped gossip with missing/invalid sender signature claiming %s", env.From.Hex())
		return
	}
	plain, err := whisper.Decrypt(t.symKey, env.Payload)
	if err != nil {
		return
	}
	rec, err := store.DecodeRecord(plain)
	if err != nil {
		t.cfg.Logf("federation: malformed gossip from %s: %v", env.From.Hex(), err)
		return
	}
	// Any other kind — KindFedWindow and KindFedIntent, which older members
	// posted, among them — is ignored: windows come only from the chain, and
	// the slot stagger alone times a filing.
	if rec.Kind != store.KindFedGuard {
		return
	}
	g, err := decodeGuardRecord(rec)
	if err != nil {
		t.cfg.Logf("federation: guard gossip from %s: %v", env.From.Hex(), err)
		return
	}
	// A re-post of a contract whose settlement is on chain is dropped
	// before the rebuild. The bus delivers a sender's posts in order, so the
	// first export came first: this tower adopted the guard from it, and
	// then ended it on the settlement. Adopting the re-post would rebuild
	// the session, read its history again, journal the guard and count it a
	// second time.
	if rec.U3 == 1 {
		if settled, _ := hybrid.Settlement(t.cfg.Chain, g.Contract); settled {
			return
		}
	}
	g.Trace = env.TraceCtx()
	// Adopted here, on the receiving goroutine: the bus's subscriber buffer
	// is the backlog, and regossip repeats a guard while its window is open.
	if err := t.adopt(g, true); err != nil {
		t.cfg.Logf("federation: cannot adopt guard %s (%s): %v — the window will be UNGUARDED here",
			g.Contract.Hex(), g.Scenario, err)
	}
}

func (t *Tower) isMember(a types.Address) bool {
	for _, m := range t.cfg.Members {
		if m == a {
			return true
		}
	}
	return false
}

// adopt takes a peer's session under this tower's guard, unless the tower
// already guards the contract: rebuild the session from the registry spec +
// party scalars + signed copy (see rebuild) and guard it. The guard reads
// the contract's chain history, which reopens a window whose submission
// beat the gossip (or this tower's restart) here. A settled contract's
// guard adopted from its first export (or the journal) is ended again by
// that read. A rolled-up leaf has no settlement log, so a re-post of one
// whose batch window the tower found clean is adopted again, and the
// sandbox ends it again.
func (t *Tower) adopt(g *guardExport, journalIt bool) error {
	if t.tower.Guarding(g.Contract) {
		return nil
	}
	adoptStart := time.Now()
	// The gossiped trace context is the ORIGIN hub's root session span; the
	// adoption becomes a child span in this tower's own recorder, and every
	// chain interaction the adopted guard makes parents under the adoption —
	// so a cross-process merge stitches hub and tower files into one tree.
	adoptTC := t.cfg.Tracer.Child(g.Trace)
	sess, err := t.rebuild(g)
	if err != nil {
		return err
	}
	if adoptTC.Valid() {
		sid := g.SID
		for _, p := range sess.Parties {
			p.Trace = func(name string, start time.Time, dur time.Duration, attrs string) {
				t.cfg.Tracer.RecordChild(adoptTC, sid, "chain", name, start, dur, attrs)
			}
		}
		sess.Trace = adoptTC
	}
	// Journal the guard before the tower holds it: taking a guard can end
	// it at once (a batch window its sandbox finds clean), and the closure
	// must follow the guard in the journal.
	if journalIt {
		t.journal.log(guardRecord(g))
	}
	if _, err := t.tower.Guard(sess, 0, g.Scenario, adoptTC); err != nil {
		return err
	}
	t.metrics.guardsAdopted.Inc()
	t.cfg.Tracer.RecordSpan(adoptTC, g.Trace.Span, g.SID, "federation", "adopt", adoptStart, time.Since(adoptStart), "tower="+t.self.Hex())
	return nil
}

// rebuild reconstructs a guardable session from exported guard state —
// hybrid.RebuildSession, the recipe hub.Recover uses from its WAL, fed
// from gossip instead, over this tower's per-scenario split cache.
func (t *Tower) rebuild(g *guardExport) (*hybrid.Session, error) {
	spec := t.cfg.Registry[g.Scenario]
	if spec == nil {
		return nil, fmt.Errorf("scenario %q not in registry", g.Scenario)
	}
	t.mu.Lock()
	split := t.splits[g.Scenario]
	t.mu.Unlock()
	if split == nil {
		var err error
		split, err = hybrid.Split(spec.Source, spec.Contract, spec.Policy)
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		t.splits[g.Scenario] = split
		t.mu.Unlock()
	}
	// The copy's n-of-n signatures are deliberately NOT re-verified here:
	// Session.Dispute verifies them before filing and the on-chain
	// deployVerifiedInstance re-checks them in miners' hands, so a corrupt
	// copy can only waste this tower's gas, never enforce anything — and
	// adopt-time verification would charge every backup two ecrecovers per
	// session on the hot path of a 1000-session fleet.
	keys, err := hybrid.PartyKeys(g.Scalars)
	if err != nil {
		return nil, err
	}
	return hybrid.RebuildSession(split, keys, t.cfg.Chain, nil, t.ctx, g.Contract, g.CopyEnc)
}

// decide is the dispute gate installed on the wrapped watchtower: it
// times THIS tower's filing against a window its own sandbox found to be a
// lie since ago (≤ 0 = file now): slot k files k*EscalateAfter after the
// tower's pacer first found it. The slot is a rank in the full member set,
// which every tower computes alike whatever gossip it can or cannot hear.
// See the package comment for the exactly-once argument.
func (t *Tower) decide(contract types.Address, since time.Duration) time.Duration {
	return time.Duration(t.Slot(contract))*t.cfg.EscalateAfter - since
}

// towerObserver adapts Tower to tower.TowerObserver (a distinct type so the
// observer methods don't pollute the Tower API).
type towerObserver Tower

func (o *towerObserver) t() *Tower { return (*Tower)(o) }

// Guarded exports the hub's own sessions to the fleet the moment they
// come under guard — before any submission can open a window.
func (o *towerObserver) Guarded(e *tower.Watch, contract types.Address) {
	t := o.t()
	if e.SID() == 0 {
		return // an adopted guard echoing back; already recorded
	}
	export := exportOf(e)
	// Export the session's ROOT trace context (not a child): adopters parent
	// their own spans directly under the hub's root session span, so a
	// dropped/re-gossiped export never leaves a dangling intermediate node.
	if export.Trace = e.TraceCtx(); export.Trace.Valid() {
		t.cfg.Tracer.EventChild(export.Trace, export.SID, "federation", "guard_export", "tower="+t.self.Hex())
	}
	rec := guardRecord(export)
	t.journal.log(rec)
	t.post(rec, export.Trace)
	t.metrics.guardsExported.Inc()
}

// exportOf is the guard state a peer needs to rebuild e's session and
// dispute as its honest party.
func exportOf(e *tower.Watch) *guardExport {
	sess := e.Session()
	scalars := make([][]byte, len(sess.Parties))
	for i, p := range sess.Parties {
		scalars[i] = p.Key.Bytes()
	}
	return &guardExport{
		SID: e.SID(), Scenario: e.Scenario(), Contract: e.Contract(),
		Scalars: scalars, CopyEnc: sess.Copy.Encode(),
	}
}

// WindowClosed journals the end of a guard, so a restarted member does not
// re-arm it. Settlement and a posted root are chain-visible, so peers end
// their own guards themselves — no gossip.
func (o *towerObserver) WindowClosed(contract types.Address) {
	o.t().journal.log(&store.Record{Kind: store.KindFedClosed, Blob: contract[:]})
}
