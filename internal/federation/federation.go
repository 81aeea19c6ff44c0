// Package federation removes the watchtower as the challenge-window
// protocol's liveness single-point-of-failure: N independent tower
// processes on one chain share guard duty, so any one of them can crash
// without a fraudulent submission outliving its challenge window
// undisputed — the delegated-guardian design of Celer's State Guardian
// Network and POSE's standby watchdogs, built on this repo's own pieces.
//
// Each federated tower wraps a hub.Watchtower. Members gossip signed
// whisper envelopes on a dedicated AES-GCM-encrypted topic (key derived
// from the member set via whisper.SharedTopicKey): membership heartbeats,
// guard state for every session a hub takes under guard (enough for a
// peer to rebuild the session and dispute as the honest party — the
// fleet is one operator's replicas, which is the trust model), challenge
// windows with the owner's verdict hint, and dispute intents.
//
// Dispute duty is assigned per contract by rendezvous hashing (see
// assign.go): the live primary files immediately; every other tower is a
// time-staggered backup whose filing delay is its slot in the FULL member
// ranking. Exactly-once filing stacks four mechanisms: the per-watch
// dispute claim, the gossiped intent (a fresh intent from a live peer
// postpones escalation past the in-flight filing), the staggered slots
// (partition-proof: even two towers that each believe they are primary
// never act at the same instant), and — the unconditional backstop — the
// on-chain settled veto, re-checked immediately before any filing.
// Enforcement is exactly-once no matter what: the generated contract's
// settled flag and deployedAddr guard admit a single enforcement.
//
// Wire = disk: the fleet gossips the store.Records it journals (guard,
// window, member-heartbeat and intent kinds; see journal.go), so one codec
// serves both directions. Each tower journals guard states, windows,
// closures and a chain cursor to its own internal/store WAL; a restarted
// member re-arms every guard from durable state and replays the chain
// events it slept through with Watchtower.CatchUp. See DESIGN.md §7.
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
	Key *secp256k1.PrivateKey
	// Members is the full configured tower-identity set, self included.
	// All members must agree on it (it keys the shared topic secret).
	Members []types.Address
	// Registry resolves gossiped scenario names so a backup can rebuild a
	// peer's session. A guard whose scenario is missing cannot be adopted
	// (logged loudly — an unguardable window is the failure this package
	// exists to prevent).
	Registry hub.SpecRegistry
	// Store, when set, journals guards/windows/closures/cursor so a
	// restarted member re-arms from durable state. Each tower owns its
	// store exclusively; never share one with a hub WAL.
	Store *store.Store
	// HeartbeatEvery is the wall-clock heartbeat period (default 100ms);
	// a member is presumed dead after HeartbeatMisses missed beats
	// (default 4). Liveness is wall-clock, not chain-clock: the simulated
	// chain time jumps by whole challenge periods, which says nothing
	// about whether a peer process is alive.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// EscalateAfter is the escalation slot width: a backup in full-member
	// slot k files no earlier than k*EscalateAfter after it first saw the
	// window (default 750ms). Must exceed the fleet's worst-case dispute
	// in-flight time (~2 block intervals under batch mining) or a backup
	// can race a primary's unconfirmed filing.
	EscalateAfter time.Duration
	// IntentGrace extends a backup's deferral after a live peer gossips a
	// dispute intent (default 2*EscalateAfter): the peer's transactions
	// are in flight, give them time to land before escalating past it.
	IntentGrace time.Duration
	// VouchWait is how long a primary holds an unvouched remote window
	// before verifying it in its own sandbox (default 50ms) — the owner's
	// verdict hint usually arrives a beat after the chain event, and
	// honoring it saves the fleet a redundant off-chain execution.
	VouchWait time.Duration
	// SignGossip additionally signs every gossip envelope with the
	// tower's secp256k1 key (whisper.PostOptions.Unsigned = false) and
	// requires a valid per-sender signature on receive. The shared group
	// key already authenticates traffic as coming from SOME member;
	// per-envelope signatures bind each record to the member that claims
	// to have sent it, so one leaked group key (or a misbehaving member)
	// cannot impersonate the rest of the fleet. Off by default: replicas
	// of one operator get authentication from the group key alone, and
	// signing costs one Sign per envelope sent and one recovery per
	// envelope received (DESIGN.md §9).
	SignGossip bool
	// Logf sinks diagnostics (default: the structured telemetry logger's
	// "federation" layer at Info level).
	Logf func(string, ...interface{})
	// Telemetry, when set, publishes the tower's federation_* series
	// (labeled with the tower's address so a fleet can share one
	// registry). Nil keeps a private registry: Metrics() still works,
	// nothing is exported.
	Telemetry *telemetry.Registry
	// Tracer, when set, records federation-layer spans (guard adoptions,
	// dispute intents, escalations) under the gossiped session IDs, so a
	// session's cross-layer timeline shows fleet activity too.
	Tracer *telemetry.Tracer
	// RollupRegistry and RollupSource, when both set, arm the member's
	// tower for Merkle-batched settlement: EpochPosted events on the
	// registry open batch challenge windows over the epochs RollupSource
	// resolves, and disputes pin their leaf against the posted root
	// before enforcing through the session contract. The sequencer seam:
	// today the source is the hub's sequencer handed across (see
	// hub.Hub.RollupHandles); a future federation-hosted sequencer plugs
	// in here without touching the tower. Exactly-once leaf disputes
	// across members come from the same machinery as per-session mode —
	// the gate's primary election, the registry's on-chain opened-leaf
	// veto, and the session contract's settled flag.
	RollupRegistry *rollup.Registry
	RollupSource   rollup.Source
}

const (
	// fleetLabel names the federation: the gossip topic and the shared
	// topic key both derive from it.
	fleetLabel = "federation/guard"
	// electionDelay is the pause between announcing a dispute intent and
	// actually filing: long enough for a rival's intent to arrive, so
	// concurrent would-be filers deterministically yield to whoever
	// announced first (or, on a tie, to the lower rendezvous slot). It buys
	// exactly-once filing at the cost of one gossip round-trip of dispute
	// latency — only when federated; a gateless hub pays nothing.
	electionDelay = 150 * time.Millisecond
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
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 100 * time.Millisecond
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 4
	}
	if cfg.EscalateAfter <= 0 {
		cfg.EscalateAfter = 750 * time.Millisecond
	}
	if cfg.IntentGrace <= 0 {
		cfg.IntentGrace = 2 * cfg.EscalateAfter
	}
	if cfg.VouchWait <= 0 {
		cfg.VouchWait = 50 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = telemetry.Default().Layer("federation").Logf
	}
	return cfg, nil
}

// rivalIntent tracks one peer's dispute intent for one contract: the
// FIRST arrival orders elections (who was in the pipeline earlier), the
// LAST arrival measures freshness (a live filer keeps re-posting while
// its transactions are in flight, and must not "go stale" mid-filing).
type rivalIntent struct {
	first, last time.Time
}

// guardInfo is one contract this tower shares guard duty for.
type guardInfo struct {
	export *guardExport
	watch  *hub.Watch
	own    bool // guarded by the wrapped hub itself (not adopted)
}

// Tower is one federation member: a wrapped hub.Watchtower plus the
// gossip, liveness and assignment machinery that shares its guard duty
// with the fleet.
type Tower struct {
	cfg      Config
	self     types.Address
	node     *whisper.Node
	topic    whisper.Topic
	symKey   []byte
	tower    *hub.Watchtower
	ownTower bool // Join created it (Stop tears it down); AttachHub wraps
	presence *whisper.Presence
	journal  *journal
	metrics  *metrics

	// ctx bounds receipt waits of disputes filed for adopted sessions;
	// canceled by Stop and Kill.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	splits    map[string]*hybrid.SplitResult
	guards    map[types.Address]*guardInfo
	vouch     map[types.Address]uint64 // owner's verdict hint per contract
	intents   map[types.Address]map[types.Address]*rivalIntent
	myIntent  map[types.Address]time.Time // when THIS tower announced
	firstSeen map[types.Address]time.Time
	closed    map[types.Address]bool
	killed    bool
	lastDrops int

	inbox    <-chan *whisper.Envelope
	adoptCh  chan adoptReq
	stopCh   chan struct{}
	wg       sync.WaitGroup
	teardown sync.Once
}

// adoptReq queues one guard adoption; fromBlock bounds the catch-up scan
// for submissions that raced the gossip (no event for this contract can
// predate the gossip's arrival, because owners guard before submitting).
type adoptReq struct {
	export    *guardExport
	fromBlock uint64
}

func wallMillis() uint64 { return uint64(time.Now().UnixMilli()) }

// Join starts a standalone guard tower: a federation member with no hub
// of its own that adopts guard duty for sessions its peers gossip. With a
// Store carrying a previous incarnation's journal, the tower re-arms
// every durable guard and replays the chain events it missed before it
// starts gossiping.
func Join(cfg Config) (*Tower, error) {
	t, err := newTower(cfg)
	if err != nil {
		return nil, err
	}
	t.ownTower = true
	t.attach(hub.NewWatchtower(t.cfg.Chain, nil, t.cfg.Tracer, nil))
	return t, nil
}

// AttachHub federates a hub's own watchtower as a member: the hub's
// sessions are exported to the fleet, and guard duty gossiped by peers is
// adopted onto the hub's tower (as standalone watches that never touch
// the hub's WAL). Call it before the hub accepts sessions — or right
// after hub.Recover, in which case the already-guarded sessions are
// back-filled to the fleet.
func AttachHub(h *hub.Hub, cfg Config) (*Tower, error) {
	t, err := newTower(cfg)
	if err != nil {
		return nil, err
	}
	t.attach(h.Watchtower())
	// Back-fill sessions guarded before the attach (a recovered hub).
	for _, e := range t.tower.Watches() {
		if e.SID() == 0 {
			continue
		}
		obs := (*towerObserver)(t)
		obs.Guarded(e, e.Contract())
		if w := e.OpenWindow(); w != nil {
			obs.WindowOpened(e, *w)
		}
	}
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
		cfg:       cfg,
		self:      self,
		node:      cfg.Net.NewNode(cfg.Key),
		topic:     whisper.TopicFromString(fleetLabel),
		symKey:    whisper.SharedTopicKey(fleetLabel, cfg.Members),
		presence:  whisper.NewPresence(uint64(cfg.HeartbeatEvery.Milliseconds())*uint64(cfg.HeartbeatMisses), wallMillis),
		metrics:   newMetrics(cfg.Telemetry, self.Hex()),
		ctx:       ctx,
		cancel:    cancel,
		splits:    make(map[string]*hybrid.SplitResult),
		guards:    make(map[types.Address]*guardInfo),
		vouch:     make(map[types.Address]uint64),
		intents:   make(map[types.Address]map[types.Address]*rivalIntent),
		myIntent:  make(map[types.Address]time.Time),
		firstSeen: make(map[types.Address]time.Time),
		closed:    make(map[types.Address]bool),
		adoptCh:   make(chan adoptReq, 4096),
		stopCh:    make(chan struct{}),
	}
	t.journal = &journal{st: cfg.Store, logf: cfg.Logf}
	if reg := cfg.Telemetry; reg != nil {
		label := self.Hex()
		reg.GaugeFunc("federation_live_members", func() float64 {
			return float64(len(t.AliveMembers()))
		}, "tower", label)
		reg.GaugeFunc("federation_guards", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(len(t.guards))
		}, "tower", label)
		cfg.Net.RegisterMetrics(reg)
	}
	return t, nil
}

// sidOf returns the gossiped session ID guarding contract (0 if this
// tower holds no guard for it), for span attribution.
func (t *Tower) sidOf(contract types.Address) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gi := t.guards[contract]; gi != nil && gi.export != nil {
		return gi.export.SID
	}
	return 0
}

// ctxOf returns the causal trace context of the guard on contract (zero
// when unguarded or untraced), for parenting federation spans.
func (t *Tower) ctxOf(contract types.Address) telemetry.TraceContext {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gi := t.guards[contract]; gi != nil && gi.watch != nil {
		return gi.watch.TraceCtx()
	}
	return telemetry.TraceContext{}
}

// attach makes w this member's tower: the federation's observer and gate
// go in, the tower is rollup-armed when configured, durable state is
// re-armed onto it, and the gossip, adoption and heartbeat loops start.
func (t *Tower) attach(w *hub.Watchtower) {
	t.tower = w
	w.Federate((*towerObserver)(t), t.decide)
	if t.cfg.RollupRegistry != nil && t.cfg.RollupSource != nil {
		w.ArmRollup(t.cfg.RollupRegistry, t.cfg.RollupSource)
	}
	t.rearm()
	t.inbox = t.node.Subscribe(t.topic)
	t.wg.Add(3)
	go t.receiverLoop()
	go t.adopterLoop()
	go t.heartbeatLoop()
}

// rearm rebuilds guard duty from the journal: fold the store, re-guard
// every non-closed contract, restore its last observed window, then
// replay chain events past the durable cursor — the exact
// replay-before-act recipe hub.Recover uses, scoped to guard duty.
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
	t.mu.Lock()
	for c := range fs.closed {
		t.closed[c] = true
	}
	t.mu.Unlock()
	rearmed := 0
	head := t.cfg.Chain.Height()
	for contract, g := range fs.guards {
		if err := t.adopt(g, head, false); err != nil {
			t.cfg.Logf("federation: re-arm %s: %v", contract.Hex(), err)
			continue
		}
		rearmed++
	}
	// Restore the durable windows through the dispute pipeline, then close
	// the outage gap: any submission mined while this tower was down is in
	// blocks (cursor, head], and the guard set above makes its events land
	// on armed watches.
	for contract, rec := range fs.windows {
		w, hint, err := decodeWindowRecord(rec)
		if err != nil {
			continue
		}
		t.mu.Lock()
		gi := t.guards[contract]
		if hint != nil {
			t.vouch[contract] = *hint
		}
		t.mu.Unlock()
		if gi != nil && !gi.own {
			t.tower.RestoreWindow(gi.watch, w)
		}
	}
	head = t.tower.CatchUp(fs.cursor)
	t.journal.log(&store.Record{Kind: store.KindCursor, U1: head})
	if rearmed > 0 {
		t.cfg.Logf("federation: re-armed %d guards, replayed blocks %d..%d", rearmed, fs.cursor+1, head)
	}
}

// Self returns the tower's member identity.
func (t *Tower) Self() types.Address { return t.self }

// Watchtower exposes the wrapped tower (for tests and monitoring).
func (t *Tower) Watchtower() *hub.Watchtower { return t.tower }

// Metrics returns the tower's federation counters plus liveness/guard
// gauges.
func (t *Tower) Metrics() Snapshot {
	snap := t.metrics.snapshot()
	snap.LiveMembers = len(t.AliveMembers())
	t.mu.Lock()
	snap.Guards = len(t.guards)
	t.mu.Unlock()
	return snap
}

// AliveMembers returns the members currently considered alive (self
// always is).
func (t *Tower) AliveMembers() []types.Address {
	out := []types.Address{}
	for _, m := range t.cfg.Members {
		if m == t.self || t.presence.Alive(m) {
			out = append(out, m)
		}
	}
	return out
}

// Primary returns the live member assigned to guard the contract first:
// the top of the rendezvous ranking restricted to members this tower
// believes alive.
func (t *Tower) Primary(contract types.Address) types.Address {
	ranked := rendezvousRank(t.AliveMembers(), contract)
	if len(ranked) == 0 {
		return t.self
	}
	return ranked[0]
}

// Slot returns this tower's escalation slot for the contract (rank in
// the FULL member set — see assign.go for why liveness must not shorten
// it).
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

// Kill simulates the tower process dying right now: heartbeats cease (the
// fleet sees the lapse), gossip is no longer read, the wrapped tower
// halts (examines and files nothing), and in-flight receipt waits are
// canceled. The journal is left exactly as it was — that is what the next
// incarnation re-arms from. Call Stop afterwards to reclaim goroutines.
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

// post gossips one record — the bytes a journal would hold — under the
// fleet key; tc, the trace context of the session the record concerns,
// rides the envelope.
func (t *Tower) post(rec *store.Record, tc telemetry.TraceContext) {
	// Default unsigned: the group key authenticates fleet traffic (see
	// handleEnvelope). SignGossip opts into per-sender envelope
	// signatures, affordable since the fixed-limb secp256k1 rewrite.
	if _, err := t.node.Post(t.topic, rec.Encode(), whisper.PostOptions{Key: t.symKey, Unsigned: !t.cfg.SignGossip, Trace: tc}); err != nil {
		t.cfg.Logf("federation: gossip post failed: %v", err)
	}
}

func (t *Tower) heartbeatLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatEvery)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
			t.post(&store.Record{Kind: store.KindFedMember, Blob: t.self[:]}, telemetry.TraceContext{})
			t.metrics.heartbeatsSent.Inc()
			// Re-gossip on a slower cadence than liveness: guard state is
			// KBs per record and only needs to beat the escalation stagger,
			// not the heartbeat TTL.
			if n++; n%4 == 0 {
				t.regossip()
			}
			t.checkDrops()
		}
	}
}

// regossip re-posts dispute-critical records while they are live: the
// whisper overlay is lossy (full subscriber buffers drop envelopes), and
// a one-shot announcement that never arrives would silently unguard a
// window or derail the filing election. Intents are re-posted until their
// window settles; an owner re-posts guard state and the window record
// (with its verdict hint) while one of its own windows is open. Receivers
// dedup everything, so repetition costs only bandwidth — and only during
// the handful of seconds a window is actually open.
func (t *Tower) regossip() {
	t.mu.Lock()
	intents := make([]types.Address, 0, len(t.myIntent))
	for c := range t.myIntent {
		intents = append(intents, c)
	}
	type openGuard struct {
		export *guardExport
		watch  *hub.Watch
	}
	var open []openGuard
	for _, gi := range t.guards {
		if gi.own {
			open = append(open, openGuard{export: gi.export, watch: gi.watch})
		}
	}
	t.mu.Unlock()
	for _, c := range intents {
		t.postIntent(c)
	}
	for _, og := range open {
		w := og.watch.OpenWindow()
		if w == nil {
			continue // nothing at stake right now
		}
		t.post(guardRecord(og.export), og.export.Trace)
		t.post(ownWindowRecord(og.watch, *w), og.watch.TraceCtx())
	}
}

// checkDrops surfaces whisper envelope loss: heartbeats and guard gossip
// ride the same network, so growth here is the first sign a member is
// about to be presumed dead for the wrong reason. Only backpressure
// counts — TTL expiry is unrelated traffic (federation gossip never
// carries a TTL), and warning on it would spam every tower for every
// expired session envelope.
func (t *Tower) checkDrops() {
	_, d := t.cfg.Net.DropStats()
	t.mu.Lock()
	grew := d > t.lastDrops
	delta := d - t.lastDrops
	t.lastDrops = d
	t.mu.Unlock()
	if grew {
		t.metrics.dropWarnings.Inc()
		t.cfg.Logf("federation: whisper dropped %d envelope(s) since last check (%d total) — gossip is lossy, heartbeats/guards may be missing", delta, d)
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
	// AES-GCM under the fleet's shared key is the authentication gate:
	// only members hold the key, so a successful open proves the envelope
	// is federation traffic (anything else — topic collisions, outsiders —
	// fails here). Without SignGossip the per-envelope ecrecover of
	// Envelope.Verify is skipped: it authenticates the individual sender,
	// which the replica trust model doesn't strictly need. With
	// SignGossip every envelope must also carry a valid signature from
	// the member it claims to be — a forged From (group-key holder
	// impersonating a peer) is dropped here.
	if t.cfg.SignGossip && !env.Verify() {
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
	// Any authenticated record proves the peer is alive.
	t.presence.Mark(env.From)
	switch rec.Kind {
	case store.KindFedMember:
		t.metrics.heartbeatsSeen.Inc()
	case store.KindFedGuard:
		t.handleGuardGossip(env.From, rec, env.TraceCtx())
	case store.KindFedWindow:
		t.handleWindowGossip(env.From, rec, env.TraceCtx())
	case store.KindFedIntent:
		t.handleIntentGossip(env.From, rec)
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

// handleGuardGossip queues the adoption: rebuilding a session (n-of-n
// signature verification) is too heavy for the receiver loop — stalling
// it under a burst of session starts would drop heartbeats.
func (t *Tower) handleGuardGossip(from types.Address, rec *store.Record, tc telemetry.TraceContext) {
	export, err := decodeGuardRecord(rec)
	if err != nil {
		t.cfg.Logf("federation: guard gossip from %s: %v", from.Hex(), err)
		return
	}
	export.Trace = tc
	select {
	case t.adoptCh <- adoptReq{export: export, fromBlock: t.cfg.Chain.Height()}:
	default:
		t.cfg.Logf("federation: adoption queue full, dropping guard %s (%s) from %s — the window will be UNGUARDED here",
			export.Contract.Hex(), export.Scenario, from.Hex())
	}
}

func (t *Tower) adopterLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stopCh:
			return
		case req := <-t.adoptCh:
			if err := t.adopt(req.export, req.fromBlock, true); err != nil {
				t.cfg.Logf("federation: cannot adopt guard %s (%s): %v — the window will be UNGUARDED here",
					req.export.Contract.Hex(), req.export.Scenario, err)
			}
		}
	}
}

// adopt takes a peer's session under this tower's guard: rebuild the
// session from the registry spec + party scalars + signed copy (see
// rebuild), register the watch, and sweep the contract's chain history
// through the tower in case the submission beat the gossip here.
func (t *Tower) adopt(g *guardExport, fromBlock uint64, journalIt bool) error {
	t.mu.Lock()
	if t.closed[g.Contract] || t.guards[g.Contract] != nil {
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
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
	watch, err := t.tower.Guard(sess, g.Honest, g.Scenario, adoptTC)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.guards[g.Contract] != nil { // lost a benign race
		t.mu.Unlock()
		return nil
	}
	t.guards[g.Contract] = &guardInfo{export: g, watch: watch}
	vouched, hasVouch := t.vouch[g.Contract]
	t.mu.Unlock()
	if hasVouch {
		watch.SeedExpected(vouched)
	}
	if journalIt {
		t.journal.log(guardRecord(g))
	}
	t.metrics.guardsAdopted.Inc()
	t.cfg.Tracer.RecordSpan(adoptTC, g.Trace.Span, g.SID, "federation", "adopt", adoptStart, time.Since(adoptStart), "tower="+t.self.Hex())
	// The submission may already be on chain (the block raced the
	// adoption queue): replay the contract's events since the gossip
	// arrived through the same idempotent handlers as live delivery.
	// (Re-arm passes the current height here — its own cursor replay
	// covers the outage range.)
	addr := g.Contract
	if logs := t.cfg.Chain.FilterLogs(chain.FilterQuery{Address: &addr, FromBlock: fromBlock}); len(logs) > 0 {
		t.tower.ReplayLogs(logs)
	}
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
	return hybrid.RebuildSession(split, g.Scalars, t.cfg.Chain, nil, t.ctx, g.Contract, g.CopyEnc)
}

func (t *Tower) handleWindowGossip(from types.Address, rec *store.Record, tc telemetry.TraceContext) {
	w, hint, err := decodeWindowRecord(rec)
	if err != nil {
		t.cfg.Logf("federation: window gossip from %s: %v", from.Hex(), err)
		return
	}
	t.metrics.windowsMirror.Inc()
	t.mu.Lock()
	if _, ok := t.firstSeen[w.Contract]; !ok {
		t.firstSeen[w.Contract] = time.Now()
	}
	if hint != nil {
		t.vouch[w.Contract] = *hint
	}
	var adopted *hub.Watch
	if gi := t.guards[w.Contract]; gi != nil && !gi.own {
		adopted = gi.watch
	}
	t.mu.Unlock()
	if adopted != nil {
		if hint != nil {
			// The owner's verdict makes this tower's own sandbox run
			// unnecessary (see Watch.SeedExpected for why a wrong hint is
			// enforcement-safe): an adopted guard that must file does so
			// without re-executing the bytecode.
			adopted.SeedExpected(*hint)
		}
		// Re-arm the window through the pipeline (idempotent): the chain
		// event may have been mined before this tower adopted the guard —
		// e.g. the first guard gossip was dropped and only the re-gossip
		// landed — in which case the adoption catch-up scan started past
		// it and nothing else would ever drive this window.
		t.tower.RestoreWindow(adopted, w)
	}
	if !tc.Valid() {
		tc = t.ctxOf(w.Contract)
	}
	if tc.Valid() {
		t.cfg.Tracer.EventChild(tc, t.sidOf(w.Contract), "federation", "window_mirror", "from="+from.Hex())
	}
	t.journal.log(rec)
}

func (t *Tower) handleIntentGossip(from types.Address, rec *store.Record) {
	if len(rec.Blob) != 20 {
		t.cfg.Logf("federation: malformed intent gossip from %s", from.Hex())
		return
	}
	contract := types.BytesToAddress(rec.Blob)
	t.metrics.intentsSeen.Inc()
	now := time.Now()
	t.mu.Lock()
	if t.intents[contract] == nil {
		t.intents[contract] = make(map[types.Address]*rivalIntent)
	}
	if ri := t.intents[contract][from]; ri == nil {
		t.intents[contract][from] = &rivalIntent{first: now, last: now}
	} else {
		ri.last = now
	}
	t.mu.Unlock()
}

// decide is the dispute gate installed on the wrapped watchtower: it
// answers "should THIS tower verify-and-file for this window right now".
// See the package comment for the exactly-once argument.
func (t *Tower) decide(e *hub.Watch, w hub.Window) (hub.GateDecision, time.Duration) {
	now := time.Now()
	contract := w.Contract
	t.mu.Lock()
	fs, ok := t.firstSeen[contract]
	if !ok {
		fs = now
		t.firstSeen[contract] = now
	}
	vouched, hasVouch := t.vouch[contract]
	t.mu.Unlock()

	if e.SID() != 0 {
		// Our own hub's session: the session worker pre-computed the
		// verdict, so vouching costs nothing — an honest own submission
		// needs no guard beyond the finalize the owner will run anyway.
		if exp, ok := e.ExpectedCached(); ok && exp == w.Result {
			return hub.GateStandDown, 0
		}
	} else if hasVouch && vouched == w.Result {
		// The owner's tower vouches the submission matches its verdict.
		// Trusting it saves a redundant sandbox execution per session per
		// backup; the fleet is one operator's replicas, and a LYING vouch
		// would mean the owner defrauding its own session. A fraudulent
		// PARTICIPANT never benefits: the owner's verdict differs from the
		// lie, so no vouch matches and every backup verifies for itself.
		t.metrics.vouchesHonored.Inc()
		return hub.GateStandDown, 0
	}

	slot := t.Slot(contract)
	if slot == 0 {
		if e.SID() == 0 && !hasVouch {
			// Give the owner's vouch a beat before paying for a sandbox
			// run — unless the owner looks dead, in which case verify now.
			if wait := t.cfg.VouchWait - now.Sub(fs); wait > 0 {
				return hub.GateDefer, wait
			}
		}
		// The designated primary skips the election wait: the stagger
		// already orders every backup k*EscalateAfter behind it, so the
		// only theoretical rival is a backup that escalated past a
		// primary it wrongly presumed dead — the settled veto and the
		// contract's own guards keep even that race enforcement-safe. The
		// announcement still goes out so backups extend their deferrals.
		t.announceIntent(contract)
		return hub.GateFile, 0
	}
	// Staggered escalation: slot k enters the election only k*EscalateAfter
	// after first sight, whatever this tower believes about the primary's
	// liveness — heartbeat views diverge under partition, full-member slots
	// do not.
	if wait := fs.Add(time.Duration(slot) * t.cfg.EscalateAfter).Sub(now); wait > 0 {
		return hub.GateDefer, wait
	}
	return t.electFile(contract, slot, now)
}

// electFile is the filing election: announce intent, wait electionDelay
// for rival announcements, then file only if no rival is ahead. A rival
// is ahead when its intent arrived before ours was announced (it is
// already in the filing pipeline — towers' first-sight clocks skew, so a
// higher-slot tower can legitimately get there first), or when the
// announcements were concurrent and the rival holds the lower rendezvous
// slot (the deterministic tie-break). Deferrals re-enter here and
// re-evaluate; a rival whose intent goes stale past IntentGrace without a
// settlement is presumed dead mid-filing and loses its claim.
func (t *Tower) electFile(contract types.Address, mySlot int, now time.Time) (hub.GateDecision, time.Duration) {
	t.mu.Lock()
	myAt, announced := t.myIntent[contract]
	if !announced {
		myAt = now
		t.myIntent[contract] = now
	}
	rivalAhead := false
	rivalWins := false
	for m, ri := range t.intents[contract] {
		if m == t.self || now.Sub(ri.last) > t.cfg.IntentGrace {
			continue
		}
		if ri.first.Before(myAt) {
			rivalAhead = true
		} else if slotOf(t.cfg.Members, contract, m) < mySlot {
			rivalWins = true
		}
	}
	t.mu.Unlock()
	if !announced {
		if mySlot > 0 {
			t.metrics.escalations.Inc()
			t.cfg.Tracer.EventChild(t.ctxOf(contract), t.sidOf(contract), "federation", "escalate", fmt.Sprintf("slot=%d tower=%s", mySlot, t.self.Hex()))
		}
		t.announceIntent(contract)
		t.cfg.Tracer.EventChild(t.ctxOf(contract), t.sidOf(contract), "federation", "intent_announced", "tower="+t.self.Hex())
		return hub.GateDefer, electionDelay
	}
	if d := electionDelay - now.Sub(myAt); d > 0 {
		return hub.GateDefer, d
	}
	if rivalAhead || rivalWins {
		// The rival files; re-check after half a grace — usually the
		// settlement releases this job first.
		return hub.GateDefer, t.cfg.IntentGrace / 2
	}
	return hub.GateFile, 0
}

// announceIntent broadcasts that this tower has authorized a filing for
// the contract, BEFORE the (slow) verification pass: a peer whose own
// escalation timer expires while we are still re-executing the bytecode
// must see a fresh intent and yield, or it would race our in-flight
// filing. The claim path re-announces once the transactions are about to
// go out (receivers keep the first arrival for election ordering).
func (t *Tower) announceIntent(contract types.Address) {
	t.mu.Lock()
	if _, ok := t.myIntent[contract]; !ok {
		t.myIntent[contract] = time.Now()
	}
	t.mu.Unlock()
	t.postIntent(contract)
}

func (t *Tower) postIntent(contract types.Address) {
	t.post(&store.Record{Kind: store.KindFedIntent, Blob: contract[:]}, t.ctxOf(contract))
}

// towerObserver adapts Tower to hub.TowerObserver (a distinct type so the
// observer methods don't pollute the Tower API).
type towerObserver Tower

func (o *towerObserver) t() *Tower { return (*Tower)(o) }

// Guarded exports the hub's own sessions to the fleet the moment they
// come under guard — before any submission can open a window.
func (o *towerObserver) Guarded(e *hub.Watch, contract types.Address) {
	t := o.t()
	if e.SID() == 0 {
		return // an adopted guard echoing back; already recorded
	}
	sess := e.Session()
	scalars := make([][]byte, len(sess.Parties))
	for i, p := range sess.Parties {
		scalars[i] = p.Key.Bytes()
	}
	export := &guardExport{
		SID: e.SID(), Scenario: e.Scenario(), Contract: contract,
		ChallengePeriod: sess.Split.Policy.ChallengePeriod,
		Honest:          e.Honest(),
		Scalars:         scalars,
		CopyEnc:         sess.Copy.Encode(),
	}
	// Export the session's ROOT trace context (not a child): adopters parent
	// their own spans directly under the hub's root session span, so a
	// dropped/re-gossiped export never leaves a dangling intermediate node.
	if export.Trace = e.TraceCtx(); export.Trace.Valid() {
		t.cfg.Tracer.EventChild(export.Trace, export.SID, "federation", "guard_export", "tower="+t.self.Hex())
	}
	t.mu.Lock()
	t.guards[contract] = &guardInfo{export: export, watch: e, own: true}
	t.mu.Unlock()
	rec := guardRecord(export)
	t.journal.log(rec)
	t.post(rec, export.Trace)
	t.metrics.guardsExported.Inc()
}

// ownWindowRecord is an own session's open window with the owner's verdict
// hint (when the session worker has computed it), as journaled and gossiped.
func ownWindowRecord(e *hub.Watch, w hub.Window) *store.Record {
	var hint *uint64
	if exp, ok := e.ExpectedCached(); ok {
		hint = &exp
	}
	return windowRecord(w, hint)
}

// WindowOpened journals the window and — for own sessions — gossips it
// with the owner's verdict hint, so backups can vouch instead of
// re-executing.
func (o *towerObserver) WindowOpened(e *hub.Watch, w hub.Window) {
	t := o.t()
	t.mu.Lock()
	if _, ok := t.firstSeen[w.Contract]; !ok {
		t.firstSeen[w.Contract] = time.Now()
	}
	t.mu.Unlock()
	if e.SID() == 0 {
		t.journal.log(windowRecord(w, nil))
		return
	}
	rec := ownWindowRecord(e, w)
	t.journal.log(rec)
	t.post(rec, e.TraceCtx())
}

// WindowClosed retires the contract everywhere: journal, mirrors, maps.
// Settlement is chain-visible, so peers observe it themselves — no gossip.
func (o *towerObserver) WindowClosed(contract types.Address, byDispute bool) {
	t := o.t()
	u1 := uint64(0)
	if byDispute {
		u1 = 1
	}
	t.journal.log(&store.Record{Kind: store.KindFedClosed, U1: u1, Blob: contract[:]})
	t.mu.Lock()
	t.closed[contract] = true
	delete(t.guards, contract)
	delete(t.vouch, contract)
	delete(t.intents, contract)
	delete(t.myIntent, contract)
	delete(t.firstSeen, contract)
	t.mu.Unlock()
}

// DisputeClaimed broadcasts the intent BEFORE the transactions exist:
// backups whose escalation timer is running extend their deferral.
func (o *towerObserver) DisputeClaimed(e *hub.Watch, contract types.Address) {
	t := o.t()
	t.announceIntent(contract)
	t.metrics.disputesFiled.Inc()
}

func (o *towerObserver) DisputeFiled(e *hub.Watch, contract types.Address, enforced bool) {
	if enforced {
		o.t().metrics.disputesWon.Inc()
	}
}

// BlockProcessed advances the durable chain cursor: restart replays from
// here.
func (o *towerObserver) BlockProcessed(n uint64) {
	o.t().journal.log(&store.Record{Kind: store.KindCursor, U1: n})
}
