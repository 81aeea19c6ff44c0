package hub

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// durableWorld builds the chain + whisper + faucet fixture shared by the
// recovery tests, on the AutoMine policy. The chain deliberately outlives
// any hub: in reality it is an external system that keeps running while
// the hub is down. The suites that sweep mining policies use miningWorld
// directly.
func durableWorld(tb testing.TB) (*chain.Chain, *whisper.Network, *secp256k1.PrivateKey) {
	tb.Helper()
	return miningWorld(tb, "auto")
}

func testRegistry() SpecRegistry {
	return NewSpecRegistry(
		BettingSpec(4, 600, false),
		BettingSpec(4, 600, true),
		AuctionSpec(600, false),
		AuctionSpec(600, true),
	)
}

// chainEventCounts tallies lifecycle events per contract address.
type chainEventCounts struct {
	submitted, finalized, opened, resolved map[types.Address]int
}

func countEvents(c *chain.Chain) *chainEventCounts {
	ec := &chainEventCounts{
		submitted: map[types.Address]int{}, finalized: map[types.Address]int{},
		opened: map[types.Address]int{}, resolved: map[types.Address]int{},
	}
	for _, l := range c.FilterLogs(chain.FilterQuery{}) {
		if len(l.Topics) == 0 {
			continue
		}
		switch l.Topics[0] {
		case hybrid.TopicResultSubmitted:
			ec.submitted[l.Address]++
		case hybrid.TopicResultFinalized:
			ec.finalized[l.Address]++
		case hybrid.TopicDisputeOpened:
			ec.opened[l.Address]++
		case hybrid.TopicDisputeResolved:
			ec.resolved[l.Address]++
		}
	}
	return ec
}

// TestCrashRecoveryAtEveryStage is the crash-injection harness: a durable
// hub running a 10%-fraudulent fleet is killed the moment a session
// completes the target lifecycle stage — parameterized over all seven
// stages a live session passes through AND over both mining policies
// (under batch mining, blocks carry several sessions' transactions and a
// kill can land while workers are parked inside receipt waits) — and a
// second hub is recovered from the WAL. Afterwards, every session must be
// accounted for, every submission that landed on-chain must have settled
// exactly once, every fraudulent submission must have been caught by a
// dispute, and no contract may ever see more than one dispute.
func TestCrashRecoveryAtEveryStage(t *testing.T) {
	stages := []Stage{StagePending, StageSplit, StageDeployed, StageSigned, StageExecuted, StageSubmitted, StageSettled}
	for _, mode := range miningModes {
		for _, target := range stages {
			mode, target := mode, target
			t.Run("mining="+mode+"/"+target.String(), func(t *testing.T) {
				crashRecoverRun(t, target, mode)
			})
		}
	}
}

func crashRecoverRun(t *testing.T, target Stage, mode string) {
	c, net, faucetKey := miningWorld(t, mode)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const n = 10
	specs := make([]*Spec, n)
	advByID := make(map[uint64]bool, n) // Submit assigns IDs 1..n in order
	for i := range specs {
		adv := i%10 == 0
		if adv {
			specs[i] = BettingSpec(4, 600, true)
		} else if i%3 == 0 {
			specs[i] = AuctionSpec(600, false)
		} else {
			specs[i] = BettingSpec(4, 600, false)
		}
		advByID[uint64(i+1)] = adv
	}

	// The kill trigger: the first session to COMPLETE the target stage
	// takes the whole hub down. For StageSubmitted the trigger waits for
	// an adversarial session, so a fraudulent submission is provably
	// on-chain when the process dies; for StageSettled only honest
	// sessions can trigger (adversarial ones never reach it).
	var h1 *Hub
	var killOnce sync.Once
	trigger := func(sid uint64, s Stage) bool {
		if s != target {
			return false
		}
		switch target {
		case StageSubmitted:
			return advByID[sid]
		case StageSettled:
			return !advByID[sid]
		}
		return true
	}
	// The kill waits until every Submit has returned: a Submit that loses
	// the race against an early kill (the pending stage, on more than one
	// core) is refused rather than accepted, and a refused session is by
	// design in neither the WAL nor the recovery report this test counts.
	// The queue (4 × Workers) holds all n, so no Submit blocks on a worker
	// parked here.
	allSubmitted := make(chan struct{})
	cfg := Config{Workers: 4, Store: st, StageHook: func(sid uint64, s Stage) bool {
		if trigger(sid, s) {
			<-allSubmitted
			killOnce.Do(func() { h1.Kill() })
		}
		return !h1.Crashed()
	}}
	h1 = New(c, net, faucetKey, cfg)
	tickets := make([]*Ticket, n)
	for i, spec := range specs {
		tickets[i] = h1.Submit(spec)
	}
	close(allSubmitted)
	reports := make([]*Report, n)
	for i, tk := range tickets {
		reports[i] = tk.Report()
	}
	m1 := h1.Metrics()
	h1.Stop()
	if !h1.Crashed() {
		t.Fatalf("kill trigger for stage %s never fired", target)
	}
	if m1.IllegalTransitions != 0 {
		t.Errorf("generation 1 took %d illegal transitions", m1.IllegalTransitions)
	}
	crashed := 0
	for _, rep := range reports {
		if errors.Is(rep.Err, ErrCrashed) {
			crashed++
		} else if rep.Err != nil {
			t.Errorf("session %d failed with a non-crash error: %v", rep.ID, rep.Err)
		}
	}
	if crashed == 0 {
		t.Fatalf("no session was torn away by the crash at %s", target)
	}

	// "Restart the process": reopen the store on the same directory.
	st.Close()
	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	h2, rec, err := Recover(st2, c, net, faucetKey, Config{Workers: 4}, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Stop()

	// No session lost: the recovery report accounts for every submitted
	// session exactly once, by ID.
	seen := map[uint64]int{}
	for _, s := range rec.Sessions {
		seen[s.ID]++
	}
	for id := uint64(1); id <= n; id++ {
		if seen[id] != 1 {
			t.Errorf("session %d accounted %d times in the recovery report, want exactly once", id, seen[id])
		}
	}
	if len(rec.Sessions) != n {
		t.Errorf("recovery report has %d sessions, want %d", len(rec.Sessions), n)
	}

	// Every resumed session must terminate cleanly.
	for _, tk := range rec.Resumed() {
		rep := tk.Report()
		if rep.Err != nil {
			t.Errorf("resumed session %d failed: %v", rep.ID, rep.Err)
			continue
		}
		if rep.Stage != StageSettled && rep.Stage != StageResolved {
			t.Errorf("resumed session %d ended at %s", rep.ID, rep.Stage)
		}
		if !rep.Recovered {
			t.Errorf("resumed session %d not marked recovered", rep.ID)
		}
	}
	// Let the tower examine up to the head (workers close tickets before
	// the tower necessarily sees their finalize blocks).
	h2.Watchtower().WaitCaughtUp(c.Height())
	m2 := h2.Metrics()
	if m2.IllegalTransitions != 0 {
		t.Errorf("recovered generation took %d illegal transitions", m2.IllegalTransitions)
	}
	if h2.LiveSessions() != 0 {
		t.Errorf("%d sessions still live in the mirror after recovery quiesced", h2.LiveSessions())
	}
	if w := h2.Watchtower().OpenWindows(); w != 0 {
		t.Errorf("%d challenge windows still open after recovery quiesced", w)
	}

	// Chain-truth assertions, across BOTH generations. Every submission
	// that ever landed settles (is ENFORCED) exactly once. DisputeOpened
	// may appear twice for one contract, but only in the crash-mid-dispute
	// shape: the dying tower's deployVerifiedInstance was in flight at the
	// kill and landed post-mortem with no enforcement behind it, so the
	// recovered tower MUST re-file (a disputed intent without an on-chain
	// settlement means the dispute never landed — see DESIGN.md). A
	// settled lie is vetoed by the chain's settled flag, so anything past
	// two openings, or a second opening on a settled contract, is a real
	// double dispute.
	ec := countEvents(c)
	for addr := range ec.submitted {
		if got := ec.finalized[addr] + ec.resolved[addr]; got != 1 {
			t.Errorf("contract %s settled %d times, want exactly 1", addr.Hex(), got)
		}
		switch opened := ec.opened[addr]; {
		case opened > 2:
			t.Errorf("contract %s was disputed %d times (double dispute)", addr.Hex(), opened)
		case opened == 2:
			// (The settled veto makes a re-file impossible once ANY dispute
			// on this contract was enforced, so resolved==1/finalized==0 is
			// the complete per-contract invariant — no counter attribution
			// needed, which matters once a fleet has several adversaries.)
			if ec.resolved[addr] != 1 || ec.finalized[addr] != 0 {
				t.Errorf("contract %s: re-filed dispute (opened=2) but resolved=%d finalized=%d — only a crash-torn unenforced dispute may be re-filed",
					addr.Hex(), ec.resolved[addr], ec.finalized[addr])
			}
		}
	}

	// The fraudulent 10% are still caught: every adversarial session that
	// managed a (fraudulent) submission before the crash was resolved by
	// dispute, never finalized — and no honest session was ever disputed.
	// Adversarial sessions that died earlier were resumed as honest
	// submitters and finalize cleanly.
	frauds := 0
	for _, s := range rec.Sessions {
		addr := addrOf(t, reports, rec, s.ID)
		if addr.IsZero() || ec.submitted[addr] == 0 {
			continue // died before anything landed on-chain
		}
		if !advByID[s.ID] {
			if ec.opened[addr] != 0 {
				t.Errorf("honest contract %s was disputed", addr.Hex())
			}
			continue
		}
		if s.Outcome == RecoveryTerminal && s.Stage == StageFailed {
			continue // abandoned before submission was possible
		}
		// An adversarial session's FIRST submission is the lie (resumed
		// sessions submit honestly, but only after dying pre-submission,
		// in which case the first submission is already honest). If a
		// dispute was opened — possibly re-filed after a crash tore the
		// first one — the lie landed; it must have been resolved.
		if ec.opened[addr] >= 1 {
			frauds++
			if ec.resolved[addr] != 1 || ec.finalized[addr] != 0 {
				t.Errorf("fraudulent contract %s: resolved=%d finalized=%d, want dispute-resolution only",
					addr.Hex(), ec.resolved[addr], ec.finalized[addr])
			}
		}
	}
	// Each caught fraud is one enforced dispute, but not necessarily one
	// COUNTED dispute win: under batch mining the dying tower's dispute
	// transactions can be in flight at the crash and land post-mortem —
	// enforced by the chain with no living tower to credit. The chain
	// assertions above are the exact ones; the counters must simply never
	// exceed the frauds the chain knows about.
	if m1.DisputesWon+m2.DisputesWon > uint64(frauds) {
		t.Errorf("disputes won across generations = %d+%d, more than the %d caught frauds",
			m1.DisputesWon, m2.DisputesWon, frauds)
		for _, s := range rec.Sessions {
			addr := addrOf(t, reports, rec, s.ID)
			t.Logf("  session %d adv=%v outcome=%s stage=%s addr=%s submitted=%d opened=%d resolved=%d finalized=%d",
				s.ID, advByID[s.ID], s.Outcome, s.Stage, addr.Hex(),
				ec.submitted[addr], ec.opened[addr], ec.resolved[addr], ec.finalized[addr])
		}
	}
	t.Logf("crash at %s: %d crashed, %d resumed, %d abandoned, %d frauds caught (%d pre-crash, %d post-recovery)",
		target, crashed, m2.SessionsRecovered, m2.SessionsAbandoned, frauds, m1.DisputesWon, m2.DisputesWon)
}

func mustReplay(t *testing.T, st *store.Store) []*store.Record {
	t.Helper()
	recs, err := st.Replay()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// addrOf finds a session's on-chain address from whichever side knows it.
func addrOf(t *testing.T, gen1 []*Report, rec *RecoverReport, id uint64) types.Address {
	t.Helper()
	for _, rep := range gen1 {
		if rep.ID == id && !rep.OnChainAddr.IsZero() {
			return rep.OnChainAddr
		}
	}
	for _, s := range rec.Sessions {
		if s.ID == id && s.Ticket != nil {
			if rep := s.Ticket.Report(); !rep.OnChainAddr.IsZero() {
				return rep.OnChainAddr
			}
		}
	}
	return types.Address{}
}

// TestFraudWhileHubDown is the deterministic liveness headline: the hub
// dies BEFORE any result is submitted, the adversary (a counterparty —
// crashes don't stop it) pushes a lie on-chain while no tower is alive,
// and the recovered hub must catch it purely from the replay of the
// guarded contract's chain history — the window is still open because
// nobody could finalize during the outage. Runs under both mining
// policies: in batch mode the fraud lands in a driver-sealed block nobody
// was waiting on, the exact shape a real outage produces.
func TestFraudWhileHubDown(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) {
			fraudWhileHubDownRun(t, mode, false)
		})
	}
}

// TestRecoverIgnoresACursorPastTheLie: the same outage, but the WAL ends
// with a block cursor past the lie — the record older hubs wrote after
// every block their tower examined, here stale or hostile. Recover reads
// no cursor: it replays the guarded contract's whole history, so the lie
// is disputed all the same.
func TestRecoverIgnoresACursorPastTheLie(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) {
			fraudWhileHubDownRun(t, mode, true)
		})
	}
}

func fraudWhileHubDownRun(t *testing.T, mode string, cursorPastTheLie bool) {
	c, net, faucetKey := miningWorld(t, mode)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	spec := BettingSpec(4, 600, true)
	var h1 *Hub
	cfg := Config{Workers: 1, Store: st, StageHook: func(sid uint64, s Stage) bool {
		if s == StageExecuted {
			h1.Kill()
		}
		return !h1.Crashed()
	}}
	h1 = New(c, net, faucetKey, cfg)
	tk := h1.Submit(spec)
	rep := tk.Report()
	h1.Stop()
	if !errors.Is(rep.Err, ErrCrashed) || rep.Stage != StageExecuted {
		t.Fatalf("setup: session should crash at executed, got stage=%s err=%v", rep.Stage, rep.Err)
	}

	// The hub is dead. Rebuild the adversary's view from the WAL and the
	// parties' keys (the adversary holds its own) and submit the flipped
	// result with no watchtower alive.
	live, _, _ := foldRecords(mustReplay(t, st))
	ss := live[tk.ID]
	if ss == nil || ss.CopyEnc == nil {
		t.Fatal("WAL does not carry the crashed session")
	}
	split, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := h1.partyKeys(ss)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := hybrid.RebuildSession(split, keys, c, net, context.Background(), ss.Addr, ss.CopyEnc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := hybrid.ExecuteOffChain(sess.Copy.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	lie := uint64(1)
	if out.Result == 1 {
		lie = 0
	}
	r, err := sess.SubmitResult(len(sess.Parties)-1, lie)
	if err != nil || !r.Succeeded() {
		t.Fatalf("adversary's submission did not land: %v", err)
	}
	fraudBlock := c.Height()
	if cursorPastTheLie {
		if err := st.Append(&store.Record{Kind: store.KindCursor, U1: fraudBlock}); err != nil {
			t.Fatal(err)
		}
	}

	// Restart. The recovered tower must replay the contract's history,
	// find the lie, and dispute it inside the still-open window.
	st.Close()
	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h2, rec, err := Recover(st2, c, net, faucetKey, Config{Workers: 2}, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Stop()

	resumed := rec.Resumed()
	if len(resumed) != 1 {
		t.Fatalf("%d sessions resumed, want 1", len(resumed))
	}
	rep2 := resumed[0].Report()
	if rep2.Err != nil {
		t.Fatalf("recovered session failed: %v", rep2.Err)
	}
	if rep2.Stage != StageResolved || !rep2.Disputed {
		t.Fatalf("recovered session: stage=%s disputed=%v, want a resolved dispute", rep2.Stage, rep2.Disputed)
	}
	if rep2.Result != out.Result {
		t.Errorf("recovered verdict %d, want the true result %d", rep2.Result, out.Result)
	}
	requireWinnerPaid(t, rep2)
	m2 := h2.Metrics()
	if m2.DisputesRaised != 1 || m2.DisputesWon != 1 {
		t.Errorf("recovered tower disputes raised/won = %d/%d, want 1/1", m2.DisputesRaised, m2.DisputesWon)
	}
	ec := countEvents(c)
	if ec.opened[ss.Addr] != 1 || ec.resolved[ss.Addr] != 1 || ec.finalized[ss.Addr] != 0 {
		t.Errorf("chain shows opened=%d resolved=%d finalized=%d, want exactly one enforced dispute",
			ec.opened[ss.Addr], ec.resolved[ss.Addr], ec.finalized[ss.Addr])
	}
}

// TestWALHoldsNoPartyKey: the WAL carries the parties' addresses, never
// their private keys — recovery re-derives them from the session ID. Neither
// a crashed generation's segments nor, after its recovery and a settled and
// a resolved session on the recovered hub, any segment or snapshot file
// holds a party's 32-byte scalar.
func TestWALHoldsNoPartyKey(t *testing.T) {
	c, net, faucetKey := durableWorld(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var h1 *Hub
	h1 = New(c, net, faucetKey, Config{Workers: 2, Store: st, StageHook: func(sid uint64, s Stage) bool {
		if s == StageSubmitted {
			h1.Kill()
		}
		return !h1.Crashed()
	}})
	tickets := []*Ticket{h1.Submit(BettingSpec(4, 600, true)), h1.Submit(BettingSpec(4, 600, false))}
	for _, tk := range tickets {
		tk.Report()
	}
	h1.Stop()
	st.Close()
	// Every key a session of either generation derives: two parties each.
	keys := func(h *Hub) [][]byte {
		var out [][]byte
		for sid := uint64(1); sid <= h.sid.Load(); sid++ {
			for i := 0; i < 2; i++ {
				key, err := h.deriveKey(sid, i)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, key.Bytes())
			}
		}
		return out
	}
	requireNoKey(t, st.Dir(), keys(h1))

	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// Compacting on every terminal: every terminal writes a snapshot, and
	// the two fresh sessions overlap, so a snapshot is written while one of
	// them is live.
	compactingEvery(t, 1)
	h2, rec, err := Recover(st2, c, net, faucetKey, Config{Workers: 2}, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Stop()
	for _, tk := range rec.Resumed() {
		if rep := tk.Report(); rep.Err != nil {
			t.Fatalf("resumed session %d failed: %v", rep.ID, rep.Err)
		}
	}
	for i, rep := range h2.Run([]*Spec{BettingSpec(4, 600, false), BettingSpec(4, 600, true)}) {
		want := []Stage{StageSettled, StageResolved}[i]
		if rep.Err != nil || rep.Stage != want {
			t.Fatalf("fresh session %d: stage=%s err=%v, want %s", rep.ID, rep.Stage, rep.Err, want)
		}
	}
	if snaps := requireNoKey(t, st2.Dir(), keys(h2)); snaps == 0 {
		t.Error("no snapshot on disk: compaction never ran")
	}
}

// requireNoKey scans every file of a store directory for the given scalars
// and returns how many of the files were snapshots.
func requireNoKey(t *testing.T, dir string, keys [][]byte) (snapshots int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no WAL file to scan")
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(e.Name(), "snap-") {
			snapshots++
		}
		for _, k := range keys {
			if bytes.Contains(b, k) {
				t.Fatalf("%s holds a party's private key", e.Name())
			}
		}
	}
	return snapshots
}

// TestRecoverReplaysFromTheIndex: a recovered guard's history read asks the
// chain what the block loop asks — its contract and the tower's topics,
// from block 0 to the head — so it is served from the log index; the
// full-scan path, which walks every receipt of every block, stays cold.
func TestRecoverReplaysFromTheIndex(t *testing.T) {
	c, net, faucetKey := miningWorld(t, "auto")
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var h1 *Hub
	h1 = New(c, net, faucetKey, Config{Workers: 1, Store: st, StageHook: func(sid uint64, s Stage) bool {
		if s == StageExecuted {
			h1.Kill()
		}
		return !h1.Crashed()
	}})
	rep := h1.Submit(BettingSpec(4, 600, false)).Report()
	h1.Stop()
	if !errors.Is(rep.Err, ErrCrashed) || rep.Stage != StageExecuted {
		t.Fatalf("setup: session should crash at executed, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	// A block the dead tower never saw, so the outage range is not empty.
	to := types.BytesToAddress([]byte{0xEE})
	if r, err := hybrid.NewParticipant(faucetKey, c, nil).SendTx(&to, uint256.NewInt(1), 21_000, nil); err != nil || !r.Succeeded() {
		t.Fatalf("transfer did not land: %v", err)
	}
	st.Close()
	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	scanned, indexed := c.LogScanStats()
	h2, rec, err := Recover(st2, c, net, faucetKey, Config{Workers: 1}, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Stop()
	resumed := rec.Resumed()
	if len(resumed) != 1 {
		t.Fatalf("%d sessions resumed, want 1", len(resumed))
	}
	if rep2 := resumed[0].Report(); rep2.Err != nil || rep2.Stage != StageSettled {
		t.Fatalf("recovered session: stage=%s err=%v, want a clean settle", rep2.Stage, rep2.Err)
	}
	scanned2, indexed2 := c.LogScanStats()
	if scanned2 != scanned {
		t.Errorf("recovery walked %d blocks in the full-scan path, want 0", scanned2-scanned)
	}
	if indexed2 == indexed {
		t.Error("recovery ran no indexed query")
	}
}

// TestDurableHappyPath: with the WAL on and nothing crashing, the hub
// behaves exactly like the in-memory one, compaction keeps the log
// bounded, the WAL holds no copy of a chain fact (no block cursor, no
// window), and a recovery of the quiesced store finds only terminal
// sessions. The recovered hub is a fully working hub: fresh sessions run
// on it without key or ID collisions.
func TestDurableHappyPath(t *testing.T) {
	c, net, faucetKey := durableWorld(t)
	st, err := store.Open(t.TempDir(), store.Options{SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	compactingEvery(t, 8)
	h := New(c, net, faucetKey, Config{Workers: 4, Store: st})
	specs := make([]*Spec, 24)
	for i := range specs {
		specs[i] = BettingSpec(4, 600, i%10 == 0)
	}
	for i, rep := range h.Run(specs) {
		if rep.Err != nil {
			t.Fatalf("session %d failed: %v", i, rep.Err)
		}
		want := StageSettled
		if specs[i].Adversarial {
			want = StageResolved
		}
		if rep.Stage != want {
			t.Errorf("session %d: stage %s, want %s", i, rep.Stage, want)
		}
	}
	if h.LiveSessions() != 0 {
		t.Errorf("%d sessions live after quiescence", h.LiveSessions())
	}
	h.Stop()
	st.Close()

	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recs := mustReplay(t, st2)
	for _, rec := range recs {
		switch rec.Kind {
		case store.KindCursor, store.KindWindow:
			t.Fatalf("WAL holds a %s record: the tower journals nothing", rec.Kind)
		case store.KindStage:
			t.Fatalf("WAL holds a %s record: the hub journals facts, not intents", rec.Kind)
		}
	}
	live, _, _ := foldRecords(recs)
	if len(live) != 0 {
		t.Errorf("quiesced WAL still folds to %d live sessions", len(live))
	}
	// Compaction ran (24 terminals, compacting every 8) and replaced segment
	// history with snapshots; terminal sessions are deliberately dropped
	// from snapshots — there is nothing left to guard for them.
	entries, err := os.ReadDir(st2.Dir())
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps++
		}
	}
	if snaps == 0 {
		t.Error("no snapshot on disk: compaction never ran")
	}

	h2, rec, err := Recover(st2, c, net, faucetKey, Config{Workers: 4}, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Stop()
	if len(rec.Resumed()) != 0 {
		t.Errorf("recovery of a quiesced store resumed %d sessions", len(rec.Resumed()))
	}
	rep := h2.Submit(BettingSpec(4, 600, false)).Report()
	if rep.Err != nil || rep.Stage != StageSettled {
		t.Errorf("fresh session on recovered hub: stage=%s err=%v", rep.Stage, rep.Err)
	}
	requireWinnerPaid(t, rep)
}

// compactingEvery has every journal built for the rest of the test compact
// after n terminal sessions.
func compactingEvery(t *testing.T, n int) {
	old := compactEvery
	compactEvery = n
	t.Cleanup(func() { compactEvery = old })
}

// TestSeededStateSurvivesCompaction pins the recovery ordering bug class:
// a compaction triggered while Recover is still classifying sessions
// (every abandoned session writes a terminal record, and a small
// compactEvery fires mid-loop) deletes the old generation's segments —
// so the snapshot it writes must already carry every seeded live
// session and the session-ID high mark, or a second crash would lose them
// forever.
func TestSeededStateSurvivesCompaction(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compactingEvery(t, 1)
	j := newJournal(st)
	kept := &sessionState{
		ID: 5, Scenario: "betting",
		Parties: 2,
		Addr:    types.BytesToAddress([]byte{0xAA}),
		CopyEnc: []byte{0xC0},
	}
	j.seed(kept)
	j.seedSIDHigh(77)
	// An "abandon": terminal for some other session triggers compaction,
	// which rewrites all durable history from the mirror.
	if err := j.log(&store.Record{Kind: store.KindTerminal, SID: 3, U1: uint64(StageFailed)}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	live, _, sidHigh := foldRecords(mustReplay(t, st2))
	got := live[kept.ID]
	if got == nil {
		t.Fatal("seeded session lost by mid-recovery compaction")
	}
	if got.Parties != kept.Parties || got.CopyEnc == nil || got.Addr.IsZero() {
		t.Errorf("seeded session lost its identity records: %+v", got)
	}
	if sidHigh != 77 {
		t.Errorf("session-ID mark %d after compaction, want 77", sidHigh)
	}
}

// snapshotFixture is a mid-challenge session with every durable field set.
func snapshotFixture() *sessionState {
	return &sessionState{
		ID: 9, Scenario: "betting/adversarial",
		Parties: 2,
		Addr:    types.BytesToAddress([]byte{1, 2, 3}),
		CopyEnc: []byte{0xc0}, SetupStarted: true, SetupDone: true,
		Submitted: 1, SubmittedSet: true,
	}
}

// TestSessionStateSnapshotRoundTrip pins the snapshot codec: encoding a
// session state and folding it back must reproduce the state.
func TestSessionStateSnapshotRoundTrip(t *testing.T) {
	in := snapshotFixture()
	j := newJournal(nil)
	for _, rec := range encodeSessionState(in) {
		// Round-trip each record through its wire encoding too.
		dec, err := store.DecodeRecord(rec.Encode())
		if err != nil {
			t.Fatalf("snapshot record does not round-trip: %v", err)
		}
		j.applyLocked(dec)
	}
	out := j.sessions[in.ID]
	if out == nil {
		t.Fatal("state did not fold back")
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("snapshot round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

// TestFoldIgnoresRetiredRecords: WALs written while the hub logged a stage
// intent before every stage, while the tower journaled its windows, a
// block cursor and a KindDisputed before filing, while KindDeployed carried
// the deploy block in U1, and while KindParties carried the challenge
// period, the disputing party and the parties' addresses or private
// scalars, must still replay — and fold to exactly the state the same WAL
// folds to without them, which is all Recover reads.
func TestFoldIgnoresRetiredRecords(t *testing.T) {
	plain := encodeSessionState(snapshotFixture())
	var old []*store.Record
	for i, rec := range plain {
		cp := *rec
		// A stage intent in front of each fact, naming an arbitrary stage:
		// the fold must not read it.
		old = append(old, &store.Record{Kind: store.KindStage, SID: cp.SID, U1: uint64(StageResolved - Stage(i))})
		switch cp.Kind {
		case store.KindDeployed:
			cp.U1 = 17
		case store.KindParties:
			cp.U1, cp.U2 = 600, 0
			cp.Blobs = [][]byte{bytes.Repeat([]byte{5}, 32), bytes.Repeat([]byte{6}, 32)}
		case store.KindSubmitted:
			old = append(old, &cp,
				&store.Record{Kind: store.KindWindow, SID: cp.SID, U1: cp.U1, U2: 100, U3: 700, Blob: []byte{9, 9}},
				&store.Record{Kind: store.KindDisputed, SID: cp.SID},
				&store.Record{Kind: store.KindCursor, U1: 42})
			continue
		}
		old = append(old, &cp)
	}
	if len(old) != 2*len(plain)+3 {
		t.Fatalf("fixture carries no submission to hang the retired records on")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range old {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	wantLive, wantTerm, wantHigh := foldRecords(plain)
	live, term, high := foldRecords(mustReplay(t, st))
	if !reflect.DeepEqual(live, wantLive) || !reflect.DeepEqual(term, wantTerm) || high != wantHigh {
		t.Fatalf("fold of the old WAL:\n got %+v high %d\nwant %+v high %d",
			live[9], high, wantLive[9], wantHigh)
	}
	if !reflect.DeepEqual(live[9], snapshotFixture()) {
		t.Fatalf("fold lost state: %+v", live[9])
	}
}
