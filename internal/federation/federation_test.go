package federation

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/tower"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// miningModes mirrors the hub suite's sweep of block-production policies.
var miningModes = []string{"auto", "batch"}

func fedWorld(tb testing.TB, mode string) (*chain.Chain, *whisper.Network, *secp256k1.PrivateKey) {
	tb.Helper()
	faucetKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE7))
	if err != nil {
		tb.Fatal(err)
	}
	ccfg := chain.DefaultConfig()
	if mode == "batch" {
		ccfg.AutoMine = false
	}
	// Mirror the hub suite: ONOFFCHAIN_TEST_EXEC=parallel moves the whole
	// federation e2e onto the parallel block executor (CI race matrix leg).
	switch v := os.Getenv("ONOFFCHAIN_TEST_EXEC"); v {
	case "", "serial":
	case "parallel":
		ccfg.Exec = chain.ExecParallel
		ccfg.ExecWorkers = 4
	default:
		tb.Fatalf("ONOFFCHAIN_TEST_EXEC=%q (want serial or parallel)", v)
	}
	c := chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(faucetKey.EthereumAddress()): new(uint256.Int).Mul(uint256.NewInt(100_000_000), uint256.NewInt(1e18)),
	})
	if mode == "batch" {
		if err := c.StartMining(500*time.Microsecond, 64); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(c.StopMining)
	}
	return c, whisper.NewNetwork(c.Now), faucetKey
}

func memberKeys(tb testing.TB, n int) ([]*secp256k1.PrivateKey, []types.Address) {
	tb.Helper()
	keys := make([]*secp256k1.PrivateKey, n)
	addrs := make([]types.Address, n)
	for i := range keys {
		k, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(uint64(0x70_3E_00 + i)))
		if err != nil {
			tb.Fatal(err)
		}
		keys[i] = k
		addrs[i] = types.Address(k.EthereumAddress())
	}
	return keys, addrs
}

func fedRegistry() hub.SpecRegistry {
	return hub.NewSpecRegistry(
		hub.BettingSpec(4, 600, false),
		hub.BettingSpec(4, 600, true),
		hub.AuctionSpec(600, false),
		hub.PoolSpec(3, 600, false),
		hub.PoolSpec(3, 600, true),
	)
}

// fedConfig returns test-speed federation tuning for one member.
func fedConfig(c *chain.Chain, net *whisper.Network, key *secp256k1.PrivateKey, members []types.Address) Config {
	return Config{
		Chain: c, Net: net, Key: key, Members: members,
		Registry:      fedRegistry(),
		EscalateAfter: 250 * time.Millisecond,
		Logf:          func(string, ...interface{}) {},
	}
}

func waitUntil(tb testing.TB, timeout time.Duration, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatalf("timed out after %s waiting for %s", timeout, what)
}

// eventCounts tallies lifecycle events per contract address.
type eventCounts struct {
	submitted, finalized, opened, resolved map[types.Address]int
}

func countEvents(c *chain.Chain) *eventCounts {
	ec := &eventCounts{
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

// TestFederationFleet is the live-fleet smoke: a hub member plus two
// standalone towers share guard duty over a mixed honest/adversarial
// fleet. Every session terminates correctly, every lie is disputed
// EXACTLY once fleet-wide (one DisputeOpened per adversarial contract),
// honest windows draw no filing from any tower, and the sum of per-tower
// filings equals the adversary count.
func TestFederationFleet(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) { fedFleetRun(t, mode) })
	}
}

func fedFleetRun(t *testing.T, mode string) {
	c, net, faucetKey := fedWorld(t, mode)
	keys, members := memberKeys(t, 3)

	h := hub.New(c, net, faucetKey, hub.Config{Workers: 4})
	hubTower, err := AttachHub(h, fedConfig(c, net, keys[0], members))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Join(fedConfig(c, net, keys[1], members))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Join(fedConfig(c, net, keys[2], members))
	if err != nil {
		t.Fatal(err)
	}

	specs := []*hub.Spec{
		hub.BettingSpec(4, 600, false),
		hub.BettingSpec(4, 600, true),
		hub.AuctionSpec(600, false),
		hub.PoolSpec(3, 600, false),
		hub.BettingSpec(4, 600, true),
		hub.PoolSpec(3, 600, true),
		hub.BettingSpec(4, 600, false),
		hub.AuctionSpec(600, false),
	}
	adversarial := 0
	for _, s := range specs {
		if s.Adversarial {
			adversarial++
		}
	}
	reports := h.Run(specs)
	for i, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("session %d (%s) failed: %v", i, rep.Scenario, rep.Err)
		}
		if specs[i].Adversarial {
			if rep.Stage != hub.StageResolved || !rep.Disputed {
				t.Errorf("session %d (%s): stage=%s disputed=%v, want a resolved dispute", i, rep.Scenario, rep.Stage, rep.Disputed)
			}
		} else if rep.Stage != hub.StageSettled || rep.Disputed {
			t.Errorf("session %d (%s): stage=%s disputed=%v, want a clean settle", i, rep.Scenario, rep.Stage, rep.Disputed)
		}
	}
	// Each backup adopts on its gossip receiver, after the envelope crosses
	// the bus; on a loaded host the last session can finish before its guard
	// export has been rebuilt there.
	waitUntil(t, 10*time.Second, "both backups to adopt every exported guard", func() bool {
		return int(s1.Metrics().GuardsAdopted) == len(specs) && int(s2.Metrics().GuardsAdopted) == len(specs)
	})
	h.Stop()
	hubTower.Stop()
	s1.Stop()
	s2.Stop()

	// Chain truth: every lie disputed exactly once, fleet-wide; honest
	// contracts never disputed.
	ec := countEvents(c)
	for i, rep := range reports {
		addr := rep.OnChainAddr
		if specs[i].Adversarial {
			if ec.opened[addr] != 1 || ec.resolved[addr] != 1 || ec.finalized[addr] != 0 {
				t.Errorf("adversarial contract %s: opened=%d resolved=%d finalized=%d, want exactly one enforced dispute",
					addr.Hex(), ec.opened[addr], ec.resolved[addr], ec.finalized[addr])
			}
		} else if ec.opened[addr] != 0 || ec.finalized[addr] != 1 {
			t.Errorf("honest contract %s: opened=%d finalized=%d", addr.Hex(), ec.opened[addr], ec.finalized[addr])
		}
	}
	hm := h.Metrics()
	m0, m1, m2 := hubTower.Metrics(), s1.Metrics(), s2.Metrics()
	filed := m0.DisputesFiled + m1.DisputesFiled + m2.DisputesFiled
	if int(filed) != adversarial {
		t.Errorf("fleet filed %d disputes (hub %d, s1 %d, s2 %d), want %d",
			filed, m0.DisputesFiled, m1.DisputesFiled, m2.DisputesFiled, adversarial)
	}
	if int(m0.GuardsExported) != len(specs) {
		t.Errorf("hub member exported %d guards, want %d", m0.GuardsExported, len(specs))
	}
	if int(m1.GuardsAdopted) != len(specs) || int(m2.GuardsAdopted) != len(specs) {
		t.Errorf("standalone towers adopted %d/%d guards, want %d each", m1.GuardsAdopted, m2.GuardsAdopted, len(specs))
	}
	if hm.IllegalTransitions != 0 {
		t.Errorf("hub took %d illegal transitions", hm.IllegalTransitions)
	}
	t.Logf("fleet: %d sessions (%d adversarial), filings hub=%d s1=%d s2=%d, deferrals=%d",
		len(specs), adversarial, m0.DisputesFiled, m1.DisputesFiled, m2.DisputesFiled, hm.DisputesDeferred)
}

// submittedContract finds the (single) contract with a ResultSubmitted
// event on chain.
func submittedContract(tb testing.TB, c *chain.Chain) types.Address {
	tb.Helper()
	logs := c.FilterLogs(chain.FilterQuery{Topic: &hybrid.TopicResultSubmitted})
	if len(logs) != 1 {
		tb.Fatalf("%d submissions on chain, want 1", len(logs))
	}
	return logs[0].Address
}

// TestFederationBackupDisputesWhenHubDies is the failover headline: the
// hub (one federation member) is killed the instant a fraudulent
// submission lands, with its challenge window open and no hub tower left
// alive. A standalone backup must escalate and dispute before the
// deadline — exactly once — and a later hub.Recover must find the window
// already enforced and not double-dispute.
func TestFederationBackupDisputesWhenHubDies(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) { fedFailoverRun(t, mode) })
	}
}

func fedFailoverRun(t *testing.T, mode string) {
	c, net, faucetKey := fedWorld(t, mode)
	keys, members := memberKeys(t, 3)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var h *hub.Hub
	var killOnce sync.Once
	cfg := hub.Config{Workers: 2, Store: st, StageHook: func(sid uint64, s hub.Stage) bool {
		switch s {
		case hub.StageExecuted:
			// The owner's tower is dead when the lie lands; under AutoMine
			// the submission is mined before the next hook runs.
			h.Watchtower().Halt()
		case hub.StageSubmitted:
			killOnce.Do(h.Kill)
		}
		return !h.Crashed()
	}}
	h = hub.New(c, net, faucetKey, cfg)
	hubTower, err := AttachHub(h, fedConfig(c, net, keys[0], members))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Join(fedConfig(c, net, keys[1], members))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Stop()
	s2, err := Join(fedConfig(c, net, keys[2], members))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()

	spec := hub.BettingSpec(4, 600, true)
	rep := h.Submit(spec).Report()
	if !errors.Is(rep.Err, hub.ErrCrashed) {
		t.Fatalf("session should have crashed at submitted, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	h.Stop()
	hubTower.Kill() // the hub process died: its federation member with it
	hubTower.Stop()

	// The lie is on-chain, the window is open, the owner is dead. A
	// standalone backup must find it (via its adopted guard and its own
	// block loop), wait out its escalation slot, and dispute.
	contract := submittedContract(t, c)
	deadline := c.FilterLogs(chain.FilterQuery{Topic: &hybrid.TopicResultSubmitted})[0]
	ev, err := hybrid.DecodeResultSubmitted(deadline)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 20*time.Second, "a backup tower's dispute", func() bool {
		return len(c.FilterLogs(chain.FilterQuery{Address: &contract, Topic: &hybrid.TopicDisputeResolved})) > 0
	})
	if now := c.Now(); now > ev.At+600 {
		t.Errorf("dispute landed at chain time %d, after the deadline %d", now, ev.At+600)
	}
	// The chain event precedes the filer's own bookkeeping by a beat; let
	// the counters catch up before pinning them.
	waitUntil(t, 10*time.Second, "the filing tower's bookkeeping", func() bool {
		return s1.Metrics().DisputesWon+s2.Metrics().DisputesWon == 1
	})
	m1, m2 := s1.Metrics(), s2.Metrics()
	if m1.DisputesFiled+m2.DisputesFiled != 1 {
		t.Errorf("backups filed %d+%d disputes, want exactly one", m1.DisputesFiled, m2.DisputesFiled)
	}
	// Whether the filing was an escalation depends on who the contract
	// hashed to: if the DEAD hub holds slot 0, the filing backup must have
	// waited out its stagger; if a standalone tower is slot 0 itself, it
	// files at once with no escalation.
	if slotOf(members, contract, members[0]) == 0 && m1.Escalations+m2.Escalations == 0 {
		t.Error("the dead hub held slot 0; the filing backup should have recorded an escalation")
	}
	ec := countEvents(c)
	if ec.opened[contract] != 1 || ec.resolved[contract] != 1 || ec.finalized[contract] != 0 {
		t.Fatalf("contract %s: opened=%d resolved=%d finalized=%d, want exactly one enforced dispute",
			contract.Hex(), ec.opened[contract], ec.resolved[contract], ec.finalized[contract])
	}

	// Recover the hub: it must adopt the chain truth (resolved by a peer)
	// and never re-file.
	st.Close()
	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h2, rec, err := hub.Recover(st2, c, net, faucetKey, hub.Config{Workers: 2}, hub.NewSpecRegistry(spec))
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
	if rep2.Stage != hub.StageResolved || !rep2.Disputed {
		t.Errorf("recovered session: stage=%s disputed=%v, want the peer's resolution adopted", rep2.Stage, rep2.Disputed)
	}
	ec = countEvents(c)
	if ec.opened[contract] != 1 {
		t.Errorf("recovery re-filed: contract %s opened %d times", contract.Hex(), ec.opened[contract])
	}
}

// TestForgedVerdictCannotSilenceBackups: the hub's tower is dead when a lie
// lands, and a group-key holder speaking as the hub's member has gossiped a
// window record whose verdict hint IS the lie. A backup must not take that
// word for the truth: every tower checks each window in its own sandbox, so
// one backup disputes the lie — exactly once.
func TestForgedVerdictCannotSilenceBackups(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) { forgedVerdictRun(t, mode) })
	}
}

func forgedVerdictRun(t *testing.T, mode string) {
	c, net, faucetKey := fedWorld(t, mode)
	keys, members := memberKeys(t, 3)

	// The forger holds the hub member's key and the fleet key. Its record is
	// built from raw bytes: no member writes one any more.
	forger := net.NewNode(keys[0])
	forge := func(e *tower.Watch) {
		truth, err := e.Expected()
		if err != nil {
			t.Errorf("hub's verdict: %v", err)
			return
		}
		lie := uint64(0) // the adversarial spec's flip (hub.runSession)
		if truth == 0 {
			lie = 1
		}
		parties := e.Session().Parties
		contract, submitter, now := e.Contract(), parties[len(parties)-1].Addr, c.Now()
		rec := &store.Record{Kind: store.KindFedWindow, U1: lie, U2: now, U3: now + 600, Blob: contract[:],
			Blobs: [][]byte{submitter[:], binary.BigEndian.AppendUint64(nil, lie)}}
		if _, err := forger.Post(whisper.TopicFromString(fleetLabel), rec.Encode(), whisper.PostOptions{
			Key: whisper.SharedTopicKey(fleetLabel, members),
		}); err != nil {
			t.Errorf("forged post: %v", err)
		}
	}

	var h *hub.Hub
	var killOnce sync.Once
	h = hub.New(c, net, faucetKey, hub.Config{Workers: 2, StageHook: func(sid uint64, s hub.Stage) bool {
		switch s {
		case hub.StageExecuted:
			h.Watchtower().Halt()
			for _, e := range h.Watchtower().Watches() {
				forge(e)
			}
		case hub.StageSubmitted:
			killOnce.Do(h.Kill)
		}
		return !h.Crashed()
	}})
	hubTower, err := AttachHub(h, fedConfig(c, net, keys[0], members))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Join(fedConfig(c, net, keys[1], members))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Stop()
	s2, err := Join(fedConfig(c, net, keys[2], members))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()

	rep := h.Submit(hub.BettingSpec(4, 600, true)).Report()
	if !errors.Is(rep.Err, hub.ErrCrashed) {
		t.Fatalf("session should have crashed at submitted, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	h.Stop()
	hubTower.Kill()
	hubTower.Stop()

	contract := submittedContract(t, c)
	waitUntil(t, 20*time.Second, "a backup's dispute of the lie the forged record vouched for", func() bool {
		return len(c.FilterLogs(chain.FilterQuery{Address: &contract, Topic: &hybrid.TopicDisputeResolved})) > 0
	})
	waitUntil(t, 10*time.Second, "the filing backup's bookkeeping", func() bool {
		return s1.Metrics().DisputesWon+s2.Metrics().DisputesWon == 1
	})
	if m1, m2 := s1.Metrics(), s2.Metrics(); m1.DisputesFiled+m2.DisputesFiled != 1 {
		t.Errorf("backups filed %d+%d disputes, want exactly one", m1.DisputesFiled, m2.DisputesFiled)
	}
	ec := countEvents(c)
	if ec.opened[contract] != 1 || ec.resolved[contract] != 1 || ec.finalized[contract] != 0 {
		t.Fatalf("contract %s: opened=%d resolved=%d finalized=%d, want exactly one enforced dispute",
			contract.Hex(), ec.opened[contract], ec.resolved[contract], ec.finalized[contract])
	}
}

// TestFederationStandaloneRecovery: a standalone tower crashes while
// guarding; the hub is also dead; an adversary pushes a lie while NOBODY
// is alive. A new tower incarnation re-arms from the journal, replays the
// guarded contract's chain history, and disputes — the fraud-while-hub-down
// property, carried by the federation's own durability.
func TestFederationStandaloneRecovery(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "auto")
	keys, members := memberKeys(t, 2)
	fedSt, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var h *hub.Hub
	h = hub.New(c, net, faucetKey, hub.Config{Workers: 1, StageHook: func(sid uint64, s hub.Stage) bool {
		if s == hub.StageExecuted {
			h.Kill()
		}
		return !h.Crashed()
	}})
	hubTower, err := AttachHub(h, fedConfig(c, net, keys[0], members))
	if err != nil {
		t.Fatal(err)
	}
	scfg := fedConfig(c, net, keys[1], members)
	scfg.Store = fedSt
	s1, err := Join(scfg)
	if err != nil {
		t.Fatal(err)
	}

	spec := hub.BettingSpec(4, 600, true)
	rep := h.Submit(spec).Report()
	if !errors.Is(rep.Err, hub.ErrCrashed) || rep.Stage != hub.StageExecuted {
		t.Fatalf("session should crash at executed, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	waitUntil(t, 10*time.Second, "the standalone tower to adopt the guard", func() bool {
		return s1.Metrics().Guards == 1
	})
	h.Stop()
	hubTower.Kill()
	hubTower.Stop()
	s1.Kill() // tower process dies; its journal survives
	s1.Stop()

	// Everybody is dead. The adversary rebuilds its view from the guard
	// state (its own keys — they were circulated during the protocol) and
	// submits the flipped result with no tower alive anywhere.
	recs, err := fedSt.Replay()
	if err != nil {
		t.Fatal(err)
	}
	fs := foldFederation(recs)
	if len(fs.guards) != 1 {
		t.Fatalf("journal folds to %d guards, want 1", len(fs.guards))
	}
	var g *guardExport
	for _, gg := range fs.guards {
		g = gg
	}
	split, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
	if err != nil {
		t.Fatal(err)
	}
	partyKeys, err := hybrid.PartyKeys(g.Scalars)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := hybrid.RebuildSession(split, partyKeys, c, net, context.Background(), g.Contract, g.CopyEnc)
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
	if r, err := sess.SubmitResult(len(sess.Parties)-1, lie); err != nil || !r.Succeeded() {
		t.Fatalf("adversary's submission did not land: %v", err)
	}

	// Restart the tower process on the same journal.
	fedSt.Close()
	fedSt2, err := store.Open(fedSt.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fedSt2.Close()
	requireNoCursor(t, recs)
	scfg2 := fedConfig(c, net, keys[1], members)
	scfg2.Store = fedSt2
	s1b, err := Join(scfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s1b.Stop()

	waitUntil(t, 20*time.Second, "the re-armed tower's dispute", func() bool {
		addr := g.Contract
		return len(c.FilterLogs(chain.FilterQuery{Address: &addr, Topic: &hybrid.TopicDisputeResolved})) > 0
	})
	ec := countEvents(c)
	if ec.opened[g.Contract] != 1 || ec.resolved[g.Contract] != 1 || ec.finalized[g.Contract] != 0 {
		t.Fatalf("contract %s: opened=%d resolved=%d finalized=%d, want exactly one enforced dispute",
			g.Contract.Hex(), ec.opened[g.Contract], ec.resolved[g.Contract], ec.finalized[g.Contract])
	}
	// The log is on chain as soon as the dispute's block is sealed; the
	// filing tower reads the settled flag and counts its win only after.
	waitUntil(t, 10*time.Second, "the re-armed tower to count its win", func() bool {
		return s1b.Metrics().DisputesWon == 1
	})
	if m := s1b.Metrics(); m.DisputesFiled != 1 || m.DisputesWon != 1 {
		t.Errorf("re-armed tower filed/won %d/%d disputes, want 1/1", m.DisputesFiled, m.DisputesWon)
	}
}

// TestAttachHubAfterRecoverKeepsOwnWatches: a hub member restarts on its
// WAL and its federation journal. AttachHub must export the recovered hub's
// sessions to the fleet and leave its own watches in place: the journal's
// copy of an own guard finds the contract already guarded, and is not
// adopted as a standalone watch that replaces the hub's (which would then
// stop receiving its events). Block production pauses
// across Recover and AttachHub, so the resumed session cannot settle (and
// leave the guard set) before the attach looks at it.
func TestAttachHubAfterRecoverKeepsOwnWatches(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "batch")
	keys, members := memberKeys(t, 2)
	hubDir, fedDir := t.TempDir(), t.TempDir()
	st, err := store.Open(hubDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fst, err := store.Open(fedDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var h *hub.Hub
	h = hub.New(c, net, faucetKey, hub.Config{Workers: 1, Store: st, StageHook: func(sid uint64, s hub.Stage) bool {
		if s == hub.StageSubmitted {
			h.Kill()
		}
		return !h.Crashed()
	}})
	cfg := fedConfig(c, net, keys[0], members)
	cfg.Store = fst
	ht, err := AttachHub(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := hub.BettingSpec(4, 600, false)
	if rep := h.Submit(spec).Report(); !errors.Is(rep.Err, hub.ErrCrashed) {
		t.Fatalf("session should have crashed at submitted, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	h.Stop()
	ht.Kill()
	ht.Stop()
	st.Close()
	fst.Close()

	c.StopMining()
	st2, err := store.Open(hubDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	fst2, err := store.Open(fedDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fst2.Close()
	h2, rec, err := hub.Recover(st2, c, net, faucetKey, hub.Config{Workers: 1}, hub.NewSpecRegistry(spec))
	if err != nil {
		t.Fatal(err)
	}
	resumed := rec.Resumed()
	if len(resumed) != 1 {
		t.Fatalf("%d sessions resumed, want 1", len(resumed))
	}
	cfg2 := fedConfig(c, net, keys[0], members)
	cfg2.Store = fst2
	ht2, err := AttachHub(h2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if ws := h2.Watchtower().Watches(); len(ws) != 1 || ws[0].SID() != resumed[0].ID {
		for _, w := range ws {
			t.Logf("watch %s: SID %d", w.Contract().Hex(), w.SID())
		}
		t.Errorf("recovered hub guards %d contracts, want its own session %d under its own watch", len(ws), resumed[0].ID)
	}
	if m := ht2.Metrics(); m.GuardsAdopted != 0 || m.GuardsExported != 1 {
		t.Errorf("after the attach: adopted %d, exported %d guards, want 0 and 1", m.GuardsAdopted, m.GuardsExported)
	}

	if err := c.StartMining(500*time.Microsecond, 64); err != nil {
		t.Fatal(err)
	}
	if rep := resumed[0].Report(); rep.Err != nil || rep.Stage != hub.StageSettled {
		t.Errorf("resumed session: stage=%s err=%v, want settled", rep.Stage, rep.Err)
	}
	h2.Stop()
	ht2.Stop()
}

// TestFederationPartition: the gossip network splits so the two surviving
// towers cannot hear each other. The full-member escalation slots keep
// their filings time-staggered, and the chain's settled veto stops the
// second filing: the dispute still lands exactly once.
func TestFederationPartition(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "auto")
	keys, members := memberKeys(t, 3)

	var h *hub.Hub
	var killOnce sync.Once
	h = hub.New(c, net, faucetKey, hub.Config{Workers: 2, StageHook: func(sid uint64, s hub.Stage) bool {
		switch s {
		case hub.StageExecuted:
			// The owner's tower is dead when the lie lands; under AutoMine
			// the submission is mined before the next hook runs.
			h.Watchtower().Halt()
		case hub.StageSubmitted:
			killOnce.Do(h.Kill)
		}
		return !h.Crashed()
	}})
	hubTower, err := AttachHub(h, fedConfig(c, net, keys[0], members))
	if err != nil {
		t.Fatal(err)
	}
	// Wide escalation slots: the stagger must dwarf scheduling noise so
	// the test pins "second filer hits the settled veto", not a race.
	mk := func(key *secp256k1.PrivateKey) Config {
		cfg := fedConfig(c, net, key, members)
		cfg.EscalateAfter = 1500 * time.Millisecond
		return cfg
	}
	s1, err := Join(mk(keys[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Stop()
	s2, err := Join(mk(keys[2]))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()

	spec := hub.BettingSpec(4, 600, true)
	rep := h.Submit(spec).Report()
	if !errors.Is(rep.Err, hub.ErrCrashed) {
		t.Fatalf("session should have crashed at submitted, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	h.Stop()
	hubTower.Kill()
	hubTower.Stop()
	contract := submittedContract(t, c)

	// Sever the two survivors from each other (the hub member is dead
	// anyway): a full gossip partition.
	a1, a2 := s1.Self(), s2.Self()
	net.SetLinkFilter(func(from, to types.Address) bool {
		return !(from == a1 && to == a2) && !(from == a2 && to == a1)
	})
	defer net.SetLinkFilter(nil)

	waitUntil(t, 30*time.Second, "the dispute", func() bool {
		return len(c.FilterLogs(chain.FilterQuery{Address: &contract, Topic: &hybrid.TopicDisputeResolved})) > 0
	})
	// Both towers' slots are distinct members of the full ranking, so the
	// later one must observe the earlier one's settlement. Once each tower
	// has processed the dispute's block and decided every window it opened,
	// the later slot has stood down.
	for _, tw := range []*Tower{s1, s2} {
		tw.Watchtower().WaitCaughtUp(c.Height())
	}
	slots := []int{s1.Slot(contract), s2.Slot(contract)}
	ec := countEvents(c)
	if ec.opened[contract] != 1 || ec.resolved[contract] != 1 {
		t.Fatalf("partitioned fleet: opened=%d resolved=%d, want exactly one dispute", ec.opened[contract], ec.resolved[contract])
	}
	m1, m2 := s1.Metrics(), s2.Metrics()
	if m1.DisputesFiled+m2.DisputesFiled != 1 {
		t.Errorf("partitioned towers filed %d+%d disputes, want exactly one", m1.DisputesFiled, m2.DisputesFiled)
	}
	t.Logf("partition: slots s1=%d s2=%d, filings s1=%d s2=%d, escalations s1=%d s2=%d",
		slots[0], slots[1], m1.DisputesFiled, m2.DisputesFiled, m1.Escalations, m2.Escalations)
}

// TestFederationSlowBlockEnforcesOnce pins the backstop behind the slot
// stagger: blocks come far slower than the stagger, so every tower's slot
// comes up before slot 0's filing is mined, and any tower may file behind it.
// The chain still enforces exactly once — one DisputeResolved, no
// finalization, one win fleet-wide — and every other filing reports that it
// enforced nothing: its transactions revert against the settled flag.
func TestFederationSlowBlockEnforcesOnce(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "batch")
	keys, members := memberKeys(t, 3)
	const escalateAfter, blockEvery = 100 * time.Millisecond, time.Second

	var h *hub.Hub
	var slowed sync.Once
	h = hub.New(c, net, faucetKey, hub.Config{Workers: 1, StageHook: func(sid uint64, s hub.Stage) bool {
		if s == hub.StageExecuted {
			// From the submission on, a block takes ten slot widths.
			slowed.Do(func() {
				c.StopMining()
				if err := c.StartMining(blockEvery, 64); err != nil {
					t.Errorf("slow mining: %v", err)
				}
			})
		}
		return true
	}})
	mk := func(key *secp256k1.PrivateKey) Config {
		cfg := fedConfig(c, net, key, members)
		cfg.EscalateAfter = escalateAfter
		return cfg
	}
	towers := make([]*Tower, len(keys))
	var err error
	if towers[0], err = AttachHub(h, mk(keys[0])); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(keys); i++ {
		if towers[i], err = Join(mk(keys[i])); err != nil {
			t.Fatal(err)
		}
	}

	rep := h.Submit(hub.BettingSpec(4, 600, true)).Report()
	if rep.Err != nil {
		t.Fatalf("session failed: %v", rep.Err)
	}
	if rep.Stage != hub.StageResolved || !rep.Disputed {
		t.Errorf("stage=%s disputed=%v, want a resolved dispute", rep.Stage, rep.Disputed)
	}
	contract := rep.OnChainAddr
	waitUntil(t, 10*time.Second, "every tower to adopt the guard", func() bool {
		return towers[1].Metrics().GuardsAdopted == 1 && towers[2].Metrics().GuardsAdopted == 1
	})
	// A filing stays pending until its receipts are read, so once every
	// tower has decided every window it opened, every filing is counted.
	for _, tw := range towers {
		tw.Watchtower().WaitCaughtUp(c.Height())
	}
	h.Stop()
	var filed, won uint64
	for _, tw := range towers {
		m := tw.Metrics()
		filed += m.DisputesFiled
		won += m.DisputesWon
		tw.Stop()
	}

	ec := countEvents(c)
	if ec.opened[contract] != 1 || ec.resolved[contract] != 1 || ec.finalized[contract] != 0 {
		t.Errorf("contract %s: opened=%d resolved=%d finalized=%d, want exactly one enforced dispute",
			contract.Hex(), ec.opened[contract], ec.resolved[contract], ec.finalized[contract])
	}
	if won != 1 || filed < 1 {
		t.Errorf("fleet filed %d disputes and won %d, want one win; every other filing enforces nothing", filed, won)
	}
	t.Logf("slow blocks: %d filings, %d won", filed, won)
}

// stalledGuard runs one honest session on a hub outside the fleet, killed
// once the signed copy exists and before anything is submitted, and returns
// the session's guard state: a record any member can adopt, whose contract
// opens no window.
func stalledGuard(t *testing.T, c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey) *guardExport {
	t.Helper()
	var h *hub.Hub
	h = hub.New(c, net, faucetKey, hub.Config{Workers: 1, StageHook: func(sid uint64, s hub.Stage) bool {
		if s == hub.StageExecuted {
			h.Kill()
		}
		return !h.Crashed()
	}})
	defer h.Stop()
	if rep := h.Submit(hub.BettingSpec(4, 600, false)).Report(); !errors.Is(rep.Err, hub.ErrCrashed) {
		t.Fatalf("session should crash at executed, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	ws := h.Watchtower().Watches()
	if len(ws) != 1 {
		t.Fatalf("hub guards %d contracts, want 1", len(ws))
	}
	return exportOf(ws[0])
}

// TestSignedGossip: every envelope is signed, and a tower drops one whose
// signature does not bind it to the member it claims to be. Two envelopes
// claiming member 2 — one unsigned, one signed by an outsider who holds the
// group key — are dropped and counted on both towers; a guard a member posts
// signed is then adopted.
func TestSignedGossip(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "auto")
	keys, members := memberKeys(t, 3)
	g := stalledGuard(t, c, net, faucetKey)
	s0, err := Join(fedConfig(c, net, keys[0], members))
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Stop()
	s1, err := Join(fedConfig(c, net, keys[1], members))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Stop()

	topic := whisper.TopicFromString(fleetLabel)
	symKey := whisper.SharedTopicKey(fleetLabel, members)
	sealed, err := whisper.Encrypt(symKey, guardRecord(g).Encode())
	if err != nil {
		t.Fatal(err)
	}
	unsigned := &whisper.Envelope{Topic: topic, Payload: sealed, From: members[2]}
	outsiderKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x0075_1DE7))
	if err != nil {
		t.Fatal(err)
	}
	// Posted on a network of its own, so only the handlers below see it.
	forged, err := whisper.NewNetwork(nil).NewNode(outsiderKey).Post(topic, guardRecord(g).Encode(), whisper.PostOptions{Key: symKey})
	if err != nil {
		t.Fatal(err)
	}
	forged.From = members[2]
	for _, s := range []*Tower{s0, s1} {
		s.handleEnvelope(unsigned)
		s.handleEnvelope(forged)
	}
	if m0, m1 := s0.Metrics(), s1.Metrics(); m0.SigRejected != 2 || m1.SigRejected != 2 {
		t.Fatalf("towers dropped %d/%d envelopes for their signatures, want 2/2", m0.SigRejected, m1.SigRejected)
	}

	// s0 gossips the same guard signed; s1 authenticates and adopts it.
	s0.post(guardRecord(g), g.Trace)
	waitUntil(t, 10*time.Second, "the signed guard adopted", func() bool {
		return s1.Metrics().GuardsAdopted == 1
	})
	m0, m1 := s0.Metrics(), s1.Metrics()
	if m0.GuardsAdopted != 0 {
		t.Errorf("a rejected guard was adopted by s0")
	}
	if m0.SigRejected != 2 || m1.SigRejected != 2 {
		t.Errorf("well-signed gossip rejected: %d/%d envelopes dropped, want only the two forgeries",
			m0.SigRejected, m1.SigRejected)
	}
}

// TestFederationRollupFleet runs batched settlement under federation
// guard: the hub member hosts the sequencer, and every tower — the hub's
// own plus two standalone backups — is armed on the same rollup registry
// and epoch source. Honest sessions roll up with ZERO per-session
// transactions; each fraudulent leaf is opened against the posted root
// and disputed exactly once fleet-wide. Every tower ends every guard — a
// settled contract's, and an honest leaf's once its sandbox finds the batch
// window clean — and a standalone tower's journal folds to no open guard.
// The per-session legs run the same fleet without the rollup: there every
// guard ends on a settlement log, so the journal holds exactly one guard
// record per contract, however often the owner re-posted it.
func TestFederationRollupFleet(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) { fedRollupRun(t, mode, true) })
	}
	for _, mode := range miningModes {
		mode := mode
		t.Run("per-session,mining="+mode, func(t *testing.T) { fedRollupRun(t, mode, false) })
	}
}

func fedRollupRun(t *testing.T, mode string, rolled bool) {
	c, net, faucetKey := fedWorld(t, mode)
	keys, members := memberKeys(t, 3)

	hcfg, honestStage := hub.Config{Workers: 4}, hub.StageSettled
	if rolled {
		hcfg.Rollup = &hub.RollupConfig{Depth: 4, EpochAge: 60 * time.Millisecond}
		honestStage = hub.StageRolledUp
	}
	h := hub.New(c, net, faucetKey, hcfg)
	rsrc := h.RollupHandles()
	if rolled != (rsrc != nil) {
		t.Fatalf("rollup hub exposes handles %v, want %v", rsrc != nil, rolled)
	}
	mk := func(k *secp256k1.PrivateKey) Config {
		cfg := fedConfig(c, net, k, members)
		cfg.Rollup = rsrc
		return cfg
	}
	if rolled {
		if _, err := AttachHub(h, mk(keys[0])); err == nil {
			t.Fatal("AttachHub accepted a Rollup for a hub whose tower guards its own batches")
		}
	}
	hubTower, err := AttachHub(h, fedConfig(c, net, keys[0], members))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s1cfg := mk(keys[1])
	s1cfg.Store = st
	s1, err := Join(s1cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Join(mk(keys[2]))
	if err != nil {
		t.Fatal(err)
	}

	specs := []*hub.Spec{
		hub.BettingSpec(4, 600, false),
		hub.BettingSpec(4, 600, true),
		hub.PoolSpec(3, 600, false),
		hub.BettingSpec(4, 600, false),
		hub.PoolSpec(3, 600, true),
		hub.AuctionSpec(600, false),
	}
	adversarial := 0
	for _, s := range specs {
		if s.Adversarial {
			adversarial++
		}
	}
	reports := h.Run(specs)
	for i, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("session %d (%s) failed: %v", i, rep.Scenario, rep.Err)
		}
		if specs[i].Adversarial {
			if rep.Stage != hub.StageResolved || !rep.Disputed {
				t.Errorf("session %d (%s): stage=%s disputed=%v, want a resolved dispute", i, rep.Scenario, rep.Stage, rep.Disputed)
			}
		} else if rep.Stage != honestStage || rep.Disputed {
			t.Errorf("session %d (%s): stage=%s disputed=%v, want %s", i, rep.Scenario, rep.Stage, rep.Disputed, honestStage)
		}
	}
	towers := []*Tower{hubTower, s1, s2}
	// A Join tower that has not yet read a session's guard export also
	// guards nothing: wait for every adoption before the guards end.
	waitUntil(t, 10*time.Second, "every Join tower to adopt every guard and every tower to end it", func() bool {
		for _, tw := range []*Tower{s1, s2} {
			if int(tw.Metrics().GuardsAdopted) < len(specs) {
				return false
			}
		}
		for _, tw := range towers {
			if tw.Metrics().Guards != 0 || tw.Watchtower().OpenWindows() != 0 {
				return false
			}
		}
		return true
	})
	h.Stop()
	for _, tw := range towers {
		tw.Stop()
	}
	recs, err := st.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if fs := foldFederation(recs); len(fs.guards) != 0 {
		t.Errorf("standalone tower's journal folds to %d open guards, want 0", len(fs.guards))
	}
	if !rolled {
		guardRecs := map[types.Address]int{}
		for _, rec := range recs {
			if rec.Kind != store.KindFedGuard {
				continue
			}
			if g, err := decodeGuardRecord(rec); err == nil {
				guardRecs[g.Contract]++
			}
		}
		for _, rep := range reports {
			if n := guardRecs[rep.OnChainAddr]; n != 1 {
				t.Errorf("contract %s: %d guard records in the standalone tower's journal, want 1", rep.OnChainAddr.Hex(), n)
			}
		}
		if len(guardRecs) != len(reports) {
			t.Errorf("journal holds guards for %d contracts, want %d", len(guardRecs), len(reports))
		}
	}

	// Chain truth. Rolled up, no session contract ever saw a submit or
	// finalize — settlement commits are epoch posts; per session, every
	// honest contract finalized. Every lie was enforced exactly once
	// despite three towers guarding the same sessions.
	ec := countEvents(c)
	for i, rep := range reports {
		addr := rep.OnChainAddr
		if !rolled {
			if !specs[i].Adversarial && ec.finalized[addr] != 1 {
				t.Errorf("honest contract %s: finalized=%d, want 1", addr.Hex(), ec.finalized[addr])
			}
		} else if ec.submitted[addr] != 0 || ec.finalized[addr] != 0 {
			t.Errorf("contract %s: submitted=%d finalized=%d, want 0/0 in rollup mode",
				addr.Hex(), ec.submitted[addr], ec.finalized[addr])
		}
		if specs[i].Adversarial {
			if ec.resolved[addr] != 1 {
				t.Errorf("adversarial contract %s: resolved=%d, want exactly 1", addr.Hex(), ec.resolved[addr])
			}
		} else if ec.opened[addr] != 0 || ec.resolved[addr] != 0 {
			t.Errorf("honest contract %s: opened=%d resolved=%d, want 0/0", addr.Hex(), ec.opened[addr], ec.resolved[addr])
		}
	}
	if rolled {
		posted, leavesOpened := 0, 0
		for _, l := range c.FilterLogs(chain.FilterQuery{}) {
			if len(l.Topics) == 0 {
				continue
			}
			switch l.Topics[0] {
			case rollup.TopicEpochPosted:
				posted++
			case rollup.TopicLeafOpened:
				leavesOpened++
			}
		}
		if posted == 0 || posted >= len(specs) {
			t.Errorf("epoch posts = %d for %d sessions, want batching in [1, %d)", posted, len(specs), len(specs))
		}
		if leavesOpened != adversarial {
			t.Errorf("leaves opened on chain = %d, adversarial sessions = %d", leavesOpened, adversarial)
		}
	}
	m0, m1, m2 := hubTower.Metrics(), s1.Metrics(), s2.Metrics()
	filed := m0.DisputesFiled + m1.DisputesFiled + m2.DisputesFiled
	if int(filed) != adversarial {
		t.Errorf("fleet filed %d disputes (hub %d, s1 %d, s2 %d), want %d",
			filed, m0.DisputesFiled, m1.DisputesFiled, m2.DisputesFiled, adversarial)
	}
}

// TestHostileGossip: a holder of the group key posts bytes no member would.
// Every record is dropped at the decoder that owns its kind — no panic, no
// guard adopted, nothing journaled — and the receiver goes on reading: a
// real session's guard posted after them all is adopted. A well-formed
// window or intent record is ignored too: windows come only from the chain,
// and no peer's word times a filing, so either opens nothing.
func TestHostileGossip(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "auto")
	keys, members := memberKeys(t, 2)
	barrier := stalledGuard(t, c, net, faucetKey)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var mu sync.Mutex
	var logged []string
	cfg := fedConfig(c, net, keys[0], members)
	cfg.Store = st
	cfg.Logf = func(format string, args ...interface{}) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s0, err := Join(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Stop()

	rogue := net.NewNode(keys[1])
	topic := whisper.TopicFromString(fleetLabel)
	symKey := whisper.SharedTopicKey(fleetLabel, members)
	post := func(payload []byte) {
		t.Helper()
		if _, err := rogue.Post(topic, payload, whisper.PostOptions{Key: symKey}); err != nil {
			t.Fatal(err)
		}
	}

	contract := addrN(0xC0)
	scalar := func(b byte) []byte { s := make([]byte, 32); s[31] = b; return s }
	goodGuard := func() *store.Record {
		return guardRecord(&guardExport{
			SID: 1, Scenario: hub.BettingSpec(4, 600, true).Scenario, Contract: contract,
			CopyEnc: []byte{0xc0}, Scalars: [][]byte{scalar(1), scalar(2)},
		})
	}
	twoBlobs := goodGuard()
	twoBlobs.Blobs = twoBlobs.Blobs[:2]
	shortContract := goodGuard()
	shortContract.Blobs[0] = contract[:19]
	badScalar := goodGuard()
	badScalar.Blobs[2] = bytes.Repeat([]byte{0xff}, 32) // ≥ the group order
	window := &store.Record{Kind: store.KindFedWindow, U1: 1, U2: 10, U3: 610, Blob: contract[:],
		Blobs: [][]byte{contract[:], binary.BigEndian.AppendUint64(nil, 1)}}

	hostile := map[string][]byte{
		"random bytes":           {0xde, 0xad, 0xbe, 0xef, 0x00, 0xc1},
		"hub-kind record":        (&store.Record{Kind: store.KindAccepted, SID: 7, Str: "betting/honest"}).Encode(),
		"guard, two blobs":       twoBlobs.Encode(),
		"guard, 19-byte address": shortContract.Encode(),
		"guard, scalar ≥ order":  badScalar.Encode(),
		"window, with a verdict": window.Encode(),
		"intent":                 (&store.Record{Kind: store.KindFedIntent, Blob: contract[:]}).Encode(),
	}
	for _, payload := range hostile {
		post(payload)
	}
	// Delivery is ordered and so is adoption: once the barrier's guard is
	// adopted, every hostile record before it has been handled.
	post(guardRecord(barrier).Encode())
	waitUntil(t, 10*time.Second, "the guard behind the hostile records", func() bool {
		return s0.Metrics().GuardsAdopted == 1
	})
	// The one hostile guard that decodes (bad scalar) is refused by the
	// session rebuild.
	mu.Lock()
	refused := false
	for _, l := range logged {
		if strings.Contains(l, "cannot adopt guard") && strings.Contains(l, "scalar") {
			refused = true
		}
	}
	mu.Unlock()
	if !refused {
		t.Error("the adopter did not refuse the bad scalar")
	}
	if m := s0.Metrics(); m.GuardsAdopted != 1 || m.Guards != 1 {
		t.Errorf("hostile gossip adopted a guard: adopted=%d guards=%d, want only the barrier's", m.GuardsAdopted, m.Guards)
	}
	w := s0.Watchtower()
	if got := w.Watches(); len(got) != 1 || got[0].Contract() != barrier.Contract {
		t.Errorf("tower guards %d contracts after hostile gossip, want only the barrier's", len(got))
	}
	if open, pending := w.OpenWindows(), w.PendingDisputes(); open != 0 || pending != 0 {
		t.Errorf("hostile gossip opened %d windows (%d pending), want none", open, pending)
	}
	recs, err := st.Replay()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if g, err := decodeGuardRecord(rec); err != nil || g.Contract != barrier.Contract {
			t.Errorf("hostile gossip was journaled: %s record", rec.Kind)
		}
	}
}

// TestRearmReplaysFromTheIndex: a restarted member with one journaled guard
// re-arms it and replays that contract's chain history with an index-served
// query — the full-scan path, which walks every receipt of every block,
// stays cold — and journals no block cursor. Its journal may still carry
// the member and intent records older towers wrote.
func TestRearmReplaysFromTheIndex(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "auto")
	keys, members := memberKeys(t, 2)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var h *hub.Hub
	h = hub.New(c, net, faucetKey, hub.Config{Workers: 1, StageHook: func(sid uint64, s hub.Stage) bool {
		if s == hub.StageExecuted {
			h.Kill()
		}
		return !h.Crashed()
	}})
	hubTower, err := AttachHub(h, fedConfig(c, net, keys[0], members))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fedConfig(c, net, keys[1], members)
	cfg.Store = st
	s, err := Join(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := h.Submit(hub.BettingSpec(4, 600, false)).Report(); !errors.Is(rep.Err, hub.ErrCrashed) {
		t.Fatalf("session should crash at executed, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	waitUntil(t, 10*time.Second, "the member to adopt the guard", func() bool { return s.Metrics().Guards == 1 })
	h.Stop()
	hubTower.Kill()
	hubTower.Stop()
	s.Kill()
	s.Stop()
	to := addrN(0xEE)
	for _, rec := range []*store.Record{
		{Kind: store.KindFedMember, Blob: members[1][:]},
		{Kind: store.KindFedIntent, U1: 1234, Blob: to[:], Blobs: [][]byte{members[1][:]}},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// A block the dead member never saw.
	if r, err := hybrid.NewParticipant(faucetKey, c, nil).SendTx(&to, uint256.NewInt(1), 21_000, nil); err != nil || !r.Succeeded() {
		t.Fatalf("transfer did not land: %v", err)
	}

	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	scanned, indexed := c.LogScanStats()
	cfg2 := fedConfig(c, net, keys[1], members)
	cfg2.Store = st2
	s2, err := Join(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if m := s2.Metrics(); m.Guards != 1 {
		t.Fatalf("re-armed %d guards, want the journaled one", m.Guards)
	}
	scanned2, indexed2 := c.LogScanStats()
	if scanned2 != scanned {
		t.Errorf("re-arm walked %d blocks in the full-scan path, want 0", scanned2-scanned)
	}
	if indexed2 == indexed {
		t.Error("re-arm ran no indexed replay")
	}
	recs, err := st2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	requireNoCursor(t, recs)
}

// requireNoCursor: a tower journals no block cursor; the chain is its only
// record of what it has seen.
func requireNoCursor(t *testing.T, recs []*store.Record) {
	t.Helper()
	for _, rec := range recs {
		if rec.Kind == store.KindCursor {
			t.Fatalf("journal holds a block cursor (%d)", rec.U1)
		}
	}
}
