package federation

import (
	"bytes"
	"context"
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
		Registry:       fedRegistry(),
		HeartbeatEvery: 20 * time.Millisecond, HeartbeatMisses: 3,
		EscalateAfter: 250 * time.Millisecond,
		// Generous intent grace: under -race a filer's verify+file can be
		// slow, and a backup must keep deferring on the fresh intent
		// rather than racing the in-flight transactions.
		IntentGrace: 3 * time.Second,
		VouchWait:   30 * time.Millisecond,
		Logf:        func(string, ...interface{}) {},
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
// honest windows ride the owner's vouch (no redundant filing), and the
// sum of per-tower filings equals the adversary count.
func TestFederationFleet(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) { fedFleetRun(t, mode) })
	}
}

func fedFleetRun(t *testing.T, mode string) {
	c, net, faucetKey := fedWorld(t, mode)
	keys, members := memberKeys(t, 3)

	// A backup honors the owner's vouch when it decides on a window it
	// already holds the owner's gossip for. An honest window is open only
	// for the few milliseconds until its owner finalizes, and a backup that
	// heard the chain before the gossip looks again only after VouchWait (or
	// its escalation slot) — so whether ANY vouch is honored used to be a
	// race the test usually won. The first honest sessions to submit now
	// hold their windows open until some backup has honored one (bounded, so
	// a fleet that never vouches still fails the assertion below, not here).
	var s1, s2 *Tower
	honest := func(sid uint64) bool { return sid != 2 && sid != 5 && sid != 6 } // Run issues IDs in spec order
	h := hub.New(c, net, faucetKey, hub.Config{Workers: 4, StageHook: func(sid uint64, s hub.Stage) bool {
		if s == hub.StageSubmitted && honest(sid) {
			for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if s1.Metrics().VouchesHonored+s2.Metrics().VouchesHonored > 0 {
					break
				}
			}
		}
		return true
	}})
	hubTower, err := AttachHub(h, fedConfig(c, net, keys[0], members))
	if err != nil {
		t.Fatal(err)
	}
	if s1, err = Join(fedConfig(c, net, keys[1], members)); err != nil {
		t.Fatal(err)
	}
	if s2, err = Join(fedConfig(c, net, keys[2], members)); err != nil {
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
	// Adoption runs on each backup's own goroutine; on a loaded host the
	// last session can finish before its guard export has been rebuilt there.
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
	if m1.VouchesHonored+m2.VouchesHonored == 0 {
		t.Error("no vouches honored: backups re-verified every honest window")
	}
	if hm.IllegalTransitions != 0 {
		t.Errorf("hub took %d illegal transitions", hm.IllegalTransitions)
	}
	t.Logf("fleet: %d sessions (%d adversarial), filings hub=%d s1=%d s2=%d, vouches=%d/%d, deferrals=%d",
		len(specs), adversarial, m0.DisputesFiled, m1.DisputesFiled, m2.DisputesFiled,
		m1.VouchesHonored, m2.VouchesHonored, hm.DisputesDeferred)
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
	// chain subscription), wait out its escalation slot, and dispute.
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
	// files as primary with no escalation.
	if slotOf(members, contract, members[0]) == 0 && m1.Escalations+m2.Escalations == 0 {
		t.Error("the dead hub was the primary; the filing backup should have recorded an escalation")
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

// TestFederationStandaloneRecovery: a standalone tower crashes while
// guarding; the hub is also dead; an adversary pushes a lie while NOBODY
// is alive. A new tower incarnation re-arms from the journal, replays the
// chain events it slept through (Watchtower.CatchUp), and disputes — the
// fraud-while-hub-down property, carried by the federation's own
// durability.
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
	sess, err := hybrid.RebuildSession(split, g.Scalars, c, net, context.Background(), g.Contract, g.CopyEnc)
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
	fraudBlock := c.Height()

	// Restart the tower process on the same journal.
	fedSt.Close()
	fedSt2, err := store.Open(fedSt.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fedSt2.Close()
	if fs.cursor >= fraudBlock {
		t.Fatalf("durable cursor %d should predate the fraud block %d", fs.cursor, fraudBlock)
	}
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

// TestFederationPartition: the gossip network splits so the two surviving
// towers each believe the other is dead — both believe they are the live
// primary for the fraudulent contract. The full-member escalation slots
// keep their filings time-staggered, and the chain's settled veto stops
// the second filing: the dispute still lands exactly once.
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

	// Heartbeats lapse: each survivor must come to believe it is the
	// contract's primary.
	waitUntil(t, 10*time.Second, "both towers believing they are primary", func() bool {
		return s1.Primary(contract) == a1 && s2.Primary(contract) == a2
	})

	waitUntil(t, 30*time.Second, "the dispute", func() bool {
		return len(c.FilterLogs(chain.FilterQuery{Address: &contract, Topic: &hybrid.TopicDisputeResolved})) > 0
	})
	// Give the slower slot time to run into the settled veto, then check
	// exactly-once. Both towers' slots are distinct members of the full
	// ranking, so the later one must observe the earlier one's settlement.
	slots := []int{s1.Slot(contract), s2.Slot(contract)}
	maxSlot := slots[0]
	if slots[1] > maxSlot {
		maxSlot = slots[1]
	}
	time.Sleep(time.Duration(maxSlot)*1500*time.Millisecond + 500*time.Millisecond)
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

// TestFederationDropWarning: a subscriber that stops draining makes the
// whisper network drop envelopes; the heartbeat loop must notice and log
// a warning (lost heartbeats are otherwise undiagnosable).
func TestFederationDropWarning(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "auto")
	_ = faucetKey
	keys, members := memberKeys(t, 2)

	var mu sync.Mutex
	var warnings []string
	cfg := fedConfig(c, net, keys[0], members)
	cfg.HeartbeatEvery = 2 * time.Millisecond
	cfg.Logf = func(format string, args ...interface{}) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s1, err := Join(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Stop()

	// A stuck peer: subscribed to the federation topic, never draining.
	stuck := net.NewNode(keys[1])
	_ = stuck.Subscribe(whisper.TopicFromString("federation/guard"))

	waitUntil(t, 20*time.Second, "a gossip drop warning", func() bool {
		return s1.Metrics().DropWarnings > 0
	})
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "dropped") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no drop warning logged; got %q", warnings)
	}
}

// TestSignedGossip: with Config.SignGossip the fleet signs every envelope
// and still functions (heartbeats authenticate per-sender), while a
// member that skips the signing discipline — an impersonation stand-in,
// since only per-envelope signatures bind gossip to the claimed sender —
// is dropped and counted.
func TestSignedGossip(t *testing.T) {
	c, net, _ := fedWorld(t, "auto")
	keys, members := memberKeys(t, 3)

	mk := func(key *secp256k1.PrivateKey) Config {
		cfg := fedConfig(c, net, key, members)
		cfg.SignGossip = true
		return cfg
	}
	s0, err := Join(mk(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Stop()
	s1, err := Join(mk(keys[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Stop()

	// Signed heartbeats flow and authenticate: both towers see each other.
	waitUntil(t, 5*time.Second, "signed heartbeats exchanged", func() bool {
		return s0.Metrics().HeartbeatsSeen > 0 && s1.Metrics().HeartbeatsSeen > 0
	})
	if s0.Metrics().SigRejected != 0 || s1.Metrics().SigRejected != 0 {
		t.Fatalf("well-signed fleet rejected envelopes: %d/%d",
			s0.Metrics().SigRejected, s1.Metrics().SigRejected)
	}

	// A third member posts UNSIGNED gossip under the (valid) group key:
	// group-key possession alone must no longer pass.
	rogue := net.NewNode(keys[2])
	topic := whisper.TopicFromString("federation/guard")
	symKey := whisper.SharedTopicKey("federation/guard", members)
	beat := &store.Record{Kind: store.KindFedMember, Blob: members[2][:]}
	if _, err := rogue.Post(topic, beat.Encode(), whisper.PostOptions{Key: symKey, Unsigned: true}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "unsigned envelope rejected", func() bool {
		return s0.Metrics().SigRejected > 0 && s1.Metrics().SigRejected > 0
	})
}

// TestFederationRollupFleet runs batched settlement under federation
// guard: the hub member hosts the sequencer, and every tower — the hub's
// own plus two standalone backups — is armed on the same rollup registry
// and epoch source. Honest sessions roll up with ZERO per-session
// transactions; each fraudulent leaf is opened against the posted root
// and disputed exactly once fleet-wide.
func TestFederationRollupFleet(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) { fedRollupRun(t, mode) })
	}
}

func fedRollupRun(t *testing.T, mode string) {
	c, net, faucetKey := fedWorld(t, mode)
	keys, members := memberKeys(t, 3)

	h := hub.New(c, net, faucetKey, hub.Config{
		Workers: 4,
		Rollup:  &hub.RollupConfig{Depth: 4, EpochAge: 60 * time.Millisecond},
	})
	rreg, rsrc := h.RollupHandles()
	if rreg == nil || rsrc == nil {
		t.Fatal("rollup hub exposes no handles")
	}
	mk := func(k *secp256k1.PrivateKey) Config {
		cfg := fedConfig(c, net, k, members)
		cfg.RollupRegistry = rreg
		cfg.RollupSource = rsrc
		return cfg
	}
	hubTower, err := AttachHub(h, mk(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Join(mk(keys[1]))
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
		} else if rep.Stage != hub.StageRolledUp || rep.Disputed {
			t.Errorf("session %d (%s): stage=%s disputed=%v, want rolled-up", i, rep.Scenario, rep.Stage, rep.Disputed)
		}
	}
	h.Stop()
	hubTower.Stop()
	s1.Stop()
	s2.Stop()

	// Chain truth. No session contract ever saw a submit or finalize —
	// settlement commits are epoch posts — and every lie was enforced
	// exactly once despite three towers guarding the same batches.
	ec := countEvents(c)
	for i, rep := range reports {
		addr := rep.OnChainAddr
		if ec.submitted[addr] != 0 || ec.finalized[addr] != 0 {
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
	m0, m1, m2 := hubTower.Metrics(), s1.Metrics(), s2.Metrics()
	filed := m0.DisputesFiled + m1.DisputesFiled + m2.DisputesFiled
	if int(filed) != adversarial {
		t.Errorf("fleet filed %d disputes (hub %d, s1 %d, s2 %d), want %d",
			filed, m0.DisputesFiled, m1.DisputesFiled, m2.DisputesFiled, adversarial)
	}
}

// TestHostileGossip: a holder of the group key posts bytes no member would.
// Every record is dropped at the decoder that owns its kind — no panic, no
// guard adopted, no window or intent recorded — and the receiver goes on
// reading: the rogue's well-formed heartbeats keep arriving throughout.
func TestHostileGossip(t *testing.T) {
	c, net, _ := fedWorld(t, "auto")
	keys, members := memberKeys(t, 2)
	var mu sync.Mutex
	var logged []string
	cfg := fedConfig(c, net, keys[0], members)
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
		if _, err := rogue.Post(topic, payload, whisper.PostOptions{Key: symKey, Unsigned: true}); err != nil {
			t.Fatal(err)
		}
	}
	beat := (&store.Record{Kind: store.KindFedMember, Blob: members[1][:]}).Encode()
	beatSeen := func() {
		t.Helper()
		before := s0.Metrics().HeartbeatsSeen
		post(beat)
		waitUntil(t, 5*time.Second, "the heartbeat behind the hostile record", func() bool {
			return s0.Metrics().HeartbeatsSeen > before
		})
	}

	contract := addrN(0xC0)
	scalar := func(b byte) []byte { s := make([]byte, 32); s[31] = b; return s }
	goodGuard := func() *store.Record {
		return guardRecord(&guardExport{
			SID: 1, Scenario: hub.BettingSpec(4, 600, true).Scenario, Contract: contract,
			ChallengePeriod: 600, CopyEnc: []byte{0xc0}, Scalars: [][]byte{scalar(1), scalar(2)},
		})
	}
	twoBlobs := goodGuard()
	twoBlobs.Blobs = twoBlobs.Blobs[:2]
	shortContract := goodGuard()
	shortContract.Blobs[0] = contract[:19]
	honestOutOfRange := goodGuard()
	honestOutOfRange.U2 = 2
	badScalar := goodGuard()
	badScalar.Blobs[2] = bytes.Repeat([]byte{0xff}, 32) // ≥ the group order
	shortSubmitter := windowRecord(hub.Window{Contract: contract, Result: 1, OpenedAt: 10, Deadline: 610}, nil)
	shortSubmitter.Blobs[0] = shortSubmitter.Blobs[0][:7]

	hostile := map[string][]byte{
		"random bytes":            {0xde, 0xad, 0xbe, 0xef, 0x00, 0xc1},
		"hub-kind record":         (&store.Record{Kind: store.KindAccepted, SID: 7, Str: "betting/honest"}).Encode(),
		"guard, two blobs":        twoBlobs.Encode(),
		"guard, 19-byte address":  shortContract.Encode(),
		"guard, honest index":     honestOutOfRange.Encode(),
		"guard, scalar ≥ order":   badScalar.Encode(),
		"window, short submitter": shortSubmitter.Encode(),
		"intent, 3-byte blob":     (&store.Record{Kind: store.KindFedIntent, Blob: []byte{1, 2, 3}}).Encode(),
	}
	beatSeen()
	for _, payload := range hostile {
		post(payload)
		beatSeen() // delivery is ordered: the hostile record has been handled
	}
	// The one guard that decodes (bad scalar) is refused on the adopter's
	// own goroutine, by the session rebuild.
	waitUntil(t, 5*time.Second, "the adopter to refuse the bad scalar", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range logged {
			if strings.Contains(l, "cannot adopt guard") && strings.Contains(l, "scalar") {
				return true
			}
		}
		return false
	})
	m := s0.Metrics()
	if m.GuardsAdopted != 0 || m.Guards != 0 {
		t.Errorf("hostile gossip adopted a guard: adopted=%d guards=%d", m.GuardsAdopted, m.Guards)
	}
	if m.WindowsMirror != 0 || m.IntentsSeen != 0 {
		t.Errorf("hostile gossip was recorded: windows=%d intents=%d", m.WindowsMirror, m.IntentsSeen)
	}
	if got := s0.Watchtower().Watches(); len(got) != 0 {
		t.Errorf("tower guards %d contracts after hostile gossip, want none", len(got))
	}
}

// TestRearmReplaysFromTheIndex: a restarted tower catches up on the blocks
// it slept through with the subscription's own query — served from the
// chain's log index, not by walking every block's receipts — and its
// journal may still carry the member and intent records older towers
// wrote.
func TestRearmReplaysFromTheIndex(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "auto")
	keys, members := memberKeys(t, 1)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fedConfig(c, net, keys[0], members)
	cfg.Store = st
	s, err := Join(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Kill()
	s.Stop()
	to := addrN(0xEE)
	for _, rec := range []*store.Record{
		{Kind: store.KindFedMember, Blob: members[0][:]},
		{Kind: store.KindFedIntent, U1: 1234, Blob: to[:], Blobs: [][]byte{members[0][:]}},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// A block the dead tower never saw, so the outage range is not empty.
	if r, err := hybrid.NewParticipant(faucetKey, c, nil).SendTx(&to, uint256.NewInt(1), 21_000, nil); err != nil || !r.Succeeded() {
		t.Fatalf("transfer did not land: %v", err)
	}
	head := c.Height()

	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	scanned, indexed := c.LogScanStats()
	cfg2 := fedConfig(c, net, keys[0], members)
	cfg2.Store = st2
	s2, err := Join(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	scanned2, indexed2 := c.LogScanStats()
	if scanned2 != scanned {
		t.Errorf("re-arm walked %d blocks in the full-scan path, want 0", scanned2-scanned)
	}
	if indexed2 == indexed {
		t.Error("re-arm ran no indexed catch-up query")
	}
	recs, err := st2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if fs := foldFederation(recs); fs.cursor != head {
		t.Errorf("durable cursor %d after re-arm, want the replayed head %d", fs.cursor, head)
	}
}
