package hybrid_test

import (
	"testing"

	"onoffchain/internal/chain"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// specSession runs a hub spec's stages 1-3 by hand on an auto-mined chain —
// split, deploy, sign, the spec's deposits and the private run — and returns
// the session with the agreed outcome. The parties are the first
// split.Participants party keys, so sessions share them.
func specSession(t *testing.T, c *chain.Chain, net *whisper.Network, spec *hub.Spec) (*hybrid.Session, uint64) {
	t.Helper()
	split, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
	if err != nil {
		t.Fatal(err)
	}
	parties := make([]*hybrid.Participant, split.Participants)
	addrs := make([]types.Address, split.Participants)
	for i := range parties {
		parties[i] = hybrid.NewParticipant(partyKey(i), c, net)
		addrs[i] = parties[i].Addr
	}
	sess, err := hybrid.NewSession(split, parties)
	if err != nil {
		t.Fatal(err)
	}
	gas := spec.DeployGas
	if gas == 0 {
		gas = 3_000_000
	}
	args := spec.CtorArgs(addrs, c.Now())
	if _, err := sess.DeployOnChain(gas, args...); err != nil {
		t.Fatal(err)
	}
	if err := sess.SignAndExchange(args...); err != nil {
		t.Fatal(err)
	}
	if err := spec.Setup(sess); err != nil {
		t.Fatal(err)
	}
	out, err := sess.ExecuteOffChainAll()
	if err != nil {
		t.Fatal(err)
	}
	return sess, out.Result
}

// partyKey is the i-th fixed party key.
func partyKey(i int) *secp256k1.PrivateKey {
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x5E771E + uint64(i)))
	return key
}

// settlementWorld is an auto-mined chain whose first six party keys each
// hold 100 ether.
func settlementWorld() (*chain.Chain, *whisper.Network) {
	alloc := map[types.Address]*uint256.Int{}
	for i := 0; i < 6; i++ {
		alloc[types.Address(partyKey(i).EthereumAddress())] = new(uint256.Int).Mul(uint256.NewInt(100), uint256.NewInt(1e18))
	}
	c := chain.NewDefault(alloc)
	return c, whisper.NewNetwork(c.Now)
}

// mustRevert fails the test unless the transaction reached the chain and
// reverted.
func mustRevert(t *testing.T, what string, r *types.Receipt, err error) {
	t.Helper()
	if err != nil || r.Succeeded() {
		t.Fatalf("%s: err=%v, want a reverted receipt", what, err)
	}
}

// TestSettlementMatchesIsSettled: a contract with lifecycle events logs its
// settlement in the transaction that sets its settled flag, so
// hybrid.Settlement reads what the isSettled() eth_call reads, through every
// ending of each hub spec's contract — unsettled, a finalizeResult reverted
// inside the window, resolved by dispute, an escalated second filing
// reverted against the settled flag, finalized, and a finalizeResult
// reverted against the flag — and byDispute holds exactly when a
// DisputeResolved log exists. A contract without lifecycle events reads
// (false, false) whatever its flag says.
func TestSettlementMatchesIsSettled(t *testing.T) {
	for _, spec := range []*hub.Spec{
		hub.BettingSpec(4, 600, false),
		hub.PoolSpec(3, 600, false),
		hub.LotterySpec(3, 8, 600, false),
		hub.AuctionSpec(600, false),
	} {
		t.Run(spec.Scenario, func(t *testing.T) {
			c, net := settlementWorld()
			check := func(ending string, sess *hybrid.Session, wantSettled, wantDispute bool) {
				t.Helper()
				flag, err := sess.IsSettled()
				if err != nil {
					t.Fatalf("%s: isSettled: %v", ending, err)
				}
				settled, byDispute := hybrid.Settlement(c, sess.OnChainAddr)
				count := func(topic types.Hash) int {
					return len(c.FilterLogs(chain.FilterQuery{Address: &sess.OnChainAddr, Topic: &topic}))
				}
				resolved, finalized := count(hybrid.TopicDisputeResolved), count(hybrid.TopicResultFinalized)
				if settled != flag || byDispute != (resolved > 0) {
					t.Errorf("%s: Settlement=(%v, %v), isSettled=%v, DisputeResolved logs=%d", ending, settled, byDispute, flag, resolved)
				}
				wantLogs := 0
				if settled {
					wantLogs = 1
				}
				if resolved+finalized != wantLogs {
					t.Errorf("%s: %d settlement logs, want %d", ending, resolved+finalized, wantLogs)
				}
				if settled != wantSettled || byDispute != wantDispute {
					t.Errorf("%s: Settlement=(%v, %v), want (%v, %v)", ending, settled, byDispute, wantSettled, wantDispute)
				}
			}

			// The lie first: the honest session's clock jump closes every window.
			lied, truth := specSession(t, c, net, spec)
			check("deployed", lied, false, false)
			if r, err := lied.SubmitResult(len(lied.Parties)-1, truth+1); err != nil || !r.Succeeded() {
				t.Fatalf("lie did not land: %v", err)
			}
			check("submitted", lied, false, false)
			r, err := lied.FinalizeResult(0)
			mustRevert(t, "finalize inside the window", r, err)
			check("finalize reverted inside the window", lied, false, false)
			if _, _, err := lied.Dispute(0); err != nil {
				t.Fatalf("dispute: %v", err)
			}
			check("resolved by dispute", lied, true, true)
			if _, _, err := lied.Dispute(1); err == nil {
				t.Fatal("a second filing against a settled contract succeeded")
			}
			check("escalated filing reverted", lied, true, true)

			honest, truth := specSession(t, c, net, spec)
			if r, err := honest.SubmitResult(0, truth); err != nil || !r.Succeeded() {
				t.Fatalf("submission did not land: %v", err)
			}
			if err := c.AdvanceTime(spec.Policy.ChallengePeriod + 1); err != nil {
				t.Fatal(err)
			}
			if r, err := honest.FinalizeResult(0); err != nil || !r.Succeeded() {
				t.Fatalf("finalize: %v", err)
			}
			check("finalized", honest, true, false)
			r, err = honest.FinalizeResult(1)
			mustRevert(t, "second finalize", r, err)
			check("second finalize reverted", honest, true, false)
			r, err = lied.FinalizeResult(0)
			mustRevert(t, "finalize after the dispute", r, err)
			check("finalize reverted after the dispute", lied, true, true)
		})
	}

	t.Run("lifecycle events off", func(t *testing.T) {
		c, net := settlementWorld()
		spec := *hub.BettingSpec(4, 600, false)
		spec.Policy.LifecycleEvents = false
		sess, truth := specSession(t, c, net, &spec)
		if r, err := sess.SubmitResult(0, truth); err != nil || !r.Succeeded() {
			t.Fatalf("submission did not land: %v", err)
		}
		if err := c.AdvanceTime(spec.Policy.ChallengePeriod + 1); err != nil {
			t.Fatal(err)
		}
		if r, err := sess.FinalizeResult(0); err != nil || !r.Succeeded() {
			t.Fatalf("finalize: %v", err)
		}
		if flag, err := sess.IsSettled(); err != nil || !flag {
			t.Fatalf("isSettled=%v (err %v), want the finalized contract settled", flag, err)
		}
		if settled, byDispute := hybrid.Settlement(c, sess.OnChainAddr); settled || byDispute {
			t.Errorf("Settlement=(%v, %v) without lifecycle events, want (false, false)", settled, byDispute)
		}
	})
}
