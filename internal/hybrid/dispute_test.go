package hybrid

import (
	"sync"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// The dispute path by block count and under contention, on a chain that
// seals a block only when the test says so (AutoMine off, no mining
// driver): what shares a block, and what a misprediction costs, are then
// facts of the run rather than of the scheduler.

// mineAt seals one block once exactly n transactions are pooled. Waiting
// for the count — not for time to pass — is the manual chain's only clock.
func mineAt(t *testing.T, c *chain.Chain, n int) *types.Block {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.PendingCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("pool holds %d transactions, want %d", c.PendingCount(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return c.MineBlock()
}

// drive runs fn, which blocks on receipts, while sealing one block per
// entry of depths (each once that many transactions are pooled).
func drive(t *testing.T, c *chain.Chain, fn func() error, depths ...int) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	for _, n := range depths {
		mineAt(t, c, n)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("still blocked after the last scripted block")
	}
}

// lyingSession runs a betting session on a manually mined chain up to a
// fraudulent submission sitting in an open challenge window. It returns the
// session, the index of the honest (winning) party, and the true result.
func lyingSession(t *testing.T) (*fixture, *Session, int, uint64) {
	t.Helper()
	keyA, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xA11CE))
	keyB, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xB0B))
	ccfg := chain.DefaultConfig()
	ccfg.AutoMine = false
	c := chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(keyA.EthereumAddress()): eth(100),
		types.Address(keyB.EthereumAddress()): eth(100),
	})
	net := whisper.NewNetwork(c.Now)
	fx := &fixture{chain: c, net: net, alice: NewParticipant(keyA, c, net), bob: NewParticipant(keyB, c, net)}

	pol := BettingPolicy(600)
	pol.LifecycleEvents = true // requireEnforced reads DisputeResolved
	split, err := Split(BettingSource, "Betting", pol)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(split, []*Participant{fx.alice, fx.bob})
	if err != nil {
		t.Fatal(err)
	}
	now := c.Now()
	ctorArgs := []interface{}{
		fx.alice.Addr, fx.bob.Addr, now + 1000, now + 2000, now + 3000,
		uint64(0x5ec4e7a), uint64(0x5ec4e7b), uint64(8),
	}
	drive(t, c, func() error { _, err := sess.DeployOnChain(3_000_000, ctorArgs...); return err }, 1)
	if err := sess.SignAndExchange(ctorArgs...); err != nil {
		t.Fatal(err)
	}
	for _, p := range sess.Parties {
		if _, err := p.InvokeAsync(split.OnChain, sess.OnChainAddr, eth(1), 300_000, "deposit"); err != nil {
			t.Fatal(err)
		}
	}
	mineAt(t, c, 2)
	c.AdvanceTime(2100)
	outcome, err := sess.ExecuteOffChainAll()
	if err != nil {
		t.Fatal(err)
	}
	honest := int(outcome.Result)
	drive(t, c, func() error { _, err := sess.SubmitResult(1-honest, 1-outcome.Result); return err }, 1)
	return fx, sess, honest, outcome.Result
}

// peerView is the same contract seen from another party's machine: its own
// Session value over the same parties, address and signed copy.
func peerView(t *testing.T, s *Session) *Session {
	t.Helper()
	v, err := NewSession(s.Split, s.Parties)
	if err != nil {
		t.Fatal(err)
	}
	v.OnChainAddr, v.Copy = s.OnChainAddr, s.Copy
	return v
}

// requireEnforced asserts the contract settled exactly once, by dispute,
// to the true result.
func requireEnforced(t *testing.T, c *chain.Chain, s *Session, want uint64) {
	t.Helper()
	if settled, err := s.IsSettled(); err != nil || !settled {
		t.Fatalf("contract not settled (err %v)", err)
	}
	logs := c.FilterLogs(chain.FilterQuery{Address: &s.OnChainAddr, Topic: &TopicDisputeResolved})
	if len(logs) != 1 {
		t.Fatalf("%d DisputeResolved logs, want exactly 1", len(logs))
	}
	if got, err := DecodeResultWord(logs[0]); err != nil || got != want {
		t.Fatalf("chain enforced %d (err %v), want the true result %d", got, err, want)
	}
}

// A lone dispute costs one block: both transactions ride it, and the
// instance is where the filer predicted.
func TestDisputeEnforcedInOneBlock(t *testing.T) {
	fx, sess, honest, truth := lyingSession(t)
	before := fx.chain.Height()
	var deployR, returnR *types.Receipt
	drive(t, fx.chain, func() (err error) {
		deployR, returnR, err = sess.Dispute(honest)
		return err
	}, 2)
	if got := fx.chain.Height() - before; got != 1 {
		t.Fatalf("dispute took %d blocks, want 1", got)
	}
	if !deployR.Succeeded() || !returnR.Succeeded() {
		t.Error("a receipt of the pair reverted")
	}
	if sess.DisputeFellBack {
		t.Error("uncontended dispute took the fallback")
	}
	if want := types.CreateAddress(sess.OnChainAddr, 1); sess.InstanceAddr != want {
		t.Errorf("instance = %s, want %s", sess.InstanceAddr, want)
	}
	requireEnforced(t, fx.chain, sess, truth)
}

// Two filers whose transactions interleave as deployVI(A), deployVI(B),
// returnDR(A), returnDR(B) both mispredict: A's instance is no longer the
// recorded one, and B aimed at A's. Both return calls revert. Each filer
// must then notice and re-send to the recorded instance; exactly one of
// the re-sends enforces, and "both reverted, nobody retried" cannot happen.
func TestDisputeInterleavedFilersFallBack(t *testing.T) {
	fx, sessA, honest, truth := lyingSession(t)
	sessB := peerView(t, sessA)
	fa, err := sessA.newDisputeFiling(honest)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := sessB.newDisputeFiling(1 - honest)
	if err != nil {
		t.Fatal(err)
	}
	if fa.predicted != fb.predicted {
		t.Fatalf("filers predict different instances before either is mined: %s vs %s", fa.predicted, fb.predicted)
	}
	for _, send := range []func() error{
		fa.sendDeploy,
		fb.sendDeploy,
		func() (err error) { fa.returnHash, err = fa.sendReturn(fa.predicted); return err },
		func() (err error) { fb.returnHash, err = fb.sendReturn(fb.predicted); return err },
	} {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}
	mineAt(t, fx.chain, 4)
	if settled, _ := sessA.IsSettled(); settled {
		t.Fatal("fixture: the interleaved pair enforced without a retry")
	}

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, f := range []*disputeFiling{fa, fb} {
		wg.Add(1)
		go func(i int, f *disputeFiling) {
			defer wg.Done()
			_, _, errs[i] = f.await()
		}(i, f)
	}
	mineAt(t, fx.chain, 2) // both filers' re-sent return calls
	wg.Wait()

	won := 0
	for _, err := range errs {
		if err == nil {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("filers reporting enforcement = %d (errors %v), want exactly 1", won, errs)
	}
	if !sessA.DisputeFellBack || !sessB.DisputeFellBack {
		t.Errorf("fallback taken: A=%t B=%t, want both", sessA.DisputeFellBack, sessB.DisputeFellBack)
	}
	requireEnforced(t, fx.chain, sessA, truth)
}

// A counterparty front-runs the honest filer with its own
// deployVerifiedInstance, so the filer's return call lands on the
// griefer's instance and reverts. The filer recovers with one more block —
// two in all, which is what every dispute cost before the pair was
// pipelined; the griefer paid a deployment to take away nothing else.
func TestDisputeFrontRunCostsOneBlock(t *testing.T) {
	fx, sess, honest, truth := lyingSession(t)
	griefer, err := peerView(t, sess).newDisputeFiling(1 - honest)
	if err != nil {
		t.Fatal(err)
	}
	if err := griefer.sendDeploy(); err != nil {
		t.Fatal(err)
	}
	before := fx.chain.Height()
	drive(t, fx.chain, func() error { _, _, err := sess.Dispute(honest); return err }, 3, 1)
	if got := fx.chain.Height() - before; got != 2 {
		t.Fatalf("front-run dispute took %d blocks, want 2", got)
	}
	if !sess.DisputeFellBack {
		t.Error("front-run dispute did not report the fallback")
	}
	if want := types.CreateAddress(sess.OnChainAddr, 2); sess.InstanceAddr != want {
		t.Errorf("instance = %s, want the filer's own (second) creation %s", sess.InstanceAddr, want)
	}
	requireEnforced(t, fx.chain, sess, truth)
}

// A call to an address with no code succeeds without running anything, so
// a succeeded return receipt at a mispredicted, code-less address must
// never be read as enforcement.
func TestDisputeCodelessReturnIsNotEnforcement(t *testing.T) {
	fx, sess, honest, truth := lyingSession(t)
	f, err := sess.newDisputeFiling(honest)
	if err != nil {
		t.Fatal(err)
	}
	f.predicted = types.BytesToAddress([]byte("nothing lives here"))
	if err := f.sendDeploy(); err != nil {
		t.Fatal(err)
	}
	if f.returnHash, err = f.sendReturn(f.predicted); err != nil {
		t.Fatal(err)
	}
	mineAt(t, fx.chain, 2)
	vacuous, err := fx.chain.Receipt(f.returnHash)
	if err != nil || !vacuous.Succeeded() {
		t.Fatalf("fixture: the code-less call should succeed vacuously (err %v)", err)
	}
	if settled, _ := sess.IsSettled(); settled {
		t.Fatal("fixture: contract settled by a call that ran no code")
	}
	var returnR *types.Receipt
	drive(t, fx.chain, func() (err error) { _, returnR, err = f.await(); return err }, 1)
	if !sess.DisputeFellBack {
		t.Error("vacuous return receipt was taken for enforcement")
	}
	if returnR == vacuous {
		t.Error("await reported the vacuous receipt, not the re-sent call's")
	}
	requireEnforced(t, fx.chain, sess, truth)
}
