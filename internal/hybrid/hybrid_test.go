package hybrid

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"onoffchain/internal/chain"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

func eth(n uint64) *uint256.Int {
	return new(uint256.Int).Mul(uint256.NewInt(n), uint256.NewInt(1e18))
}

// fixture builds a chain, whisper net, and two funded participants.
type fixture struct {
	chain *chain.Chain
	net   *whisper.Network
	alice *Participant
	bob   *Participant
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	keyA, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xA11CE))
	keyB, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xB0B))
	addrA := types.Address(keyA.EthereumAddress())
	addrB := types.Address(keyB.EthereumAddress())
	c := chain.NewDefault(map[types.Address]*uint256.Int{
		addrA: eth(100),
		addrB: eth(100),
	})
	net := whisper.NewNetwork(c.Now)
	return &fixture{
		chain: c,
		net:   net,
		alice: NewParticipant(keyA, c, net),
		bob:   NewParticipant(keyB, c, net),
	}
}

// bettingSession splits the paper's betting contract and runs stages 1-2.
func bettingSession(t *testing.T, fx *fixture, revealRounds uint64) *Session {
	t.Helper()
	split, err := Split(BettingSource, "Betting", BettingPolicy(600))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(split, []*Participant{fx.alice, fx.bob})
	if err != nil {
		t.Fatal(err)
	}
	now := fx.chain.Now()
	t1, t2, t3 := now+1000, now+2000, now+3000
	ctorArgs := []interface{}{
		fx.alice.Addr, fx.bob.Addr, t1, t2, t3,
		uint64(0x5ec4e7a), uint64(0x5ec4e7b), revealRounds,
	}
	if _, err := sess.DeployOnChain(3_000_000, ctorArgs...); err != nil {
		t.Fatal(err)
	}
	if err := sess.SignAndExchange(ctorArgs...); err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestSplitGeneratesExpectedShape(t *testing.T) {
	split, err := Split(BettingSource, "Betting", BettingPolicy(600))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Algorithm 2: the on-chain contract keeps the light functions
	// and gains the extra functions.
	for _, fn := range []string{"deposit", "refundRoundOne", "refundRoundTwo",
		"deployVerifiedInstance", "enforceDisputeResolution", "submitResult", "finalizeResult"} {
		if _, ok := split.OnChain.Funcs[fn]; !ok {
			t.Errorf("on-chain contract missing %s", fn)
		}
	}
	// reassign() calls reveal() and is replaced by the submit/challenge
	// machinery.
	if _, ok := split.OnChain.Funcs["reassign"]; ok {
		t.Error("reassign (heavy-calling) survived on-chain")
	}
	// reveal must not appear anywhere in the on-chain artifact source.
	if strings.Contains(split.OnChainSource, "betSecret") &&
		strings.Contains(split.OnChainSource, "reveal()") {
		t.Log("note: constructor params are shared by design")
	}
	// Paper Algorithm 3: the off-chain contract has the result plumbing.
	for _, fn := range []string{"returnDisputeResolution", "computeResult"} {
		if _, ok := split.OffChain.Funcs[fn]; !ok {
			t.Errorf("off-chain contract missing %s", fn)
		}
	}
	// The heavy function itself must not be publicly dispatchable anywhere.
	if _, ok := split.OffChain.Funcs["reveal"]; ok {
		t.Error("reveal is public on the off-chain contract")
	}
	if _, ok := split.OnChain.Funcs["reveal"]; ok {
		t.Error("reveal is public on the on-chain contract")
	}
	// deployVerifiedInstance signature matches the paper's Algorithm 2 for
	// two participants.
	want := "deployVerifiedInstance(bytes,uint8,bytes32,bytes32,uint8,bytes32,bytes32)"
	if got := split.OnChain.Funcs["deployVerifiedInstance"].Signature; got != want {
		t.Errorf("deployVerifiedInstance signature = %s", got)
	}
	// The monolith baseline keeps everything.
	if _, ok := split.Monolith.Funcs["reassign"]; !ok {
		t.Error("monolith lost reassign")
	}
}

func TestSplitPolicyValidation(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
	}{
		{"missing heavy", Policy{Heavy: []string{"nosuch"}, Result: "nosuch", Settle: "settle"}},
		{"result not heavy", Policy{Heavy: []string{"reveal"}, Result: "deposit", Settle: "settle"}},
		{"missing settle", Policy{Heavy: []string{"reveal"}, Result: "reveal", Settle: "nosuch"}},
		{"public settle", Policy{Heavy: []string{"reveal"}, Result: "reveal", Settle: "deposit"}},
	}
	for _, tc := range cases {
		if _, err := Split(BettingSource, "Betting", tc.policy); err == nil {
			t.Errorf("%s: split succeeded", tc.name)
		}
	}
	if _, err := Split(BettingSource, "NoSuchContract", BettingPolicy(0)); err == nil {
		t.Error("unknown contract accepted")
	}
}

func TestSignedCopyRoundTripAndTamper(t *testing.T) {
	keyA, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(1111))
	keyB, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(2222))
	addrA := types.Address(keyA.EthereumAddress())
	addrB := types.Address(keyB.EthereumAddress())
	bytecode := []byte{0x60, 0x80, 0x60, 0x40, 0x52, 0x00, 0xba, 0xb4, 0x00, 0x29}

	sigA, err := SignBytecode(keyA, bytecode)
	if err != nil {
		t.Fatal(err)
	}
	sigB, err := SignBytecode(keyB, bytecode)
	if err != nil {
		t.Fatal(err)
	}
	sc := &SignedCopy{Bytecode: bytecode, Sigs: []SigTuple{sigA, sigB}}
	if err := sc.Verify([]types.Address{addrA, addrB}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Wrong order fails.
	if err := sc.Verify([]types.Address{addrB, addrA}); err == nil {
		t.Error("swapped participants verified")
	}
	// Serialization round trip.
	decoded, err := DecodeSignedCopy(sc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Verify([]types.Address{addrA, addrB}); err != nil {
		t.Errorf("decoded copy: %v", err)
	}
	// One flipped bytecode bit invalidates every signature (the paper's
	// integrity property).
	tampered := &SignedCopy{Bytecode: append([]byte{}, bytecode...), Sigs: sc.Sigs}
	tampered.Bytecode[4] ^= 0x01
	if err := tampered.Verify([]types.Address{addrA, addrB}); err == nil {
		t.Error("tampered bytecode verified")
	}
}

// TestSignedCopyVerifyWithKeys: the batch (shared-chain) verification path
// must agree with the address-based Verify on every outcome — accept the
// honest copy, reject swapped keys, missing signatures, tampered bytecode,
// and a signature whose recovery hint was flipped.
func TestSignedCopyVerifyWithKeys(t *testing.T) {
	const n = 5 // more than one so the RLC fold actually engages
	keys := make([]*secp256k1.PrivateKey, n)
	pubs := make([]*secp256k1.PublicKey, n)
	bytecode := []byte{0x60, 0x80, 0x60, 0x40, 0x52, 0x01, 0x02, 0x03, 0x00, 0x29}
	sc := &SignedCopy{Bytecode: bytecode}
	for i := range keys {
		keys[i], _ = secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(uint64(7000 + i)))
		pubs[i] = &keys[i].PublicKey
		sig, err := SignBytecode(keys[i], bytecode)
		if err != nil {
			t.Fatal(err)
		}
		sc.AddSignature(i, sig)
	}
	if err := sc.VerifyWithKeys(pubs); err != nil {
		t.Fatalf("honest copy rejected: %v", err)
	}
	// Swapped keys: signature i no longer matches key i.
	swapped := append([]*secp256k1.PublicKey{}, pubs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := sc.VerifyWithKeys(swapped); err == nil {
		t.Error("swapped keys verified")
	}
	// Wrong count.
	if err := sc.VerifyWithKeys(pubs[:n-1]); err == nil {
		t.Error("short key list verified")
	}
	// Tampered bytecode invalidates every signature.
	tampered := &SignedCopy{Bytecode: append([]byte{}, bytecode...), Sigs: sc.Sigs}
	tampered.Bytecode[3] ^= 0x01
	if err := tampered.VerifyWithKeys(pubs); err == nil {
		t.Error("tampered bytecode verified")
	}
	// A flipped recovery hint is rejected (the batch path is
	// recovery-equivalent, not just (r, s)-equivalent).
	sc.Sigs[2].V ^= 1 // 27 <-> 28
	if err := sc.VerifyWithKeys(pubs); err == nil {
		t.Error("flipped recovery hint verified")
	}
	sc.Sigs[2].V ^= 1
	// Both paths agree on the honest copy.
	addrs := make([]types.Address, n)
	for i := range keys {
		addrs[i] = types.Address(keys[i].EthereumAddress())
	}
	if err := sc.Verify(addrs); err != nil {
		t.Fatalf("address path rejects what the key path accepts: %v", err)
	}
}

// Honest path: rules 1-4 of paper Table I with a truthful representative.
func TestBettingHonestPath(t *testing.T) {
	fx := newFixture(t)
	sess := bettingSession(t, fx, 64)

	// Rule 2: both deposit 1 ether before T1.
	for _, p := range []*Participant{fx.alice, fx.bob} {
		r, err := p.Invoke(sess.Split.OnChain, sess.OnChainAddr, eth(1), 300_000, "deposit")
		if err != nil || !r.Succeeded() {
			t.Fatalf("deposit failed: %v", err)
		}
	}
	if got := sess.OnChainBalance(); !got.Eq(eth(2)) {
		t.Fatalf("pot = %s", got)
	}

	// Rule 4: after T2, compute off-chain — privately and unanimously.
	fx.chain.AdvanceTime(2100)
	outcome, err := sess.ExecuteOffChainAll()
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Result > 1 {
		t.Fatalf("result = %d", outcome.Result)
	}
	if outcome.ExecGas == 0 {
		t.Error("off-chain execution reported zero saved gas")
	}

	// Representative submits; nobody challenges; finalize after window.
	if r, err := sess.SubmitResult(0, outcome.Result); err != nil || !r.Succeeded() {
		t.Fatalf("submitResult: %v", err)
	}
	// Finalizing during the window must fail.
	if r, _ := sess.FinalizeResult(0); r != nil && r.Succeeded() {
		t.Fatal("finalize succeeded inside the challenge window")
	}
	fx.chain.AdvanceTime(700) // past the 600s challenge period
	r, err := sess.FinalizeResult(1)
	if err != nil || !r.Succeeded() {
		t.Fatalf("finalizeResult: %v", err)
	}
	settled, err := sess.IsSettled()
	if err != nil || !settled {
		t.Fatal("contract not settled")
	}
	// The winner got the 2-ether pot.
	winner := []*Participant{fx.alice, fx.bob}[outcome.Result]
	bal := fx.chain.BalanceAt(winner.Addr)
	if bal.Lt(eth(100)) {
		t.Errorf("winner balance %s below starting stake", bal)
	}
	if !sess.OnChainBalance().IsZero() {
		t.Errorf("pot not drained: %s", sess.OnChainBalance())
	}
	// Replay: a second submission after settlement must fail.
	if r, _ := sess.SubmitResult(0, outcome.Result); r != nil && r.Succeeded() {
		t.Error("submitResult after settlement succeeded")
	}
}

// Dispute path: rule 5 of paper Table I — the loser refuses, the winner
// reveals the signed copy and miners enforce the true result.
func TestBettingDisputePath(t *testing.T) {
	fx := newFixture(t)
	sess := bettingSession(t, fx, 64)

	for _, p := range []*Participant{fx.alice, fx.bob} {
		if r, err := p.Invoke(sess.Split.OnChain, sess.OnChainAddr, eth(1), 300_000, "deposit"); err != nil || !r.Succeeded() {
			t.Fatalf("deposit failed: %v", err)
		}
	}
	fx.chain.AdvanceTime(2100)
	outcome, err := sess.ExecuteOffChainAll()
	if err != nil {
		t.Fatal(err)
	}
	trueResult := outcome.Result
	liar := 1 - int(trueResult) // the loser submits a false result

	// The dishonest participant submits the lie.
	if r, err := sess.SubmitResult(liar, uint64(1-trueResult)); err != nil || !r.Succeeded() {
		t.Fatalf("lying submitResult: %v", err)
	}

	// The honest participant disputes with the signed copy during the
	// challenge window.
	honest := int(trueResult)
	deployReceipt, returnReceipt, err := sess.Dispute(honest)
	if err != nil {
		t.Fatal(err)
	}
	if deployReceipt.GasUsed == 0 || returnReceipt.GasUsed == 0 {
		t.Error("zero gas receipts")
	}
	t.Logf("deployVerifiedInstance gas = %d, returnDisputeResolution gas = %d",
		deployReceipt.GasUsed, returnReceipt.GasUsed)

	// The verified instance address follows the CREATE rule from the
	// on-chain contract (nonce 1 — its first creation).
	if want := types.CreateAddress(sess.OnChainAddr, 1); sess.InstanceAddr != want {
		t.Errorf("instance = %s, want %s", sess.InstanceAddr, want)
	}

	// Settlement reflects the TRUE result, not the submitted lie.
	settled, err := sess.IsSettled()
	if err != nil || !settled {
		t.Fatal("dispute did not settle")
	}
	winner := []*Participant{fx.alice, fx.bob}[trueResult]
	loser := []*Participant{fx.alice, fx.bob}[1-trueResult]
	wBal := fx.chain.BalanceAt(winner.Addr)
	lBal := fx.chain.BalanceAt(loser.Addr)
	if !wBal.Gt(lBal) {
		t.Errorf("winner %s not richer than loser %s", wBal, lBal)
	}
	// The lying finalize can no longer run.
	fx.chain.AdvanceTime(700)
	if r, _ := sess.FinalizeResult(liar); r != nil && r.Succeeded() {
		t.Error("false submission finalized after dispute")
	}
}

// A forged copy (signature from a non-participant) must be rejected
// on-chain by deployVerifiedInstance.
func TestDisputeRejectsForgedCopy(t *testing.T) {
	fx := newFixture(t)
	sess := bettingSession(t, fx, 16)

	eveKey, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xE5E))
	forgedSig, err := SignBytecode(eveKey, sess.Copy.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	forged := &SignedCopy{
		Bytecode: sess.Copy.Bytecode,
		Sigs:     []SigTuple{sess.Copy.Sigs[0], forgedSig}, // bob's replaced
	}
	args := []interface{}{forged.Bytecode}
	for _, sig := range forged.Sigs {
		args = append(args, uint64(sig.V), types.Hash(sig.R), types.Hash(sig.S))
	}
	r, err := fx.alice.Invoke(sess.Split.OnChain, sess.OnChainAddr, nil, 8_000_000,
		"deployVerifiedInstance", args...)
	if err != nil {
		t.Fatal(err)
	}
	if r.Succeeded() {
		t.Fatal("forged signed copy accepted on-chain")
	}
}

// Altered bytecode with valid signatures over the original must fail the
// on-chain keccak check.
func TestDisputeRejectsAlteredBytecode(t *testing.T) {
	fx := newFixture(t)
	sess := bettingSession(t, fx, 16)

	altered := append([]byte{}, sess.Copy.Bytecode...)
	altered[len(altered)-1] ^= 0xFF
	args := []interface{}{altered}
	for _, sig := range sess.Copy.Sigs {
		args = append(args, uint64(sig.V), types.Hash(sig.R), types.Hash(sig.S))
	}
	r, err := fx.bob.Invoke(sess.Split.OnChain, sess.OnChainAddr, nil, 8_000_000,
		"deployVerifiedInstance", args...)
	if err != nil {
		t.Fatal(err)
	}
	if r.Succeeded() {
		t.Fatal("altered bytecode accepted on-chain")
	}
}

// Only the verified instance may call enforceDisputeResolution (the
// deployedAddrOnly modifier of paper Algorithm 6).
func TestEnforceGuardedByDeployedAddr(t *testing.T) {
	fx := newFixture(t)
	sess := bettingSession(t, fx, 16)
	r, err := fx.alice.Invoke(sess.Split.OnChain, sess.OnChainAddr, nil, 300_000,
		"enforceDisputeResolution", uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Succeeded() {
		t.Fatal("EOA called enforceDisputeResolution directly")
	}
}

// Non-participants cannot submit results or deploy instances.
func TestParticipantOnlyGuards(t *testing.T) {
	fx := newFixture(t)
	sess := bettingSession(t, fx, 16)
	eveKey, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xEEE))
	eve := NewParticipant(eveKey, fx.chain, fx.net)
	// Fund eve for gas.
	if _, err := fx.alice.SendTx(&eve.Addr, eth(1), 21_000, nil); err != nil {
		t.Fatal(err)
	}
	if r, err := eve.Invoke(sess.Split.OnChain, sess.OnChainAddr, nil, 200_000, "submitResult", uint64(1)); err == nil && r.Succeeded() {
		t.Error("outsider submitted a result")
	}
	args := []interface{}{sess.Copy.Bytecode}
	for _, sig := range sess.Copy.Sigs {
		args = append(args, uint64(sig.V), types.Hash(sig.R), types.Hash(sig.S))
	}
	if r, err := eve.Invoke(sess.Split.OnChain, sess.OnChainAddr, nil, 8_000_000, "deployVerifiedInstance", args...); err == nil && r.Succeeded() {
		t.Error("outsider deployed the verified instance")
	}
}

// Refund rules 2-3 of paper Table I.
func TestBettingRefunds(t *testing.T) {
	fx := newFixture(t)
	sess := bettingSession(t, fx, 16)

	// Alice deposits, changes her mind before T1.
	if r, err := fx.alice.Invoke(sess.Split.OnChain, sess.OnChainAddr, eth(1), 300_000, "deposit"); err != nil || !r.Succeeded() {
		t.Fatalf("deposit: %v", err)
	}
	if r, err := fx.alice.Invoke(sess.Split.OnChain, sess.OnChainAddr, nil, 300_000, "refundRoundOne"); err != nil || !r.Succeeded() {
		t.Fatalf("refundRoundOne: %v", err)
	}
	if !sess.OnChainBalance().IsZero() {
		t.Error("refund round one left funds")
	}

	// Bob deposits; T1 passes with Alice's balance at 0: round-two refund.
	if r, err := fx.bob.Invoke(sess.Split.OnChain, sess.OnChainAddr, eth(1), 300_000, "deposit"); err != nil || !r.Succeeded() {
		t.Fatalf("bob deposit: %v", err)
	}
	fx.chain.AdvanceTime(1100) // between T1 and T2
	if r, err := fx.bob.Invoke(sess.Split.OnChain, sess.OnChainAddr, nil, 300_000, "refundRoundTwo"); err != nil || !r.Succeeded() {
		t.Fatalf("refundRoundTwo: %v", err)
	}
	if !sess.OnChainBalance().IsZero() {
		t.Error("refund round two left funds")
	}
	// After T2 the refund window is closed.
	fx.chain.AdvanceTime(1000)
	if r, _ := fx.bob.Invoke(sess.Split.OnChain, sess.OnChainAddr, nil, 300_000, "refundRoundTwo"); r != nil && r.Succeeded() {
		t.Error("refundRoundTwo succeeded after T2")
	}
}

// Unanimous off-chain execution: every participant computes the same
// result from the same signed bytecode (determinism property).
func TestOffChainExecutionDeterministic(t *testing.T) {
	fx := newFixture(t)
	sess := bettingSession(t, fx, 64)
	a, err := ExecuteOffChain(sess.Copy.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteOffChain(sess.Copy.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result != b.Result {
		t.Errorf("results differ: %d vs %d", a.Result, b.Result)
	}
}

// The auction workload exercises the splitter on a second contract.
func TestAuctionSplitAndDispute(t *testing.T) {
	fx := newFixture(t)
	split, err := Split(AuctionSource, "Auction", AuctionPolicy(600))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(split, []*Participant{fx.alice, fx.bob})
	if err != nil {
		t.Fatal(err)
	}
	deadline := fx.chain.Now() + 10_000
	ctorArgs := []interface{}{
		fx.alice.Addr, fx.bob.Addr,
		uint64(431), uint64(977), uint64(3), uint64(7), deadline,
	}
	if _, err := sess.DeployOnChain(3_000_000, ctorArgs...); err != nil {
		t.Fatal(err)
	}
	if err := sess.SignAndExchange(ctorArgs...); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Participant{fx.alice, fx.bob} {
		if r, err := p.Invoke(split.OnChain, sess.OnChainAddr, eth(2), 300_000, "deposit"); err != nil || !r.Succeeded() {
			t.Fatalf("deposit: %v", err)
		}
	}
	outcome, err := sess.ExecuteOffChainAll()
	if err != nil {
		t.Fatal(err)
	}
	// Straight to dispute (no submission at all): any participant can
	// enforce through the signed copy.
	if _, _, err := sess.Dispute(0); err != nil {
		t.Fatal(err)
	}
	settled, _ := sess.IsSettled()
	if !settled {
		t.Fatal("auction not settled by dispute path")
	}
	winner := []*Participant{fx.alice, fx.bob}[outcome.Result]
	if fx.chain.BalanceAt(winner.Addr).Lt(eth(100)) {
		t.Error("winner did not receive the pot")
	}
}

// Multi-party pools: the splitter scales signature verification with n.
func TestMultiPartySplit(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		src := MultiPartySource(n)
		split, err := Split(src, "Pool", MultiPartyPolicy(600))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if split.Participants != n {
			t.Errorf("n=%d: split reports %d participants", n, split.Participants)
		}
		fm := split.OnChain.Funcs["deployVerifiedInstance"]
		// bytes + 3 words per participant.
		if got := len(fm.Params); got != 1+3*n {
			t.Errorf("n=%d: deployVerifiedInstance has %d params", n, got)
		}
	}
}

func TestClassifierMatchesPaperTaxonomy(t *testing.T) {
	profiles, err := Classify(BettingSource, "Betting", []string{"betSecretA", "betSecretB"})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FunctionProfile{}
	for _, p := range profiles {
		byName[p.Name] = p
	}
	// The paper's recommendation: transfer functions are light/public.
	for _, light := range []string{"deposit", "refundRoundOne", "refundRoundTwo"} {
		if byName[light].Heavy {
			t.Errorf("%s classified heavy", light)
		}
		if !byName[light].TransfersValue && light != "deposit" {
			t.Errorf("%s not marked as transferring", light)
		}
	}
	// reveal is heavy (loop) and private (secrets).
	if !byName["reveal"].Heavy {
		t.Error("reveal classified light")
	}
	if !byName["reveal"].TouchesSecret {
		t.Error("reveal does not touch secrets?")
	}
	if byName["reveal"].EstimatedGas < 50_000 {
		t.Errorf("reveal estimate %d too low", byName["reveal"].EstimatedGas)
	}
	if FormatProfiles(profiles) == "" {
		t.Error("empty profile table")
	}
}

func TestSplitSourcesCompileStandalone(t *testing.T) {
	split, err := Split(BettingSource, "Betting", BettingPolicy(0))
	if err != nil {
		t.Fatal(err)
	}
	if split.OnChainSource == "" || split.OffChainSource == "" {
		t.Fatal("empty generated sources")
	}
	if !strings.Contains(split.OffChainSource, "interface BettingOnChainI") {
		t.Error("off-chain source missing callback interface")
	}
	if !strings.Contains(split.OnChainSource, "deployVerifiedInstance") {
		t.Error("on-chain source missing deployVerifiedInstance")
	}
	// Default challenge period applied.
	if split.Policy.ChallengePeriod != 3600 {
		t.Errorf("default challenge period = %d", split.Policy.ChallengePeriod)
	}
}

// The parties need not deploy their own contract — anyone with the balance
// can send the creation — but they bind only to the code they split: a
// deployer that created anything else is found out from the receipt, before
// there is an address to sign for or deposit to.
func TestBindOnChainChecksDeployedCode(t *testing.T) {
	fx := newFixture(t)
	split, err := Split(BettingSource, "Betting", BettingPolicy(600))
	if err != nil {
		t.Fatal(err)
	}
	now := fx.chain.Now()
	ctorArgs := []interface{}{
		fx.alice.Addr, fx.bob.Addr, now + 1000, now + 2000, now + 3000,
		uint64(0x5ec4e7a), uint64(0x5ec4e7b), uint64(8),
	}
	keyD, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xD3B107))
	deployer := NewParticipant(keyD, fx.chain, nil)
	if r, err := fx.alice.SendTx(&deployer.Addr, eth(1), 21_000, nil); err != nil || !r.Succeeded() {
		t.Fatalf("funding the deployer: %v", err)
	}

	sess, err := NewSession(split, []*Participant{fx.alice, fx.bob})
	if err != nil {
		t.Fatal(err)
	}
	nonce := fx.chain.NonceAt(deployer.Addr)
	hash, err := sess.DeployOnChainAsync(deployer, 3_000_000, ctorArgs...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := deployer.WaitReceipt(hash)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.BindOnChain(r); err != nil {
		t.Fatalf("the agreed contract from a non-party deployer: %v", err)
	}
	if want := types.CreateAddress(deployer.Addr, nonce); sess.OnChainAddr != want {
		t.Errorf("bound to %s, want the deployer's creation %s", sess.OnChainAddr.Hex(), want.Hex())
	}
	if err := sess.SignAndExchange(ctorArgs...); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.alice.Invoke(split.OnChain, sess.OnChainAddr, eth(1), 300_000, "deposit"); err != nil {
		t.Fatalf("party deposit into a contract it did not deploy: %v", err)
	}

	// The same deployer, creating the on-chain half of a different policy.
	pol := BettingPolicy(600)
	pol.LifecycleEvents = true
	other, err := Split(BettingSource, "Betting", pol)
	if err != nil {
		t.Fatal(err)
	}
	code, err := other.OnChain.DeployWithArgs(other.OnChainCtorArgs(ctorArgs)...)
	if err != nil {
		t.Fatal(err)
	}
	_, foreign, err := deployer.Deploy(code, nil, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewSession(split, []*Participant{fx.alice, fx.bob})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.BindOnChain(foreign); err == nil || !strings.Contains(err.Error(), "not the agreed on-chain contract") {
		t.Fatalf("bound to foreign code: err=%v", err)
	}
	if !victim.OnChainAddr.IsZero() {
		t.Errorf("session holds address %s after a refused bind", victim.OnChainAddr.Hex())
	}
}

// TestRebuildSessionHostileBytes: the durable bytes a session is rebuilt
// from (a WAL, a gossiped guard's scalars) are untrusted — each malformation is an
// error, never a panic — and the well-formed bytes rebuild a session that
// carries the original's participants, address and signed copy.
func TestRebuildSessionHostileBytes(t *testing.T) {
	fx := newFixture(t)
	orig := bettingSession(t, fx, 4)
	good := [][]byte{fx.alice.Key.Bytes(), fx.bob.Key.Bytes()}
	enc := orig.Copy.Encode()
	// The curve order n: the smallest out-of-range scalar.
	order, err := uint256.FromHex("0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	if err != nil {
		t.Fatal(err)
	}
	orderBytes := order.Bytes32()

	rebuild := func(scalars [][]byte, contract types.Address, copyEnc []byte) (*Session, error) {
		keys, err := PartyKeys(scalars)
		if err != nil {
			return nil, err
		}
		return RebuildSession(orig.Split, keys, fx.chain, fx.net, context.Background(), contract, copyEnc)
	}

	sess, err := rebuild(good, orig.OnChainAddr, enc)
	if err != nil {
		t.Fatalf("well-formed bytes: %v", err)
	}
	if sess.OnChainAddr != orig.OnChainAddr || !reflect.DeepEqual(sess.ParticipantAddrs(), orig.ParticipantAddrs()) {
		t.Fatal("rebuilt session differs from the original")
	}
	if err := sess.Copy.Verify(sess.ParticipantAddrs()); err != nil {
		t.Fatalf("rebuilt copy does not verify: %v", err)
	}

	cases := []struct {
		name     string
		scalars  [][]byte
		contract types.Address
		copyEnc  []byte
	}{
		{"too few scalars", good[:1], orig.OnChainAddr, enc},
		{"too many scalars", append(append([][]byte{}, good...), good[0]), orig.OnChainAddr, enc},
		{"no scalars", nil, orig.OnChainAddr, enc},
		{"zero scalar", [][]byte{good[0], make([]byte, 32)}, orig.OnChainAddr, enc},
		{"scalar at the curve order", [][]byte{orderBytes[:], good[1]}, orig.OnChainAddr, enc},
		{"short scalar", [][]byte{good[0], good[1][:31]}, orig.OnChainAddr, enc},
		{"truncated signed copy", good, orig.OnChainAddr, enc[:len(enc)/2]},
		{"empty signed copy", good, orig.OnChainAddr, nil},
		{"zero contract address", good, types.Address{}, enc},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := rebuild(tc.scalars, tc.contract, tc.copyEnc)
			if err == nil || sess != nil {
				t.Fatalf("got session %v, err %v; want an error", sess, err)
			}
		})
	}
}
