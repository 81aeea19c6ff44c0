// Package experiments implements the paper's evaluation: drivers that
// regenerate every table and figure (Table II gas costs, the Fig. 1
// all-on-chain vs hybrid comparison, Fig. 2 stage costs) plus the
// ablations DESIGN.md calls out (dispute probability, privacy leakage,
// participant scaling, security deposits). cmd/bench prints them and
// benchmark/ pins six of them as exact anchors, so the paper's numbers are
// regenerable in one command.
package experiments

import (
	"fmt"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// Mode selects the execution model of paper Fig. 1.
type Mode string

// The two execution models.
const (
	ModeMonolith Mode = "all-on-chain"
	ModeHybrid   Mode = "hybrid-on/off-chain"
)

// LifecycleGas breaks down the miner gas spent over one full betting
// lifecycle (deploy → deposits → resolution).
type LifecycleGas struct {
	DeployGas   uint64
	DepositGas  uint64
	ResolveGas  uint64 // reassign (monolith) or submit+finalize (hybrid)
	DeployVIGas uint64 // deployVerifiedInstance (dispute only)
	ReturnDRGas uint64 // returnDisputeResolution (dispute only)

	// OffChainGas is work done privately by participants (NOT miner work):
	// the gas-equivalent of the sandbox execution.
	OffChainGas uint64

	// OnChainCodeBytes and OnChainCalldataBytes measure the public
	// footprint (privacy surface).
	OnChainCodeBytes     int
	OnChainCalldataBytes int
}

// TotalMinerGas sums all gas executed by miners.
func (l *LifecycleGas) TotalMinerGas() uint64 {
	return l.DeployGas + l.DepositGas + l.ResolveGas + l.DeployVIGas + l.ReturnDRGas
}

func eth(n uint64) *uint256.Int {
	return new(uint256.Int).Mul(uint256.NewInt(n), uint256.NewInt(1e18))
}

// env is a fresh two-party world.
type env struct {
	chain *chain.Chain
	net   *whisper.Network
	alice *hybrid.Participant
	bob   *hybrid.Participant
}

func newEnv() *env {
	keyA, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xA11CE))
	keyB, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xB0B))
	c := chain.NewDefault(map[types.Address]*uint256.Int{
		types.Address(keyA.EthereumAddress()): eth(1000),
		types.Address(keyB.EthereumAddress()): eth(1000),
	})
	net := whisper.NewNetwork(c.Now)
	return &env{
		chain: c,
		net:   net,
		alice: hybrid.NewParticipant(keyA, c, net),
		bob:   hybrid.NewParticipant(keyB, c, net),
	}
}

func (e *env) parties() []*hybrid.Participant {
	return []*hybrid.Participant{e.alice, e.bob}
}

// RunBettingLifecycle executes one full betting lifecycle in the given
// mode and returns the gas breakdown. For ModeHybrid with dispute=true,
// the loser submits a false result and the winner resolves through the
// signed copy (paper Table I rule 5).
func RunBettingLifecycle(mode Mode, revealRounds uint64, dispute bool) (*LifecycleGas, error) {
	e := newEnv()
	out := &LifecycleGas{}
	now := e.chain.Now()
	ctorArgs := []interface{}{
		e.alice.Addr, e.bob.Addr, now + 1000, now + 2000, now + 3000,
		uint64(0x5ec4e7a), uint64(0x5ec4e7b), revealRounds,
	}

	split, err := hybrid.Split(hybrid.BettingSource, "Betting", hybrid.BettingPolicy(600))
	if err != nil {
		return nil, err
	}

	switch mode {
	case ModeMonolith:
		code, err := split.Monolith.DeployWithArgs(ctorArgs...)
		if err != nil {
			return nil, err
		}
		addr, r, err := e.alice.Deploy(code, nil, 8_000_000)
		if err != nil {
			return nil, err
		}
		out.DeployGas = r.GasUsed
		out.OnChainCodeBytes = len(e.chain.CodeAt(addr))
		out.OnChainCalldataBytes = len(code)
		for _, p := range e.parties() {
			r, err := p.Invoke(split.Monolith, addr, eth(1), 300_000, "deposit")
			if err != nil || !r.Succeeded() {
				return nil, fmt.Errorf("deposit failed: %v", err)
			}
			out.DepositGas += r.GasUsed
			out.OnChainCalldataBytes += 4
		}
		e.chain.AdvanceTime(2100) // into the T2..T3 window
		r, err = e.alice.Invoke(split.Monolith, addr, nil, 8_000_000, "reassign")
		if err != nil || !r.Succeeded() {
			return nil, fmt.Errorf("reassign failed: %v (reason %x)", err, r.RevertReason)
		}
		out.ResolveGas = r.GasUsed
		out.OnChainCalldataBytes += 4
		return out, nil

	case ModeHybrid:
		sess, err := hybrid.NewSession(split, e.parties())
		if err != nil {
			return nil, err
		}
		r, err := sess.DeployOnChain(8_000_000, ctorArgs...)
		if err != nil {
			return nil, err
		}
		out.DeployGas = r.GasUsed
		out.OnChainCodeBytes = len(e.chain.CodeAt(sess.OnChainAddr))
		onCode, _ := split.OnChain.DeployWithArgs(split.OnChainCtorArgs(ctorArgs)...)
		out.OnChainCalldataBytes = len(onCode)
		if err := sess.SignAndExchange(ctorArgs...); err != nil {
			return nil, err
		}
		for _, p := range e.parties() {
			r, err := p.Invoke(split.OnChain, sess.OnChainAddr, eth(1), 300_000, "deposit")
			if err != nil || !r.Succeeded() {
				return nil, fmt.Errorf("deposit failed: %v", err)
			}
			out.DepositGas += r.GasUsed
			out.OnChainCalldataBytes += 4
		}
		e.chain.AdvanceTime(2100)
		outcome, err := sess.ExecuteOffChainAll()
		if err != nil {
			return nil, err
		}
		out.OffChainGas = outcome.DeployGas + outcome.ExecGas

		if !dispute {
			r, err := sess.SubmitResult(0, outcome.Result)
			if err != nil || !r.Succeeded() {
				return nil, fmt.Errorf("submitResult failed: %v", err)
			}
			out.ResolveGas += r.GasUsed
			out.OnChainCalldataBytes += 4 + 32
			e.chain.AdvanceTime(700)
			r, err = sess.FinalizeResult(1)
			if err != nil || !r.Succeeded() {
				return nil, fmt.Errorf("finalizeResult failed: %v", err)
			}
			out.ResolveGas += r.GasUsed
			out.OnChainCalldataBytes += 4
			return out, nil
		}

		// Dispute: the loser lies, the winner enforces the truth.
		liar := 1 - int(outcome.Result)
		r, err = sess.SubmitResult(liar, uint64(1-outcome.Result))
		if err != nil || !r.Succeeded() {
			return nil, fmt.Errorf("lying submit failed: %v", err)
		}
		out.ResolveGas += r.GasUsed
		out.OnChainCalldataBytes += 4 + 32
		deployR, returnR, err := sess.Dispute(int(outcome.Result))
		if err != nil {
			return nil, err
		}
		out.DeployVIGas = deployR.GasUsed
		out.ReturnDRGas = returnR.GasUsed
		// deployVerifiedInstance calldata: selector + bytes head/len +
		// bytecode + 2 sig tuples.
		out.OnChainCalldataBytes += 4 + 64 + len(sess.Copy.Bytecode) + 6*32
		out.OnChainCalldataBytes += 4 + 32 // returnDisputeResolution
		// The revealed instance code is now public too.
		out.OnChainCodeBytes += len(e.chain.CodeAt(sess.InstanceAddr))
		return out, nil
	}
	return nil, fmt.Errorf("unknown mode %q", mode)
}
