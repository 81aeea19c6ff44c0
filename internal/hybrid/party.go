package hybrid

import (
	"context"
	"fmt"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/lang"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// Participant is one party of the agreement: a signing key, its chain
// access, and a whisper node for the off-chain channel.
type Participant struct {
	Key   *secp256k1.PrivateKey
	Addr  types.Address
	Chain *chain.Chain
	Node  *whisper.Node
	// Ctx bounds every receipt wait this participant performs (nil means
	// context.Background()). The hub points it at a per-generation context
	// so workers blocked on a batch-mined receipt wake up when the hub
	// dies instead of waiting for a block that may never come.
	Ctx context.Context
	// Trace, when set, receives one completed span per on-chain round
	// trip this participant performs (submission through mined receipt).
	// The hub binds it to the owning session's ID so chain time shows up
	// in that session's cross-layer timeline.
	Trace func(name string, start time.Time, dur time.Duration, attrs string)
}

// NewParticipant wires a key to the chain and the off-chain network.
func NewParticipant(key *secp256k1.PrivateKey, c *chain.Chain, net *whisper.Network) *Participant {
	p := &Participant{
		Key:   key,
		Addr:  types.Address(key.EthereumAddress()),
		Chain: c,
	}
	if net != nil {
		p.Node = net.NewNode(key)
	}
	return p
}

// defaultGasPrice keeps fee arithmetic simple in experiments.
var defaultGasPrice = uint256.NewInt(1)

func (p *Participant) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// SendTxAsync signs and submits a transaction without waiting for it to
// mine, returning its hash. The nonce comes from the pending pool, so a
// participant may pipeline several transactions into one batch block.
func (p *Participant) SendTxAsync(to *types.Address, value *uint256.Int, gas uint64, data []byte) (types.Hash, error) {
	nonce := p.Chain.PendingNonceAt(p.Addr)
	var tx *types.Transaction
	if to == nil {
		tx = types.NewContractCreation(nonce, value, gas, defaultGasPrice, data)
	} else {
		tx = types.NewTransaction(nonce, *to, value, gas, defaultGasPrice, data)
	}
	if err := tx.Sign(p.Key); err != nil {
		return types.Hash{}, err
	}
	return p.Chain.SendTransaction(tx)
}

// SendTx signs and submits a transaction, then waits for its receipt
// (immediately available under AutoMine, one batch block away otherwise).
// It is the one seam between this package and the chain's receipt pipeline:
// submit, then block on WaitReceipt under the participant's context. Every
// state-changing helper that waits (Deploy, Invoke — and through them
// deposits, submissions, disputes, finalize) funnels through here, so no
// call site ever assumes a receipt is synchronously available after
// SendTransaction.
func (p *Participant) SendTx(to *types.Address, value *uint256.Int, gas uint64, data []byte) (*types.Receipt, error) {
	start := time.Now()
	hash, err := p.SendTxAsync(to, value, gas, data)
	if err != nil {
		return nil, err
	}
	r, err := p.Chain.WaitReceipt(p.ctx(), hash)
	if p.Trace != nil {
		p.Trace("tx", start, time.Since(start), "")
	}
	return r, err
}

// Deploy sends a contract-creation transaction and returns the new address
// with the receipt.
func (p *Participant) Deploy(code []byte, value *uint256.Int, gas uint64) (types.Address, *types.Receipt, error) {
	r, err := p.SendTx(nil, value, gas, code)
	if err != nil {
		return types.Address{}, nil, err
	}
	if !r.Succeeded() {
		return types.Address{}, r, fmt.Errorf("hybrid: deployment reverted")
	}
	return r.ContractAddress, r, nil
}

// Invoke packs and sends a state-changing call to a compiled contract.
func (p *Participant) Invoke(cc *lang.CompiledContract, at types.Address, value *uint256.Int, gas uint64, fn string, args ...interface{}) (*types.Receipt, error) {
	m, err := cc.Method(fn)
	if err != nil {
		return nil, err
	}
	data, err := m.Pack(args...)
	if err != nil {
		return nil, err
	}
	return p.SendTx(&at, value, gas, data)
}

// InvokeAsync packs and submits a state-changing call without waiting for
// it to mine. Callers that fan independent calls out across participants
// (deposits, funding) submit them all and then WaitReceipt each, so one
// batch-mined block carries the whole fan-out instead of a block per call.
func (p *Participant) InvokeAsync(cc *lang.CompiledContract, at types.Address, value *uint256.Int, gas uint64, fn string, args ...interface{}) (types.Hash, error) {
	m, err := cc.Method(fn)
	if err != nil {
		return types.Hash{}, err
	}
	data, err := m.Pack(args...)
	if err != nil {
		return types.Hash{}, err
	}
	return p.SendTxAsync(&at, value, gas, data)
}

// WaitReceipt resolves a previously submitted transaction under the
// participant's context.
func (p *Participant) WaitReceipt(hash types.Hash) (*types.Receipt, error) {
	start := time.Now()
	r, err := p.Chain.WaitReceipt(p.ctx(), hash)
	if p.Trace != nil {
		p.Trace("wait_receipt", start, time.Since(start), "")
	}
	return r, err
}

// Query performs a read-only call and decodes the single return value.
func (p *Participant) Query(cc *lang.CompiledContract, at types.Address, fn string, args ...interface{}) (interface{}, error) {
	m, err := cc.Method(fn)
	if err != nil {
		return nil, err
	}
	data, err := m.Pack(args...)
	if err != nil {
		return nil, err
	}
	ret, _, err := p.Chain.Call(chain.CallMsg{From: p.Addr, To: at, Data: data})
	if err != nil {
		return nil, fmt.Errorf("hybrid: query %s: %w", fn, err)
	}
	vals, err := m.Unpack(ret)
	if err != nil {
		return nil, err
	}
	if len(vals) != 1 {
		return nil, fmt.Errorf("hybrid: query %s returned %d values", fn, len(vals))
	}
	return vals[0], nil
}
