// Package vm implements an Ethereum Virtual Machine: a 256-bit stack
// machine with the Constantinople-era instruction set and the yellow-paper
// gas schedule contemporary with the paper (2019). It executes contract
// bytecode against the journaled state in internal/state, supports the full
// CALL/CREATE family with the 63/64 gas forwarding rule, static-call write
// protection, REVERT with return data, gas refunds, and the ecrecover /
// sha256 / identity precompiles.
package vm

import (
	"crypto/sha256"

	"onoffchain/internal/keccak"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/state"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// BlockContext supplies block-level information to the EVM.
type BlockContext struct {
	Coinbase   types.Address
	Number     uint64
	Time       uint64
	GasLimit   uint64
	Difficulty *uint256.Int
	// BlockHash returns the hash of a recent block (BLOCKHASH opcode).
	BlockHash func(uint64) types.Hash
}

// TxContext supplies transaction-level information to the EVM.
type TxContext struct {
	Origin   types.Address
	GasPrice *uint256.Int
}

// EVM executes bytecode against a StateDB within a block/tx context.
type EVM struct {
	Block BlockContext
	Tx    TxContext
	State *state.StateDB

	depth      int
	static     bool   // inside a STATICCALL context (propagates to children)
	returnData []byte // return buffer of the last nested call
}

// NewEVM creates an EVM for a single transaction execution.
func NewEVM(block BlockContext, tx TxContext, st *state.StateDB) *EVM {
	if block.Difficulty == nil {
		block.Difficulty = new(uint256.Int)
	}
	if block.BlockHash == nil {
		block.BlockHash = func(n uint64) types.Hash {
			return types.Hash(keccak.Sum256(uint256.NewInt(n).Bytes()))
		}
	}
	if tx.GasPrice == nil {
		tx.GasPrice = new(uint256.Int)
	}
	return &EVM{Block: block, Tx: tx, State: st}
}

// Contract is one execution frame.
type Contract struct {
	CallerAddress types.Address // msg.sender in this frame
	Address       types.Address // storage/self context
	Value         *uint256.Int  // msg.value
	Code          []byte
	Input         []byte
	Gas           uint64

	jumpdests []bool // jumpdests[pc]: a JUMPDEST on an instruction boundary
}

func newContract(caller, addr types.Address, value *uint256.Int, code, input []byte, gas uint64) *Contract {
	return &Contract{
		CallerAddress: caller,
		Address:       addr,
		Value:         value,
		Code:          code,
		Input:         input,
		Gas:           gas,
	}
}

// useGas deducts gas, reporting false when insufficient.
func (c *Contract) useGas(gas uint64) bool {
	if c.Gas < gas {
		return false
	}
	c.Gas -= gas
	return true
}

// validJumpdest reports whether dest is a JUMPDEST on an instruction
// boundary (not inside PUSH data).
func (c *Contract) validJumpdest(dest *uint256.Int) bool {
	if !dest.IsUint64() {
		return false
	}
	pos := dest.Uint64()
	if pos >= uint64(len(c.Code)) || OpCode(c.Code[pos]) != JUMPDEST {
		return false
	}
	if c.jumpdests == nil {
		c.jumpdests = analyzeJumpdests(c.Code)
	}
	return c.jumpdests[pos]
}

// analyzeJumpdests marks the code offsets holding reachable JUMPDEST
// opcodes, skipping PUSH immediate data. It is indexed by pc, so a jump
// checks its destination with one load rather than a map lookup.
func analyzeJumpdests(code []byte) []bool {
	dests := make([]bool, len(code))
	for pc := uint64(0); pc < uint64(len(code)); pc++ {
		op := OpCode(code[pc])
		if op == JUMPDEST {
			dests[pc] = true
		} else if op.IsPush() {
			pc += uint64(op - PUSH1 + 1)
		}
	}
	return dests
}

// canTransfer checks the sender balance covers the transfer.
func (evm *EVM) canTransfer(from types.Address, amount *uint256.Int) bool {
	return !evm.State.GetBalance(from).Lt(amount)
}

// transfer moves value between accounts.
func (evm *EVM) transfer(from, to types.Address, amount *uint256.Int) {
	evm.State.SubBalance(from, amount)
	evm.State.AddBalance(to, amount)
}

// Call executes the code at addr with the given input. It transfers value,
// handles precompiles, and reverts state on failure. Returns the output,
// the leftover gas, and an error (ErrExecutionReverted preserves output).
func (evm *EVM) Call(caller, addr types.Address, input []byte, gas uint64, value *uint256.Int) ([]byte, uint64, error) {
	if value == nil {
		value = new(uint256.Int)
	}
	if evm.depth > CallCreateDepth {
		return nil, gas, ErrDepth
	}
	if !value.IsZero() && !evm.canTransfer(caller, value) {
		return nil, gas, ErrInsufficientBalance
	}
	snapshot := evm.State.Snapshot()
	evm.transfer(caller, addr, value)

	if p, ok := precompile(addr); ok {
		ret, leftGas, err := runPrecompile(p, input, gas)
		if err != nil {
			evm.State.RevertToSnapshot(snapshot)
		}
		return ret, leftGas, err
	}

	code := evm.State.GetCode(addr)
	if len(code) == 0 {
		return nil, gas, nil // plain transfer
	}
	frame := newContract(caller, addr, value, code, input, gas)
	ret, err := evm.run(frame)
	if err != nil {
		evm.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			frame.Gas = 0
		}
	}
	return ret, frame.Gas, err
}

// CallCode executes addr's code in the caller's storage context (legacy).
func (evm *EVM) CallCode(caller, addr types.Address, input []byte, gas uint64, value *uint256.Int) ([]byte, uint64, error) {
	if value == nil {
		value = new(uint256.Int)
	}
	if evm.depth > CallCreateDepth {
		return nil, gas, ErrDepth
	}
	if !value.IsZero() && !evm.canTransfer(caller, value) {
		return nil, gas, ErrInsufficientBalance
	}
	snapshot := evm.State.Snapshot()
	code := evm.State.GetCode(addr)
	frame := newContract(caller, caller, value, code, input, gas)
	ret, err := evm.run(frame)
	if err != nil {
		evm.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			frame.Gas = 0
		}
	}
	return ret, frame.Gas, err
}

// DelegateCall executes addr's code in the caller frame's context,
// preserving msg.sender and msg.value of the parent.
func (evm *EVM) DelegateCall(parent *Contract, addr types.Address, input []byte, gas uint64) ([]byte, uint64, error) {
	if evm.depth > CallCreateDepth {
		return nil, gas, ErrDepth
	}
	snapshot := evm.State.Snapshot()
	code := evm.State.GetCode(addr)
	frame := newContract(parent.CallerAddress, parent.Address, parent.Value, code, input, gas)
	ret, err := evm.run(frame)
	if err != nil {
		evm.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			frame.Gas = 0
		}
	}
	return ret, frame.Gas, err
}

// StaticCall executes addr's code with write protection.
func (evm *EVM) StaticCall(caller, addr types.Address, input []byte, gas uint64) ([]byte, uint64, error) {
	if evm.depth > CallCreateDepth {
		return nil, gas, ErrDepth
	}
	snapshot := evm.State.Snapshot()
	if p, ok := precompile(addr); ok {
		ret, leftGas, err := runPrecompile(p, input, gas)
		if err != nil {
			evm.State.RevertToSnapshot(snapshot)
		}
		return ret, leftGas, err
	}
	code := evm.State.GetCode(addr)
	frame := newContract(caller, addr, new(uint256.Int), code, input, gas)
	prevStatic := evm.static
	evm.static = true
	ret, err := evm.run(frame)
	evm.static = prevStatic
	if err != nil {
		evm.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			frame.Gas = 0
		}
	}
	return ret, frame.Gas, err
}

// Create deploys a contract from initCode, deriving the address from the
// creator's nonce: keccak256(rlp([caller, nonce]))[12:].
func (evm *EVM) Create(caller types.Address, initCode []byte, gas uint64, value *uint256.Int) ([]byte, types.Address, uint64, error) {
	nonce := evm.State.GetNonce(caller)
	addr := types.CreateAddress(caller, nonce)
	return evm.create(caller, initCode, gas, value, addr)
}

// Create2 deploys a contract at keccak256(0xff ++ caller ++ salt ++
// keccak256(initCode))[12:].
func (evm *EVM) Create2(caller types.Address, initCode []byte, gas uint64, value *uint256.Int, salt types.Hash) ([]byte, types.Address, uint64, error) {
	codeHash := keccak.Sum256(initCode)
	h := keccak.Sum256([]byte{0xff}, caller.Bytes(), salt.Bytes(), codeHash[:])
	addr := types.BytesToAddress(h[12:])
	return evm.create(caller, initCode, gas, value, addr)
}

func (evm *EVM) create(caller types.Address, initCode []byte, gas uint64, value *uint256.Int, addr types.Address) ([]byte, types.Address, uint64, error) {
	if value == nil {
		value = new(uint256.Int)
	}
	if evm.depth > CallCreateDepth {
		return nil, types.Address{}, gas, ErrDepth
	}
	if !value.IsZero() && !evm.canTransfer(caller, value) {
		return nil, types.Address{}, gas, ErrInsufficientBalance
	}
	nonce := evm.State.GetNonce(caller)
	if nonce+1 < nonce {
		return nil, types.Address{}, gas, ErrNonceOverflow
	}
	evm.State.SetNonce(caller, nonce+1)

	// Address collision check (existing code or nonce).
	if evm.State.GetNonce(addr) != 0 ||
		(evm.State.GetCodeHash(addr) != (types.Hash{}) && evm.State.GetCodeHash(addr) != types.EmptyCodeHash) {
		return nil, types.Address{}, 0, ErrContractAddressCollision
	}

	snapshot := evm.State.Snapshot()
	evm.State.CreateAccount(addr)
	evm.State.SetNonce(addr, 1) // EIP-161
	evm.transfer(caller, addr, value)

	frame := newContract(caller, addr, value, initCode, nil, gas)
	ret, err := evm.run(frame)
	if err != nil {
		evm.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			frame.Gas = 0
		}
		return ret, addr, frame.Gas, err
	}
	// Deposit the returned runtime code.
	if len(ret) > MaxCodeSize {
		evm.State.RevertToSnapshot(snapshot)
		return nil, addr, 0, ErrMaxCodeSizeExceeded
	}
	depositGas := uint64(len(ret)) * GasCodeDepositByte
	if !frame.useGas(depositGas) {
		evm.State.RevertToSnapshot(snapshot)
		return nil, addr, 0, ErrCodeStoreOutOfGas
	}
	evm.State.SetCode(addr, ret)
	return ret, addr, frame.Gas, nil
}

// precompiledContract is a native contract at a reserved address.
type precompiledContract interface {
	requiredGas(input []byte) uint64
	run(input []byte) ([]byte, error)
}

type ecrecoverPrecompile struct{}

func (ecrecoverPrecompile) requiredGas([]byte) uint64 { return GasEcrecover }

func (ecrecoverPrecompile) run(input []byte) ([]byte, error) {
	// Pad input to 128 bytes: hash(32) v(32) r(32) s(32).
	in := make([]byte, 128)
	copy(in, input)
	hash := in[0:32]
	vWord := new(uint256.Int).SetBytes(in[32:64])
	r, rOK := secp256k1.ScalarFromBytes(in[64:96])
	s, sOK := secp256k1.ScalarFromBytes(in[96:128])
	if !rOK || !sOK {
		return nil, nil // r/s word out of range: empty return, gas consumed
	}
	if !vWord.IsUint64() {
		return nil, nil
	}
	v := vWord.Uint64()
	if v != 27 && v != 28 {
		return nil, nil
	}
	addr, err := secp256k1.RecoverAddress(hash, r, s, byte(v-27))
	if err != nil {
		return nil, nil
	}
	out := make([]byte, 32)
	copy(out[12:], addr[:])
	return out, nil
}

type sha256Precompile struct{}

func (sha256Precompile) requiredGas(input []byte) uint64 {
	return GasSha256Base + toWordSize(uint64(len(input)))*GasSha256Word
}

func (sha256Precompile) run(input []byte) ([]byte, error) {
	h := sha256.Sum256(input)
	return h[:], nil
}

type identityPrecompile struct{}

func (identityPrecompile) requiredGas(input []byte) uint64 {
	return GasIdentityBase + toWordSize(uint64(len(input)))*GasIdentityWord
}

func (identityPrecompile) run(input []byte) ([]byte, error) {
	return append([]byte{}, input...), nil
}

// precompile returns the native contract registered at addr, if any.
func precompile(addr types.Address) (precompiledContract, bool) {
	switch addr {
	case types.BytesToAddress([]byte{1}):
		return ecrecoverPrecompile{}, true
	case types.BytesToAddress([]byte{2}):
		return sha256Precompile{}, true
	case types.BytesToAddress([]byte{4}):
		return identityPrecompile{}, true
	default:
		return nil, false
	}
}

func runPrecompile(p precompiledContract, input []byte, gas uint64) ([]byte, uint64, error) {
	cost := p.requiredGas(input)
	if gas < cost {
		return nil, 0, ErrOutOfGas
	}
	ret, err := p.run(input)
	if err != nil {
		return nil, 0, err
	}
	return ret, gas - cost, nil
}
