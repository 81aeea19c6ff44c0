package hybrid

import (
	"errors"
	"fmt"

	"onoffchain/internal/abi"
	"onoffchain/internal/state"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/vm"
)

// OffChainOutcome reports a private local execution of the off-chain
// contract.
type OffChainOutcome struct {
	// Result is the value computeResult() returned.
	Result uint64
	// DeployGas and ExecGas measure the miner work that the hybrid model
	// avoided: what this execution WOULD have cost on-chain.
	DeployGas uint64
	ExecGas   uint64
}

// The sandbox's world is the one a fresh default dev chain gives its first
// transaction — same origin, block number, timestamp, coinbase and limits —
// so DeployGas and ExecGas are what that chain's receipt and eth_call
// report (TestSandboxMatchesChain holds them to it). There are no earlier
// blocks, so BLOCKHASH reads zero.
const (
	sandboxGasLimit  = 10_000_000 // block gas limit; the gas computeResult may burn
	sandboxCreateGas = 8_000_000  // gas limit of the creation
)

var (
	// sandboxOrigin is the address of the secp256k1 scalar 0x0FFC4A1B: the
	// contract's CREATE address derives from it.
	sandboxOrigin = types.Address{
		0xa3, 0x2f, 0xe2, 0x98, 0x0e, 0xc7, 0xab, 0xa3, 0x1b, 0x10,
		0x4c, 0x9d, 0x00, 0x3c, 0xd7, 0xe2, 0x7d, 0x16, 0xb4, 0xc3,
	}
	sandboxGasPrice = uint256.NewInt(1)
	sandboxBlock    = vm.BlockContext{
		Coinbase:  types.BytesToAddress([]byte("miner")),
		Number:    1,             // first block after genesis
		Time:      1_500_000_004, // genesis time plus one block interval
		GasLimit:  sandboxGasLimit,
		BlockHash: func(uint64) types.Hash { return types.Hash{} },
	}

	computeResult = abi.MustMethod("computeResult", nil, []string{"uint256"})
)

// ExecuteOffChain runs the signed off-chain bytecode on a private state and
// EVM — this is the paper's "privately executed by only a small group of
// interested participants": no chain, public or otherwise, sees the
// bytecode, the inputs, or the result. The creation is charged the way a
// chain charges a creation transaction (intrinsic gas, gas bought up front
// at the gas price, code deposit, refund capped at a share of the gas used,
// fee to the coinbase) and computeResult the way eth_call charges a call, so
// the returned gas numbers quantify the miner resources saved (paper
// Fig. 1).
func ExecuteOffChain(bytecode []byte) (*OffChainOutcome, error) {
	st := state.New()
	st.SetBalance(sandboxOrigin, new(uint256.Int).Mul(uint256.NewInt(1000), uint256.NewInt(1e18)))

	intrinsic := vm.IntrinsicGas(bytecode, true)
	if intrinsic > sandboxCreateGas {
		return nil, errors.New("hybrid: sandbox deploy: intrinsic gas too low")
	}
	st.SubBalance(sandboxOrigin, gasCost(sandboxCreateGas))
	evm := vm.NewEVM(sandboxBlock, vm.TxContext{Origin: sandboxOrigin, GasPrice: sandboxGasPrice}, st)
	_, contract, leftover, err := evm.Create(sandboxOrigin, bytecode, sandboxCreateGas-intrinsic, nil)
	if err != nil {
		return nil, errors.New("hybrid: sandbox deployment reverted")
	}
	deployGas := sandboxCreateGas - leftover
	refund := st.GetRefund()
	if max := deployGas / vm.RefundQuotient; refund > max {
		refund = max
	}
	deployGas -= refund
	st.AddBalance(sandboxOrigin, gasCost(sandboxCreateGas-deployGas))
	st.AddBalance(sandboxBlock.Coinbase, gasCost(deployGas))
	st.Finalise()

	data, err := computeResult.Pack()
	if err != nil {
		return nil, err
	}
	evm = vm.NewEVM(sandboxBlock, vm.TxContext{Origin: sandboxOrigin}, st)
	ret, leftover, err := evm.Call(sandboxOrigin, contract, data, sandboxGasLimit, nil)
	if err != nil {
		return nil, fmt.Errorf("hybrid: sandbox computeResult: %w", err)
	}
	vals, err := computeResult.Unpack(ret)
	if err != nil {
		return nil, err
	}
	result := vals[0].(*uint256.Int)
	if !result.IsUint64() {
		return nil, fmt.Errorf("hybrid: result overflows uint64: %s", result)
	}
	return &OffChainOutcome{
		Result:    result.Uint64(),
		DeployGas: deployGas,
		ExecGas:   sandboxGasLimit - leftover,
	}, nil
}

// gasCost is what gas costs at the sandbox's gas price.
func gasCost(gas uint64) *uint256.Int {
	c := new(uint256.Int).SetUint64(gas)
	return c.Mul(c, sandboxGasPrice)
}
