package vm_test

import (
	"testing"

	"onoffchain/internal/abi"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/types"
	"onoffchain/internal/vm"
)

// FuzzVMDiff pins the interpreter to the pre-jump-table loop kept in
// oracle_test.go: arbitrary code and calldata, run as a creation and then
// as a call of whatever code the creation returns, must leave identical
// return bytes, error, gas, refund, logs and state on both.
func FuzzVMDiff(f *testing.F) {
	// The four hub specs' signed off-chain bytecode, called the way the
	// sandbox calls it.
	selector := abi.SelectorOf("computeResult()")
	for _, spec := range []*hub.Spec{
		hub.BettingSpec(16, 600, false),
		hub.PoolSpec(4, 600, false),
		hub.LotterySpec(6, 64, 600, false),
		hub.AuctionSpec(600, false),
	} {
		split, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
		if err != nil {
			f.Fatalf("%s: split: %v", spec.Scenario, err)
		}
		addrs := make([]types.Address, split.Participants)
		for i := range addrs {
			addrs[i] = types.BytesToAddress([]byte{0xA0, byte(i + 1)})
		}
		bytecode, err := split.OffChain.DeployWithArgs(spec.CtorArgs(addrs, 1_500_000_000)...)
		if err != nil {
			f.Fatalf("%s: off-chain bytecode: %v", spec.Scenario, err)
		}
		f.Add(bytecode, selector[:])
	}
	// A PUSH32 cut short by the end of the code, and a jump into PUSH data
	// whose byte is JUMPDEST.
	f.Add([]byte{byte(vm.PUSH32), 1, 2, 3}, []byte(nil))
	f.Add([]byte{byte(vm.PUSH1), byte(vm.JUMPDEST), byte(vm.PUSH1), 1, byte(vm.JUMP)}, []byte(nil))
	// Every opcode, undefined ones included, over seventeen stack words:
	// enough operands for any instruction (SWAP16 takes the most), so each
	// reaches its own case.
	for op := 0; op < 256; op++ {
		var code []byte
		for i := 0; i < 17; i++ {
			code = append(code, byte(vm.PUSH1), 0x20)
		}
		f.Add(append(code, byte(op)), []byte{0xde, 0xad})
	}
	f.Fuzz(func(t *testing.T, code, input []byte) {
		vm.CheckAgainstOracle(t, code, input)
	})
}
