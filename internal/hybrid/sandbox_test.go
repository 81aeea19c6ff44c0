package hybrid_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"onoffchain/internal/abi"
	"onoffchain/internal/chain"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/vm"
	"onoffchain/internal/whisper"
)

// executeOnSandboxChain is the recipe ExecuteOffChain replaced, kept as the
// reference: a throw-away default dev chain, a signed creation mined into
// its first block, computeResult through eth_call.
func executeOnSandboxChain(bytecode []byte) (*hybrid.OffChainOutcome, error) {
	key, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x0FFC4A1B))
	if err != nil {
		return nil, err
	}
	addr := types.Address(key.EthereumAddress())
	sandbox := chain.NewDefault(map[types.Address]*uint256.Int{
		addr: new(uint256.Int).Mul(uint256.NewInt(1000), uint256.NewInt(1e18)),
	})
	tx := types.NewContractCreation(sandbox.NonceAt(addr), nil, 8_000_000, uint256.NewInt(1), bytecode)
	if err := tx.Sign(key); err != nil {
		return nil, err
	}
	hash, err := sandbox.SendTransaction(tx)
	if err != nil {
		return nil, fmt.Errorf("hybrid: sandbox deploy: %w", err)
	}
	receipt, err := sandbox.WaitReceipt(context.Background(), hash)
	if err != nil {
		return nil, err
	}
	if !receipt.Succeeded() {
		return nil, fmt.Errorf("hybrid: sandbox deployment reverted")
	}
	m := abi.MustMethod("computeResult", nil, []string{"uint256"})
	data, err := m.Pack()
	if err != nil {
		return nil, err
	}
	ret, gasUsed, err := sandbox.Call(chain.CallMsg{From: addr, To: receipt.ContractAddress, Data: data})
	if err != nil {
		return nil, fmt.Errorf("hybrid: sandbox computeResult: %w", err)
	}
	vals, err := m.Unpack(ret)
	if err != nil {
		return nil, err
	}
	result := vals[0].(*uint256.Int)
	if !result.IsUint64() {
		return nil, fmt.Errorf("hybrid: result overflows uint64: %s", result)
	}
	return &hybrid.OffChainOutcome{Result: result.Uint64(), DeployGas: receipt.GasUsed, ExecGas: gasUsed}, nil
}

// initCode assembles creation code: prefix runs in the constructor, then
// runtime (at most 32 bytes) is deposited as the contract's code.
func initCode(prefix, runtime []byte) []byte {
	n := byte(len(runtime))
	code := append([]byte{}, prefix...)
	code = append(code, byte(vm.PUSH1)+n-1)
	code = append(code, runtime...)
	return append(code,
		byte(vm.PUSH1), 0, byte(vm.MSTORE),
		byte(vm.PUSH1), n, byte(vm.PUSH1), 32-n, byte(vm.RETURN))
}

// returnLow64 is runtime code answering any call with the low 64 bits of
// whatever ops leave on the stack — a computeResult that reads its
// environment.
func returnLow64(ops ...vm.OpCode) []byte {
	var code []byte
	for _, op := range ops {
		code = append(code, byte(op))
	}
	code = append(code, byte(vm.PUSH1)+7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, byte(vm.AND))
	return append(code,
		byte(vm.PUSH1), 0, byte(vm.MSTORE),
		byte(vm.PUSH1), 32, byte(vm.PUSH1), 0, byte(vm.RETURN))
}

// offChainBytecode is spec's signed off-chain bytecode, constructor
// arguments included, for a fixed participant set.
func offChainBytecode(tb testing.TB, spec *hub.Spec) []byte {
	tb.Helper()
	split, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
	if err != nil {
		tb.Fatalf("%s: split: %v", spec.Scenario, err)
	}
	addrs := make([]types.Address, split.Participants)
	for i := range addrs {
		addrs[i] = types.BytesToAddress([]byte{0xA0, byte(i + 1)})
	}
	bytecode, err := split.OffChain.DeployWithArgs(spec.CtorArgs(addrs, 1_500_000_000)...)
	if err != nil {
		tb.Fatalf("%s: off-chain bytecode: %v", spec.Scenario, err)
	}
	return bytecode
}

// TestSandboxMatchesChain: the bare-EVM sandbox charges and answers exactly
// what the throw-away chain it replaced did — for every canonical spec's
// signed bytecode, for bytecode that reads each piece of its environment,
// and for every way a private run fails.
func TestSandboxMatchesChain(t *testing.T) {
	cases := map[string][]byte{}

	for _, spec := range []*hub.Spec{
		hub.BettingSpec(16, 600, false),
		hub.PoolSpec(4, 600, false),
		hub.LotterySpec(6, 64, 600, false),
		hub.AuctionSpec(600, false),
	} {
		cases["spec "+spec.Scenario] = offChainBytecode(t, spec)
	}

	// The environment a private run can observe: block context, transaction
	// context, and the balances the gas purchase and the fee leave behind.
	for name, ops := range map[string][]vm.OpCode{
		"number":           {vm.NUMBER},
		"timestamp":        {vm.TIMESTAMP},
		"gaslimit":         {vm.GASLIMIT},
		"difficulty":       {vm.DIFFICULTY},
		"coinbase":         {vm.COINBASE},
		"origin":           {vm.ORIGIN},
		"caller":           {vm.CALLER},
		"address":          {vm.ADDRESS},
		"gasprice":         {vm.GASPRICE},
		"gas":              {vm.GAS},
		"origin balance":   {vm.ORIGIN, vm.BALANCE},
		"coinbase balance": {vm.COINBASE, vm.BALANCE},
	} {
		cases["reads "+name] = initCode(nil, returnLow64(ops...))
	}
	slot0 := returnLow64(vm.PUSH1, 0, vm.SLOAD)
	// What the constructor sees while the gas is bought but not yet refunded.
	cases["constructor reads origin balance"] = initCode(
		[]byte{byte(vm.ORIGIN), byte(vm.BALANCE), byte(vm.PUSH1), 0, byte(vm.SSTORE)}, slot0)
	cases["constructor reads gasprice"] = initCode(
		[]byte{byte(vm.GASPRICE), byte(vm.PUSH1), 0, byte(vm.SSTORE)}, slot0)
	// Setting and clearing a slot costs 25,000 gas and earns 15,000 back;
	// twelve rounds earn more than half the gas used, so the cap decides
	// DeployGas.
	var churn []byte
	for i := 0; i < 12; i++ {
		churn = append(churn,
			byte(vm.PUSH1), 1, byte(vm.PUSH1), 0, byte(vm.SSTORE),
			byte(vm.PUSH1), 0, byte(vm.PUSH1), 0, byte(vm.SSTORE))
	}
	cases["refund cap"] = initCode(churn, slot0)

	loop := []byte{byte(vm.JUMPDEST), byte(vm.PUSH1), 0, byte(vm.JUMP)}
	failures := map[string]string{
		"constructor reverts":        "hybrid: sandbox deployment reverted",
		"constructor out of gas":     "hybrid: sandbox deployment reverted",
		"code deposit out of gas":    "hybrid: sandbox deployment reverted",
		"computeResult out of gas":   "hybrid: sandbox computeResult: ",
		"computeResult reverts":      "hybrid: sandbox computeResult: ",
		"result overflows uint64":    "hybrid: result overflows uint64: ",
		"computeResult returns none": "",
	}
	cases["constructor reverts"] = []byte{byte(vm.PUSH1), 0, byte(vm.PUSH1), 0, byte(vm.REVERT)}
	cases["constructor out of gas"] = loop
	// 24,000 bytes of runtime cost 4.8M gas to deposit; expanding memory
	// that far first leaves too little of the 8M.
	cases["code deposit out of gas"] = []byte{
		byte(vm.PUSH1), 0, byte(vm.PUSH3), 0x17, 0xff, 0xff, byte(vm.MSTORE),
		byte(vm.PUSH2), 0x5d, 0xc0, byte(vm.PUSH1), 0, byte(vm.RETURN)}
	cases["computeResult out of gas"] = initCode(nil, loop)
	cases["computeResult reverts"] = initCode(nil, []byte{byte(vm.PUSH1), 0, byte(vm.PUSH1), 0, byte(vm.REVERT)})
	cases["result overflows uint64"] = initCode(nil, []byte{
		byte(vm.PUSH1), 0, byte(vm.NOT), byte(vm.PUSH1), 0, byte(vm.MSTORE),
		byte(vm.PUSH1), 32, byte(vm.PUSH1), 0, byte(vm.RETURN)})
	cases["computeResult returns none"] = initCode(nil, []byte{byte(vm.STOP)})

	for name, bytecode := range cases {
		want, wantErr := executeOnSandboxChain(bytecode)
		got, gotErr := hybrid.ExecuteOffChain(bytecode)
		if prefix, failing := failures[name]; failing {
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || !strings.HasPrefix(gotErr.Error(), prefix) {
				t.Errorf("%s: sandbox error %q, chain error %q, want both %q…", name, gotErr, wantErr, prefix)
			}
			continue
		}
		if wantErr != nil || gotErr != nil {
			t.Errorf("%s: sandbox error %v, chain error %v", name, gotErr, wantErr)
			continue
		}
		if *got != *want {
			t.Errorf("%s: sandbox %+v, chain %+v", name, *got, *want)
		}
	}

	// The creation's gas limit is enforced before anything runs: bytecode
	// whose calldata alone costs more than 8,000,000 gas is refused.
	huge := make([]byte, 120_000)
	for i := range huge {
		huge[i] = 0xff
	}
	_, wantErr := executeOnSandboxChain(huge)
	_, gotErr := hybrid.ExecuteOffChain(huge)
	for _, err := range []error{wantErr, gotErr} {
		if err == nil || !strings.HasPrefix(err.Error(), "hybrid: sandbox deploy: ") || !strings.HasSuffix(err.Error(), "intrinsic gas too low") {
			t.Errorf("oversized bytecode: sandbox error %v, chain error %v, want intrinsic gas too low from both", gotErr, wantErr)
		}
	}
}

// BenchmarkExecuteOffChainLottery is one private run of offchain_heavy's
// session: the 6-party lottery's 8,000-round draw, deployed and called in
// the sandbox. Each session runs it once per party and once in the tower.
func BenchmarkExecuteOffChainLottery(b *testing.B) {
	bytecode := offChainBytecode(b, hub.LotterySpec(6, 8000, 600, false))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := hybrid.ExecuteOffChain(bytecode); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisputeDrawOnChain is the miner's side of the same draw: the
// one block that carries a lottery's deployVerifiedInstance and
// returnDisputeResolution, which recomputes the 8,000-round draw on chain.
// It is the block an offchain_heavy dispute waits for. Only the mining is
// timed; each iteration first deploys and signs a fresh contract.
func BenchmarkDisputeDrawOnChain(b *testing.B) {
	spec := hub.LotterySpec(6, 8000, 600, false)
	split, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
	if err != nil {
		b.Fatal(err)
	}
	alloc := map[types.Address]*uint256.Int{}
	keys := make([]*secp256k1.PrivateKey, split.Participants)
	for i := range keys {
		if keys[i], err = secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(uint64(0xD15C0 + i))); err != nil {
			b.Fatal(err)
		}
		alloc[types.Address(keys[i].EthereumAddress())] = new(uint256.Int).Mul(uint256.NewInt(1000), uint256.NewInt(1e18))
	}
	cfg := chain.DefaultConfig()
	cfg.AutoMine = false
	c := chain.New(cfg, alloc)
	net := whisper.NewNetwork(c.Now)
	parties := make([]*hybrid.Participant, len(keys))
	addrs := make([]types.Address, len(keys))
	for i, key := range keys {
		parties[i] = hybrid.NewParticipant(key, c, net)
		addrs[i] = parties[i].Addr
	}
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		sess, err := hybrid.NewSession(split, parties)
		if err != nil {
			b.Fatal(err)
		}
		args := spec.CtorArgs(addrs, c.Now())
		hash, err := sess.DeployOnChainAsync(parties[0], spec.DeployGas, args...)
		if err != nil {
			b.Fatal(err)
		}
		c.MineBlock()
		r, err := parties[0].WaitReceipt(hash)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.BindOnChain(r); err != nil {
			b.Fatal(err)
		}
		if err := sess.SignAndExchange(args...); err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := sess.Dispute(0)
			done <- err
		}()
		for c.PendingCount() != 2 {
			time.Sleep(50 * time.Microsecond)
		}
		b.StartTimer()
		c.MineBlock()
		b.StopTimer()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}
