package vm

// The interpreter loop as it was before its dispatch became a jump table and
// PUSH, SLOAD and SHA3 stopped decoding through copies, kept VERBATIM
// (modulo ref-prefixed names) as a differential oracle, with the map-based
// jump-destination analysis it used. One edit is shared with the fast loop:
// the CALL family grows memory for its input only after charging for it (the
// old order let a call allocate ~1 TiB before running out of gas). Its
// charge is unchanged: the two expansions priced from one size cost what
// they cost priced one after the other. Every gas figure the paper's tables
// report, and every verdict a tower reaches in its sandbox, depends on the
// fast loop computing and charging exactly what this one does, so
// FuzzVMDiff pins it here over the specs' off-chain bytecode and arbitrary
// code. Nested frames (CALL, CREATE) run on the fast loop on both sides.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"onoffchain/internal/keccak"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// refRun executes a contract frame to completion. Write protection is
// governed by evm.static, which STATICCALL sets for the whole subtree.
func (evm *EVM) refRun(c *Contract) ([]byte, error) {
	evm.depth++
	prevReturnData := evm.returnData
	evm.returnData = nil
	defer func() {
		evm.depth--
		evm.returnData = prevReturnData
	}()
	readOnly := evm.static

	if len(c.Code) == 0 {
		return nil, nil
	}

	st := new(Stack)
	mem := &Memory{}
	var pc uint64
	code := c.Code

	for {
		if pc >= uint64(len(code)) {
			return nil, nil // implicit STOP
		}
		op := OpCode(code[pc])
		spec := stackSpecs[op]
		if !spec.defined {
			return nil, ErrInvalidOpcode
		}
		if st.len() < spec.pop {
			return nil, ErrStackUnderflow
		}
		if st.len()-spec.pop+spec.push > StackLimit {
			return nil, ErrStackOverflow
		}
		if !c.useGas(constGas[op]) {
			return nil, ErrOutOfGas
		}

		switch {
		case op == STOP:
			return nil, nil

		case op == ADD, op == MUL, op == SUB, op == DIV, op == SDIV, op == MOD,
			op == SMOD, op == EXP, op == SIGNEXTEND, op == LT, op == GT,
			op == SLT, op == SGT, op == EQ, op == AND, op == OR, op == XOR,
			op == BYTE, op == SHL, op == SHR, op == SAR:
			x := st.pop()
			y := st.peek(0)
			var z uint256.Int
			switch op {
			case ADD:
				z.Add(&x, y)
			case MUL:
				z.Mul(&x, y)
			case SUB:
				z.Sub(&x, y)
			case DIV:
				z.Div(&x, y)
			case SDIV:
				z.SDiv(&x, y)
			case MOD:
				z.Mod(&x, y)
			case SMOD:
				z.SMod(&x, y)
			case EXP:
				if !c.useGas(expGasCost(y)) {
					return nil, ErrOutOfGas
				}
				z.Exp(&x, y)
			case SIGNEXTEND:
				z.SignExtend(&x, y)
			case LT:
				if x.Lt(y) {
					z.SetOne()
				}
			case GT:
				if x.Gt(y) {
					z.SetOne()
				}
			case SLT:
				if x.Slt(y) {
					z.SetOne()
				}
			case SGT:
				if x.Sgt(y) {
					z.SetOne()
				}
			case EQ:
				if x.Eq(y) {
					z.SetOne()
				}
			case AND:
				z.And(&x, y)
			case OR:
				z.Or(&x, y)
			case XOR:
				z.Xor(&x, y)
			case BYTE:
				z.Byte(&x, y)
			case SHL:
				if x.IsUint64() && x.Uint64() < 256 {
					z.Lsh(y, uint(x.Uint64()))
				}
			case SHR:
				if x.IsUint64() && x.Uint64() < 256 {
					z.Rsh(y, uint(x.Uint64()))
				}
			case SAR:
				if x.IsUint64() && x.Uint64() < 256 {
					z.SRsh(y, uint(x.Uint64()))
				} else if y.Sign() < 0 {
					z.Not(&z) // all ones
				}
			}
			*y = z

		case op == ADDMOD, op == MULMOD:
			x := st.pop()
			y := st.pop()
			m := st.peek(0)
			var z uint256.Int
			if op == ADDMOD {
				z.AddMod(&x, &y, m)
			} else {
				z.MulMod(&x, &y, m)
			}
			*m = z

		case op == ISZERO:
			v := st.peek(0)
			if v.IsZero() {
				v.SetOne()
			} else {
				v.Clear()
			}

		case op == NOT:
			v := st.peek(0)
			v.Not(v)

		case op == SHA3:
			offset := st.pop()
			size := st.pop()
			cost, off, sz, err := memExpansion(mem, &offset, &size)
			if err != nil {
				return nil, err
			}
			words := toWordSize(sz)
			if !c.useGas(cost + words*GasSha3Word) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			h := keccak.Sum256(mem.view(off, sz))
			var z uint256.Int
			z.SetBytes(h[:])
			st.push(&z)

		case op == ADDRESS:
			pushAddress(st, c.Address)
		case op == BALANCE:
			a := st.peek(0)
			addr := wordToAddress(a)
			*a = *evm.State.GetBalance(addr)
		case op == ORIGIN:
			pushAddress(st, evm.Tx.Origin)
		case op == CALLER:
			pushAddress(st, c.CallerAddress)
		case op == CALLVALUE:
			st.push(c.Value)
		case op == CALLDATALOAD:
			v := st.peek(0)
			v.SetBytes(readSlice(c.Input, v, 32))
		case op == CALLDATASIZE:
			st.pushUint64(uint64(len(c.Input)))
		case op == CODESIZE:
			st.pushUint64(uint64(len(c.Code)))
		case op == GASPRICE:
			st.push(evm.Tx.GasPrice)
		case op == RETURNDATASIZE:
			st.pushUint64(uint64(len(evm.returnData)))

		case op == CALLDATACOPY, op == CODECOPY, op == RETURNDATACOPY:
			memOff := st.pop()
			dataOff := st.pop()
			size := st.pop()
			cost, off, sz, err := memExpansion(mem, &memOff, &size)
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost + toWordSize(sz)*GasCopyWord) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			var src []byte
			switch op {
			case CALLDATACOPY:
				src = c.Input
			case CODECOPY:
				src = c.Code
			case RETURNDATACOPY:
				// Strict bounds: out-of-range is an error, not zero fill.
				end := new(uint256.Int).Add(&dataOff, &size)
				if !end.IsUint64() || end.Uint64() > uint64(len(evm.returnData)) {
					return nil, ErrReturnDataOutOfBounds
				}
				src = evm.returnData
			}
			mem.set(off, readSlice(src, &dataOff, sz))

		case op == EXTCODESIZE:
			a := st.peek(0)
			addr := wordToAddress(a)
			a.SetUint64(uint64(evm.State.GetCodeSize(addr)))

		case op == EXTCODECOPY:
			target := st.pop()
			memOff := st.pop()
			codeOff := st.pop()
			size := st.pop()
			cost, off, sz, err := memExpansion(mem, &memOff, &size)
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost + toWordSize(sz)*GasCopyWord) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			extCode := evm.State.GetCode(wordToAddress(&target))
			mem.set(off, readSlice(extCode, &codeOff, sz))

		case op == EXTCODEHASH:
			a := st.peek(0)
			addr := wordToAddress(a)
			if evm.State.Empty(addr) {
				a.Clear()
			} else {
				a.SetBytes(evm.State.GetCodeHash(addr).Bytes())
			}

		case op == BLOCKHASH:
			v := st.peek(0)
			if v.IsUint64() && v.Uint64() < evm.Block.Number && evm.Block.Number-v.Uint64() <= 256 {
				h := evm.Block.BlockHash(v.Uint64())
				v.SetBytes(h.Bytes())
			} else {
				v.Clear()
			}
		case op == COINBASE:
			pushAddress(st, evm.Block.Coinbase)
		case op == TIMESTAMP:
			st.pushUint64(evm.Block.Time)
		case op == NUMBER:
			st.pushUint64(evm.Block.Number)
		case op == DIFFICULTY:
			st.push(evm.Block.Difficulty)
		case op == GASLIMIT:
			st.pushUint64(evm.Block.GasLimit)

		case op == POP:
			st.pop()

		case op == MLOAD:
			offset := st.peek(0)
			cost, off, _, err := memExpansion(mem, offset, uint256.NewInt(32))
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + 32)
			offset.SetBytes(mem.view(off, 32))

		case op == MSTORE:
			offset := st.pop()
			value := st.pop()
			cost, off, _, err := memExpansion(mem, &offset, uint256.NewInt(32))
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + 32)
			word := value.Bytes32()
			mem.set(off, word[:])

		case op == MSTORE8:
			offset := st.pop()
			value := st.pop()
			cost, off, _, err := memExpansion(mem, &offset, uint256.NewInt(1))
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + 1)
			mem.setByte(off, byte(value.Uint64()))

		case op == SLOAD:
			k := st.peek(0)
			key := types.BytesToHash(refKBytes(k))
			val := evm.State.GetState(c.Address, key)
			k.SetBytes(val.Bytes())

		case op == SSTORE:
			if readOnly {
				return nil, ErrWriteProtection
			}
			key := st.pop()
			val := st.pop()
			kh := types.BytesToHash(refKBytes(&key))
			vh := types.BytesToHash(refKBytes(&val))
			current := evm.State.GetState(c.Address, kh)
			// Pre-EIP-1283 rule (the schedule Solidity-era gas intuition and
			// the paper's Table II numbers are based on).
			var cost uint64
			switch {
			case current.IsZero() && !vh.IsZero():
				cost = GasSstoreSet
			default:
				cost = GasSstoreReset
				if !current.IsZero() && vh.IsZero() {
					evm.State.AddRefund(GasSstoreRefund)
				}
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			evm.State.SetState(c.Address, kh, vh)

		case op == JUMP:
			dest := st.pop()
			if !refValidJumpdest(c, &dest) {
				return nil, ErrInvalidJump
			}
			pc = dest.Uint64()
			continue

		case op == JUMPI:
			dest := st.pop()
			cond := st.pop()
			if !cond.IsZero() {
				if !refValidJumpdest(c, &dest) {
					return nil, ErrInvalidJump
				}
				pc = dest.Uint64()
				continue
			}

		case op == PC:
			st.pushUint64(pc)
		case op == MSIZE:
			st.pushUint64(mem.size())
		case op == GAS:
			st.pushUint64(c.Gas)
		case op == JUMPDEST:
			// no-op

		case op.IsPush():
			n := uint64(op-PUSH1) + 1
			var v uint256.Int
			start := pc + 1
			end := start + n
			if start > uint64(len(code)) {
				start = uint64(len(code))
			}
			if end > uint64(len(code)) {
				// Zero-fill past end of code.
				buf := make([]byte, n)
				copy(buf, code[start:])
				v.SetBytes(buf)
			} else {
				v.SetBytes(code[start:end])
			}
			st.push(&v)
			pc += n + 1
			continue

		case op >= DUP1 && op <= DUP16:
			st.dup(int(op-DUP1) + 1)

		case op >= SWAP1 && op <= SWAP16:
			st.swap(int(op-SWAP1) + 1)

		case op >= LOG0 && op <= LOG4:
			if readOnly {
				return nil, ErrWriteProtection
			}
			nTopics := int(op - LOG0)
			offset := st.pop()
			size := st.pop()
			topics := make([]types.Hash, nTopics)
			for i := 0; i < nTopics; i++ {
				t := st.pop()
				topics[i] = types.BytesToHash(refKBytes(&t))
			}
			cost, off, sz, err := memExpansion(mem, &offset, &size)
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost + sz*GasLogByte) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			evm.State.AddLog(&types.Log{
				Address: c.Address,
				Topics:  topics,
				Data:    mem.get(off, sz),
			})

		case op == CREATE, op == CREATE2:
			if readOnly {
				return nil, ErrWriteProtection
			}
			value := st.pop()
			offset := st.pop()
			size := st.pop()
			var salt uint256.Int
			if op == CREATE2 {
				salt = st.pop()
			}
			cost, off, sz, err := memExpansion(mem, &offset, &size)
			if err != nil {
				return nil, err
			}
			if op == CREATE2 {
				cost += toWordSize(sz) * GasSha3Word // hashing the init code
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			initCode := mem.get(off, sz)
			// EIP-150: forward all but 1/64th.
			forward := c.Gas - c.Gas/64
			c.Gas -= forward
			var ret []byte
			var addr types.Address
			var leftGas uint64
			if op == CREATE {
				ret, addr, leftGas, err = evm.Create(c.Address, initCode, forward, &value)
			} else {
				ret, addr, leftGas, err = evm.Create2(c.Address, initCode, forward, &value, types.BytesToHash(refKBytes(&salt)))
			}
			c.Gas += leftGas
			var res uint256.Int
			if err == nil {
				res.SetBytes(addr.Bytes())
				evm.returnData = nil
			} else if err == ErrExecutionReverted {
				evm.returnData = ret
			} else {
				evm.returnData = nil
			}
			st.push(&res)

		case op == CALL, op == CALLCODE, op == DELEGATECALL, op == STATICCALL:
			gasReq := st.pop()
			target := st.pop()
			var value uint256.Int
			if op == CALL || op == CALLCODE {
				value = st.pop()
			}
			inOff := st.pop()
			inSize := st.pop()
			outOff := st.pop()
			outSize := st.pop()

			if op == CALL && readOnly && !value.IsZero() {
				return nil, ErrWriteProtection
			}

			costIn, inO, inS, err := memExpansion(mem, &inOff, &inSize)
			if err != nil {
				return nil, err
			}
			costOut, outO, outS, err := memExpansion(mem, &outOff, &outSize)
			if err != nil {
				return nil, err
			}
			// Both regions are priced from the same memory size, so the
			// larger is the cost of growing to the further end; memory
			// grows only once the gas is paid.
			extra := max(costIn, costOut)
			if !value.IsZero() {
				extra += GasCallValue
				if op == CALL && !evm.State.Exist(wordToAddress(&target)) {
					extra += GasNewAccount
				}
			}
			if !c.useGas(extra) {
				return nil, ErrOutOfGas
			}
			mem.resize(inO + inS)
			mem.resize(outO + outS)

			// EIP-150 forwarding cap.
			available := c.Gas - c.Gas/64
			forward := available
			if gasReq.IsUint64() && gasReq.Uint64() < available {
				forward = gasReq.Uint64()
			}
			c.Gas -= forward
			if !value.IsZero() {
				forward += GasCallStipend
			}

			input := mem.get(inO, inS)
			addr := wordToAddress(&target)
			var ret []byte
			var leftGas uint64
			switch op {
			case CALL:
				ret, leftGas, err = evm.Call(c.Address, addr, input, forward, &value)
			case CALLCODE:
				ret, leftGas, err = evm.CallCode(c.Address, addr, input, forward, &value)
			case DELEGATECALL:
				ret, leftGas, err = evm.DelegateCall(c, addr, input, forward)
			case STATICCALL:
				ret, leftGas, err = evm.StaticCall(c.Address, addr, input, forward)
			}
			c.Gas += leftGas
			evm.returnData = ret
			var res uint256.Int
			if err == nil {
				res.SetOne()
			}
			if len(ret) > 0 && outS > 0 {
				n := uint64(len(ret))
				if n > outS {
					n = outS
				}
				mem.set(outO, ret[:n])
			}
			st.push(&res)

		case op == RETURN:
			offset := st.pop()
			size := st.pop()
			cost, off, sz, err := memExpansion(mem, &offset, &size)
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			return mem.get(off, sz), nil

		case op == REVERT:
			offset := st.pop()
			size := st.pop()
			cost, off, sz, err := memExpansion(mem, &offset, &size)
			if err != nil {
				return nil, err
			}
			if !c.useGas(cost) {
				return nil, ErrOutOfGas
			}
			mem.resize(off + sz)
			return mem.get(off, sz), ErrExecutionReverted

		case op == INVALID:
			return nil, ErrInvalidOpcode

		case op == SELFDESTRUCT:
			if readOnly {
				return nil, ErrWriteProtection
			}
			beneficiary := st.pop()
			target := wordToAddress(&beneficiary)
			balance := evm.State.GetBalance(c.Address)
			if !balance.IsZero() && !evm.State.Exist(target) {
				if !c.useGas(GasNewAccount) {
					return nil, ErrOutOfGas
				}
			}
			if !evm.State.HasSelfDestructed(c.Address) {
				evm.State.AddRefund(GasSelfdestructRefund)
			}
			evm.State.AddBalance(target, balance)
			evm.State.SelfDestruct(c.Address)
			return nil, nil

		default:
			return nil, ErrInvalidOpcode
		}
		pc++
	}
}

func refKBytes(v *uint256.Int) []byte {
	b := v.Bytes32()
	return b[:]
}

// refJumpdests caches refAnalyzeJumpdests per frame, as the old Contract
// field did; CheckAgainstOracle empties it after every run.
var (
	refJumpdestsMu sync.Mutex
	refJumpdests   = map[*Contract]map[uint64]bool{}
)

// refValidJumpdest reports whether dest is a JUMPDEST on an instruction
// boundary (not inside PUSH data).
func refValidJumpdest(c *Contract, dest *uint256.Int) bool {
	if !dest.IsUint64() {
		return false
	}
	pos := dest.Uint64()
	if pos >= uint64(len(c.Code)) || OpCode(c.Code[pos]) != JUMPDEST {
		return false
	}
	refJumpdestsMu.Lock()
	defer refJumpdestsMu.Unlock()
	dests, ok := refJumpdests[c]
	if !ok {
		dests = refAnalyzeJumpdests(c.Code)
		refJumpdests[c] = dests
	}
	return dests[pos]
}

// refAnalyzeJumpdests marks the code offsets holding reachable JUMPDEST
// opcodes, skipping PUSH immediate data.
func refAnalyzeJumpdests(code []byte) map[uint64]bool {
	dests := make(map[uint64]bool)
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

// oracleGas is each frame's gas: ample for every spec seed's creation and
// call (at most 0.2M each), and small enough that an input that loops until
// it runs out costs the fuzzer milliseconds, not a second.
const oracleGas = 1_000_000

// frameOutcome is everything one frame leaves that a caller can observe.
type frameOutcome struct {
	ret    []byte
	err    error
	gas    uint64 // gas left
	refund uint64
	logs   []*types.Log
	root   types.Hash // storage, balances, nonces and code
}

// execFrames runs code with input as a frame of a fresh state through run.
// If that frame succeeds and returns bytes, it installs them as the
// contract's code and runs them with the same input: a creation followed by
// a call, the way the sandbox runs a signed off-chain copy.
func execFrames(run func(*EVM, *Contract) ([]byte, error), code, input []byte) []frameOutcome {
	evm, st := testEVM()
	self := types.BytesToAddress([]byte{0xc0, 0xde})
	st.SetBalance(caller, uint256.NewInt(1e18))
	st.SetBalance(self, uint256.NewInt(1e9))
	st.SetCode(self, code)
	var outs []frameOutcome
	for frame := 0; frame < 2; frame++ {
		c := newContract(caller, self, uint256.NewInt(0), code, input, oracleGas)
		ret, err := run(evm, c)
		out := frameOutcome{ret: ret, err: err, gas: c.Gas, refund: st.GetRefund(), logs: st.TakeLogs()}
		out.root = st.Commit()
		outs = append(outs, out)
		if err != nil || len(ret) == 0 {
			break
		}
		code = ret
		st.SetCode(self, code)
	}
	return outs
}

// CheckAgainstOracle runs code and input through the interpreter and
// through refRun on identical fresh states and fails t unless both leave
// identical return bytes, error, gas, refund, logs and state.
func CheckAgainstOracle(t testing.TB, code, input []byte) {
	t.Helper()
	got := execFrames((*EVM).run, code, input)
	want := execFrames((*EVM).refRun, code, input)
	refJumpdestsMu.Lock()
	clear(refJumpdests)
	refJumpdestsMu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("code %x: ran %d frames, oracle %d", code, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case !bytes.Equal(g.ret, w.ret):
			t.Fatalf("code %x frame %d: returned %x, oracle %x", code, i, g.ret, w.ret)
		case g.err != w.err:
			t.Fatalf("code %x frame %d: error %v, oracle %v", code, i, g.err, w.err)
		case g.gas != w.gas:
			t.Fatalf("code %x frame %d: gas left %d, oracle %d", code, i, g.gas, w.gas)
		case g.refund != w.refund:
			t.Fatalf("code %x frame %d: refund %d, oracle %d", code, i, g.refund, w.refund)
		case !reflect.DeepEqual(g.logs, w.logs):
			t.Fatalf("code %x frame %d: logs %s, oracle %s", code, i, logsString(g.logs), logsString(w.logs))
		case g.root != w.root:
			t.Fatalf("code %x frame %d: state root %x, oracle %x", code, i, g.root, w.root)
		}
	}
}

func logsString(logs []*types.Log) string {
	var b strings.Builder
	for _, l := range logs {
		fmt.Fprintf(&b, "%+v ", *l)
	}
	return b.String()
}
