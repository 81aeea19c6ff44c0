// Package lang implements Solo, a small Solidity-like contract language
// compiled to EVM bytecode: storage variables with Solidity-compatible
// layout (including keccak(key.slot) mappings), a 4-byte-selector function
// dispatcher, modifiers, events, internal-function inlining, dynamic bytes
// calldata, and the builtins the paper's mechanism requires — keccak256,
// ecrecover, create(bytes) and external interface calls.
package lang

import (
	"fmt"

	"onoffchain/internal/abi"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/vm"
)

// FuncMeta describes a public function of a compiled contract.
type FuncMeta struct {
	Name      string
	Signature string
	Selector  [4]byte
	Params    []*Param
	Ret       *TypeRef
	Payable   bool
}

// EventMeta describes an event of a compiled contract.
type EventMeta struct {
	Signature string
	Topic     types.Hash
}

// CompiledContract holds the artifacts for one contract.
type CompiledContract struct {
	Name    string
	Deploy  []byte // init code; ABI-encoded constructor args are appended
	Runtime []byte
	Funcs   map[string]*FuncMeta
	Events  map[string]*EventMeta
	AST     *Contract
}

// Compiled is the result of compiling a source file.
type Compiled struct {
	Contracts  map[string]*CompiledContract
	Interfaces map[string]*Interface
}

// Compile parses and compiles Solo source.
func Compile(src string) (*Compiled, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileFile(file)
}

// CompileFile compiles an already-parsed file.
func CompileFile(file *File) (*Compiled, error) {
	out := &Compiled{
		Contracts:  make(map[string]*CompiledContract),
		Interfaces: make(map[string]*Interface),
	}
	for _, iface := range file.Interfaces {
		out.Interfaces[iface.Name] = iface
	}
	for _, c := range file.Contracts {
		cc, err := compileContract(c, out.Interfaces)
		if err != nil {
			return nil, fmt.Errorf("contract %s: %w", c.Name, err)
		}
		out.Contracts[c.Name] = cc
	}
	return out, nil
}

// EncodeConstructorArgs ABI-encodes constructor arguments for appending to
// the deploy code.
func (cc *CompiledContract) EncodeConstructorArgs(args ...interface{}) ([]byte, error) {
	if cc.AST.Ctor == nil {
		if len(args) != 0 {
			return nil, fmt.Errorf("lang: %s has no constructor", cc.Name)
		}
		return nil, nil
	}
	var typs []abi.Type
	for _, p := range cc.AST.Ctor.Params {
		t, err := abi.ParseType(p.Type.ABIName())
		if err != nil {
			return nil, err
		}
		typs = append(typs, t)
	}
	if len(args) != len(typs) {
		return nil, fmt.Errorf("lang: constructor expects %d args, got %d", len(typs), len(args))
	}
	return abi.EncodeValues(typs, args)
}

// DeployWithArgs returns deploy code with encoded constructor args appended.
func (cc *CompiledContract) DeployWithArgs(args ...interface{}) ([]byte, error) {
	enc, err := cc.EncodeConstructorArgs(args...)
	if err != nil {
		return nil, err
	}
	return append(append([]byte{}, cc.Deploy...), enc...), nil
}

// Method returns the abi.Method for a public function, for packing calls.
func (cc *CompiledContract) Method(name string) (*abi.Method, error) {
	fm, ok := cc.Funcs[name]
	if !ok {
		return nil, fmt.Errorf("lang: %s has no public function %q", cc.Name, name)
	}
	var ins []string
	for _, p := range fm.Params {
		ins = append(ins, p.Type.ABIName())
	}
	var outs []string
	if fm.Ret != nil {
		outs = append(outs, fm.Ret.ABIName())
	}
	return abi.NewMethod(fm.Name, ins, outs)
}

// Memory layout constants (Solidity-compatible).
const (
	memScratch   = 0x00 // two words of hashing scratch
	memFreePtr   = 0x40 // free memory pointer slot
	memLocalBase = 0x80 // first local variable slot
)

// localVar is a memory-resident local or parameter.
type localVar struct {
	offset uint64
	typ    *TypeRef
}

// compiler carries per-contract state.
type compiler struct {
	contract   *Contract
	interfaces map[string]*Interface
	stateVars  map[string]*StateVar
	events     map[string]*Event
	modifiers  map[string]*Modifier
	internal   map[string]*Function

	labelSeq int
}

// frame is the compile-time scope of one function body. Inlined internal
// functions get their own frame (no access to caller locals) but share the
// root frame's memory slot counter.
type frame struct {
	fn     *Function
	locals map[string]localVar
	root   *frame

	nextLocal uint64 // root only: slots allocated so far

	// inline return plumbing ("" for the outermost function)
	inlineRetLabel string
	inlineRetSlot  uint64
}

func newRootFrame(fn *Function) *frame {
	f := &frame{fn: fn, locals: make(map[string]localVar)}
	f.root = f
	return f
}

func (f *frame) child(fn *Function) *frame {
	return &frame{fn: fn, locals: make(map[string]localVar), root: f.root}
}

func (c *compiler) newLabel(prefix string) string {
	c.labelSeq++
	return fmt.Sprintf("%s_%d", prefix, c.labelSeq)
}

func (f *frame) lookup(name string) (localVar, bool) {
	lv, ok := f.locals[name]
	return lv, ok
}

// alloc reserves a local slot in the root frame's region.
func (f *frame) alloc(name string, typ *TypeRef) localVar {
	lv := localVar{offset: memLocalBase + 32*f.root.nextLocal, typ: typ}
	f.root.nextLocal++
	if name != "" {
		f.locals[name] = lv
	}
	return lv
}

func compileContract(c *Contract, interfaces map[string]*Interface) (*CompiledContract, error) {
	comp := &compiler{
		contract:   c,
		interfaces: interfaces,
		stateVars:  make(map[string]*StateVar),
		events:     make(map[string]*Event),
		modifiers:  make(map[string]*Modifier),
		internal:   make(map[string]*Function),
	}
	// Storage layout: one slot per word variable / mapping, Len slots per
	// fixed array, in declaration order (Solidity-compatible).
	slot := 0
	for _, v := range c.Vars {
		if v.Type.Kind == TypeBytes {
			return nil, errAt(v.Line, 1, "bytes state variables are not supported")
		}
		v.Slot = slot
		comp.stateVars[v.Name] = v
		if v.Type.Kind == TypeArray {
			slot += v.Type.Len
		} else {
			slot++
		}
	}
	for _, e := range c.Events {
		comp.events[e.Name] = e
	}
	for _, m := range c.Modifiers {
		comp.modifiers[m.Name] = m
	}
	for _, fn := range c.Functions {
		if !fn.Public {
			comp.internal[fn.Name] = fn
		}
	}

	runtime, funcs, err := comp.compileRuntime()
	if err != nil {
		return nil, err
	}
	deploy, err := comp.compileDeploy(runtime)
	if err != nil {
		return nil, err
	}

	cc := &CompiledContract{
		Name:    c.Name,
		Deploy:  deploy,
		Runtime: runtime,
		Funcs:   funcs,
		Events:  make(map[string]*EventMeta),
		AST:     c,
	}
	for _, e := range c.Events {
		cc.Events[e.Name] = &EventMeta{Signature: e.Signature(), Topic: abi.EventTopic(e.Signature())}
	}
	return cc, nil
}

// compileRuntime builds the dispatcher and all public function bodies.
func (c *compiler) compileRuntime() ([]byte, map[string]*FuncMeta, error) {
	a := &Assembler{}
	funcs := make(map[string]*FuncMeta)

	// Free-pointer bootstrap (each function prologue refines it).
	a.PushUint(memLocalBase)
	a.PushUint(memFreePtr)
	a.Op(vm.MSTORE)

	// Dispatcher.
	a.Op(vm.CALLDATASIZE)
	a.PushUint(4)
	a.Op(vm.GT) // 4 > calldatasize ?
	a.PushLabel("revert")
	a.Op(vm.JUMPI)
	a.PushUint(0)
	a.Op(vm.CALLDATALOAD)
	a.PushUint(224)
	a.Op(vm.SHR)

	var publics []*Function
	seen := map[string]bool{}
	for _, fn := range c.contract.Functions {
		if !fn.Public {
			continue
		}
		if seen[fn.Name] {
			return nil, nil, errAt(fn.Line, 1, "duplicate public function %q (overloading unsupported)", fn.Name)
		}
		seen[fn.Name] = true
		publics = append(publics, fn)
	}
	for _, fn := range publics {
		sel := abi.SelectorOf(fn.Signature())
		a.Op(vm.DUP1)
		a.PushBytes(sel[:])
		a.Op(vm.EQ)
		a.PushLabel("fn_" + fn.Name)
		a.Op(vm.JUMPI)
	}
	a.PushLabel("revert")
	a.Op(vm.JUMP)

	// Shared revert target.
	a.Label("revert")
	a.PushUint(0)
	a.PushUint(0)
	a.Op(vm.REVERT)

	for _, fn := range publics {
		sel := abi.SelectorOf(fn.Signature())
		funcs[fn.Name] = &FuncMeta{
			Name:      fn.Name,
			Signature: fn.Signature(),
			Selector:  sel,
			Params:    fn.Params,
			Ret:       fn.Ret,
			Payable:   fn.Payable,
		}
		a.Label("fn_" + fn.Name)
		a.Op(vm.POP) // drop the selector copy
		if !fn.Payable {
			a.Op(vm.CALLVALUE)
			a.PushLabel("revert")
			a.Op(vm.JUMPI)
		}
		body, maxLocals, err := c.compileFunctionBody(fn)
		if err != nil {
			return nil, nil, err
		}
		// Prologue: free pointer past the full locals region.
		a.PushUint(memLocalBase + 32*maxLocals)
		a.PushUint(memFreePtr)
		a.Op(vm.MSTORE)
		a.Append(body)
		// Implicit epilogue (fall-through without explicit return).
		if fn.Ret != nil {
			a.PushUint(0)
			a.PushUint(memScratch)
			a.Op(vm.MSTORE)
			a.PushUint(32)
			a.PushUint(memScratch)
			a.Op(vm.RETURN)
		} else {
			a.Op(vm.STOP)
		}
	}

	code, err := a.Assemble()
	if err != nil {
		return nil, nil, err
	}
	if len(code) > vm.MaxCodeSize {
		return nil, nil, fmt.Errorf("lang: runtime code %d bytes exceeds EIP-170 limit", len(code))
	}
	return code, funcs, nil
}

// compileFunctionBody emits calldata decoding, spliced modifiers, and the
// statement body. It returns the assembled fragment and the number of
// local slots used.
func (c *compiler) compileFunctionBody(fn *Function) (*Assembler, uint64, error) {
	a := &Assembler{}
	f := newRootFrame(fn)

	// Decode parameters into locals.
	for i, p := range fn.Params {
		lv := f.alloc(p.Name, p.Type)
		switch {
		case p.Type.isWord():
			a.PushUint(uint64(4 + 32*i))
			a.Op(vm.CALLDATALOAD)
			if p.Type.Kind == TypeAddress {
				c.emitAddressMask(a)
			}
			if p.Type.Kind == TypeUint8 {
				a.PushUint(0xff)
				a.Op(vm.AND)
			}
			a.PushUint(lv.offset)
			a.Op(vm.MSTORE)
		case p.Type.Kind == TypeBytes:
			c.emitBytesCalldataDecode(a, uint64(4+32*i), lv.offset)
		default:
			return nil, 0, errAt(fn.Line, 1, "parameter type %s not supported", p.Type)
		}
	}

	// Splice modifiers around the body (in declaration order, innermost
	// last, Solidity semantics).
	body := fn.Body
	for i := len(fn.Modifiers) - 1; i >= 0; i-- {
		mod, ok := c.modifiers[fn.Modifiers[i]]
		if !ok {
			return nil, 0, errAt(fn.Line, 1, "unknown modifier %q", fn.Modifiers[i])
		}
		body = spliceModifier(mod.Body, body)
	}
	if err := c.compileStmts(a, f, body); err != nil {
		return nil, 0, err
	}
	return a, f.nextLocal, nil
}

// spliceModifier replaces the placeholder `_;` with the inner statements.
func spliceModifier(modBody, inner []Stmt) []Stmt {
	var out []Stmt
	for _, s := range modBody {
		if _, ok := s.(*PlaceholderStmt); ok {
			out = append(out, inner...)
			continue
		}
		out = append(out, s)
	}
	return out
}

// compileDeploy builds the init code: run the constructor (args appended
// after the runtime image), then return the runtime code.
func (c *compiler) compileDeploy(runtime []byte) ([]byte, error) {
	a := &Assembler{}
	ctor := c.contract.Ctor

	maxLocals := uint64(0)
	var body *Assembler
	if ctor != nil {
		for _, p := range ctor.Params {
			if !p.Type.isWord() {
				return nil, errAt(ctor.Line, 1, "constructor parameter type %s not supported", p.Type)
			}
		}
		f := newRootFrame(ctor)
		// Allocate param locals first so CODECOPY lands on them.
		for _, p := range ctor.Params {
			f.alloc(p.Name, p.Type)
		}
		body = &Assembler{}
		if err := c.compileStmts(body, f, ctor.Body); err != nil {
			return nil, err
		}
		maxLocals = f.nextLocal
	}

	// Free pointer.
	a.PushUint(memLocalBase + 32*maxLocals)
	a.PushUint(memFreePtr)
	a.Op(vm.MSTORE)

	if ctor != nil && len(ctor.Params) > 0 {
		argBytes := uint64(32 * len(ctor.Params))
		// argStart = codesize - argBytes
		a.PushUint(argBytes)
		a.Op(vm.CODESIZE)
		a.Op(vm.SUB)
		// CODECOPY(localBase, argStart, argBytes)
		a.PushUint(argBytes)
		a.Op(vm.SWAP1)
		a.PushUint(memLocalBase)
		a.Op(vm.CODECOPY)
	}
	if body != nil {
		a.Append(body)
	}
	// Return the runtime image.
	a.PushUint(uint64(len(runtime)))
	a.PushLabel("runtime_start")
	a.PushUint(0)
	a.Op(vm.CODECOPY)
	a.PushUint(uint64(len(runtime)))
	a.PushUint(0)
	a.Op(vm.RETURN)
	// Constructor revert path.
	a.Label("revert")
	a.PushUint(0)
	a.PushUint(0)
	a.Op(vm.REVERT)
	a.Mark("runtime_start")
	a.Raw(runtime)
	return a.Assemble()
}

// emitAddressMask truncates the top word to 160 bits.
func (c *compiler) emitAddressMask(a *Assembler) {
	mask := new(uint256.Int).Not(new(uint256.Int))
	mask.Rsh(mask, 96)
	a.Push(mask)
	a.Op(vm.AND)
}

// emitBytesCalldataDecode loads a dynamic bytes argument whose head word is
// at calldata[headOff] into fresh memory, storing the [len|data...] pointer
// into the local at localOff.
func (c *compiler) emitBytesCalldataDecode(a *Assembler, headOff, localOff uint64) {
	// base = 4 + calldataload(headOff)  (absolute offset of length word)
	a.PushUint(headOff)
	a.Op(vm.CALLDATALOAD)
	a.PushUint(4)
	a.Op(vm.ADD) // [base]
	// len = calldataload(base)
	a.Op(vm.DUP1)
	a.Op(vm.CALLDATALOAD) // [base, len]
	// dst = mload(0x40)
	a.PushUint(memFreePtr)
	a.Op(vm.MLOAD) // [base, len, dst]
	// mstore(dst, len)
	a.Op(vm.DUP2)
	a.Op(vm.DUP2)
	a.Op(vm.MSTORE) // [base, len, dst]
	// calldatacopy(dst+32, base+32, len)
	a.Op(vm.DUP2) // [base, len, dst, len]
	a.Op(vm.DUP4)
	a.PushUint(32)
	a.Op(vm.ADD) // [base, len, dst, len, base+32]
	a.Op(vm.DUP3)
	a.PushUint(32)
	a.Op(vm.ADD)          // [base, len, dst, len, base+32, dst+32]
	a.Op(vm.CALLDATACOPY) // [base, len, dst]
	// store pointer into local
	a.Op(vm.DUP1)
	a.PushUint(localOff)
	a.Op(vm.MSTORE)
	// freeptr = dst + 32 + ceil32(len)
	a.Op(vm.SWAP1) // [base, dst, len]
	a.PushUint(31)
	a.Op(vm.ADD)
	a.PushBytes(ceil32MaskBytes()) // ~31
	a.Op(vm.AND)                   // ceil32(len)
	a.PushUint(32)
	a.Op(vm.ADD)
	a.Op(vm.ADD) // dst + 32 + ceil32(len)
	a.PushUint(memFreePtr)
	a.Op(vm.MSTORE) // [base]
	a.Op(vm.POP)
}

func ceil32MaskBytes() []byte {
	mask := new(uint256.Int).Not(uint256.NewInt(31))
	return mask.Bytes()
}
