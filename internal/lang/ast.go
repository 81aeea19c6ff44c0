package lang

import (
	"fmt"

	"onoffchain/internal/uint256"
)

// TypeKind enumerates Solo types.
type TypeKind int

// Solo type kinds.
const (
	TypeUint TypeKind = iota
	TypeUint8
	TypeAddress
	TypeBool
	TypeBytes32
	TypeBytes // dynamic, memory only
	TypeMapping
	TypeArray // fixed-size storage array
	TypeVoid
)

// TypeRef is a (possibly composite) type reference.
type TypeRef struct {
	Kind TypeKind
	// Mapping key/value.
	Key, Value *TypeRef
	// Array element type and fixed length.
	Elem *TypeRef
	Len  int
}

// String renders the Solidity-style name.
func (t *TypeRef) String() string {
	switch t.Kind {
	case TypeUint:
		return "uint"
	case TypeUint8:
		return "uint8"
	case TypeAddress:
		return "address"
	case TypeBool:
		return "bool"
	case TypeBytes32:
		return "bytes32"
	case TypeBytes:
		return "bytes"
	case TypeMapping:
		return fmt.Sprintf("mapping(%s => %s)", t.Key, t.Value)
	case TypeArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case TypeVoid:
		return "void"
	default:
		return "?"
	}
}

// ABIName returns the canonical ABI type name used in selectors.
func (t *TypeRef) ABIName() string {
	switch t.Kind {
	case TypeUint:
		return "uint256"
	case TypeUint8:
		return "uint8"
	case TypeAddress:
		return "address"
	case TypeBool:
		return "bool"
	case TypeBytes32:
		return "bytes32"
	case TypeBytes:
		return "bytes"
	default:
		return t.String()
	}
}

// isWord reports whether the type occupies a single EVM word.
func (t *TypeRef) isWord() bool {
	switch t.Kind {
	case TypeUint, TypeUint8, TypeAddress, TypeBool, TypeBytes32:
		return true
	}
	return false
}

// sameType reports loose type equality (uint widths unify).
func sameType(a, b *TypeRef) bool {
	ak, bk := a.Kind, b.Kind
	if ak == TypeUint8 {
		ak = TypeUint
	}
	if bk == TypeUint8 {
		bk = TypeUint
	}
	return ak == bk
}

// File is a parsed compilation unit.
type File struct {
	Contracts  []*Contract
	Interfaces []*Interface
}

// Contract is a contract declaration.
type Contract struct {
	Name      string
	Vars      []*StateVar
	Events    []*Event
	Modifiers []*Modifier
	Functions []*Function
	Ctor      *Function // nil when absent
	Line      int
}

// Interface declares external callable signatures.
type Interface struct {
	Name      string
	Functions []*FuncSig
	Line      int
}

// FuncSig is an interface function signature.
type FuncSig struct {
	Name   string
	Params []*Param
	Ret    *TypeRef // nil for void
}

// StateVar is a storage variable declaration.
type StateVar struct {
	Name string
	Type *TypeRef
	Slot int // assigned during layout
	Line int
}

// Event declaration (all arguments unindexed).
type Event struct {
	Name   string
	Params []*Param
	Line   int
}

// Modifier is a reusable guard; its body contains a Placeholder statement
// where the function body is spliced.
type Modifier struct {
	Name string
	Body []Stmt
	Line int
}

// Param is a named, typed parameter.
type Param struct {
	Name string
	Type *TypeRef
}

// Function declaration. Visibility "public" functions enter the dispatcher;
// "internal" functions are inlined at call sites.
type Function struct {
	Name      string
	Params    []*Param
	Ret       *TypeRef // nil for void
	Public    bool
	Payable   bool
	Modifiers []string // applied in order
	Body      []Stmt
	IsCtor    bool
	Line      int
}

// Signature returns the canonical ABI signature.
func (f *Function) Signature() string {
	s := f.Name + "("
	for i, p := range f.Params {
		if i > 0 {
			s += ","
		}
		s += p.Type.ABIName()
	}
	return s + ")"
}

// Signature returns the canonical ABI signature of an interface function.
func (f *FuncSig) Signature() string {
	s := f.Name + "("
	for i, p := range f.Params {
		if i > 0 {
			s += ","
		}
		s += p.Type.ABIName()
	}
	return s + ")"
}

// Signature returns the canonical event signature.
func (e *Event) Signature() string {
	s := e.Name + "("
	for i, p := range e.Params {
		if i > 0 {
			s += ","
		}
		s += p.Type.ABIName()
	}
	return s + ")"
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

type (
	// VarDeclStmt declares and initializes a local.
	VarDeclStmt struct {
		Name string
		Type *TypeRef
		Init Expr
		Line int
	}
	// AssignStmt assigns to a local, state var, mapping or array element.
	AssignStmt struct {
		Target Expr // IdentExpr or IndexExpr
		Value  Expr
		Line   int
	}
	// IfStmt with optional else.
	IfStmt struct {
		Cond Expr
		Then []Stmt
		Else []Stmt
		Line int
	}
	// WhileStmt loop.
	WhileStmt struct {
		Cond Expr
		Body []Stmt
		Line int
	}
	// ReturnStmt exits the function (value may be nil).
	ReturnStmt struct {
		Value Expr
		Line  int
	}
	// RequireStmt reverts unless the condition holds.
	RequireStmt struct {
		Cond Expr
		Line int
	}
	// RevertStmt unconditionally reverts.
	RevertStmt struct {
		Line int
	}
	// EmitStmt emits an event.
	EmitStmt struct {
		Event string
		Args  []Expr
		Line  int
	}
	// ExprStmt evaluates an expression for its effects (calls).
	ExprStmt struct {
		X    Expr
		Line int
	}
	// PlaceholderStmt is the `_;` inside a modifier body.
	PlaceholderStmt struct {
		Line int
	}
)

func (*VarDeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()      {}
func (*IfStmt) stmtNode()          {}
func (*WhileStmt) stmtNode()       {}
func (*ReturnStmt) stmtNode()      {}
func (*RequireStmt) stmtNode()     {}
func (*RevertStmt) stmtNode()      {}
func (*EmitStmt) stmtNode()        {}
func (*ExprStmt) stmtNode()        {}
func (*PlaceholderStmt) stmtNode() {}

// Expr is an expression node.
type Expr interface{ exprNode() }

type (
	// NumberExpr is an unsigned integer literal (fits 256 bits).
	NumberExpr struct {
		Value *uint256.Int
		Line  int
	}
	// BoolExpr literal.
	BoolExpr struct {
		Value bool
		Line  int
	}
	// IdentExpr references a local, parameter or state variable.
	IdentExpr struct {
		Name string
		Line int
	}
	// IndexExpr is mapping or array access base[index].
	IndexExpr struct {
		Base  Expr
		Index Expr
		Line  int
	}
	// BinaryExpr applies an infix operator.
	BinaryExpr struct {
		Op   string
		X, Y Expr
		Line int
	}
	// UnaryExpr applies ! or unary -.
	UnaryExpr struct {
		Op   string
		X    Expr
		Line int
	}
	// EnvExpr reads msg.sender / msg.value / block.timestamp /
	// block.number / this.
	EnvExpr struct {
		Name string // "msg.sender", "msg.value", "block.timestamp", "block.number", "this", "this.balance"
		Line int
	}
	// CallExpr invokes a builtin or an internal function.
	CallExpr struct {
		Name string // builtins: keccak256, ecrecover, create, balance; else internal fn
		Args []Expr
		Line int
	}
	// ExternalCallExpr is Iface(addrExpr).method(args).
	ExternalCallExpr struct {
		Iface  string
		Addr   Expr
		Method string
		Args   []Expr
		Line   int
	}
	// TransferExpr is addr.transfer(amount).
	TransferExpr struct {
		To     Expr
		Amount Expr
		Line   int
	}
	// CastExpr converts between word types: address(x), uint(x), ...
	CastExpr struct {
		To   *TypeRef
		X    Expr
		Line int
	}
)

func (*NumberExpr) exprNode()       {}
func (*BoolExpr) exprNode()         {}
func (*IdentExpr) exprNode()        {}
func (*IndexExpr) exprNode()        {}
func (*BinaryExpr) exprNode()       {}
func (*UnaryExpr) exprNode()        {}
func (*EnvExpr) exprNode()          {}
func (*CallExpr) exprNode()         {}
func (*ExternalCallExpr) exprNode() {}
func (*TransferExpr) exprNode()     {}
func (*CastExpr) exprNode()         {}

// WalkExprs calls visit on every expression in stmts, nested ones
// included, parents before their operands. Statement bodies (if/else,
// while) are walked in order.
func WalkExprs(stmts []Stmt, visit func(Expr)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *VarDeclStmt:
			walkExpr(s.Init, visit)
		case *AssignStmt:
			walkExpr(s.Target, visit)
			walkExpr(s.Value, visit)
		case *IfStmt:
			walkExpr(s.Cond, visit)
			WalkExprs(s.Then, visit)
			WalkExprs(s.Else, visit)
		case *WhileStmt:
			walkExpr(s.Cond, visit)
			WalkExprs(s.Body, visit)
		case *ReturnStmt:
			walkExpr(s.Value, visit)
		case *RequireStmt:
			walkExpr(s.Cond, visit)
		case *EmitStmt:
			walkExprs(s.Args, visit)
		case *ExprStmt:
			walkExpr(s.X, visit)
		}
	}
}

func walkExprs(es []Expr, visit func(Expr)) {
	for _, e := range es {
		walkExpr(e, visit)
	}
}

func walkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch e := e.(type) {
	case *IndexExpr:
		walkExpr(e.Base, visit)
		walkExpr(e.Index, visit)
	case *BinaryExpr:
		walkExpr(e.X, visit)
		walkExpr(e.Y, visit)
	case *UnaryExpr:
		walkExpr(e.X, visit)
	case *CastExpr:
		walkExpr(e.X, visit)
	case *CallExpr:
		walkExprs(e.Args, visit)
	case *ExternalCallExpr:
		walkExpr(e.Addr, visit)
		walkExprs(e.Args, visit)
	case *TransferExpr:
		walkExpr(e.To, visit)
		walkExpr(e.Amount, visit)
	}
}
