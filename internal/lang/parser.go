package lang

import (
	"onoffchain/internal/uint256"
)

// maxNesting bounds how deeply statements, expressions and types nest.
// The parser recurses once per level, so without a bound a hostile input
// grows the goroutine stack until Go's fatal stack-limit error, which
// recover cannot catch. The deepest source in the repo nests 11 levels.
const maxNesting = 1000

// parser is a recursive-descent parser over the token stream. It lexes
// tokens as it reaches them, so an input it refuses early costs no more
// than the part it read.
type parser struct {
	lx    *lexer
	toks  []token // lexed so far; toks[pos] is the current token
	pos   int
	depth int // statements, expressions and types being parsed
}

// Parse parses Solo source into a File AST. The first error in the source
// wins: a lexical error ends the token stream where it occurs, and the
// parser reports it in place of whatever it made of that early end.
func Parse(src string) (*File, error) {
	p := &parser{lx: newLexer(src)}
	f, err := p.parseFile()
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	return f, err
}

// peek returns the token i places after the current one; past the end of
// the input that is the final tokEOF.
func (p *parser) peek(i int) token {
	for len(p.toks) <= p.pos+i {
		if n := len(p.toks); n > 0 && p.toks[n-1].kind == tokEOF {
			return p.toks[n-1]
		}
		p.toks = append(p.toks, p.lx.next())
	}
	return p.toks[p.pos+i]
}

func (p *parser) cur() token  { return p.peek(0) }
func (p *parser) next() token { t := p.cur(); p.pos++; return t }

func (p *parser) at(text string) bool {
	t := p.cur()
	return t.kind != tokEOF && t.text == text
}

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) (token, error) {
	t := p.cur()
	if t.kind == tokEOF || t.text != text {
		return t, errAt(t.line, t.col, "expected %q, found %s", text, t)
	}
	p.pos++
	return t, nil
}

// enter opens one nesting level and fails past maxNesting; leave closes it.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxNesting {
		t := p.cur()
		return errAt(t.line, t.col, "nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) expectIdent() (token, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return t, errAt(t.line, t.col, "expected identifier, found %s", t)
	}
	p.pos++
	return t, nil
}

func (p *parser) parseFile() (*File, error) {
	f := &File{}
	for p.cur().kind != tokEOF {
		switch {
		case p.at("contract"):
			c, err := p.parseContract()
			if err != nil {
				return nil, err
			}
			f.Contracts = append(f.Contracts, c)
		case p.at("interface"):
			i, err := p.parseInterface()
			if err != nil {
				return nil, err
			}
			f.Interfaces = append(f.Interfaces, i)
		default:
			t := p.cur()
			return nil, errAt(t.line, t.col, "expected contract or interface, found %s", t)
		}
	}
	return f, nil
}

func (p *parser) parseInterface() (*Interface, error) {
	start := p.next() // interface
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	iface := &Interface{Name: name.text, Line: start.line}
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	for !p.accept("}") {
		if _, err := p.expect("function"); err != nil {
			return nil, err
		}
		fname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params, err := p.parseParamList()
		if err != nil {
			return nil, err
		}
		// optional attributes: external/view/payable
		for p.at("external") || p.at("view") || p.at("payable") || p.at("public") {
			p.next()
		}
		var ret *TypeRef
		if p.accept("returns") {
			if _, err := p.expect("("); err != nil {
				return nil, err
			}
			ret, err = p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		iface.Functions = append(iface.Functions, &FuncSig{Name: fname.text, Params: params, Ret: ret})
	}
	return iface, nil
}

func (p *parser) parseContract() (*Contract, error) {
	start := p.next() // contract
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	c := &Contract{Name: name.text, Line: start.line}
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	for !p.accept("}") {
		switch {
		case p.at("event"):
			e, err := p.parseEvent()
			if err != nil {
				return nil, err
			}
			c.Events = append(c.Events, e)
		case p.at("modifier"):
			m, err := p.parseModifier()
			if err != nil {
				return nil, err
			}
			c.Modifiers = append(c.Modifiers, m)
		case p.at("function"):
			fn, err := p.parseFunction()
			if err != nil {
				return nil, err
			}
			c.Functions = append(c.Functions, fn)
		case p.at("constructor"):
			fn, err := p.parseConstructor()
			if err != nil {
				return nil, err
			}
			if c.Ctor != nil {
				return nil, errAt(fn.Line, 1, "duplicate constructor")
			}
			c.Ctor = fn
		default:
			v, err := p.parseStateVar()
			if err != nil {
				return nil, err
			}
			c.Vars = append(c.Vars, v)
		}
	}
	return c, nil
}

func (p *parser) parseStateVar() (*StateVar, error) {
	t := p.cur()
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	// optional visibility noise words
	for p.at("public") || p.at("internal") {
		p.next()
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return &StateVar{Name: name.text, Type: typ, Line: t.line}, nil
}

func (p *parser) parseType() (*TypeRef, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	var base *TypeRef
	switch t.text {
	case "uint", "uint256":
		p.next()
		base = &TypeRef{Kind: TypeUint}
	case "uint8":
		p.next()
		base = &TypeRef{Kind: TypeUint8}
	case "address":
		p.next()
		base = &TypeRef{Kind: TypeAddress}
	case "bool":
		p.next()
		base = &TypeRef{Kind: TypeBool}
	case "bytes32":
		p.next()
		base = &TypeRef{Kind: TypeBytes32}
	case "bytes":
		p.next()
		base = &TypeRef{Kind: TypeBytes}
	case "mapping":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		key, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("=>"); err != nil {
			return nil, err
		}
		val, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return &TypeRef{Kind: TypeMapping, Key: key, Value: val}, nil
	default:
		return nil, errAt(t.line, t.col, "expected type, found %s", t)
	}
	// Fixed-size array suffix.
	if p.at("[") {
		p.next()
		n := p.cur()
		if n.kind != tokNumber {
			return nil, errAt(n.line, n.col, "expected array length, found %s", n)
		}
		p.next()
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		length := 0
		for _, ch := range n.text {
			length = length*10 + int(ch-'0')
		}
		if length <= 0 || length > 1024 {
			return nil, errAt(n.line, n.col, "array length %d out of range", length)
		}
		return &TypeRef{Kind: TypeArray, Elem: base, Len: length}, nil
	}
	return base, nil
}

func (p *parser) parseParamList() ([]*Param, error) {
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	var params []*Param
	for !p.accept(")") {
		if len(params) > 0 {
			if _, err := p.expect(","); err != nil {
				return nil, err
			}
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		p.accept("memory") // optional location keyword
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params = append(params, &Param{Name: name.text, Type: typ})
	}
	return params, nil
}

func (p *parser) parseEvent() (*Event, error) {
	start := p.next() // event
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	params, err := p.parseParamList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return &Event{Name: name.text, Params: params, Line: start.line}, nil
}

func (p *parser) parseModifier() (*Modifier, error) {
	start := p.next() // modifier
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.at("(") {
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &Modifier{Name: name.text, Body: body, Line: start.line}, nil
}

func (p *parser) parseConstructor() (*Function, error) {
	start := p.next() // constructor
	params, err := p.parseParamList()
	if err != nil {
		return nil, err
	}
	fn := &Function{Name: "constructor", Params: params, IsCtor: true, Line: start.line}
	if err := p.parseFuncAttrs(fn); err != nil {
		return nil, err
	}
	fn.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return fn, nil
}

func (p *parser) parseFunction() (*Function, error) {
	start := p.next() // function
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	params, err := p.parseParamList()
	if err != nil {
		return nil, err
	}
	fn := &Function{Name: name.text, Params: params, Line: start.line}
	if err := p.parseFuncAttrs(fn); err != nil {
		return nil, err
	}
	if p.accept("returns") {
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		fn.Ret, err = p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	fn.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return fn, nil
}

func (p *parser) parseFuncAttrs(fn *Function) error {
	for {
		t := p.cur()
		switch {
		case t.text == "public" || t.text == "external":
			fn.Public = true
			p.next()
		case t.text == "internal" || t.text == "view":
			p.next()
		case t.text == "payable":
			fn.Payable = true
			p.next()
		case t.kind == tokIdent:
			// modifier invocation
			fn.Modifiers = append(fn.Modifiers, t.text)
			p.next()
			if p.at("(") {
				p.next()
				if _, err := p.expect(")"); err != nil {
					return err
				}
			}
		default:
			return nil
		}
	}
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.accept("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func isTypeStart(t token) bool {
	switch t.text {
	case "uint", "uint8", "uint256", "address", "bool", "bytes32", "bytes", "mapping":
		return true
	}
	return false
}

func (p *parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.text == "_":
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &PlaceholderStmt{Line: t.line}, nil
	case t.text == "if":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.accept("else") {
			if p.at("if") {
				nested, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				els = []Stmt{nested}
			} else {
				els, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Line: t.line}, nil
	case t.text == "while":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.line}, nil
	case t.text == "return":
		p.next()
		if p.accept(";") {
			return &ReturnStmt{Line: t.line}, nil
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{Value: v, Line: t.line}, nil
	case t.text == "require":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// Optional message (ignored, like require(cond, "msg")).
		if p.accept(",") {
			if p.cur().kind != tokString {
				return nil, errAt(p.cur().line, p.cur().col, "expected string message")
			}
			p.next()
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &RequireStmt{Cond: cond, Line: t.line}, nil
	case t.text == "revert":
		p.next()
		if p.accept("(") {
			if p.cur().kind == tokString {
				p.next()
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &RevertStmt{Line: t.line}, nil
	case t.text == "emit":
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		var args []Expr
		for !p.accept(")") {
			if len(args) > 0 {
				if _, err := p.expect(","); err != nil {
					return nil, err
				}
			}
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &EmitStmt{Event: name.text, Args: args, Line: t.line}, nil
	case isTypeStart(t) && !p.looksLikeCast():
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		p.accept("memory")
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("="); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &VarDeclStmt{Name: name.text, Type: typ, Init: init, Line: t.line}, nil
	default:
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept("=") {
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
			return &AssignStmt{Target: expr, Value: val, Line: t.line}, nil
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{X: expr, Line: t.line}, nil
	}
}

// looksLikeCast distinguishes `address(x)...` (cast expression) from
// `address x = ...` (declaration): a cast has "(" right after the type
// keyword.
func (p *parser) looksLikeCast() bool {
	return p.peek(1).text == "("
}

// Expression parsing with precedence climbing.

var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) parseExpr() (Expr, error) {
	return p.parseBinary(1)
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec, ok := binaryPrec[t.text]
		if t.kind != tokOperator || !ok || prec < minPrec {
			return left, nil
		}
		p.next()
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.text, X: left, Y: right, Line: t.line}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.kind == tokOperator && (t.text == "!" || t.text == "-") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.text, X: x, Line: t.line}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at("["):
			t := p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{Base: x, Index: idx, Line: t.line}
		case p.at("."):
			t := p.next()
			member, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			switch {
			case member.text == "transfer":
				if _, err := p.expect("("); err != nil {
					return nil, err
				}
				amount, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(")"); err != nil {
					return nil, err
				}
				x = &TransferExpr{To: x, Amount: amount, Line: t.line}
			case member.text == "balance":
				x = &CallExpr{Name: "balance", Args: []Expr{x}, Line: t.line}
			case p.at("("):
				// Interface method call: base must be Iface(addr).
				call, ok := x.(*CallExpr)
				if !ok || len(call.Args) != 1 {
					return nil, errAt(t.line, t.col, "method call on non-interface expression")
				}
				p.next() // (
				var args []Expr
				for !p.accept(")") {
					if len(args) > 0 {
						if _, err := p.expect(","); err != nil {
							return nil, err
						}
					}
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
				}
				x = &ExternalCallExpr{Iface: call.Name, Addr: call.Args[0], Method: member.text, Args: args, Line: t.line}
			default:
				return nil, errAt(member.line, member.col, "unknown member %q", member.text)
			}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		var v *uint256.Int
		var err error
		if len(t.text) > 2 && (t.text[:2] == "0x" || t.text[:2] == "0X") {
			v, err = uint256.FromHex(t.text)
		} else {
			v = new(uint256.Int)
			ten := uint256.NewInt(10)
			for _, ch := range t.text {
				d := uint256.NewInt(uint64(ch - '0'))
				v.Mul(v, ten)
				v.Add(v, d)
			}
		}
		if err != nil {
			return nil, errAt(t.line, t.col, "bad number literal: %v", err)
		}
		// Unit suffixes.
		if p.cur().kind == tokIdent {
			switch p.cur().text {
			case "ether":
				p.next()
				v.Mul(v, uint256.NewInt(1_000_000_000_000_000_000))
			case "gwei":
				p.next()
				v.Mul(v, uint256.NewInt(1_000_000_000))
			case "wei":
				p.next()
			}
		}
		return &NumberExpr{Value: v, Line: t.line}, nil
	case t.text == "true":
		p.next()
		return &BoolExpr{Value: true, Line: t.line}, nil
	case t.text == "false":
		p.next()
		return &BoolExpr{Value: false, Line: t.line}, nil
	case t.text == "msg":
		p.next()
		if _, err := p.expect("."); err != nil {
			return nil, err
		}
		member, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if member.text != "sender" && member.text != "value" {
			return nil, errAt(member.line, member.col, "unknown msg member %q", member.text)
		}
		return &EnvExpr{Name: "msg." + member.text, Line: t.line}, nil
	case t.text == "block":
		p.next()
		if _, err := p.expect("."); err != nil {
			return nil, err
		}
		member, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if member.text != "timestamp" && member.text != "number" {
			return nil, errAt(member.line, member.col, "unknown block member %q", member.text)
		}
		return &EnvExpr{Name: "block." + member.text, Line: t.line}, nil
	case t.text == "this":
		p.next()
		return &EnvExpr{Name: "this", Line: t.line}, nil
	case isTypeStart(t):
		// Cast: type(expr).
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return &CastExpr{To: typ, X: x, Line: t.line}, nil
	case t.kind == tokIdent:
		p.next()
		if p.at("(") {
			p.next()
			var args []Expr
			for !p.accept(")") {
				if len(args) > 0 {
					if _, err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			return &CallExpr{Name: t.text, Args: args, Line: t.line}, nil
		}
		return &IdentExpr{Name: t.text, Line: t.line}, nil
	case t.text == "(":
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, errAt(t.line, t.col, "unexpected token %s in expression", t)
	}
}
