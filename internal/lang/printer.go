package lang

import (
	"fmt"
	"strings"
)

// PrintContract renders one contract declaration.
func PrintContract(b *strings.Builder, c *Contract) {
	fmt.Fprintf(b, "contract %s {\n", c.Name)
	for _, v := range c.Vars {
		fmt.Fprintf(b, "    %s %s;\n", v.Type, v.Name)
	}
	if len(c.Vars) > 0 {
		b.WriteString("\n")
	}
	for _, e := range c.Events {
		fmt.Fprintf(b, "    event %s(%s);\n", e.Name, printParams(e.Params))
	}
	if len(c.Events) > 0 {
		b.WriteString("\n")
	}
	for _, m := range c.Modifiers {
		fmt.Fprintf(b, "    modifier %s {\n", m.Name)
		printStmts(b, m.Body, 2)
		b.WriteString("    }\n\n")
	}
	if c.Ctor != nil {
		fmt.Fprintf(b, "    constructor(%s)%s {\n", printParams(c.Ctor.Params), printAttrs(c.Ctor))
		printStmts(b, c.Ctor.Body, 2)
		b.WriteString("    }\n\n")
	}
	for _, fn := range c.Functions {
		fmt.Fprintf(b, "    function %s(%s)%s", fn.Name, printParams(fn.Params), printAttrs(fn))
		if fn.Ret != nil {
			fmt.Fprintf(b, " returns (%s)", fn.Ret)
		}
		b.WriteString(" {\n")
		printStmts(b, fn.Body, 2)
		b.WriteString("    }\n\n")
	}
	b.WriteString("}\n")
}

func printParams(params []*Param) string {
	parts := make([]string, len(params))
	for i, p := range params {
		loc := ""
		if p.Type.Kind == TypeBytes {
			loc = " memory"
		}
		parts[i] = fmt.Sprintf("%s%s %s", p.Type, loc, p.Name)
	}
	return strings.Join(parts, ", ")
}

func printAttrs(fn *Function) string {
	var out string
	if fn.Public {
		out += " public"
	} else if !fn.IsCtor {
		out += " internal"
	}
	if fn.Payable {
		out += " payable"
	}
	for _, m := range fn.Modifiers {
		out += " " + m
	}
	return out
}

func printStmts(b *strings.Builder, stmts []Stmt, depth int) {
	indent := strings.Repeat("    ", depth)
	for _, s := range stmts {
		printStmt(b, s, indent, depth)
	}
}

func printStmt(b *strings.Builder, s Stmt, indent string, depth int) {
	switch s := s.(type) {
	case *VarDeclStmt:
		loc := ""
		if s.Type.Kind == TypeBytes {
			loc = " memory"
		}
		fmt.Fprintf(b, "%s%s%s %s = %s;\n", indent, s.Type, loc, s.Name, PrintExpr(s.Init))
	case *AssignStmt:
		fmt.Fprintf(b, "%s%s = %s;\n", indent, PrintExpr(s.Target), PrintExpr(s.Value))
	case *IfStmt:
		fmt.Fprintf(b, "%sif (%s) {\n", indent, PrintExpr(s.Cond))
		printStmts(b, s.Then, depth+1)
		if len(s.Else) > 0 {
			fmt.Fprintf(b, "%s} else {\n", indent)
			printStmts(b, s.Else, depth+1)
		}
		fmt.Fprintf(b, "%s}\n", indent)
	case *WhileStmt:
		fmt.Fprintf(b, "%swhile (%s) {\n", indent, PrintExpr(s.Cond))
		printStmts(b, s.Body, depth+1)
		fmt.Fprintf(b, "%s}\n", indent)
	case *ReturnStmt:
		if s.Value != nil {
			fmt.Fprintf(b, "%sreturn %s;\n", indent, PrintExpr(s.Value))
		} else {
			fmt.Fprintf(b, "%sreturn;\n", indent)
		}
	case *RequireStmt:
		fmt.Fprintf(b, "%srequire(%s);\n", indent, PrintExpr(s.Cond))
	case *RevertStmt:
		fmt.Fprintf(b, "%srevert();\n", indent)
	case *EmitStmt:
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = PrintExpr(a)
		}
		fmt.Fprintf(b, "%semit %s(%s);\n", indent, s.Event, strings.Join(args, ", "))
	case *ExprStmt:
		fmt.Fprintf(b, "%s%s;\n", indent, PrintExpr(s.X))
	case *PlaceholderStmt:
		fmt.Fprintf(b, "%s_;\n", indent)
	}
}

// PrintExpr renders an expression to source form.
func PrintExpr(e Expr) string {
	switch e := e.(type) {
	case *NumberExpr:
		return e.Value.String()
	case *BoolExpr:
		if e.Value {
			return "true"
		}
		return "false"
	case *IdentExpr:
		return e.Name
	case *IndexExpr:
		return fmt.Sprintf("%s[%s]", PrintExpr(e.Base), PrintExpr(e.Index))
	case *BinaryExpr:
		return fmt.Sprintf("(%s %s %s)", PrintExpr(e.X), e.Op, PrintExpr(e.Y))
	case *UnaryExpr:
		return fmt.Sprintf("%s%s", e.Op, PrintExpr(e.X))
	case *EnvExpr:
		return e.Name
	case *CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = PrintExpr(a)
		}
		return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
	case *ExternalCallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = PrintExpr(a)
		}
		return fmt.Sprintf("%s(%s).%s(%s)", e.Iface, PrintExpr(e.Addr), e.Method, strings.Join(args, ", "))
	case *TransferExpr:
		return fmt.Sprintf("%s.transfer(%s)", PrintExpr(e.To), PrintExpr(e.Amount))
	case *CastExpr:
		return fmt.Sprintf("%s(%s)", e.To, PrintExpr(e.X))
	default:
		return fmt.Sprintf("/*?%T*/", e)
	}
}
