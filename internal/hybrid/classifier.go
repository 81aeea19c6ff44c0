package hybrid

import (
	"fmt"
	"sort"
	"strings"

	"onoffchain/internal/lang"
	"onoffchain/internal/vm"
)

// FunctionProfile is the classifier's judgement of one function, following
// the paper's two axes (§II-B): computational cost and sensitivity.
type FunctionProfile struct {
	Name string
	// EstimatedGas is a static worst-case-ish gas estimate of one call.
	EstimatedGas uint64
	// TransfersValue marks cryptocurrency-transfer functions, which the
	// paper recommends always keeping on-chain (light/public).
	TransfersValue bool
	// TouchesSecret marks functions reading state the policy declares
	// sensitive.
	TouchesSecret bool
	// Heavy is the final recommendation: move off-chain.
	Heavy bool
}

// The classifier's two judgement constants.
const (
	// heavyGas is the estimate above which a function is heavy — roughly
	// 2.5x a plain transfer.
	heavyGas = 50_000
	// loopWeight is the assumed iteration count of an unbounded loop.
	loopWeight = 50
)

// Classify analyses a whole contract and recommends the heavy/private set,
// reproducing the paper's function taxonomy automatically. The estimate
// walks the AST with yellow-paper costs, multiplying loop bodies by
// loopWeight, and inlining internal calls one level. secretVars lists the
// state variables considered private: a function reading one is private
// regardless of its cost.
func Classify(source, contractName string, secretVars []string) ([]FunctionProfile, error) {
	file, err := lang.Parse(source)
	if err != nil {
		return nil, err
	}
	var contract *lang.Contract
	for _, c := range file.Contracts {
		if c.Name == contractName {
			contract = c
		}
	}
	if contract == nil {
		return nil, fmt.Errorf("hybrid: contract %q not found", contractName)
	}
	internal := map[string]*lang.Function{}
	for _, fn := range contract.Functions {
		if !fn.Public {
			internal[fn.Name] = fn
		}
	}
	secret := map[string]bool{}
	for _, v := range secretVars {
		secret[v] = true
	}

	var out []FunctionProfile
	for _, fn := range contract.Functions {
		est := estimator{internal: internal, secret: secret}
		gas := vm.GasTx + est.stmts(fn.Body, 1)
		p := FunctionProfile{
			Name:           fn.Name,
			EstimatedGas:   gas,
			TransfersValue: est.transfers,
			TouchesSecret:  est.touchedSecret,
		}
		// Paper rule: transfer functions stay light/public; everything
		// else is heavy if costly or sensitive.
		p.Heavy = !p.TransfersValue && (gas > heavyGas || p.TouchesSecret)
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// estimator accumulates a static gas estimate.
type estimator struct {
	internal      map[string]*lang.Function
	secret        map[string]bool
	transfers     bool
	touchedSecret bool
	depth         int
}

func (e *estimator) stmts(ss []lang.Stmt, mult uint64) uint64 {
	var gas uint64
	for _, s := range ss {
		gas += e.stmt(s, mult)
	}
	return gas
}

func (e *estimator) stmt(s lang.Stmt, mult uint64) uint64 {
	switch s := s.(type) {
	case *lang.VarDeclStmt:
		return mult * (e.expr(s.Init) + 6)
	case *lang.AssignStmt:
		target := uint64(vm.GasSstoreSet) // storage write upper bound
		if _, isIdent := s.Target.(*lang.IdentExpr); !isIdent {
			target += vm.GasSha3 + 2*vm.GasSha3Word // mapping slot hash
		}
		return mult * (e.expr(s.Value) + e.expr(s.Target) + target)
	case *lang.IfStmt:
		// Both branches counted at half weight.
		return mult * (e.expr(s.Cond) + vm.GasSlowStep +
			(e.stmts(s.Then, 1)+e.stmts(s.Else, 1))/2)
	case *lang.WhileStmt:
		return mult * loopWeight * (e.expr(s.Cond) + vm.GasSlowStep + e.stmts(s.Body, 1))
	case *lang.ReturnStmt:
		if s.Value != nil {
			return mult * (e.expr(s.Value) + 10)
		}
		return mult * 10
	case *lang.RequireStmt:
		return mult * (e.expr(s.Cond) + vm.GasSlowStep)
	case *lang.EmitStmt:
		gas := vm.GasLog + vm.GasLogTopic + 32*vm.GasLogByte*uint64(len(s.Args))
		for _, a := range s.Args {
			gas += e.expr(a)
		}
		return mult * gas
	case *lang.ExprStmt:
		return mult * e.expr(s.X)
	default:
		return 0
	}
}

func (e *estimator) expr(x lang.Expr) uint64 {
	switch x := x.(type) {
	case *lang.NumberExpr, *lang.BoolExpr, *lang.EnvExpr:
		return vm.GasFastestStep
	case *lang.IdentExpr:
		if e.secret[x.Name] {
			e.touchedSecret = true
		}
		return vm.GasSload // worst case: state read
	case *lang.IndexExpr:
		if base, ok := x.Base.(*lang.IdentExpr); ok && e.secret[base.Name] {
			e.touchedSecret = true
		}
		return e.expr(x.Index) + vm.GasSha3 + 2*vm.GasSha3Word + vm.GasSload
	case *lang.BinaryExpr:
		return e.expr(x.X) + e.expr(x.Y) + vm.GasFastStep
	case *lang.UnaryExpr:
		return e.expr(x.X) + vm.GasFastestStep
	case *lang.CastExpr:
		return e.expr(x.X) + vm.GasFastestStep
	case *lang.CallExpr:
		var gas uint64
		for _, a := range x.Args {
			gas += e.expr(a)
		}
		switch x.Name {
		case "keccak256":
			return gas + vm.GasSha3 + vm.GasSha3Word*uint64(len(x.Args))
		case "ecrecover":
			return gas + vm.GasEcrecover + vm.GasCall
		case "create":
			return gas + vm.GasCreate
		case "balance":
			return gas + vm.GasBalance
		}
		if fn, ok := e.internal[x.Name]; ok && e.depth < 4 {
			e.depth++
			gas += e.stmts(fn.Body, 1)
			e.depth--
		}
		return gas
	case *lang.ExternalCallExpr:
		var gas uint64 = vm.GasCall + 2000
		for _, a := range x.Args {
			gas += e.expr(a)
		}
		return gas
	case *lang.TransferExpr:
		e.transfers = true
		return e.expr(x.To) + e.expr(x.Amount) + vm.GasCall + vm.GasCallValue
	default:
		return 0
	}
}

// FormatProfiles renders a human-readable classification table.
func FormatProfiles(profiles []FunctionProfile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %-9s %-7s %s\n", "function", "est. gas", "transfers", "secret", "class")
	for _, p := range profiles {
		class := "light/public"
		if p.Heavy {
			class = "heavy/private"
		}
		fmt.Fprintf(&b, "%-28s %12d %-9v %-7v %s\n", p.Name, p.EstimatedGas, p.TransfersValue, p.TouchesSecret, class)
	}
	return b.String()
}
