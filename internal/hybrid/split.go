// Package hybrid implements the paper's contribution: the hybrid
// on/off-chain execution model for smart contracts. A whole contract is
// split into an on-chain contract (light/public functions plus padded
// dispute machinery) and an off-chain contract (heavy/private functions
// plus the padded result-return function), exactly following the
// four-stage mechanism of the paper:
//
//  1. split/generate   — Split() partitions the functions and pads both
//     halves with the extra functions of paper §III.
//  2. deploy/sign      — Session.DeployOnChain() and SignedCopy exchange
//     over the whisper channel (paper Fig. 2).
//  3. submit/challenge — off-chain execution in a private sandbox, then
//     submitResult() with a challenge period.
//  4. dispute/resolve  — deployVerifiedInstance() verifies the signed
//     bytecode with ecrecover, CREATEs a verified instance, and
//     returnDisputeResolution() pushes the miner-computed true result back
//     through enforceDisputeResolution(), guarded by deployedAddr.
package hybrid

import (
	"fmt"
	"strings"

	"onoffchain/internal/lang"
)

// Policy declares how a whole contract is partitioned.
type Policy struct {
	// Heavy lists the heavy/private functions moved off-chain.
	Heavy []string
	// Result names the off-chain function whose return value is the agreed
	// outcome. Must be in Heavy and return uint or bool.
	Result string
	// Settle names the internal on-chain function that applies a result
	// (single uint parameter).
	Settle string
	// ParticipantsVar names the fixed address array state variable holding
	// the participants (default "participants").
	ParticipantsVar string
	// ChallengePeriod is the submit/challenge window in seconds (default
	// 3600).
	ChallengePeriod uint64
	// LifecycleEvents, when true, makes the generated on-chain contract
	// emit ResultSubmitted/ResultFinalized/DisputeOpened/DisputeResolved
	// events so off-chain monitors (the hub's watchtower) can track
	// challenge windows push-style. Costs extra deploy bytes and LOG gas,
	// so the paper-faithful experiments leave it off.
	LifecycleEvents bool
}

func (p *Policy) withDefaults() Policy {
	q := *p
	if q.ParticipantsVar == "" {
		q.ParticipantsVar = "participants"
	}
	if q.ChallengePeriod == 0 {
		q.ChallengePeriod = 3600
	}
	return q
}

// SplitResult carries all artifacts of stage 1 (split/generate).
type SplitResult struct {
	// Name of the source (whole) contract.
	Name string
	// Participants is the length of the participants array (n signers).
	Participants int
	// OnChainSource / OffChainSource are the generated Solo sources.
	OnChainSource  string
	OffChainSource string
	// OnChain / OffChain are the compiled halves.
	OnChain  *lang.CompiledContract
	OffChain *lang.CompiledContract
	// Monolith is the whole contract compiled unmodified: the paper's
	// all-on-chain baseline (Fig. 1 left side).
	Monolith *lang.CompiledContract
	// OnChainCtorIdx maps the on-chain constructor's parameters back to
	// positions in the whole contract's constructor: parameters only used
	// by heavy/private functions (e.g. secret rule data) are PRUNED from
	// the public half so they never appear in on-chain calldata.
	OnChainCtorIdx []int
	// Policy echoes the effective policy.
	Policy Policy
}

// Split partitions a whole contract per the policy and generates the
// padded on-chain and off-chain contracts (paper §II-B and §III).
func Split(wholeSource, contractName string, policy Policy) (*SplitResult, error) {
	pol := policy.withDefaults()
	file, err := lang.Parse(wholeSource)
	if err != nil {
		return nil, fmt.Errorf("hybrid: parse whole contract: %w", err)
	}
	var whole *lang.Contract
	for _, c := range file.Contracts {
		if c.Name == contractName {
			whole = c
			break
		}
	}
	if whole == nil {
		return nil, fmt.Errorf("hybrid: contract %q not found", contractName)
	}

	heavySet := map[string]bool{}
	for _, h := range pol.Heavy {
		heavySet[h] = true
	}
	fnByName := map[string]*lang.Function{}
	for _, fn := range whole.Functions {
		fnByName[fn.Name] = fn
	}
	for _, h := range pol.Heavy {
		if fnByName[h] == nil {
			return nil, fmt.Errorf("hybrid: heavy function %q not found", h)
		}
	}
	resultFn := fnByName[pol.Result]
	if resultFn == nil || !heavySet[pol.Result] {
		return nil, fmt.Errorf("hybrid: result function %q must exist and be heavy", pol.Result)
	}
	if resultFn.Ret == nil || !(resultFn.Ret.Kind == lang.TypeUint || resultFn.Ret.Kind == lang.TypeBool) {
		return nil, fmt.Errorf("hybrid: result function %q must return uint or bool", pol.Result)
	}
	settleFn := fnByName[pol.Settle]
	if settleFn == nil {
		return nil, fmt.Errorf("hybrid: settle function %q not found", pol.Settle)
	}
	if settleFn.Public {
		return nil, fmt.Errorf("hybrid: settle function %q must be internal", pol.Settle)
	}
	if len(settleFn.Params) != 1 || settleFn.Params[0].Type.Kind != lang.TypeUint {
		return nil, fmt.Errorf("hybrid: settle function %q must take a single uint", pol.Settle)
	}

	// Find the participants array.
	n := 0
	for _, v := range whole.Vars {
		if v.Name == pol.ParticipantsVar {
			if v.Type.Kind != lang.TypeArray || v.Type.Elem.Kind != lang.TypeAddress {
				return nil, fmt.Errorf("hybrid: %q must be a fixed address array", pol.ParticipantsVar)
			}
			n = v.Type.Len
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("hybrid: participants array %q not found", pol.ParticipantsVar)
	}

	// Functions that invoke heavy functions cannot stay on-chain verbatim;
	// the generated submit/challenge machinery replaces them.
	dropped := map[string]bool{}
	for _, fn := range whole.Functions {
		if heavySet[fn.Name] || !fn.Public {
			continue
		}
		for name := range calledNames(fn.Body) {
			if heavySet[name] {
				dropped[fn.Name] = true
			}
		}
	}

	for _, reserved := range []string{"submitResult", "finalizeResult", "deployVerifiedInstance", "enforceDisputeResolution", "returnDisputeResolution", "computeResult", "isParticipant"} {
		if fnByName[reserved] != nil {
			return nil, fmt.Errorf("hybrid: function name %q is reserved for padding", reserved)
		}
	}

	resultIsBool := resultFn.Ret.Kind == lang.TypeBool

	onSrc, ctorIdx, err := buildOnChainSource(whole, pol, n, heavySet, dropped)
	if err != nil {
		return nil, err
	}
	offSrc, err := buildOffChainSource(whole, pol, n, heavySet, resultIsBool)
	if err != nil {
		return nil, err
	}

	onCompiled, err := lang.Compile(onSrc)
	if err != nil {
		return nil, fmt.Errorf("hybrid: compile on-chain half: %w\n%s", err, onSrc)
	}
	offCompiled, err := lang.Compile(offSrc)
	if err != nil {
		return nil, fmt.Errorf("hybrid: compile off-chain half: %w\n%s", err, offSrc)
	}
	monolith, err := lang.Compile(wholeSource)
	if err != nil {
		return nil, fmt.Errorf("hybrid: compile monolith: %w", err)
	}

	return &SplitResult{
		Name:           contractName,
		Participants:   n,
		OnChainSource:  onSrc,
		OffChainSource: offSrc,
		OnChain:        onCompiled.Contracts[contractName+"OnChain"],
		OffChain:       offCompiled.Contracts[contractName+"OffChain"],
		Monolith:       monolith.Contracts[contractName],
		Policy:         pol,
		OnChainCtorIdx: ctorIdx,
	}, nil
}

// OnChainCtorArgs selects the on-chain constructor's argument subset from
// the whole contract's full argument list.
func (sr *SplitResult) OnChainCtorArgs(allArgs []interface{}) []interface{} {
	out := make([]interface{}, 0, len(sr.OnChainCtorIdx))
	for _, idx := range sr.OnChainCtorIdx {
		out = append(out, allArgs[idx])
	}
	return out
}

// calledNames returns the name of every function the statements call.
func calledNames(stmts []lang.Stmt) map[string]bool {
	out := map[string]bool{}
	lang.WalkExprs(stmts, func(e lang.Expr) {
		if c, ok := e.(*lang.CallExpr); ok {
			out[c.Name] = true
		}
	})
	return out
}

// buildOnChainSource assembles the on-chain half: light/public functions
// plus the padded extra functions of paper §III (Algorithms 2, 5, 6). It
// prunes state variables and constructor parameters that only the
// heavy/private functions need, so private rule data (the paper's
// "sensitive information") never appears in public calldata or storage.
func buildOnChainSource(whole *lang.Contract, pol Policy, n int, heavy, dropped map[string]bool) (string, []int, error) {
	clone := cloneContractShell(whole, whole.Name+"OnChain")

	// Public survivors and internal functions reachable from them (plus the
	// settle function, called by the generated machinery).
	internal := map[string]*lang.Function{}
	for _, fn := range whole.Functions {
		if !fn.Public {
			internal[fn.Name] = fn
		}
	}
	var keptPublics []*lang.Function
	for _, fn := range whole.Functions {
		if heavy[fn.Name] || !fn.Public || dropped[fn.Name] {
			continue
		}
		keptPublics = append(keptPublics, fn)
	}
	reachable := map[string]bool{pol.Settle: true}
	var mark func(body []lang.Stmt)
	mark = func(body []lang.Stmt) {
		for name := range calledNames(body) {
			if fn := internal[name]; fn != nil && !reachable[name] {
				reachable[name] = true
				mark(fn.Body)
			}
		}
	}
	for _, fn := range keptPublics {
		mark(fn.Body)
	}
	mark(internal[pol.Settle].Body)
	for _, m := range whole.Modifiers {
		mark(m.Body)
	}

	clone.Functions = nil
	for _, fn := range whole.Functions {
		if fn.Public {
			if !heavy[fn.Name] && !dropped[fn.Name] {
				clone.Functions = append(clone.Functions, fn)
			}
			continue
		}
		if reachable[fn.Name] {
			clone.Functions = append(clone.Functions, fn)
		}
	}

	// State variables used by the kept code (participants always kept).
	usedVars := map[string]bool{pol.ParticipantsVar: true}
	collect := func(body []lang.Stmt) {
		for name := range varRefs(body) {
			usedVars[name] = true
		}
	}
	for _, fn := range clone.Functions {
		collect(fn.Body)
	}
	for _, m := range whole.Modifiers {
		collect(m.Body)
	}
	var keptVars []*lang.StateVar
	droppedVars := map[string]bool{}
	for _, v := range whole.Vars {
		if usedVars[v.Name] {
			keptVars = append(keptVars, v)
		} else {
			droppedVars[v.Name] = true
		}
	}
	clone.Vars = keptVars

	// Prune constructor statements assigning dropped vars, then prune
	// parameters no longer referenced.
	var ctorIdx []int
	if whole.Ctor != nil {
		var keptStmts []lang.Stmt
		for _, s := range whole.Ctor.Body {
			if as, ok := s.(*lang.AssignStmt); ok {
				if name, ok := assignTargetVar(as); ok && droppedVars[name] {
					continue
				}
			}
			keptStmts = append(keptStmts, s)
		}
		refs := varRefs(keptStmts)
		var keptParams []*lang.Param
		for i, p := range whole.Ctor.Params {
			if refs[p.Name] {
				keptParams = append(keptParams, p)
				ctorIdx = append(ctorIdx, i)
			}
		}
		clone.Ctor = &lang.Function{
			Name:   "constructor",
			Params: keptParams,
			Body:   keptStmts,
			IsCtor: true,
		}
	}

	// Padded state for the submit/challenge and dispute/resolve stages.
	extraVars := `
    address deployedAddr;
    uint submittedResult;
    bool hasSubmission;
    uint submittedAt;
    bool settled;
`
	// Optional lifecycle events for push-style off-chain monitoring (the
	// hub watchtower). Emitting costs deploy bytes and LOG gas, so the
	// paper-faithful experiments run without them.
	emitSubmitted, emitFinalized, emitOpened, emitResolved := "", "", "", ""
	if pol.LifecycleEvents {
		extraVars += `
    event ResultSubmitted(address submitter, uint result, uint at);
    event ResultFinalized(uint result);
    event DisputeOpened(address by, address instance);
    event DisputeResolved(uint result);
`
		emitSubmitted = "\n        emit ResultSubmitted(msg.sender, result, block.timestamp);"
		emitFinalized = "\n        emit ResultFinalized(submittedResult);"
		emitOpened = "\n        emit DisputeOpened(msg.sender, a);"
		emitResolved = "\n        emit DisputeResolved(result);"
	}
	var b strings.Builder
	// Extra function source (parsed below as part of the full contract).
	fmt.Fprintf(&b, `
    function isParticipant(address who) internal returns (bool) {
`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "        if (who == %s[%d]) { return true; }\n", pol.ParticipantsVar, i)
	}
	fmt.Fprintf(&b, `        return false;
    }

    function submitResult(uint result) public {
        require(isParticipant(msg.sender));
        require(!settled);
        submittedResult = result;
        hasSubmission = true;
        submittedAt = block.timestamp;%s
    }

    function finalizeResult() public {
        require(hasSubmission);
        require(!settled);
        require(block.timestamp >= submittedAt + %d);
        settled = true;
        %s(submittedResult);%s
    }

    function enforceDisputeResolution(uint result) public {
        require(msg.sender == deployedAddr);
        require(!settled);
        settled = true;
        %s(result);%s
    }

    function deployVerifiedInstance(bytes memory bytecode%s) public {
        require(isParticipant(msg.sender));
        require(!settled);
        bytes32 h = keccak256(bytecode);
`, emitSubmitted, pol.ChallengePeriod, pol.Settle, emitFinalized, pol.Settle, emitResolved, sigParams(n))
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "        require(ecrecover(h, v%d, r%d, s%d) == %s[%d]);\n", i, i, i, pol.ParticipantsVar, i)
	}
	fmt.Fprintf(&b, `        address a = create(bytecode);
        deployedAddr = a;%s
    }`, emitOpened)
	fmt.Fprintf(&b, `

    function verifiedInstance() public view returns (address) {
        return deployedAddr;
    }

    function isSettled() public view returns (bool) {
        return settled;
    }

    function pendingResult() public view returns (uint) {
        return submittedResult;
    }
`)

	src := renderContract(clone, extraVars, b.String(), "")
	return src, ctorIdx, nil
}

// varRefs returns every identifier referenced in the statements — an
// over-approximation of state-variable usage (locals may shadow, which only
// errs towards keeping a variable).
func varRefs(stmts []lang.Stmt) map[string]bool {
	out := map[string]bool{}
	lang.WalkExprs(stmts, func(e lang.Expr) {
		if id, ok := e.(*lang.IdentExpr); ok {
			out[id.Name] = true
		}
	})
	return out
}

// assignTargetVar extracts the state-variable name an assignment writes.
func assignTargetVar(as *lang.AssignStmt) (string, bool) {
	switch t := as.Target.(type) {
	case *lang.IdentExpr:
		return t.Name, true
	case *lang.IndexExpr:
		if base, ok := t.Base.(*lang.IdentExpr); ok {
			return base.Name, true
		}
	}
	return "", false
}

// buildOffChainSource assembles the off-chain half: heavy/private functions
// plus returnDisputeResolution (paper Algorithm 3) and a computeResult
// helper for local execution.
func buildOffChainSource(whole *lang.Contract, pol Policy, n int, heavy map[string]bool, resultIsBool bool) (string, error) {
	clone := cloneContractShell(whole, whole.Name+"OffChain")
	for _, fn := range whole.Functions {
		if heavy[fn.Name] || !fn.Public {
			clone.Functions = append(clone.Functions, fn)
		}
	}

	resultBody := fmt.Sprintf("uint result = %s();", pol.Result)
	if resultIsBool {
		resultBody = fmt.Sprintf("uint result = 0;\n        if (%s()) { result = 1; }", pol.Result)
	}
	extra := fmt.Sprintf(`
    function computeResult() public view returns (uint) {
        %s
        return result;
    }

    function returnDisputeResolution(address onchainAddr) public {
        %s
        %sOnChainI(onchainAddr).enforceDisputeResolution(result);
    }
`, resultBody, resultBody, whole.Name)

	iface := fmt.Sprintf(`interface %sOnChainI {
    function enforceDisputeResolution(uint result) external;
}

`, whole.Name)
	src := renderContract(clone, "", extra, iface)
	return src, nil
}

// cloneContractShell copies vars, events, modifiers and the constructor
// (shared by both halves: the off-chain bytecode commits to the same
// parameters the on-chain contract was constructed with).
func cloneContractShell(whole *lang.Contract, newName string) *lang.Contract {
	return &lang.Contract{
		Name:      newName,
		Vars:      whole.Vars,
		Events:    whole.Events,
		Modifiers: whole.Modifiers,
		Ctor:      whole.Ctor,
	}
}

// renderContract prints the cloned AST and splices extra vars/functions
// before the closing brace, prepending any interface declarations.
func renderContract(c *lang.Contract, extraVars, extraFuncs, prefix string) string {
	var b strings.Builder
	lang.PrintContract(&b, c)
	src := b.String()
	// Insert before the final closing brace.
	idx := strings.LastIndex(src, "}")
	return prefix + src[:idx] + extraVars + extraFuncs + "\n}\n"
}

// sigParams renders ", uint8 v0, bytes32 r0, bytes32 s0, ..." for n signers.
func sigParams(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ", uint8 v%d, bytes32 r%d, bytes32 s%d", i, i, i)
	}
	return b.String()
}
