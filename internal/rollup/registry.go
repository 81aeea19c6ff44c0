package rollup

import (
	"fmt"
	"strings"
	"sync"

	"onoffchain/internal/abi"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/lang"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// Topic hashes of the registry's lifecycle events. Watchtowers filter on
// EpochPosted the way they filter on per-session ResultSubmitted.
var (
	TopicEpochPosted = abi.EventTopic("EpochPosted(uint256,bytes32,uint256)")
	TopicLeafOpened  = abi.EventTopic("LeafOpened(uint256,uint256,address,uint256)")
)

// registrySource generates the rollup-registry contract for a fixed tree
// depth. The Solo language has no array parameters, so openLeaf takes the
// proof as depth scalar bytes32 arguments and the fold is unrolled — the
// same shape the hybrid splitter uses for n-of-n signature parameters.
func registrySource(depth int) string {
	var b strings.Builder
	b.WriteString(`contract RollupRegistry {
    address sequencer;
    uint window;
    uint epochCount;
    mapping(uint => bytes32) roots;
    mapping(uint => uint) postedAts;
    mapping(uint => uint) leafCounts;
    mapping(bytes32 => bool) openedLeaves;

    event EpochPosted(uint epoch, bytes32 root, uint count);
    event LeafOpened(uint epoch, uint sid, address leafContract, uint outcome);

    constructor(address seq, uint challengeWindow) {
        sequencer = seq;
        window = challengeWindow;
    }

    function postEpoch(bytes32 root, uint count) public {
        require(msg.sender == sequencer);
        require(count > 0);
        uint e = epochCount;
        epochCount = e + 1;
        roots[e] = root;
        postedAts[e] = block.timestamp;
        leafCounts[e] = count;
        emit EpochPosted(e, root, count);
    }

`)
	// openLeaf proves (sid, who, outcome) sits at index under the epoch's
	// root, within the batch challenge window, at most once per leaf. It
	// carries no enforcement itself: the opener still wins the dispute
	// through the session contract's deployVerifiedInstance path — this
	// call pins WHICH leaf of WHICH batch that dispute refutes.
	b.WriteString("    function openLeaf(uint epoch, uint sid, address who, uint outcome, uint index")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, ", bytes32 s%d", i)
	}
	b.WriteString(`) public {
        require(postedAts[epoch] != 0);
        require(block.timestamp <= postedAts[epoch] + window);
        bytes32 h = keccak256(sid, uint(who), outcome);
        uint idx = index;
`)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, `        if (idx %% 2 == 1) { h = keccak256(s%d, h); } else { h = keccak256(h, s%d); }
        idx = idx / 2;
`, i, i)
	}
	b.WriteString(`        require(idx == 0);
        require(h == roots[epoch]);
        bytes32 k = keccak256(epoch, sid, uint(who));
        require(!openedLeaves[k]);
        openedLeaves[k] = true;
        emit LeafOpened(epoch, sid, who, outcome);
    }

    function epochs() public view returns (uint) {
        return epochCount;
    }

    function rootOf(uint epoch) public view returns (bytes32) {
        return roots[epoch];
    }

    function postedAt(uint epoch) public view returns (uint) {
        return postedAts[epoch];
    }

    function leafCount(uint epoch) public view returns (uint) {
        return leafCounts[epoch];
    }

    function isOpened(uint epoch, uint sid, address who) public view returns (bool) {
        return openedLeaves[keccak256(epoch, sid, uint(who))];
    }
}
`)
	return b.String()
}

var (
	registryMu    sync.Mutex
	registryCache = map[int]*lang.CompiledContract{}
)

// CompiledRegistry compiles (once per depth) the generated registry.
func CompiledRegistry(depth int) (*lang.CompiledContract, error) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if cc := registryCache[depth]; cc != nil {
		return cc, nil
	}
	c, err := lang.Compile(registrySource(depth))
	if err != nil {
		return nil, fmt.Errorf("rollup: registry compile: %w", err)
	}
	cc := c.Contracts["RollupRegistry"]
	if cc == nil {
		return nil, fmt.Errorf("rollup: registry contract missing from compile output")
	}
	registryCache[depth] = cc
	return cc, nil
}

// Registry is a client handle on one deployed rollup-registry instance.
type Registry struct {
	CC     *lang.CompiledContract
	Addr   types.Address
	Depth  int
	Window uint64 // batch challenge window, seconds of chain time
}

// DeployRegistry deploys a fresh registry naming sequencer as the only
// address allowed to post epochs.
func DeployRegistry(p *hybrid.Participant, depth int, sequencer types.Address, window, gas uint64) (*Registry, error) {
	bind, err := DeployRegistryAsync(p, depth, sequencer, window, gas)
	if err != nil {
		return nil, err
	}
	return bind()
}

// DeployRegistryAsync pools the registry's creation from p without waiting
// for it to mine; the returned bind waits for the receipt and yields the
// handle. The constructor takes the sequencer as an argument and never
// reads msg.sender, so p may be anyone with the balance — a faucet that
// queues the creation behind the sequencer's funding transfer has one block
// carry both.
func DeployRegistryAsync(p *hybrid.Participant, depth int, sequencer types.Address, window, gas uint64) (bind func() (*Registry, error), err error) {
	cc, err := CompiledRegistry(depth)
	if err != nil {
		return nil, err
	}
	code, err := cc.DeployWithArgs(sequencer, window)
	if err != nil {
		return nil, err
	}
	hash, err := p.SendTxAsync(nil, nil, gas, code)
	if err != nil {
		return nil, fmt.Errorf("rollup: registry deploy: %w", err)
	}
	return func() (*Registry, error) {
		r, err := p.WaitReceipt(hash)
		if err != nil {
			return nil, fmt.Errorf("rollup: registry deploy: %w", err)
		}
		if !r.Succeeded() {
			return nil, fmt.Errorf("rollup: registry deploy reverted")
		}
		return &Registry{CC: cc, Addr: r.ContractAddress, Depth: depth, Window: window}, nil
	}, nil
}

// OpenRegistry re-attaches to an already-deployed registry (recovery,
// federation towers learning the address from gossip).
func OpenRegistry(addr types.Address, depth int, window uint64) (*Registry, error) {
	cc, err := CompiledRegistry(depth)
	if err != nil {
		return nil, err
	}
	return &Registry{CC: cc, Addr: addr, Depth: depth, Window: window}, nil
}

// PostEpoch submits one epoch's root and waits for it to mine. The receipt
// reports the actual gas the batch settlement cost.
func (r *Registry) PostEpoch(p *hybrid.Participant, root types.Hash, count uint64, gas uint64) (*types.Receipt, error) {
	hash, err := r.PostEpochAsync(p, root, count, gas)
	if err != nil {
		return nil, err
	}
	rec, err := p.WaitReceipt(hash)
	if err != nil {
		return nil, err
	}
	if !rec.Succeeded() {
		return rec, fmt.Errorf("rollup: postEpoch reverted")
	}
	return rec, nil
}

// PostEpochAsync pools the postEpoch call without waiting for it to mine. The
// registry numbers epochs itself, in execution order, so a sequencer that
// queues several posts (one sender, consecutive nonces) has one block carry
// them all, numbered in the order they were sent.
func (r *Registry) PostEpochAsync(p *hybrid.Participant, root types.Hash, count uint64, gas uint64) (types.Hash, error) {
	return p.InvokeAsync(r.CC, r.Addr, nil, gas, "postEpoch", root, count)
}

// PostedBy returns the EpochPosted event a postEpoch receipt carries: the
// number the registry gave the epoch and the root it stored under it.
func (r *Registry) PostedBy(rec *types.Receipt) (*EpochPostedEvent, error) {
	for _, l := range rec.Logs {
		if l.Address == r.Addr && len(l.Topics) > 0 && l.Topics[0] == TopicEpochPosted {
			return DecodeEpochPosted(l)
		}
	}
	return nil, fmt.Errorf("rollup: receipt carries no EpochPosted log of registry %s", r.Addr.Hex())
}

// OpenLeaf pins a disputed leaf against its epoch's posted root. A revert
// is expected when the leaf was already opened (the on-chain exactly-once
// veto) or the proof does not reach the root.
func (r *Registry) OpenLeaf(p *hybrid.Participant, epoch uint64, leaf Leaf, index int, proof []types.Hash, gas uint64) (*types.Receipt, error) {
	hash, err := r.OpenLeafAsync(p, epoch, leaf, index, proof, gas)
	if err != nil {
		return nil, err
	}
	return p.WaitReceipt(hash)
}

// OpenLeafAsync pools the openLeaf call without waiting for it to mine, so
// the opener can queue the session-contract dispute behind it (consecutive
// nonces) and have one block carry both.
func (r *Registry) OpenLeafAsync(p *hybrid.Participant, epoch uint64, leaf Leaf, index int, proof []types.Hash, gas uint64) (types.Hash, error) {
	if len(proof) != r.Depth {
		return types.Hash{}, fmt.Errorf("rollup: proof has %d siblings, registry depth is %d", len(proof), r.Depth)
	}
	args := make([]interface{}, 0, 5+r.Depth)
	args = append(args, epoch, leaf.SID, leaf.Contract, leaf.Outcome, uint64(index))
	for _, s := range proof {
		args = append(args, s)
	}
	return p.InvokeAsync(r.CC, r.Addr, nil, gas, "openLeaf", args...)
}

// Epochs returns the number of posted epochs.
func (r *Registry) Epochs(p *hybrid.Participant) (uint64, error) {
	return r.queryUint(p, "epochs")
}

// PostedAt returns the chain time epoch was posted (0 = never posted) —
// the probe recovery uses to decide whether a WAL-sealed epoch needs
// re-posting.
func (r *Registry) PostedAt(p *hybrid.Participant, epoch uint64) (uint64, error) {
	return r.queryUint(p, "postedAt", epoch)
}

// LeafCount returns the number of leaves committed under epoch's root.
func (r *Registry) LeafCount(p *hybrid.Participant, epoch uint64) (uint64, error) {
	return r.queryUint(p, "leafCount", epoch)
}

// RootOf returns the posted root for epoch.
func (r *Registry) RootOf(p *hybrid.Participant, epoch uint64) (types.Hash, error) {
	v, err := p.Query(r.CC, r.Addr, "rootOf", epoch)
	if err != nil {
		return types.Hash{}, err
	}
	h, ok := v.(types.Hash)
	if !ok {
		return types.Hash{}, fmt.Errorf("rollup: rootOf returned %T", v)
	}
	return h, nil
}

// IsOpened reports whether the leaf (epoch, sid, who) was already opened.
func (r *Registry) IsOpened(p *hybrid.Participant, epoch, sid uint64, who types.Address) (bool, error) {
	v, err := p.Query(r.CC, r.Addr, "isOpened", epoch, sid, who)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("rollup: isOpened returned %T", v)
	}
	return b, nil
}

func (r *Registry) queryUint(p *hybrid.Participant, fn string, args ...interface{}) (uint64, error) {
	v, err := p.Query(r.CC, r.Addr, fn, args...)
	if err != nil {
		return 0, err
	}
	u, ok := v.(*uint256.Int)
	if !ok || !u.IsUint64() {
		return 0, fmt.Errorf("rollup: %s returned %T", fn, v)
	}
	return u.Uint64(), nil
}

// EpochPostedEvent is the decoded form of an EpochPosted log.
type EpochPostedEvent struct {
	Registry types.Address
	Epoch    uint64
	Root     types.Hash
	Count    uint64
}

// DecodeEpochPosted parses a log known to carry TopicEpochPosted.
func DecodeEpochPosted(l *types.Log) (*EpochPostedEvent, error) {
	if len(l.Topics) == 0 || l.Topics[0] != TopicEpochPosted || len(l.Data) < 96 {
		return nil, fmt.Errorf("rollup: not an EpochPosted log")
	}
	epoch := new(uint256.Int).SetBytes(l.Data[0:32])
	count := new(uint256.Int).SetBytes(l.Data[64:96])
	if !epoch.IsUint64() || !count.IsUint64() {
		return nil, fmt.Errorf("rollup: EpochPosted fields overflow uint64")
	}
	return &EpochPostedEvent{
		Registry: l.Address,
		Epoch:    epoch.Uint64(),
		Root:     types.BytesToHash(l.Data[32:64]),
		Count:    count.Uint64(),
	}, nil
}
