package rollup

import (
	"fmt"
	"strings"
	"sync"

	"onoffchain/internal/abi"
	"onoffchain/internal/chain"
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

// Window is the batch challenge period in chain seconds: a leaf can be
// opened against its epoch's root until the post's block time + Window. It
// matches the default per-session challenge period. Every registry is
// deployed with it (the constructor still takes it as an argument).
const Window uint64 = 600

// Registry is a client handle on one deployed rollup-registry instance.
type Registry struct {
	CC    *lang.CompiledContract
	Addr  types.Address
	Depth int
}

// DeployRegistryAsync pools the registry's creation from p without waiting
// for it to mine; the returned bind waits for the receipt and yields the
// handle. The constructor takes the sequencer as an argument and never
// reads msg.sender, so p may be anyone with the balance — a faucet that
// queues the creation behind the sequencer's funding transfer has one block
// carry both.
func DeployRegistryAsync(p *hybrid.Participant, depth int, sequencer types.Address, gas uint64) (bind func() (*Registry, error), err error) {
	cc, err := CompiledRegistry(depth)
	if err != nil {
		return nil, err
	}
	code, err := cc.DeployWithArgs(sequencer, Window)
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
		return &Registry{CC: cc, Addr: r.ContractAddress, Depth: depth}, nil
	}, nil
}

// OpenRegistry re-attaches to an already-deployed registry (recovery,
// federation towers learning the address from gossip).
func OpenRegistry(addr types.Address, depth int) (*Registry, error) {
	cc, err := CompiledRegistry(depth)
	if err != nil {
		return nil, err
	}
	return &Registry{CC: cc, Addr: addr, Depth: depth}, nil
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

// Post is what the registry recorded for one epoch: the root its
// EpochPosted log carries and the time of the block that carries it, which
// is the time openLeaf counts the epoch's batch window from.
type Post struct {
	Root types.Hash
	At   uint64
}

// Posts reads every epoch the registry recorded, in one pass over its
// EpochPosted logs: epoch number → Post. An epoch no mined block carries a
// post of is absent.
func (r *Registry) Posts(c *chain.Chain) map[uint64]Post {
	posts := map[uint64]Post{}
	for _, l := range c.FilterLogs(chain.FilterQuery{Address: &r.Addr, Topic: &TopicEpochPosted}) {
		ev, err := DecodeEpochPosted(l)
		if err != nil {
			continue
		}
		if b, err := c.BlockByNumber(l.BlockNumber); err == nil {
			posts[ev.Epoch] = Post{Root: ev.Root, At: b.Time()}
		}
	}
	return posts
}

// EpochPostedEvent is the decoded form of an EpochPosted log.
type EpochPostedEvent struct {
	Epoch uint64
	Root  types.Hash
	Count uint64
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
		Epoch: epoch.Uint64(),
		Root:  types.BytesToHash(l.Data[32:64]),
		Count: count.Uint64(),
	}, nil
}
