// Package whisper implements a minimal off-chain messaging layer in the
// spirit of Ethereum Whisper, which the paper names as the channel for
// circulating signed copies of the off-chain contract. It provides
// topic-based publish/subscribe between identified nodes, envelope
// signatures (sender authentication via secp256k1/keccak, the same
// primitives the chain uses), optional AES-GCM symmetric encryption for
// private topics, and TTL-based expiry.
package whisper

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"onoffchain/internal/keccak"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

// Topic is a 4-byte routing tag, as in Whisper v5/v6.
type Topic [4]byte

// TopicFromString derives a topic from a human-readable name.
func TopicFromString(s string) Topic {
	h := keccak.Sum256([]byte(s))
	var t Topic
	copy(t[:], h[:4])
	return t
}

// Envelope is a routed message. Payload may be encrypted; Sig authenticates
// the sender over keccak256(topic || expiry || payload).
type Envelope struct {
	Topic   Topic
	Expiry  uint64 // simulated-seconds timestamp after which it is dropped
	Payload []byte
	From    types.Address
	SigV    byte
	SigR    secp256k1.Scalar
	SigS    secp256k1.Scalar
	// TraceID/TraceSpan carry the poster's causal trace context (zero
	// when untraced). Observability metadata only: deliberately excluded
	// from the signing hash, so traced and untraced peers interoperate
	// and a relay may strip or add tracing without breaking signatures.
	TraceID   uint64
	TraceSpan uint64

	// verdict caches Verify's answer, keyed by everything it is a function
	// of: one posted envelope reaches n subscribers as one object, and each
	// of them verifies it. Guarded by verdictMu.
	verdictMu  sync.Mutex
	verdictFor verdictKey
	verdictSet bool
	verdict    bool
}

// verdictKey is what an envelope's signature verdict is a function of.
type verdictKey struct {
	signingHash [32]byte
	from        types.Address
	v           byte
	r, s        secp256k1.Scalar
}

// TraceCtx returns the envelope's causal trace context (zero when the
// poster was untraced).
func (e *Envelope) TraceCtx() telemetry.TraceContext {
	return telemetry.TraceContext{TraceID: e.TraceID, Span: e.TraceSpan}
}

func (e *Envelope) signingHash() []byte {
	var expiry [8]byte
	for i := 0; i < 8; i++ {
		expiry[7-i] = byte(e.Expiry >> (8 * i))
	}
	return keccak.Sum256Bytes(e.Topic[:], expiry[:], e.Payload)
}

// Verify checks the envelope signature against the claimed sender. The
// verdict is remembered on the envelope, so the subscribers that share one
// delivered envelope pay one recovery between them; a changed field changes
// the key and verifies afresh.
func (e *Envelope) Verify() bool {
	if e.SigR.IsZero() || e.SigS.IsZero() {
		return false // unsigned envelope (see PostOptions.Unsigned)
	}
	key := verdictKey{from: e.From, v: e.SigV, r: e.SigR, s: e.SigS}
	copy(key.signingHash[:], e.signingHash())
	e.verdictMu.Lock()
	defer e.verdictMu.Unlock()
	if e.verdictSet && e.verdictFor == key {
		return e.verdict
	}
	addr, err := secp256k1.RecoverAddress(key.signingHash[:], e.SigR, e.SigS, e.SigV)
	e.verdictFor, e.verdictSet = key, true
	e.verdict = err == nil && types.Address(addr) == e.From
	return e.verdict
}

// Network is an in-process message hub connecting nodes, standing in for
// the Whisper DHT/gossip overlay. Loss tallies are telemetry counters the
// network owns outright: Drops(), DropStats(), the hub's Snapshot and any
// registry they are registered into (RegisterMetrics) all read the same
// atomics, so no two views of whisper loss can ever disagree.
type Network struct {
	mu           sync.Mutex
	subs         map[Topic][]*subscription
	now          func() uint64
	posts        *telemetry.Counter // envelopes posted
	drops        *telemetry.Counter // expired envelopes dropped
	backpressure *telemetry.Counter // envelopes dropped on a full subscriber buffer
	partitioned  *telemetry.Counter // envelopes withheld by the link filter
	// linkFilter, when set, decides whether an envelope from one node may
	// reach another (tests use it to simulate network partitions). nil
	// means full connectivity.
	linkFilter func(from, to types.Address) bool
	// log, when set, sinks structured warnings about message loss. Sampled:
	// one line per power-of-two backpressure drop, so a stalled subscriber
	// cannot turn the post hot path into a logging hot path.
	log *telemetry.LayerLogger
}

type subscription struct {
	node *Node
	ch   chan *Envelope
}

// NewNetwork creates a hub. The clock function supplies simulated time for
// TTL handling (defaults to a constant if nil, disabling expiry).
func NewNetwork(clock func() uint64) *Network {
	if clock == nil {
		clock = func() uint64 { return 0 }
	}
	return &Network{
		subs:         make(map[Topic][]*subscription),
		now:          clock,
		posts:        telemetry.NewCounter(),
		drops:        telemetry.NewCounter(),
		backpressure: telemetry.NewCounter(),
		partitioned:  telemetry.NewCounter(),
	}
}

// RegisterMetrics exposes the network's counters in a registry under
// whisper_* series names. The counters themselves stay owned by the
// network — registration adds a view, never a second tally — so calling
// this for several registries (hub's, a standalone tower's) is fine. A
// nil registry is ignored.
func (n *Network) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(n.posts, "whisper_posts_total")
	reg.RegisterCounter(n.drops, "whisper_dropped_total", "reason", "expired")
	reg.RegisterCounter(n.backpressure, "whisper_dropped_total", "reason", "backpressure")
	reg.RegisterCounter(n.partitioned, "whisper_partitioned_total")
	reg.GaugeFunc("whisper_topics", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.subs))
	})
	// SLO: backpressure loss above 1% of posts degrades gossip delivery;
	// above 10% towers are likely missing guard exports outright.
	reg.RegisterHealth("whisper_drops", telemetry.RatioCheck(
		n.backpressure.Value, n.posts.Value,
		100, 0.01, 0.10, "backpressure drop"))
}

// SetLogger installs a structured logger for loss warnings (nil disables).
func (n *Network) SetLogger(l *telemetry.LayerLogger) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.log = l
}

// Drops reports how many envelopes were lost before delivery, for any
// reason: TTL expiry or a full subscriber buffer. A consumer that cares
// about gossip health (the federation's heartbeat loop) should watch this
// counter grow; DropStats breaks it down.
func (n *Network) Drops() int {
	return int(n.drops.Value() + n.backpressure.Value())
}

// DropStats breaks the loss counter down: envelopes dropped because they
// expired before posting, and envelopes dropped because a subscriber's
// buffer was full (backpressure — the subscriber is not draining).
// Envelopes withheld by a link filter (simulated partitions) are counted
// separately and are NOT losses.
func (n *Network) DropStats() (expired, backpressure int) {
	return int(n.drops.Value()), int(n.backpressure.Value())
}

// SetLinkFilter installs (or, with nil, removes) a delivery predicate:
// an envelope from `from` reaches a subscriber node `to` only when the
// filter allows it. Tests use this to simulate gossip partitions; filtered
// deliveries are tallied but do not count as drops.
func (n *Network) SetLinkFilter(f func(from, to types.Address) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkFilter = f
}

// Node is a network participant bound to a secp256k1 identity.
type Node struct {
	network *Network
	key     *secp256k1.PrivateKey
	address types.Address
}

// NewNode attaches an identity to the network.
func (n *Network) NewNode(key *secp256k1.PrivateKey) *Node {
	return &Node{network: n, key: key, address: types.Address(key.EthereumAddress())}
}

// Address returns the node's identity address.
func (nd *Node) Address() types.Address { return nd.address }

// Subscribe returns a channel of verified envelopes on the topic. The
// buffer is generous; a full buffer drops (simulating lossy gossip).
// Callers that outlive their interest in the topic must Unsubscribe the
// returned channel, or the network hub accumulates dead subscriptions
// forever — a real leak for a long-lived session orchestrator that mints
// a fresh topic per session.
func (nd *Node) Subscribe(topic Topic) <-chan *Envelope {
	ch := make(chan *Envelope, 256)
	nd.network.mu.Lock()
	defer nd.network.mu.Unlock()
	nd.network.subs[topic] = append(nd.network.subs[topic], &subscription{node: nd, ch: ch})
	return ch
}

// Unsubscribe detaches a channel previously returned by Subscribe on the
// topic. Safe to call more than once; unknown channels are ignored. The
// channel is not closed (posts already delivered remain readable).
func (nd *Node) Unsubscribe(topic Topic, ch <-chan *Envelope) {
	nd.network.mu.Lock()
	defer nd.network.mu.Unlock()
	subs := nd.network.subs[topic]
	for i, s := range subs {
		if s.ch == ch {
			nd.network.subs[topic] = append(subs[:i], subs[i+1:]...)
			break
		}
	}
	if len(nd.network.subs[topic]) == 0 {
		delete(nd.network.subs, topic)
	}
}

// PostOptions tunes a message posting.
type PostOptions struct {
	// TTL in simulated seconds; 0 means no expiry.
	TTL uint64
	// Key enables AES-GCM encryption with a 32-byte shared symmetric key.
	Key []byte
	// Unsigned skips the sender signature. Only sensible together with
	// Key: AES-GCM under a shared group key already authenticates the
	// envelope as coming from SOME key holder, and for traffic where that
	// suffices (a replica fleet talking to itself at heartbeat rates) the
	// per-envelope secp256k1 signature is pure overhead. Envelope.Verify
	// reports false for such envelopes; receivers that need per-sender
	// authenticity must not set this.
	Unsigned bool
	// Trace stamps the envelope with the poster's causal trace context so
	// receivers can parent their handling spans under it. Zero is fine.
	Trace telemetry.TraceContext
}

// Post signs and publishes payload on the topic, delivering to all current
// subscribers (including the sender's own subscriptions).
func (nd *Node) Post(topic Topic, payload []byte, opts PostOptions) (*Envelope, error) {
	body := payload
	if opts.Key != nil {
		enc, err := Encrypt(opts.Key, payload)
		if err != nil {
			return nil, err
		}
		body = enc
	}
	env := &Envelope{
		Topic:     topic,
		Payload:   body,
		From:      nd.address,
		TraceID:   opts.Trace.TraceID,
		TraceSpan: opts.Trace.Span,
	}
	if opts.TTL > 0 {
		env.Expiry = nd.network.now() + opts.TTL
	}
	if !opts.Unsigned {
		sig, err := secp256k1.Sign(nd.key, env.signingHash())
		if err != nil {
			return nil, fmt.Errorf("whisper: sign envelope: %w", err)
		}
		env.SigV, env.SigR, env.SigS = sig.V, sig.R, sig.S
	}

	nd.network.posts.Inc()
	nd.network.mu.Lock()
	defer nd.network.mu.Unlock()
	if env.Expiry != 0 && nd.network.now() > env.Expiry {
		nd.network.drops.Inc()
		return env, nil
	}
	for _, sub := range nd.network.subs[topic] {
		if nd.network.linkFilter != nil && !nd.network.linkFilter(env.From, sub.node.address) {
			nd.network.partitioned.Inc()
			continue
		}
		select {
		case sub.ch <- env:
		default: // lossy delivery under backpressure
			nd.network.backpressure.Inc()
			n := nd.network.backpressure.Value()
			if nd.network.log != nil && n&(n-1) == 0 {
				nd.network.log.Warnf("whisper: subscriber buffer full, envelope dropped (drop #%d, topic %x, to %s)", n, topic, sub.node.address.Hex())
			}
		}
	}
	return env, nil
}

// Encrypt seals plaintext with AES-256-GCM under a 32-byte key.
func Encrypt(key, plaintext []byte) ([]byte, error) {
	if len(key) != 32 {
		return nil, errors.New("whisper: symmetric key must be 32 bytes")
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return append(nonce, gcm.Seal(nil, nonce, plaintext, nil)...), nil
}

// Decrypt opens an AES-256-GCM sealed payload.
func Decrypt(key, sealed []byte) ([]byte, error) {
	if len(key) != 32 {
		return nil, errors.New("whisper: symmetric key must be 32 bytes")
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, errors.New("whisper: sealed payload too short")
	}
	nonce, ct := sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():]
	return gcm.Open(nil, nonce, ct, nil)
}

// SharedTopicKey derives a deterministic 32-byte symmetric key for a set of
// participants (a stand-in for a key agreement run over the handshake; all
// participants can compute it from the sorted address list plus a label).
func SharedTopicKey(label string, participants []types.Address) []byte {
	sorted := make([][]byte, len(participants))
	for i, p := range participants {
		sorted[i] = p.Bytes()
	}
	// insertion sort: participant sets are tiny
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && string(sorted[j-1]) > string(sorted[j]); j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	parts := [][]byte{[]byte(label)}
	parts = append(parts, sorted...)
	return keccak.Sum256Bytes(parts...)
}
