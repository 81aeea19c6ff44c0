package whisper

import (
	"bytes"
	"sync"
	"testing"

	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
)

func newKey(seed int64) *secp256k1.PrivateKey {
	k, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(uint64(seed)))
	if err != nil {
		panic(err)
	}
	return k
}

func TestPostAndSubscribe(t *testing.T) {
	net := NewNetwork(nil)
	alice := net.NewNode(newKey(1))
	bob := net.NewNode(newKey(2))

	topic := TopicFromString("betting/signed-copy")
	inbox := bob.Subscribe(topic)

	if _, err := alice.Post(topic, []byte("hello bob"), PostOptions{}); err != nil {
		t.Fatal(err)
	}
	env := <-inbox
	if string(env.Payload) != "hello bob" {
		t.Errorf("payload = %q", env.Payload)
	}
	if env.From != alice.Address() {
		t.Errorf("from = %s", env.From)
	}
	if !env.Verify() {
		t.Error("envelope signature invalid")
	}
}

func TestTopicIsolation(t *testing.T) {
	net := NewNetwork(nil)
	alice := net.NewNode(newKey(3))
	bob := net.NewNode(newKey(4))

	t1 := TopicFromString("topic-one")
	t2 := TopicFromString("topic-two")
	inbox1 := bob.Subscribe(t1)

	alice.Post(t2, []byte("wrong room"), PostOptions{})
	alice.Post(t1, []byte("right room"), PostOptions{})

	env := <-inbox1
	if string(env.Payload) != "right room" {
		t.Errorf("got %q", env.Payload)
	}
	select {
	case extra := <-inbox1:
		t.Errorf("unexpected delivery: %q", extra.Payload)
	default:
	}
}

func TestEnvelopeTamperDetection(t *testing.T) {
	net := NewNetwork(nil)
	alice := net.NewNode(newKey(5))
	bob := net.NewNode(newKey(6))
	topic := TopicFromString("t")
	inbox := bob.Subscribe(topic)
	alice.Post(topic, []byte("authentic"), PostOptions{})
	env := <-inbox
	env.Payload = []byte("forged!!!")
	if env.Verify() {
		t.Error("tampered envelope verified")
	}
	// Claiming a different sender must also fail.
	env.Payload = []byte("authentic")
	env.From = bob.Address()
	if env.Verify() {
		t.Error("spoofed sender verified")
	}
}

func TestEncryptionRoundTripAndWrongKey(t *testing.T) {
	participants := []types.Address{
		types.BytesToAddress([]byte{1}),
		types.BytesToAddress([]byte{2}),
	}
	key := SharedTopicKey("bet-42", participants)
	if len(key) != 32 {
		t.Fatalf("key length %d", len(key))
	}
	sealed, err := Encrypt(key, []byte("secret contract bytecode"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Decrypt(key, sealed)
	if err != nil || string(plain) != "secret contract bytecode" {
		t.Fatalf("decrypt: %q, %v", plain, err)
	}
	wrong := SharedTopicKey("bet-43", participants)
	if _, err := Decrypt(wrong, sealed); err == nil {
		t.Error("wrong key decrypted")
	}
	if _, err := Encrypt(key[:16], nil); err == nil {
		t.Error("short key accepted")
	}
}

func TestSharedKeyOrderIndependent(t *testing.T) {
	a := types.BytesToAddress([]byte{0xAA})
	b := types.BytesToAddress([]byte{0xBB})
	k1 := SharedTopicKey("label", []types.Address{a, b})
	k2 := SharedTopicKey("label", []types.Address{b, a})
	if !bytes.Equal(k1, k2) {
		t.Error("shared key depends on participant order")
	}
	k3 := SharedTopicKey("label", []types.Address{a})
	if bytes.Equal(k1, k3) {
		t.Error("different participant sets share a key")
	}
}

func TestEncryptedPost(t *testing.T) {
	net := NewNetwork(nil)
	alice := net.NewNode(newKey(7))
	bob := net.NewNode(newKey(8))
	eve := net.NewNode(newKey(9))

	topic := TopicFromString("private")
	bobInbox := bob.Subscribe(topic)
	eveInbox := eve.Subscribe(topic)

	key := SharedTopicKey("alice-bob", []types.Address{alice.Address(), bob.Address()})
	secret := []byte("the betting rules: reveal() internals")
	alice.Post(topic, secret, PostOptions{Key: key})

	bobEnv := <-bobInbox
	plain, err := Decrypt(key, bobEnv.Payload)
	if err != nil || !bytes.Equal(plain, secret) {
		t.Fatalf("bob decrypt: %v", err)
	}
	// Eve receives the envelope but cannot read it.
	eveEnv := <-eveInbox
	if bytes.Contains(eveEnv.Payload, []byte("betting")) {
		t.Error("payload leaked in plaintext")
	}
	eveKey := SharedTopicKey("alice-eve", []types.Address{alice.Address(), eve.Address()})
	if _, err := Decrypt(eveKey, eveEnv.Payload); err == nil {
		t.Error("eve decrypted with wrong key")
	}
}

func TestTTLExpiry(t *testing.T) {
	now := uint64(1000)
	net := NewNetwork(func() uint64 { return now })
	alice := net.NewNode(newKey(10))
	bob := net.NewNode(newKey(11))
	topic := TopicFromString("ttl")
	inbox := bob.Subscribe(topic)

	env, err := alice.Post(topic, []byte("fresh"), PostOptions{TTL: 100})
	if err != nil {
		t.Fatal(err)
	}
	if env.Expiry != 1100 {
		t.Errorf("expiry = %d", env.Expiry)
	}
	<-inbox

	// After the clock passes the expiry, posting an already-expired message
	// is dropped (simulates propagation delay).
	now = 5000
	expired := &Envelope{Topic: topic, Expiry: 1100}
	_ = expired
	if _, err := alice.Post(topic, []byte("late"), PostOptions{TTL: 0}); err != nil {
		t.Fatal(err)
	}
	<-inbox // TTL 0 = no expiry, still delivered
	if net.Drops() != 0 {
		t.Errorf("drops = %d", net.Drops())
	}
}

func TestMultipleSubscribers(t *testing.T) {
	net := NewNetwork(nil)
	sender := net.NewNode(newKey(12))
	topic := TopicFromString("fanout")
	var inboxes []<-chan *Envelope
	for i := int64(13); i < 18; i++ {
		inboxes = append(inboxes, net.NewNode(newKey(i)).Subscribe(topic))
	}
	sender.Post(topic, []byte("broadcast"), PostOptions{})
	for i, in := range inboxes {
		env := <-in
		if string(env.Payload) != "broadcast" {
			t.Errorf("subscriber %d payload %q", i, env.Payload)
		}
	}
}

func TestPresence(t *testing.T) {
	now := uint64(1000)
	p := NewPresence(50, func() uint64 { return now })
	a := types.BytesToAddress([]byte{1})
	b := types.BytesToAddress([]byte{2})
	if p.Alive(a) {
		t.Fatal("unmarked member alive")
	}
	p.Mark(a)
	p.Mark(b)
	if !p.Alive(a) || !p.Alive(b) {
		t.Fatal("marked members not alive")
	}
	now = 1050
	if !p.Alive(a) {
		t.Fatal("member dead at exactly ttl")
	}
	now = 1051
	if p.Alive(a) {
		t.Fatal("member alive past ttl")
	}
	p.Mark(b)
	if !p.Alive(b) || p.Alive(a) {
		t.Fatal("a fresh mark must revive b and only b")
	}
}

// TestDropCounters pins the loss accounting: backpressure on a full
// subscriber buffer and TTL expiry both surface through Drops, and a link
// filter withholds without counting a loss.
func TestDropCounters(t *testing.T) {
	clock := uint64(0)
	n := NewNetwork(func() uint64 { return clock })
	key, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xD0))
	if err != nil {
		t.Fatal(err)
	}
	sender := n.NewNode(key)
	key2, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xD1))
	if err != nil {
		t.Fatal(err)
	}
	receiver := n.NewNode(key2)
	topic := TopicFromString("drops")
	receiver.Subscribe(topic)

	// Fill the buffer (256) and push one more: exactly one backpressure drop.
	for i := 0; i < 257; i++ {
		if _, err := sender.Post(topic, []byte{byte(i)}, PostOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if exp, bp := n.DropStats(); exp != 0 || bp != 1 {
		t.Fatalf("DropStats = %d,%d, want 0,1", exp, bp)
	}
	// An envelope that expires between stamping and delivery (the clock
	// jumps past the TTL while the post is in flight).
	step := uint64(100)
	post := func() uint64 { clock += step; return clock }
	n2 := NewNetwork(post)
	s2 := n2.NewNode(key)
	if _, err := s2.Post(topic, []byte("late"), PostOptions{TTL: 1}); err != nil {
		t.Fatal(err)
	}
	if exp, _ := n2.DropStats(); exp != 1 {
		t.Fatalf("expired drops = %d, want 1", exp)
	}
	if n.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", n.Drops())
	}

	// Partitioned delivery is withheld, not dropped.
	_, bpBefore := n.DropStats()
	n.SetLinkFilter(func(from, to types.Address) bool { return false })
	if _, err := sender.Post(topic, []byte("cut"), PostOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, bp := n.DropStats(); bp != bpBefore {
		t.Fatalf("partitioned delivery counted as backpressure drop")
	}
	n.SetLinkFilter(nil)
}

// The verdict memo is keyed by everything the verdict is a function of:
// after a Verify, changing any signed field, the claimed sender or any
// signature field makes the next Verify recompute.
func TestEnvelopeVerdictMemoKeyedByContent(t *testing.T) {
	net := NewNetwork(nil)
	alice := net.NewNode(newKey(5))
	bob := net.NewNode(newKey(6))
	topic := TopicFromString("memo")
	inbox := bob.Subscribe(topic)
	if _, err := alice.Post(topic, []byte("authentic"), PostOptions{TTL: 60}); err != nil {
		t.Fatal(err)
	}
	env := <-inbox

	before := secp256k1.GLVSplits()
	if !env.Verify() {
		t.Fatal("fresh envelope must verify")
	}
	first := secp256k1.GLVSplits() - before
	if !env.Verify() {
		t.Fatal("second Verify must agree with the first")
	}
	if again := secp256k1.GLVSplits() - before; first == 0 || again != first {
		t.Errorf("second Verify of an unchanged envelope recovered again (%d splits, then %d)", first, again)
	}

	good := struct {
		topic   Topic
		expiry  uint64
		payload []byte
		from    types.Address
		v       byte
		r, s    secp256k1.Scalar
	}{env.Topic, env.Expiry, env.Payload, env.From, env.SigV, env.SigR, env.SigS}
	for name, mutate := range map[string]func(){
		"topic":   func() { env.Topic[0] ^= 1 },
		"expiry":  func() { env.Expiry++ },
		"payload": func() { env.Payload = []byte("forged!!!") },
		"from":    func() { env.From = bob.Address() },
		"sigV":    func() { env.SigV ^= 1 },
		"sigR":    func() { env.SigR = good.s },
		"sigS":    func() { env.SigS = good.r },
	} {
		mutate()
		if env.Verify() {
			t.Errorf("envelope with a changed %s still verifies from the memo", name)
		}
		env.Topic, env.Expiry, env.Payload, env.From = good.topic, good.expiry, good.payload, good.from
		env.SigV, env.SigR, env.SigS = good.v, good.r, good.s
		if !env.Verify() {
			t.Fatalf("restoring %s must verify again", name)
		}
	}

	// An unsigned envelope stays false, before and after a verdict is held.
	env.SigR, env.SigS = secp256k1.Scalar{}, secp256k1.Scalar{}
	if env.Verify() {
		t.Error("unsigned envelope verified")
	}
}

// One posted envelope reaches every subscriber as one object and each of
// them verifies it, from its own goroutine: between them they pay one
// recovery (run under -race).
func TestEnvelopeVerifyConcurrent(t *testing.T) {
	net := NewNetwork(nil)
	poster := net.NewNode(newKey(7))
	topic := TopicFromString("shared")
	const subscribers = 8
	inboxes := make([]<-chan *Envelope, subscribers)
	for i := range inboxes {
		inboxes[i] = net.NewNode(newKey(int64(100 + i))).Subscribe(topic)
	}
	if _, err := poster.Post(topic, []byte("signature share"), PostOptions{}); err != nil {
		t.Fatal(err)
	}
	before := secp256k1.GLVSplits()
	var wg sync.WaitGroup
	for _, inbox := range inboxes {
		wg.Add(1)
		go func(inbox <-chan *Envelope) {
			defer wg.Done()
			if env := <-inbox; !env.Verify() {
				t.Error("delivered envelope must verify")
			}
		}(inbox)
	}
	wg.Wait()
	one := secp256k1.GLVSplits() - before

	// What one recovery costs, measured on an envelope of its own.
	solo := testEnvelope(t, false)
	before = secp256k1.GLVSplits()
	if !solo.Verify() {
		t.Fatal("solo envelope must verify")
	}
	if want := secp256k1.GLVSplits() - before; one != want {
		t.Errorf("%d subscribers did %d scalar splits between them, want one recovery's %d", subscribers, one, want)
	}
}
