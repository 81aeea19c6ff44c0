package whisper

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"onoffchain/internal/rlp"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

func mustDecode(t *testing.T, frame []byte) *rlp.Item {
	t.Helper()
	item, err := rlp.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	return item
}

func testEnvelope(t *testing.T, traced bool) *Envelope {
	t.Helper()
	key, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xE17))
	if err != nil {
		t.Fatal(err)
	}
	e := &Envelope{
		Topic:   TopicFromString("compat"),
		Expiry:  1_700_000_600,
		Payload: []byte("signed copy bytes"),
		From:    types.Address(key.EthereumAddress()),
	}
	if traced {
		e.TraceID, e.TraceSpan = 0xABCD, 0x1234
	}
	sig, err := secp256k1.Sign(key, e.signingHash())
	if err != nil {
		t.Fatal(err)
	}
	e.SigV, e.SigR, e.SigS = sig.V, sig.R, sig.S
	return e
}

// TestEnvelopeCodecBackwardCompat pins the wire-envelope contract for the
// cross-process split: 7-item legacy frames, 9-item traced frames, and a
// signature that survives trace stripping (the trace rides outside the
// signing hash).
func TestEnvelopeCodecBackwardCompat(t *testing.T) {
	legacy := testEnvelope(t, false)
	frame := EncodeEnvelope(legacy)
	if item := mustDecode(t, frame); len(item.Items) != 7 {
		t.Fatalf("untraced envelope must be a 7-item frame, got %d", len(item.Items))
	}
	out, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, out) {
		t.Fatalf("legacy round trip mismatch:\n in %+v\nout %+v", legacy, out)
	}
	if !out.Verify() {
		t.Fatal("decoded legacy envelope must still verify")
	}

	traced := testEnvelope(t, true)
	tframe := EncodeEnvelope(traced)
	if item := mustDecode(t, tframe); len(item.Items) != 9 {
		t.Fatalf("traced envelope must be a 9-item frame, got %d", len(item.Items))
	}
	tout, err := DecodeEnvelope(tframe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, tout) {
		t.Fatalf("traced round trip mismatch:\n in %+v\nout %+v", traced, tout)
	}
	if !tout.Verify() {
		t.Fatal("trace fields must not break the sender signature")
	}
	if tc := tout.TraceCtx(); tc.TraceID != 0xABCD || tc.Span != 0x1234 {
		t.Fatalf("TraceCtx lost: %+v", tc)
	}
	if !bytes.Equal(EncodeEnvelope(tout), tframe) {
		t.Fatal("decode∘encode must be the identity on traced envelopes")
	}

	// A relay stripping the trace items leaves a valid legacy frame whose
	// signature still verifies — traced and untraced peers interoperate.
	stripped := &Envelope{
		Topic: tout.Topic, Expiry: tout.Expiry, Payload: tout.Payload, From: tout.From,
		SigV: tout.SigV, SigR: tout.SigR, SigS: tout.SigS,
	}
	sout, err := DecodeEnvelope(EncodeEnvelope(stripped))
	if err != nil {
		t.Fatal(err)
	}
	if !sout.Verify() {
		t.Fatal("stripped envelope must still verify")
	}
}

func TestEnvelopeCodecRejects(t *testing.T) {
	e := testEnvelope(t, true)
	good := mustDecode(t, EncodeEnvelope(e))
	reject := func(what string, frame []byte) {
		t.Helper()
		if _, err := DecodeEnvelope(frame); err == nil {
			t.Fatalf("%s must not decode", what)
		}
	}
	reject("garbage", []byte{0xFF, 0x00})
	reject("8-item frame", rlp.EncodeList(good.Items[:8]...))
	short := append([]*rlp.Item{}, good.Items...)
	short[0] = rlp.Bytes([]byte{1, 2, 3})
	reject("3-byte topic", rlp.EncodeList(short...))
	badFrom := append([]*rlp.Item{}, good.Items...)
	badFrom[3] = rlp.Bytes([]byte{1})
	reject("1-byte from", rlp.EncodeList(badFrom...))
	badV := append([]*rlp.Item{}, good.Items...)
	badV[4] = rlp.Uint(256)
	reject("sig v > 255", rlp.EncodeList(badV...))
	padded := append([]*rlp.Item{}, good.Items...)
	padded[5] = rlp.Bytes(append([]byte{0}, e.SigR.Bytes()...))
	reject("zero-padded sig scalar", rlp.EncodeList(padded...))
	over := append([]*rlp.Item{}, good.Items...)
	over[5] = rlp.Bytes(bytes.Repeat([]byte{0xFF}, 32))
	reject("out-of-range sig scalar", rlp.EncodeList(over...))
	zeroTrace := append([]*rlp.Item{}, good.Items...)
	zeroTrace[7], zeroTrace[8] = rlp.Uint(0), rlp.Uint(0)
	reject("9-item frame with zero trace", rlp.EncodeList(zeroTrace...))
}

func FuzzEnvelopeRoundTrip(f *testing.F) {
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xE17))
	mk := func(traced bool) []byte {
		e := &Envelope{Topic: TopicFromString("fuzz"), Expiry: 9, Payload: []byte("p"),
			From: types.Address(key.EthereumAddress())}
		if traced {
			e.TraceID, e.TraceSpan = 7, 8
		}
		sig, _ := secp256k1.Sign(key, e.signingHash())
		e.SigV, e.SigR, e.SigS = sig.V, sig.R, sig.S
		return EncodeEnvelope(e)
	}
	f.Add(mk(false))
	f.Add(mk(true))
	f.Add([]byte{0xc0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		e, err := DecodeEnvelope(frame)
		if err != nil {
			return
		}
		re := EncodeEnvelope(e)
		if !bytes.Equal(re, frame) {
			t.Fatalf("decode∘encode not identity:\n in %x\nout %x", frame, re)
		}
		e2, err := DecodeEnvelope(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatal("re-decode mismatch")
		}
	})
}

// TestPostCarriesTraceConcurrent drives traced and untraced posts from
// many goroutines (race detector coverage for the trace plumbing) and
// checks the delivered envelopes carry exactly the poster's context.
func TestPostCarriesTraceConcurrent(t *testing.T) {
	net := NewNetwork(nil)
	key, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFEED))
	if err != nil {
		t.Fatal(err)
	}
	node := net.NewNode(key)
	topic := TopicFromString("traced")
	inbox := node.Subscribe(topic)

	const posters = 8
	var wg sync.WaitGroup
	for i := 0; i < posters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc := telemetry.TraceContext{TraceID: uint64(i + 1), Span: uint64(i + 100)}
			if i%2 == 1 {
				tc = telemetry.TraceContext{} // untraced generation
			}
			if _, err := node.Post(topic, []byte{byte(i)}, PostOptions{Trace: tc}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < posters; i++ {
		env := <-inbox
		id := int(env.Payload[0])
		tc := env.TraceCtx()
		if id%2 == 1 {
			if tc.Valid() {
				t.Fatalf("untraced post %d grew a context: %+v", id, tc)
			}
		} else if tc.TraceID != uint64(id+1) || tc.Span != uint64(id+100) {
			t.Fatalf("post %d delivered context %+v", id, tc)
		}
		if !env.Verify() {
			t.Fatalf("post %d envelope does not verify", id)
		}
	}
}

// TestNetworkBackpressureWarningSampled pins the sampled drop logging:
// power-of-two drops emit one structured warn line each, and the health
// check degrades once the drop ratio crosses the SLO.
func TestNetworkBackpressureWarningSampled(t *testing.T) {
	var buf syncLogBuffer
	net := NewNetwork(nil)
	net.SetLogger(telemetry.NewLogger(&buf).Layer("whisper"))
	key, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xB10C))
	if err != nil {
		t.Fatal(err)
	}
	node := net.NewNode(key)
	topic := TopicFromString("full")
	node.Subscribe(topic) // never drained: 256-deep buffer then drops
	for i := 0; i < 256+5; i++ {
		if _, err := node.Post(topic, []byte{1}, PostOptions{Unsigned: true}); err != nil {
			t.Fatal(err)
		}
	}
	_, backpressure := net.DropStats()
	if backpressure != 5 {
		t.Fatalf("backpressure=%d, want 5", backpressure)
	}
	out := buf.String()
	// Drops 1, 2 and 4 are powers of two → exactly 3 warn lines.
	if got := strings.Count(out, "envelope dropped"); got != 3 {
		t.Fatalf("%d warn lines for 5 drops, want 3 (sampled at powers of two):\n%s", got, out)
	}
	reg := telemetry.NewRegistry()
	net.RegisterMetrics(reg)
	if rep := reg.HealthReport(); rep.Components["whisper_drops"].Status == telemetry.HealthOK {
		t.Fatalf("drop ratio %d/%d must breach the SLO: %+v", backpressure, 256+5, rep)
	}
}

type syncLogBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncLogBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncLogBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
