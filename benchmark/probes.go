package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"onoffchain/internal/abi"
	"onoffchain/internal/chain"
	"onoffchain/internal/experiments"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/keccak"
	"onoffchain/internal/lang"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/state"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/trie"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// Layer probes time direct calls into each module's public functions, on
// inputs taken from real artifacts (the betting and lottery off-chain
// bytecode, a real signed copy, a real signed transaction). A probe
// reports the median of probeBatches batches; fast operations are looped
// until a batch lasts probeBatch. The experiments.* anchors are not
// timings: they are the paper's gas numbers, deterministic, and any
// change in them is a protocol or codegen change.

const (
	probeBatches = 5
	probeBatch   = 8 * time.Millisecond
)

// probe is one per-layer metric and the function that measures it.
type probe struct {
	def metricDef
	run func(p *prober) (float64, error)
}

// perLayer is every per-layer metric in manifest order: the traced
// window's, then the probes'.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), tracedLayers...)
	for _, pr := range probes {
		defs = append(defs, pr.def)
	}
	return defs
}

// prober carries the shared artifacts and the span log.
type prober struct {
	spans  *spanLog
	parent uint64
	name   string // metric being probed, for span names
	dir    string // scratch directory for the store probes

	key        *secp256k1.PrivateKey
	hash       [32]byte
	sig        secp256k1.Signature
	tx         *types.Transaction // a real signed transfer
	betting    *hub.Spec
	bettingSR  *hybrid.SplitResult
	lotteryBC  []byte // lottery off-chain bytecode, 6 parties, 8000 draw rounds
	sess2      *hybrid.Session
	sess6      *hybrid.Session
	args2      []interface{}
	args6      []interface{}
	anchorT2   *experiments.Table2Row
	anchorFig1 *experiments.Fig1Row
}

func probeKey(i uint64) *secp256k1.PrivateKey {
	k, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x9120BE00 + i))
	if err != nil {
		panic(err) // constant scalars: cannot fail
	}
	return k
}

// perOp times op, looped until a batch lasts probeBatch, and returns the
// median time of one op over probeBatches batches.
func (p *prober) perOp(op func()) nanos {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if d := time.Since(t0); d >= probeBatch || n >= 1<<22 {
			break
		} else if d < probeBatch/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	per := make([]float64, probeBatches)
	for b := range per {
		sp := p.spans.begin(0, p.parent, p.name)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
		sp.end()
	}
	return nanos(median(per))
}

// perBatch times one call of the function prepare returns, probeBatches
// times with a fresh prepare each (inputs an op consumes, like signed
// transactions), and returns the median.
func (p *prober) perBatch(prepare func() (func(), error)) (nanos, error) {
	per := make([]float64, probeBatches)
	for b := range per {
		op, err := prepare()
		if err != nil {
			return 0, err
		}
		sp := p.spans.begin(0, p.parent, p.name)
		t0 := time.Now()
		op()
		per[b] = float64(time.Since(t0))
		sp.end()
	}
	return nanos(median(per)), nil
}

// nanos is a measured duration that keeps its fraction: a 9 ns operation
// timed over a million iterations has digits a time.Duration would drop.
type nanos float64

func (n nanos) ns() float64      { return float64(n) }
func (n nanos) us() float64      { return float64(n) / 1e3 }
func (n nanos) ms() float64      { return float64(n) / 1e6 }
func (n nanos) seconds() float64 { return float64(n) / 1e9 }

// newProber builds the shared artifacts.
func newProber(spans *spanLog, parent uint64, dir string) (*prober, error) {
	p := &prober{spans: spans, parent: parent, dir: dir, key: probeKey(0)}
	p.hash = keccak.Sum256([]byte("probe message"))
	var err error
	if p.sig, err = secp256k1.Sign(p.key, p.hash[:]); err != nil {
		return nil, err
	}
	to := types.Address(probeKey(1).EthereumAddress())
	p.tx = types.NewTransaction(7, to, uint256.NewInt(1e18), 21_000, uint256.NewInt(1), nil)
	if err := p.tx.Sign(p.key); err != nil {
		return nil, err
	}
	p.betting = hub.BettingSpec(4, 600, false)
	if p.bettingSR, err = hybrid.Split(p.betting.Source, p.betting.Contract, p.betting.Policy); err != nil {
		return nil, err
	}
	lottery := hub.LotterySpec(6, 8000, 600, false)
	if p.sess2, p.args2, err = probeSession(p.betting, 2); err != nil {
		return nil, err
	}
	if p.sess6, p.args6, err = probeSession(lottery, 6); err != nil {
		return nil, err
	}
	if err := p.sess6.SignAndExchange(p.args6...); err != nil {
		return nil, err
	}
	p.lotteryBC = p.sess6.Copy.Bytecode
	return p, nil
}

// probeSession builds an n-party session of spec on a private chain and
// bus, with the constructor arguments the hub would pass.
func probeSession(spec *hub.Spec, n int) (*hybrid.Session, []interface{}, error) {
	sr, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
	if err != nil {
		return nil, nil, err
	}
	c := chain.NewDefault(nil)
	net := whisper.NewNetwork(c.Now)
	parties := make([]*hybrid.Participant, n)
	addrs := make([]types.Address, n)
	for i := range parties {
		parties[i] = hybrid.NewParticipant(probeKey(uint64(16+i)), c, net)
		addrs[i] = parties[i].Addr
	}
	sess, err := hybrid.NewSession(sr, parties)
	return sess, spec.CtorArgs(addrs, c.Now()), err
}

// fundedChain is a chain whose n probe accounts each hold 1M ether.
func fundedChain(cfg chain.Config, n int) (*chain.Chain, []*secp256k1.PrivateKey) {
	keys := make([]*secp256k1.PrivateKey, n)
	alloc := map[types.Address]*uint256.Int{}
	for i := range keys {
		keys[i] = probeKey(uint64(1000 + i))
		alloc[types.Address(keys[i].EthereumAddress())] = new(uint256.Int).Mul(uint256.NewInt(1_000_000), uint256.NewInt(1e18))
	}
	return chain.New(cfg, alloc), keys
}

// mineBlock256 is the serial/parallel block-execution probe: 256 disjoint
// pre-signed transfers admitted and sealed as one block.
func mineBlock256(p *prober, exec chain.ExecPolicy) (float64, error) {
	const width = 256
	cfg := chain.DefaultConfig()
	cfg.AutoMine = false
	cfg.Exec = exec
	c, keys := fundedChain(cfg, width)
	nonce := uint64(0)
	d, err := p.perBatch(func() (func(), error) {
		batch := make([]*types.Transaction, width)
		for j := range batch {
			sink := types.BytesToAddress([]byte{0x51, byte(j >> 8), byte(j)})
			batch[j] = types.NewTransaction(nonce, sink, uint256.NewInt(1e18), 21_000, uint256.NewInt(1), nil)
			if err := batch[j].Sign(keys[j]); err != nil {
				return nil, err
			}
		}
		nonce++
		return func() {
			for _, tx := range batch {
				c.SendTransaction(tx)
			}
			c.MineBlock()
		}, nil
	})
	if err != nil {
		return 0, err
	}
	if got := len(c.Latest().Transactions); got != width {
		return 0, fmt.Errorf("block holds %d txs, want %d", got, width)
	}
	return d.ms(), nil
}

// walRecord is shaped like the hub's commonest record (a stage advance).
func walRecord(i int) *store.Record {
	return &store.Record{Kind: store.KindStage, SID: uint64(i), U1: uint64(i % 7)}
}

// filledStore is a store holding n stage records.
func filledStore(dir string, n int) (*store.Store, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	waits := make([]func() error, n)
	for i := range waits {
		waits[i] = st.AppendAsync(walRecord(i))
	}
	for _, wait := range waits {
		if err := wait(); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

func (p *prober) anchors() error {
	if p.anchorT2 != nil {
		return nil
	}
	t2, err := experiments.Table2([]uint64{64})
	if err != nil {
		return err
	}
	f1, err := experiments.Fig1([]uint64{512})
	if err != nil {
		return err
	}
	p.anchorT2, p.anchorFig1 = &t2[0], &f1[0]
	return nil
}

var probes = []probe{
	{metricDef{"keccak.sum256_32B_ns", "ns", "lower", 0}, func(p *prober) (float64, error) {
		buf := make([]byte, 32)
		return p.perOp(func() { keccak.Sum256(buf) }).ns(), nil
	}},
	{metricDef{"keccak.sum256_1KiB_ns", "ns", "lower", 0}, func(p *prober) (float64, error) {
		buf := make([]byte, 1024)
		return p.perOp(func() { keccak.Sum256(buf) }).ns(), nil
	}},
	{metricDef{"secp256k1.sign_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		return p.perOp(func() { secp256k1.Sign(p.key, p.hash[:]) }).us(), nil
	}},
	{metricDef{"secp256k1.verify_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		return p.perOp(func() { secp256k1.Verify(&p.key.PublicKey, p.hash[:], p.sig.R, p.sig.S) }).us(), nil
	}},
	{metricDef{"secp256k1.recover_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		return p.perOp(func() { secp256k1.RecoverAddress(p.hash[:], p.sig.R, p.sig.S, p.sig.V) }).us(), nil
	}},
	{metricDef{"secp256k1.recover_batch16_us_per_sig", "us", "lower", 0}, func(p *prober) (float64, error) {
		jobs := make([]secp256k1.RecoverJob, 16)
		for i := range jobs {
			h := keccak.Sum256([]byte{byte(i)})
			sig, err := secp256k1.Sign(p.key, h[:])
			if err != nil {
				return 0, err
			}
			jobs[i] = secp256k1.RecoverJob{Hash: h, R: sig.R, S: sig.S, V: sig.V}
		}
		return p.perOp(func() { secp256k1.RecoverAddresses(jobs, 0) }).us() / 16, nil
	}},
	{metricDef{"uint256.muldiv_ns", "ns", "lower", 0}, func(p *prober) (float64, error) {
		x := new(uint256.Int).SetBytes(p.hash[:])
		y := new(uint256.Int).SetBytes(p.hash[8:24])
		w := uint256.NewInt(1_000_000_007)
		z := new(uint256.Int)
		return p.perOp(func() { z.Mul(x, y); z.Div(z, w) }).ns(), nil
	}},
	{metricDef{"rlp.encode_tx_ns", "ns", "lower", 0}, func(p *prober) (float64, error) {
		return p.perOp(func() { p.tx.EncodeRLP() }).ns(), nil
	}},
	{metricDef{"rlp.decode_tx_ns", "ns", "lower", 0}, func(p *prober) (float64, error) {
		enc := p.tx.EncodeRLP()
		if _, err := types.DecodeTransaction(enc); err != nil {
			return 0, err
		}
		return p.perOp(func() { types.DecodeTransaction(enc) }).ns(), nil
	}},
	{metricDef{"abi.pack_unpack_ns", "ns", "lower", 0}, func(p *prober) (float64, error) {
		m, err := p.bettingSR.OnChain.Method("submitResult")
		if err != nil {
			return 0, err
		}
		return p.perOp(func() {
			data, _ := m.Pack(uint64(1))
			abi.DecodeValues(m.Inputs, data[4:])
		}).ns(), nil
	}},
	{metricDef{"trie.update_1k_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		keys := make([][32]byte, 1000)
		for i := range keys {
			keys[i] = keccak.Sum256([]byte{byte(i), byte(i >> 8)})
		}
		return p.perOp(func() {
			t := trie.New(trie.NewDatabase())
			for i := range keys {
				t.Update(keys[i][:], keys[i][:])
			}
		}).us(), nil
	}},
	{metricDef{"trie.hash_1k_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		d, err := p.perBatch(func() (func(), error) {
			t := trie.New(trie.NewDatabase())
			for i := 0; i < 1000; i++ {
				k := keccak.Sum256([]byte{byte(i), byte(i >> 8)})
				t.Update(k[:], k[:])
			}
			return func() { t.Hash() }, nil
		})
		return d.us(), err
	}},
	{metricDef{"state.commit_100acct_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		s := state.New()
		one := uint256.NewInt(1)
		return p.perOp(func() {
			for i := 0; i < 100; i++ {
				s.AddBalance(types.BytesToAddress([]byte{0xAC, byte(i)}), one)
			}
			s.Finalise()
			s.Commit()
		}).us(), nil
	}},
	{metricDef{"vm.exec_mgas_per_s", "Mgas/s", "higher", 0}, func(p *prober) (float64, error) {
		out, err := hybrid.ExecuteOffChain(p.lotteryBC)
		if err != nil {
			return 0, err
		}
		d := p.perOp(func() { hybrid.ExecuteOffChain(p.lotteryBC) })
		return float64(out.DeployGas+out.ExecGas) / 1e6 / d.seconds(), nil
	}},
	{metricDef{"lang.compile_betting_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		if _, err := lang.Compile(hybrid.BettingSource); err != nil {
			return 0, err
		}
		return p.perOp(func() { lang.Compile(hybrid.BettingSource) }).us(), nil
	}},
	{metricDef{"hybrid.split_betting_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		return p.perOp(func() { hybrid.Split(p.betting.Source, p.betting.Contract, p.betting.Policy) }).us(), nil
	}},
	{metricDef{"hybrid.sign_exchange_2p_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		if err := p.sess2.SignAndExchange(p.args2...); err != nil {
			return 0, err
		}
		return p.perOp(func() { p.sess2.SignAndExchange(p.args2...) }).us(), nil
	}},
	{metricDef{"hybrid.sign_exchange_6p_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		return p.perOp(func() { p.sess6.SignAndExchange(p.args6...) }).us(), nil
	}},
	{metricDef{"hybrid.signedcopy_verify_6p_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		addrs := p.sess6.ParticipantAddrs()
		if err := p.sess6.Copy.Verify(addrs); err != nil {
			return 0, err
		}
		return p.perOp(func() { p.sess6.Copy.Verify(addrs) }).us(), nil
	}},
	{metricDef{"whisper.encrypt_1KiB_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		buf := make([]byte, 1024)
		return p.perOp(func() { whisper.Encrypt(p.hash[:], buf) }).us(), nil
	}},
	{metricDef{"whisper.decrypt_1KiB_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		sealed, err := whisper.Encrypt(p.hash[:], make([]byte, 1024))
		if err != nil {
			return 0, err
		}
		return p.perOp(func() { whisper.Decrypt(p.hash[:], sealed) }).us(), nil
	}},
	{metricDef{"whisper.post_deliver_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		net := whisper.NewNetwork(nil)
		from, to := net.NewNode(p.key), net.NewNode(probeKey(2))
		topic := whisper.TopicFromString("probe")
		inbox := to.Subscribe(topic)
		defer to.Unsubscribe(topic, inbox)
		payload := make([]byte, 128) // a signature share is ~100 bytes
		return p.perOp(func() {
			from.Post(topic, payload, whisper.PostOptions{Key: p.hash[:]})
			<-inbox
		}).us(), nil
	}},
	{metricDef{"whisper.envelope_codec_ns", "ns", "lower", 0}, func(p *prober) (float64, error) {
		net := whisper.NewNetwork(nil)
		env, err := net.NewNode(p.key).Post(whisper.TopicFromString("probe"), make([]byte, 128), whisper.PostOptions{Key: p.hash[:]})
		if err != nil {
			return 0, err
		}
		return p.perOp(func() { whisper.DecodeEnvelope(whisper.EncodeEnvelope(env)) }).ns(), nil
	}},
	{metricDef{"store.append_sync_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		st, err := store.Open(filepath.Join(p.dir, "sync"), store.Options{Sync: true})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		i := 0
		return p.perOp(func() { st.Append(walRecord(i)); i++ }).us(), nil
	}},
	{metricDef{"store.append_group16_us_per_rec", "us", "lower", 0}, func(p *prober) (float64, error) {
		st, err := store.Open(filepath.Join(p.dir, "group"), store.Options{Sync: true})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		return p.perOp(func() {
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					st.Append(walRecord(g))
				}(g)
			}
			wg.Wait()
		}).us() / 16, nil
	}},
	{metricDef{"store.replay_10k_ms", "ms", "lower", 0}, func(p *prober) (float64, error) {
		st, err := filledStore(filepath.Join(p.dir, "replay"), 10_000)
		if err != nil {
			return 0, err
		}
		defer st.Close()
		if recs, err := st.Replay(); err != nil || len(recs) != 10_000 {
			return 0, fmt.Errorf("replay returned %d records, err %v", len(recs), err)
		}
		return p.perOp(func() { st.Replay() }).ms(), nil
	}},
	{metricDef{"store.compact_10k_ms", "ms", "lower", 0}, func(p *prober) (float64, error) {
		st, err := store.Open(filepath.Join(p.dir, "compact"), store.Options{})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		recs := make([]*store.Record, 10_000)
		for i := range recs {
			recs[i] = walRecord(i)
		}
		if err := st.Compact(recs); err != nil {
			return 0, err
		}
		return p.perOp(func() { st.Compact(recs) }).ms(), nil
	}},
	{metricDef{"rollup.tree_build_256_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		leaves := probeLeaves()
		return p.perOp(func() { rollup.NewTree(8, leaves) }).us(), nil
	}},
	{metricDef{"rollup.proof_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		t, err := rollup.NewTree(8, probeLeaves())
		if err != nil {
			return 0, err
		}
		return p.perOp(func() { t.Proof(100) }).us(), nil
	}},
	{metricDef{"rollup.verify_proof_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		leaves := probeLeaves()
		t, err := rollup.NewTree(8, leaves)
		if err != nil {
			return 0, err
		}
		proof, err := t.Proof(100)
		if err != nil || !rollup.VerifyProof(leaves[100], 100, proof, t.Root()) {
			return 0, fmt.Errorf("proof does not verify (err %v)", err)
		}
		return p.perOp(func() { rollup.VerifyProof(leaves[100], 100, proof, t.Root()) }).us(), nil
	}},
	{metricDef{"chain.sendtx_automine_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		const per = 64
		c, keys := fundedChain(chain.DefaultConfig(), 1)
		to := types.Address(probeKey(1).EthereumAddress())
		nonce := uint64(0)
		d, err := p.perBatch(func() (func(), error) {
			batch := make([]*types.Transaction, per)
			for j := range batch {
				batch[j] = types.NewTransaction(nonce, to, uint256.NewInt(1), 21_000, uint256.NewInt(1), nil)
				if err := batch[j].Sign(keys[0]); err != nil {
					return nil, err
				}
				nonce++
			}
			return func() {
				for _, tx := range batch {
					c.SendTransaction(tx)
				}
			}, nil
		})
		if err != nil {
			return 0, err
		}
		if c.Height() != per*probeBatches {
			return 0, fmt.Errorf("chain at height %d, want %d", c.Height(), per*probeBatches)
		}
		return d.us() / per, nil
	}},
	{metricDef{"chain.mineblock_256tx_serial_ms", "ms", "lower", 0}, func(p *prober) (float64, error) {
		return mineBlock256(p, chain.ExecSerial)
	}},
	{metricDef{"chain.mineblock_256tx_parallel_ms", "ms", "lower", 0}, func(p *prober) (float64, error) {
		return mineBlock256(p, chain.ExecParallel)
	}},
	{metricDef{"chain.call_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		c, keys := fundedChain(chain.DefaultConfig(), 2)
		parties := []*hybrid.Participant{hybrid.NewParticipant(keys[0], c, nil), hybrid.NewParticipant(keys[1], c, nil)}
		sess, err := hybrid.NewSession(p.bettingSR, parties)
		if err != nil {
			return 0, err
		}
		if _, err := sess.DeployOnChain(3_000_000, p.betting.CtorArgs(sess.ParticipantAddrs(), c.Now())...); err != nil {
			return 0, err
		}
		m, err := p.bettingSR.OnChain.Method("isSettled")
		if err != nil {
			return 0, err
		}
		data, err := m.Pack()
		if err != nil {
			return 0, err
		}
		msg := chain.CallMsg{From: parties[0].Addr, To: sess.OnChainAddr, Data: data}
		if _, _, err := c.Call(msg); err != nil {
			return 0, err
		}
		return p.perOp(func() { c.Call(msg) }).us(), nil
	}},
	{metricDef{"chain.filterlogs_indexed_us", "us", "lower", 0}, func(p *prober) (float64, error) {
		// A chain that served 70 betting sessions (the warm-up's 30 and
		// these 40); the query is the one verifySessions and the hub's
		// settlement barrier make.
		w, err := buildWorld(workloadByName("auto_persession"), 2, 1, false, p.dir, nil, 0)
		if err != nil {
			return 0, err
		}
		defer w.close()
		addr := w.closedLoop(w.wl.clients, 40, 0)[0].addr
		q := chain.FilterQuery{Address: &addr, Topic: &hybrid.TopicResultSubmitted}
		if len(w.chain.FilterLogs(q)) != 1 {
			return 0, fmt.Errorf("indexed query found %d logs, want 1", len(w.chain.FilterLogs(q)))
		}
		return p.perOp(func() { w.chain.FilterLogs(q) }).us(), nil
	}},
	{metricDef{"telemetry.counter_inc_ns", "ns", "lower", 0}, func(p *prober) (float64, error) {
		c := telemetry.NewRegistry().Counter("probe_total")
		return p.perOp(c.Inc).ns(), nil
	}},
	{metricDef{"telemetry.span_record_ns", "ns", "lower", 0}, func(p *prober) (float64, error) {
		tr := telemetry.NewTracer(0)
		t0 := time.Now()
		return p.perOp(func() { tr.Record(1, "probe", "op", t0, time.Microsecond, "") }).ns(), nil
	}},
	{metricDef{"experiments.table2_deploy_vi_gas_r64", "gas", "lower", 0}, func(p *prober) (float64, error) {
		err := p.anchors()
		return float64(p.anchorT2.DeployVIGas), err
	}},
	{metricDef{"experiments.table2_return_dr_gas_r64", "gas", "lower", 0}, func(p *prober) (float64, error) {
		err := p.anchors()
		return float64(p.anchorT2.ReturnDRGas), err
	}},
	{metricDef{"experiments.table2_signed_copy_bytes_r64", "bytes", "lower", 0}, func(p *prober) (float64, error) {
		err := p.anchors()
		return float64(p.anchorT2.OffChainBytecode), err
	}},
	{metricDef{"experiments.fig1_all_onchain_gas_r512", "gas", "lower", 0}, func(p *prober) (float64, error) {
		err := p.anchors()
		return float64(p.anchorFig1.MonolithGas), err
	}},
	{metricDef{"experiments.fig1_hybrid_honest_gas_r512", "gas", "lower", 0}, func(p *prober) (float64, error) {
		err := p.anchors()
		return float64(p.anchorFig1.HybridHonestGas), err
	}},
	{metricDef{"experiments.fig1_hybrid_dispute_gas_r512", "gas", "lower", 0}, func(p *prober) (float64, error) {
		err := p.anchors()
		return float64(p.anchorFig1.HybridDisputeGas), err
	}},
}

func probeLeaves() []rollup.Leaf {
	leaves := make([]rollup.Leaf, 256)
	for i := range leaves {
		leaves[i] = rollup.Leaf{SID: uint64(i + 1), Contract: types.BytesToAddress([]byte{0xC0, byte(i)}), Outcome: uint64(i & 1)}
	}
	return leaves
}

// anchorWant are the paper-anchor values on the commit that defined the
// benchmark. They are exact-match: gas is deterministic.
var anchorWant = map[string]float64{
	"experiments.table2_deploy_vi_gas_r64":     369641,
	"experiments.table2_return_dr_gas_r64":     71545,
	"experiments.table2_signed_copy_bytes_r64": 775,
	"experiments.fig1_all_onchain_gas_r512":    922208,
	"experiments.fig1_hybrid_honest_gas_r512":  878941,
	"experiments.fig1_hybrid_dispute_gas_r512": 1535001,
}

// runProbes runs every probe — or, when only is non-nil, the probes it
// names — and returns the per-layer metrics. dir is a scratch directory
// for the store probes.
func runProbes(spans *spanLog, parent uint64, only map[string]bool, dir string) (map[string]value, error) {
	p, err := newProber(spans, parent, dir)
	if err != nil {
		return nil, fmt.Errorf("probe artifacts: %w", err)
	}
	res := make(map[string]value, len(probes))
	for _, pr := range probes {
		if only != nil && !only[pr.def.name] {
			continue
		}
		p.name = pr.def.name
		v, err := pr.run(p)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pr.def.name, err)
		}
		res[pr.def.name] = value{v, pr.def.unit}
	}
	return res, nil
}

// checkAnchors fails if a paper anchor in res is not exactly the
// recorded value.
func checkAnchors(res map[string]value) error {
	for name, want := range anchorWant {
		if got := res[name].Value; got != want {
			return fmt.Errorf("paper anchor %s = %v, want exactly %v", name, got, want)
		}
	}
	return nil
}

// printProbes is `-probes`: every probe by name with its unit.
func printProbes() error {
	pinProcs()
	dir, err := scratchDir("probes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := runProbes(nil, 0, nil, dir)
	if err != nil {
		return err
	}
	for _, pr := range probes {
		fmt.Printf("  %-44s %16.4f %s\n", pr.def.name, res[pr.def.name].Value, pr.def.unit)
	}
	return checkAnchors(res)
}
