package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/vm"
)

// testAPI serves the chain API over a dev chain that funds one key.
func testAPI(t *testing.T) (*httptest.Server, *chain.Chain, *secp256k1.PrivateKey) {
	t.Helper()
	key, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(7))
	if err != nil {
		t.Fatal(err)
	}
	grand := new(uint256.Int).Mul(uint256.NewInt(100), uint256.NewInt(1e18))
	c := chain.NewDefault(map[types.Address]*uint256.Int{types.Address(key.EthereumAddress()): grand})
	ts := httptest.NewServer(newMux(c))
	t.Cleanup(ts.Close)
	return ts, c, key
}

// do sends one request and returns its status, its body and its content
// type. A handler that panics drops the connection and one that hangs hits
// the timeout: both fail the test here.
func do(t *testing.T, ts *httptest.Server, method, path, body string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	return resp.StatusCode, string(out), resp.Header.Get("Content-Type")
}

func signedTx(t *testing.T, key *secp256k1.PrivateKey, nonce, gas uint64, data []byte) *types.Transaction {
	t.Helper()
	tx := types.NewTransaction(nonce, types.Address{0x01}, uint256.NewInt(1), gas, uint256.NewInt(1), data)
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	return tx
}

func sendBody(tx *types.Transaction) string {
	return fmt.Sprintf(`{"rlp":"0x%s","wait":true}`, hex.EncodeToString(tx.EncodeRLP()))
}

// Every endpoint answers well-formed requests with 200 and hostile ones
// with a 4xx JSON error, typed application/json: bad hex, bad JSON,
// truncated RLP, an overflowing clock advance and a body past the bound.
func TestHandlers(t *testing.T) {
	ts, c, key := testAPI(t)
	addr := types.Address(key.EthereumAddress()).Hex()
	good := signedTx(t, key, 0, 21_000, nil)
	rlp := hex.EncodeToString(good.EncodeRLP())
	oversized := `{"rlp":"0x` + strings.Repeat("00", maxBody/2) + `"}`

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"status", "GET", "/status", "", 200},
		{"balance", "GET", "/balance?addr=" + addr, "", 200},
		{"balance bad hex", "GET", "/balance?addr=0xzz", "", 400},
		{"balance short", "GET", "/balance?addr=0x0102", "", 400},
		{"balance missing", "GET", "/balance", "", 400},
		{"nonce", "GET", "/nonce?addr=" + addr, "", 200},
		{"nonce bad hex", "GET", "/nonce?addr=" + addr[:len(addr)-1] + "g", "", 400},
		{"code", "GET", "/code?addr=" + addr, "", 200},
		{"code bad hex", "GET", "/code?addr=nothex", "", 400},
		{"receipt bad hex", "GET", "/receipt?tx=0x1", "", 400},
		{"receipt unknown", "GET", "/receipt?tx=0x" + strings.Repeat("ab", 32), "", 404},
		{"send bad JSON", "POST", "/send", `{"rlp":`, 400},
		{"send empty body", "POST", "/send", "", 400},
		{"send wrong type", "POST", "/send", `{"rlp":7}`, 400},
		{"send bad hex", "POST", "/send", `{"rlp":"0xzz"}`, 400},
		{"send truncated RLP", "POST", "/send", `{"rlp":"0x` + rlp[:len(rlp)/2] + `"}`, 400},
		{"send empty RLP", "POST", "/send", `{"rlp":"0x"}`, 400},
		{"send oversized", "POST", "/send", oversized, 413},
		{"send", "POST", "/send", sendBody(good), 200},
		{"send replayed", "POST", "/send", sendBody(good), 400},
		{"send over the gas limit", "POST", "/send", sendBody(signedTx(t, key, 1, chain.BlockGasLimit+1, nil)), 400},
		{"receipt", "GET", "/receipt?tx=" + good.Hash().Hex(), "", 200},
		{"call bad JSON", "POST", "/call", `[`, 400},
		{"call bad from", "POST", "/call", `{"from":"0xzz","to":"` + addr + `"}`, 400},
		{"call bad to", "POST", "/call", `{"from":"` + addr + `","to":"0x00"}`, 400},
		{"call bad data", "POST", "/call", `{"from":"` + addr + `","to":"` + addr + `","data":"0x123"}`, 400},
		{"call oversized", "POST", "/call", oversized, 413},
		{"call", "POST", "/call", `{"from":"` + addr + `","to":"` + addr + `","data":"0x"}`, 200},
		{"advance bad JSON", "POST", "/advance", `{"seconds":}`, 400},
		{"advance negative", "POST", "/advance", `{"seconds":-1}`, 400},
		{"advance past uint64", "POST", "/advance", `{"seconds":18446744073709551616}`, 400},
		{"advance overflowing", "POST", "/advance", `{"seconds":18446744073709551615}`, 400},
		{"advance oversized", "POST", "/advance", oversized, 413},
		{"advance", "POST", "/advance", `{"seconds":100}`, 200},
	} {
		before := c.Now()
		code, body, ctype := do(t, ts, tc.method, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: %s %s answered %d %q, want %d", tc.name, tc.method, tc.path, code, body, tc.want)
			continue
		}
		if code >= 400 && ctype != "application/json" {
			t.Errorf("%s: error answer typed %q, want application/json", tc.name, ctype)
		}
		var resp map[string]any
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Errorf("%s: body %q is not a JSON object: %v", tc.name, body, err)
			continue
		}
		if _, failed := resp["error"]; failed != (code >= 400) {
			t.Errorf("%s: status %d with body %q", tc.name, code, body)
		}
		if code >= 400 && tc.path == "/advance" && c.Now() != before {
			t.Errorf("%s: a refused advance moved the clock %d → %d", tc.name, before, c.Now())
		}
	}
}

// The body bound admits the largest transaction a block can carry: all
// the gas a block has, spent on zero bytes of calldata.
func TestSendAdmitsTheLargestTransaction(t *testing.T) {
	ts, _, key := testAPI(t)
	data := make([]byte, (chain.BlockGasLimit-vm.GasTx)/vm.GasTxDataZero)
	tx := signedTx(t, key, 0, chain.BlockGasLimit, data)
	body := sendBody(tx)
	if len(body) > maxBody {
		t.Fatalf("a %d-byte transaction makes a %d-byte body, past the %d bound", len(data), len(body), maxBody)
	}
	code, resp, _ := do(t, ts, "POST", "/send", body)
	if code != 200 || !strings.Contains(resp, `"status":1`) {
		t.Fatalf("largest transaction answered %d %q", code, resp)
	}
}
