// Package onoffchain is a from-scratch Go reproduction of "Scalable and
// Privacy-preserving Design of On/Off-chain Smart Contracts" (Li,
// Palanisamy, Xu — ICDE 2019).
//
// The repository contains a complete Ethereum-like substrate (Keccak-256,
// secp256k1 ECDSA with public-key recovery, RLP, Merkle Patricia Trie
// state, a Constantinople-era EVM with the yellow-paper gas schedule, a
// single-node dev chain), a small Solidity-like contract language (Solo),
// a Whisper-like off-chain messaging layer, and — on top of all of it —
// the paper's contribution: the hybrid on/off-chain contract execution
// model with its four-stage enforcement mechanism (split/generate,
// deploy/sign, submit/challenge, dispute/resolve).
//
// See README.md for a tour and DESIGN.md for the system inventory and the
// hub's lifecycle/watchtower design. cmd/bench regenerates every table and
// figure of the paper's evaluation section; benchmark/ (a module of its
// own) measures the concurrent-session fleets the paper only assumes.
package onoffchain
