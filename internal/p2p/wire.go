// Package p2p is the cluster networking layer: a message-framed
// transport abstraction (TCP for deployments, in-process for tests),
// peer lifecycle with a genesis/version handshake, and gossip of
// transactions and sealed blocks backed by a dedup cache.
//
// The wire codec below is deliberately defensive: every message decodes
// through bounds-checked reads with hard caps on element counts and
// byte lengths, and malformed input from a peer yields a typed
// ErrBadMessage — never a panic and never an attacker-sized allocation.
// FuzzWireCodec pins both properties.
package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tinyevm/internal/chain"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
)

// ProtocolVersion is negotiated in the handshake; nodes speaking a
// different version are disconnected.
const ProtocolVersion uint32 = 1

// Decode caps. A peer claiming more than these is malformed by
// definition; the caps also bound what a single frame can make the
// decoder allocate.
const (
	// MaxTxData bounds one transaction's calldata.
	MaxTxData = 1 << 20 // 1 MiB
	// MaxBlockTxs bounds transactions per gossiped block.
	MaxBlockTxs = 4096
	// MaxHeaders bounds headers per sync response.
	MaxHeaders = 4096
	// MaxBlocks bounds blocks per sync response.
	MaxBlocks = 512
)

// Typed decode errors.
var (
	// ErrBadMessage marks a structurally invalid message.
	ErrBadMessage = errors.New("p2p: malformed message")
	// ErrBadMsgType marks an unknown message type byte.
	ErrBadMsgType = errors.New("p2p: unknown message type")
)

// MsgType tags a wire message.
type MsgType byte

// Message types.
const (
	TypeHello MsgType = 1 + iota
	TypeTx
	TypeBlock
	TypeGetHeaders
	TypeHeaders
	TypeGetBlocks
	TypeBlocks
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeTx:
		return "tx"
	case TypeBlock:
		return "block"
	case TypeGetHeaders:
		return "get-headers"
	case TypeHeaders:
		return "headers"
	case TypeGetBlocks:
		return "get-blocks"
	case TypeBlocks:
		return "blocks"
	}
	return fmt.Sprintf("type-%d", byte(t))
}

// Msg is one decoded wire message.
type Msg interface{ msgType() MsgType }

// Hello opens every connection: both sides must agree on the protocol
// version and the genesis hash before anything else is exchanged. The
// sender's chain height and head hash ride along so peers learn who is
// ahead without a separate status message.
type Hello struct {
	Version uint32
	Genesis types.Hash
	Height  uint64
	Head    types.Hash
}

// TxMsg gossips one signed transaction.
type TxMsg struct {
	Tx *chain.Transaction
}

// Header is a block header plus its transaction hashes — everything
// blockHash covers, so a header chain can be verified without bodies.
type Header struct {
	Number     uint64
	ParentHash types.Hash
	Hash       types.Hash
	Timestamp  uint64
	Coinbase   types.Address
	GasUsed    uint64
	TxHashes   []types.Hash
}

// BlockMsg gossips one sealed block with full transaction bodies, the
// proposer's signature over the block hash, and the sealing node's
// post-state digest (meaningful under strict-digest clusters; advisory
// otherwise — see internal/cluster).
type BlockMsg struct {
	Header Header
	Txs    []*chain.Transaction
	// Sig is the proposer's 65-byte signature over Header.Hash; the
	// recovered address must equal Header.Coinbase.
	Sig []byte
	// StateDigest is the proposer's MST state commitment
	// (chain.StateCommitment) after applying the block.
	StateDigest types.Hash
}

// GetHeaders requests up to Count headers starting at block From.
type GetHeaders struct {
	From  uint64
	Count uint64
}

// Headers answers GetHeaders.
type Headers struct {
	Headers []Header
}

// GetBlocks requests up to Count full blocks starting at block From.
type GetBlocks struct {
	From  uint64
	Count uint64
}

// Blocks answers GetBlocks.
type Blocks struct {
	Blocks []*BlockMsg
}

func (Hello) msgType() MsgType      { return TypeHello }
func (TxMsg) msgType() MsgType      { return TypeTx }
func (BlockMsg) msgType() MsgType   { return TypeBlock }
func (GetHeaders) msgType() MsgType { return TypeGetHeaders }
func (Headers) msgType() MsgType    { return TypeHeaders }
func (GetBlocks) msgType() MsgType  { return TypeGetBlocks }
func (Blocks) msgType() MsgType     { return TypeBlocks }

// PeekType returns the message type of an encoded frame.
func PeekType(buf []byte) (MsgType, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("%w: empty frame", ErrBadMessage)
	}
	t := MsgType(buf[0])
	if t < TypeHello || t > TypeBlocks {
		return 0, fmt.Errorf("%w: %d", ErrBadMsgType, buf[0])
	}
	return t, nil
}

// Encode serializes any wire message with its leading type byte.
func Encode(m Msg) []byte {
	w := &writer{buf: []byte{byte(m.msgType())}}
	switch v := m.(type) {
	case *Hello:
		w.u32(v.Version)
		w.hash(v.Genesis)
		w.u64(v.Height)
		w.hash(v.Head)
	case *TxMsg:
		w.tx(v.Tx)
	case *BlockMsg:
		w.block(v)
	case *GetHeaders:
		w.u64(v.From)
		w.u64(v.Count)
	case *Headers:
		w.u32(uint32(len(v.Headers)))
		for i := range v.Headers {
			w.header(&v.Headers[i])
		}
	case *GetBlocks:
		w.u64(v.From)
		w.u64(v.Count)
	case *Blocks:
		w.u32(uint32(len(v.Blocks)))
		for _, b := range v.Blocks {
			w.block(b)
		}
	default:
		panic(fmt.Sprintf("p2p: Encode of unregistered message %T", m))
	}
	return w.buf
}

// Decode parses one frame. Every returned error wraps ErrBadMessage or
// ErrBadMsgType; Decode never panics on adversarial input and requires
// the frame to be fully consumed (no trailing garbage).
func Decode(buf []byte) (Msg, error) {
	t, err := PeekType(buf)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: buf, off: 1}
	var m Msg
	switch t {
	case TypeHello:
		h := &Hello{Version: r.u32(), Genesis: r.hash(), Height: r.u64(), Head: r.hash()}
		m = h
	case TypeTx:
		m = &TxMsg{Tx: r.tx()}
	case TypeBlock:
		m = r.block()
	case TypeGetHeaders:
		m = &GetHeaders{From: r.u64(), Count: r.u64()}
	case TypeHeaders:
		n := r.count(MaxHeaders)
		hs := &Headers{}
		for i := uint32(0); i < n && r.err == nil; i++ {
			hs.Headers = append(hs.Headers, r.header())
		}
		m = hs
	case TypeGetBlocks:
		m = &GetBlocks{From: r.u64(), Count: r.u64()}
	case TypeBlocks:
		n := r.count(MaxBlocks)
		bs := &Blocks{}
		for i := uint32(0); i < n && r.err == nil; i++ {
			bs.Blocks = append(bs.Blocks, r.block())
		}
		m = bs
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(buf)-r.off)
	}
	return m, nil
}

// --- writer ------------------------------------------------------------

type writer struct{ buf []byte }

func (w *writer) u8(v byte) { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}
func (w *writer) u64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}
func (w *writer) hash(h types.Hash)    { w.buf = append(w.buf, h[:]...) }
func (w *writer) addr(a types.Address) { w.buf = append(w.buf, a[:]...) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) tx(tx *chain.Transaction) {
	w.u64(tx.Nonce)
	w.u64(tx.GasPrice)
	w.u64(tx.GasLimit)
	if tx.To != nil {
		w.u8(1)
		w.addr(*tx.To)
	} else {
		w.u8(0)
	}
	w.u64(tx.Value)
	w.bytes(tx.Data)
	if tx.Sig != nil {
		w.u8(1)
		w.buf = append(w.buf, tx.Sig.Serialize()...)
	} else {
		w.u8(0)
	}
}

func (w *writer) header(h *Header) {
	w.u64(h.Number)
	w.hash(h.ParentHash)
	w.hash(h.Hash)
	w.u64(h.Timestamp)
	w.addr(h.Coinbase)
	w.u64(h.GasUsed)
	w.u32(uint32(len(h.TxHashes)))
	for _, th := range h.TxHashes {
		w.hash(th)
	}
}

func (w *writer) block(b *BlockMsg) {
	w.header(&b.Header)
	w.u32(uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		w.tx(tx)
	}
	w.bytes(b.Sig)
	w.hash(b.StateDigest)
}

// --- reader ------------------------------------------------------------

// reader is a bounds-checked cursor: the first failed read latches err
// and every subsequent read returns zero values, so decode paths stay
// linear without per-field error plumbing.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadMessage}, args...)...)
	}
}

// need reserves n bytes, returning false (and latching err) when the
// frame is short.
func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail("truncated (need %d bytes at offset %d of %d)", n, r.off, len(r.buf))
		return false
	}
	return true
}

func (r *reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) hash() types.Hash {
	var h types.Hash
	if !r.need(len(h)) {
		return h
	}
	copy(h[:], r.buf[r.off:])
	r.off += len(h)
	return h
}

func (r *reader) addr() types.Address {
	var a types.Address
	if !r.need(len(a)) {
		return a
	}
	copy(a[:], r.buf[r.off:])
	r.off += len(a)
	return a
}

// bytes reads a length-prefixed byte string, rejecting claims above max
// BEFORE allocating.
func (r *reader) bytes(max int) []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n > max {
		r.fail("byte string of %d exceeds cap %d", n, max)
		return nil
	}
	if !r.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

// count reads an element count, rejecting claims above max.
func (r *reader) count(max uint32) uint32 {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if n > max {
		r.fail("element count %d exceeds cap %d", n, max)
		return 0
	}
	return n
}

func (r *reader) tx() *chain.Transaction {
	tx := &chain.Transaction{
		Nonce:    r.u64(),
		GasPrice: r.u64(),
		GasLimit: r.u64(),
	}
	switch r.u8() {
	case 0:
	case 1:
		a := r.addr()
		tx.To = &a
	default:
		r.fail("invalid to-address flag")
	}
	tx.Value = r.u64()
	tx.Data = r.bytes(MaxTxData)
	switch sigFlag := r.u8(); {
	case sigFlag == 0 || r.err != nil:
	case sigFlag != 1:
		r.fail("invalid signature flag")
	default:
		if !r.need(secp256k1.SignatureLength) {
			return nil
		}
		sig, err := secp256k1.ParseSignature(r.buf[r.off : r.off+secp256k1.SignatureLength])
		if err != nil {
			r.fail("transaction signature: %v", err)
			return nil
		}
		r.off += secp256k1.SignatureLength
		tx.Sig = sig
	}
	if r.err != nil {
		return nil
	}
	return tx
}

func (r *reader) header() Header {
	h := Header{
		Number:     r.u64(),
		ParentHash: r.hash(),
		Hash:       r.hash(),
		Timestamp:  r.u64(),
		Coinbase:   r.addr(),
		GasUsed:    r.u64(),
	}
	n := r.count(MaxBlockTxs)
	for i := uint32(0); i < n && r.err == nil; i++ {
		h.TxHashes = append(h.TxHashes, r.hash())
	}
	return h
}

func (r *reader) block() *BlockMsg {
	b := &BlockMsg{Header: r.header()}
	n := r.count(MaxBlockTxs)
	for i := uint32(0); i < n && r.err == nil; i++ {
		b.Txs = append(b.Txs, r.tx())
	}
	b.Sig = r.bytes(secp256k1.SignatureLength)
	b.StateDigest = r.hash()
	if r.err != nil {
		return nil
	}
	return b
}
