// Chain persistence: sealed blocks and per-block state deltas are
// committed to a store.KVStore by an OnSeal-driven hook, and a chain can
// be restored from such a store without re-executing its history.
//
// Keyspace (within whatever namespace the caller hands AttachStore):
//
//	meta/head            -> headRecord     (latest sealed block)
//	block/<num %016x>    -> blockRecord    (header, receipts, state
//	                                        commitment)
//	acct/<addr hex>      -> acctRecord     (full account value; deleted
//	                                        when the account dies)
//
// One atomic batch per seal carries the block record, the head pointer
// and the account records mutated since the previous seal (the dirty
// delta MemState tracks) — so the durability boundary is the block
// seal: a crash loses at most the mempool and un-sealed mutations.
//
// When a seal finds its block number already persisted (a service-level
// op-log replay re-executing history), the freshly produced record is
// compared byte-for-byte against the stored one instead of rewritten;
// any divergence — a different block hash, receipt set or state
// commitment —
// marks the store corrupt (StoreErr) rather than silently overwriting
// history.
//
// Restore (NewFromStore) rebuilds blocks, receipts and EVM state.
// Native contracts are Go objects and are NOT restored — callers that
// use them (the protocol template) must re-install them and replay
// their operation log; tinyevm.Service does exactly that.

package chain

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"tinyevm/internal/evm"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// ErrStoreMismatch marks a replayed block that diverges from the
// persisted record — the store belongs to a different history.
var ErrStoreMismatch = errors.New("chain: replayed block diverges from persisted record")

const headKey = "meta/head"

func blockKey(n uint64) []byte { return []byte(fmt.Sprintf("block/%016x", n)) }

func acctKey(addr types.Address) []byte {
	return []byte("acct/" + hex.EncodeToString(addr[:]))
}

// headRecord is the persisted head pointer.
type headRecord struct {
	Number uint64 `json:"number"`
	Hash   string `json:"hash"`
}

// blockRecord is one persisted sealed block: the header, its receipts
// and the MST state commitment (commit.go) observed immediately after
// sealing. The commitment is what makes crash recovery verifiable: a
// restore (or an op-log replay) that does not reproduce it
// byte-identically fails loudly.
type blockRecord struct {
	Number      uint64          `json:"number"`
	ParentHash  string          `json:"parent_hash"`
	Hash        string          `json:"hash"`
	Timestamp   uint64          `json:"timestamp"`
	Coinbase    string          `json:"coinbase"`
	GasUsed     uint64          `json:"gas_used"`
	TxHashes    []string        `json:"tx_hashes,omitempty"`
	StateDigest string          `json:"state_digest"`
	Receipts    []receiptRecord `json:"receipts,omitempty"`
}

type receiptRecord struct {
	TxHash          string      `json:"tx_hash"`
	Status          bool        `json:"status"`
	GasUsed         uint64      `json:"gas_used"`
	ContractAddress string      `json:"contract_address,omitempty"`
	ReturnData      string      `json:"return_data,omitempty"`
	Logs            []logRecord `json:"logs,omitempty"`
	Err             string      `json:"err,omitempty"`
}

type logRecord struct {
	Address string   `json:"address"`
	Topics  []string `json:"topics,omitempty"`
	Data    string   `json:"data,omitempty"`
}

// acctRecord is one persisted account value. Storage maps hex slot keys
// to hex values; encoding/json sorts map keys, so records are
// deterministic.
type acctRecord struct {
	Balance string            `json:"balance"`
	Nonce   uint64            `json:"nonce,omitempty"`
	Code    string            `json:"code,omitempty"`
	Storage map[string]string `json:"storage,omitempty"`
}

// AttachStore wires a persistence store into the chain: every sealed
// block commits one atomic batch (block record, head pointer, and the
// account delta SealBlock drained). Attach a store before producing
// blocks; attaching twice is an error.
//
// Persistence failures are latched into StoreErr — block production
// itself never fails, but a durable deployment must check StoreErr
// after sealing (tinyevm.Service surfaces it on the next operation).
func (c *Chain) AttachStore(kv store.KVStore) error {
	if c.kv != nil {
		return errors.New("chain: store already attached")
	}
	c.kv = kv
	c.OnSeal(c.persistSeal)
	return nil
}

// StoreErr returns the first persistence or verification error, if any.
// Once set, no further batches are committed.
func (c *Chain) StoreErr() error {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	return c.storeErr
}

// setStoreErr latches the first persistence error. Later errors are
// dropped: the first failure is the root cause, and everything after it
// is downstream of a store already known to be bad.
func (c *Chain) setStoreErr(err error) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.storeErr == nil {
		c.storeErr = err
	}
}

// VerifyStoreHead checks that the chain has reached (at least) the
// persisted head, with an identical block hash at that height. An
// op-log replay that silently under-produces blocks — a log that does
// not belong to this store — fails here even though no individual seal
// diverged.
func (c *Chain) VerifyStoreHead() error {
	if c.kv == nil {
		return nil
	}
	data, ok, err := c.kv.Get([]byte(headKey))
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	var head headRecord
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("chain: decoding head record: %w", err)
	}
	b, err := c.BlockByNumber(head.Number)
	if err != nil {
		return fmt.Errorf("%w: persisted head is block %d, replay reached %d",
			ErrStoreMismatch, head.Number, c.Head().Number)
	}
	if b.Hash.Hex() != head.Hash {
		return fmt.Errorf("%w: block %d hash %s != persisted head %s",
			ErrStoreMismatch, head.Number, b.Hash.Hex(), head.Hash)
	}
	return nil
}

// persistSeal is the OnSeal hook committing one block's durable batch.
// The batch is always BUILT synchronously on the sealing goroutine (the
// block record and the dirty delta must capture the state this seal
// produced); with the pipeline enabled (pipeline.go) the built batch is
// committed asynchronously, in seal order.
func (c *Chain) persistSeal(b *Block, receipts []*Receipt) {
	if c.StoreErr() != nil {
		return
	}
	rec, err := json.Marshal(encodeBlock(b, receipts, c.StateCommitment()))
	if err != nil {
		c.setStoreErr(err)
		return
	}

	if existing, ok, err := c.kv.Get(blockKey(b.Number)); err != nil {
		c.setStoreErr(err)
		return
	} else if ok {
		// Replay over an existing store: verify instead of rewrite. The
		// delta is identical to what is already persisted.
		if !bytes.Equal(existing, rec) {
			c.setStoreErr(fmt.Errorf("%w: block %d", ErrStoreMismatch, b.Number))
		}
		return
	}

	batch := c.kv.Batch()
	for _, addr := range c.sealDelta {
		if !c.state.Exists(addr) {
			batch.Delete(acctKey(addr))
			continue
		}
		data, err := json.Marshal(encodeAcct(c.state, addr))
		if err != nil {
			c.setStoreErr(err)
			return
		}
		batch.Put(acctKey(addr), data)
	}
	batch.Put(blockKey(b.Number), rec)
	head, err := json.Marshal(headRecord{Number: b.Number, Hash: b.Hash.Hex()})
	if err != nil {
		c.setStoreErr(err)
		return
	}
	batch.Put([]byte(headKey), head)
	if c.pipe != nil {
		c.pipe.enqueue(batch)
		return
	}
	if err := batch.Commit(); err != nil {
		c.setStoreErr(err)
	}
}

// NewFromStore restores a chain from a store previously written through
// AttachStore: sealed blocks, receipts and the full EVM state come back
// byte-identical (the state commitment is re-verified against the
// persisted head block). The returned chain has the store attached
// and continues persisting. An empty store yields a fresh chain.
//
// Native contracts are not restored; re-install them before executing
// transactions that target them.
func NewFromStore(kv store.KVStore) (*Chain, error) {
	c := New()
	data, ok, err := kv.Get([]byte(headKey))
	if err != nil {
		return nil, err
	}
	if ok {
		var head headRecord
		if err := json.Unmarshal(data, &head); err != nil {
			return nil, fmt.Errorf("chain: decoding head record: %w", err)
		}
		if err := c.restore(kv, head); err != nil {
			return nil, err
		}
	}
	if err := c.AttachStore(kv); err != nil {
		return nil, err
	}
	return c, nil
}

// restoreBlocks loads blocks and receipts 1..upto from kv, verifying
// parent links and recomputing every block hash.
func (c *Chain) restoreBlocks(kv store.KVStore, upto uint64) error {
	for n := uint64(1); n <= upto; n++ {
		data, ok, err := kv.Get(blockKey(n))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("chain: store missing block %d (want through %d)", n, upto)
		}
		var rec blockRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("chain: decoding block %d: %w", n, err)
		}
		b, receipts, err := decodeBlock(&rec)
		if err != nil {
			return fmt.Errorf("chain: decoding block %d: %w", n, err)
		}
		if b.ParentHash != c.Head().Hash {
			return fmt.Errorf("chain: block %d parent hash does not link to block %d", n, n-1)
		}
		if got := blockHash(b); got != b.Hash {
			return fmt.Errorf("chain: block %d hash mismatch (stored %s, computed %s)", n, b.Hash, got)
		}
		c.blocks = append(c.blocks, b)
		for _, r := range receipts {
			c.receipts[r.TxHash] = r
		}
	}
	return nil
}

// persistedCommitment loads the state commitment recorded with block n.
func (c *Chain) persistedCommitment(kv store.KVStore, n uint64) (string, error) {
	data, ok, err := kv.Get(blockKey(n))
	if err != nil || !ok {
		return "", fmt.Errorf("chain: reloading block %d: %v", n, err)
	}
	var rec blockRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return "", err
	}
	return rec.StateDigest, nil
}

func (c *Chain) restore(kv store.KVStore, head headRecord) error {
	if err := c.restoreBlocks(kv, head.Number); err != nil {
		return err
	}
	if got := c.Head().Hash.Hex(); got != head.Hash {
		return fmt.Errorf("chain: head hash mismatch (stored %s, restored %s)", head.Hash, got)
	}

	if err := kv.Iterate([]byte("acct/"), func(key, value []byte) error {
		var rec acctRecord
		if err := json.Unmarshal(value, &rec); err != nil {
			return fmt.Errorf("chain: decoding account %s: %w", key, err)
		}
		return decodeAcctInto(c.state, string(key[len("acct/"):]), &rec)
	}); err != nil {
		return err
	}
	// The restored accounts are already persisted: not a seal's delta.
	c.state.ClearDirty()

	// The restored state must commit exactly as it did when the head
	// block was sealed.
	c.rebuildCommitment()
	if head.Number > 0 {
		want, err := c.persistedCommitment(kv, head.Number)
		if err != nil {
			return err
		}
		if got := c.StateCommitment().Hex(); got != want {
			return fmt.Errorf("chain: restored state commitment %s does not match persisted %s", got, want)
		}
	}
	return nil
}

// RestoreCheckpoint rebuilds the chain to a checkpoint height: blocks
// and receipts 1..height come from the attached store (parent-linked,
// hashes recomputed), the state snapshot is poured in by apply (the
// service's checkpoint decoder), and the result is verified against
// block height's persisted state commitment — a snapshot that does not
// reproduce the commitment the chain sealed at that height fails
// loudly, before any tail replay runs on top of it.
//
// It must run on a freshly attached chain (no blocks beyond genesis,
// no replay yet). The incremental MST is rebuilt from the restored
// state, bit-identical to the map the sealing run maintained.
func (c *Chain) RestoreCheckpoint(height uint64, apply func(st *evm.MemState) error) error {
	if c.kv == nil {
		return errors.New("chain: checkpoint restore needs an attached store")
	}
	if len(c.blocks) != 1 {
		return errors.New("chain: checkpoint restore on a non-fresh chain")
	}
	if err := c.restoreBlocks(c.kv, height); err != nil {
		return err
	}
	if err := apply(c.state); err != nil {
		return err
	}
	// The snapshot overwrite is not part of any seal's delta.
	c.state.ClearDirty()
	c.rebuildCommitment()
	if height > 0 {
		want, err := c.persistedCommitment(c.kv, height)
		if err != nil {
			return err
		}
		if got := c.StateCommitment().Hex(); got != want {
			return fmt.Errorf("chain: checkpoint state commitment %s does not match block %d's %s", got, height, want)
		}
	}
	return nil
}

// SnapshotState encodes the full live account set of st as one
// deterministic JSON object (address hex -> account record, the same
// per-account form the acct/ keyspace persists). Only observationally
// existing accounts are included — exactly the set Digest covers — so
// restoring the snapshot reproduces the state commitment bit-for-bit.
func SnapshotState(st *evm.MemState) ([]byte, error) {
	out := make(map[string]*acctRecord)
	for _, addr := range st.Addresses() {
		if !st.Exists(addr) {
			continue
		}
		out[hex.EncodeToString(addr[:])] = encodeAcct(st, addr)
	}
	return json.Marshal(out)
}

// RestoreState decodes a SnapshotState blob into st. Call it on an
// empty (or freshly Reset) state: accounts present in st but absent
// from the snapshot are NOT removed.
func RestoreState(st *evm.MemState, data []byte) error {
	var recs map[string]*acctRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("chain: decoding state snapshot: %w", err)
	}
	for addrHex, rec := range recs {
		if err := decodeAcctInto(st, addrHex, rec); err != nil {
			return err
		}
	}
	return nil
}

// --- encoding ----------------------------------------------------------

func encodeBlock(b *Block, receipts []*Receipt, commitment types.Hash) *blockRecord {
	rec := &blockRecord{
		Number:      b.Number,
		ParentHash:  b.ParentHash.Hex(),
		Hash:        b.Hash.Hex(),
		Timestamp:   b.Timestamp,
		Coinbase:    b.Coinbase.Hex(),
		GasUsed:     b.GasUsed,
		StateDigest: commitment.Hex(),
	}
	for _, tx := range b.TxHashes {
		rec.TxHashes = append(rec.TxHashes, tx.Hex())
	}
	for _, r := range receipts {
		rr := receiptRecord{
			TxHash:  r.TxHash.Hex(),
			Status:  r.Status,
			GasUsed: r.GasUsed,
		}
		if r.ContractAddress != (types.Address{}) {
			rr.ContractAddress = r.ContractAddress.Hex()
		}
		if len(r.ReturnData) > 0 {
			rr.ReturnData = hex.EncodeToString(r.ReturnData)
		}
		for _, l := range r.Logs {
			lr := logRecord{Address: l.Address.Hex(), Data: hex.EncodeToString(l.Data)}
			for _, topic := range l.Topics {
				lr.Topics = append(lr.Topics, topic.Hex())
			}
			rr.Logs = append(rr.Logs, lr)
		}
		if r.Err != nil {
			rr.Err = r.Err.Error()
		}
		rec.Receipts = append(rec.Receipts, rr)
	}
	return rec
}

func decodeBlock(rec *blockRecord) (*Block, []*Receipt, error) {
	parent, err := types.HexToHash(rec.ParentHash)
	if err != nil {
		return nil, nil, err
	}
	hash, err := types.HexToHash(rec.Hash)
	if err != nil {
		return nil, nil, err
	}
	coinbase, err := types.HexToAddress(rec.Coinbase)
	if err != nil {
		return nil, nil, err
	}
	b := &Block{
		Number:     rec.Number,
		ParentHash: parent,
		Hash:       hash,
		Timestamp:  rec.Timestamp,
		Coinbase:   coinbase,
		GasUsed:    rec.GasUsed,
	}
	for _, s := range rec.TxHashes {
		h, err := types.HexToHash(s)
		if err != nil {
			return nil, nil, err
		}
		b.TxHashes = append(b.TxHashes, h)
	}
	receipts := make([]*Receipt, 0, len(rec.Receipts))
	for i := range rec.Receipts {
		r, err := decodeReceipt(&rec.Receipts[i], rec.Number)
		if err != nil {
			return nil, nil, err
		}
		receipts = append(receipts, r)
	}
	return b, receipts, nil
}

func decodeReceipt(rr *receiptRecord, blockNumber uint64) (*Receipt, error) {
	txHash, err := types.HexToHash(rr.TxHash)
	if err != nil {
		return nil, err
	}
	r := &Receipt{
		TxHash:      txHash,
		Status:      rr.Status,
		GasUsed:     rr.GasUsed,
		BlockNumber: blockNumber,
	}
	if rr.ContractAddress != "" {
		if r.ContractAddress, err = types.HexToAddress(rr.ContractAddress); err != nil {
			return nil, err
		}
	}
	if rr.ReturnData != "" {
		if r.ReturnData, err = hex.DecodeString(rr.ReturnData); err != nil {
			return nil, err
		}
	}
	for _, lr := range rr.Logs {
		addr, err := types.HexToAddress(lr.Address)
		if err != nil {
			return nil, err
		}
		l := evm.Log{Address: addr}
		for _, ts := range lr.Topics {
			topic, err := types.HexToHash(ts)
			if err != nil {
				return nil, err
			}
			l.Topics = append(l.Topics, topic)
		}
		if lr.Data != "" {
			if l.Data, err = hex.DecodeString(lr.Data); err != nil {
				return nil, err
			}
		}
		r.Logs = append(r.Logs, l)
	}
	if rr.Err != "" {
		// The failure reason survives as text; error identity
		// (errors.Is) does not cross a restore.
		r.Err = errors.New(rr.Err)
	}
	return r, nil
}

func encodeAcct(st *evm.MemState, addr types.Address) *acctRecord {
	bal := st.Balance(addr).Bytes32()
	rec := &acctRecord{
		Balance: hex.EncodeToString(bal[:]),
		Nonce:   st.Nonce(addr),
	}
	if code := st.Code(addr); len(code) > 0 {
		rec.Code = hex.EncodeToString(code)
	}
	for _, key := range st.StorageKeys(addr) {
		if rec.Storage == nil {
			rec.Storage = make(map[string]string)
		}
		val := st.GetState(addr, &key)
		kb, vb := key.Bytes32(), val.Bytes32()
		rec.Storage[hex.EncodeToString(kb[:])] = hex.EncodeToString(vb[:])
	}
	return rec
}

func decodeAcctInto(st *evm.MemState, addrHex string, rec *acctRecord) error {
	addr, err := types.HexToAddress(addrHex)
	if err != nil {
		return err
	}
	balBytes, err := hex.DecodeString(rec.Balance)
	if err != nil {
		return err
	}
	var bal uint256.Int
	bal.SetBytes(balBytes)
	st.SetBalance(addr, &bal)
	if rec.Nonce != 0 {
		st.SetNonce(addr, rec.Nonce)
	}
	if rec.Code != "" {
		code, err := hex.DecodeString(rec.Code)
		if err != nil {
			return err
		}
		st.SetCode(addr, code)
	}
	for k, v := range rec.Storage {
		kb, err := hex.DecodeString(k)
		if err != nil {
			return err
		}
		vb, err := hex.DecodeString(v)
		if err != nil {
			return err
		}
		var key, val uint256.Int
		key.SetBytes(kb)
		val.SetBytes(vb)
		st.SetState(addr, &key, &val)
	}
	return nil
}
