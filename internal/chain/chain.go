// Package chain implements the simulated Ethereum main-chain the
// off-chain protocol anchors to: accounts, signed transactions, blocks,
// receipts and gas, with contract execution through internal/evm in full
// (on-chain) mode.
//
// It replaces the public Ethereum network of the paper's deployment. The
// protocol only needs deploy/call/commit/challenge semantics with real
// signature verification and gas accounting; consensus (mining, forks)
// is out of scope, so the chain is a single-sealer ledger with
// deterministic block production.
package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"tinyevm/internal/evm"
	"tinyevm/internal/keccak"
	"tinyevm/internal/mst"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// Errors returned by transaction processing.
var (
	ErrBadSignature    = errors.New("chain: invalid transaction signature")
	ErrBadNonce        = errors.New("chain: bad nonce")
	ErrInsufficientGas = errors.New("chain: gas limit below intrinsic cost")
	ErrCannotPayGas    = errors.New("chain: balance cannot cover gas")
	ErrUnknownBlock    = errors.New("chain: unknown block")
)

// Gas constants (simplified Ethereum schedule).
const (
	// IntrinsicGas is the base cost of any transaction.
	IntrinsicGas = 21_000
	// DataGasPerByte prices calldata.
	DataGasPerByte = 16
	// BlockGasLimit bounds a block.
	BlockGasLimit = 10_000_000
	// BlockInterval is the simulated seconds between blocks.
	BlockInterval = 15
)

// Transaction is a signed main-chain transaction. To == nil deploys a
// contract.
type Transaction struct {
	Nonce    uint64
	GasPrice uint64
	GasLimit uint64
	To       *types.Address
	Value    uint64
	Data     []byte

	// Sig is the sender's signature over SigHash.
	Sig *secp256k1.Signature
	// from caches the recovered sender.
	from *types.Address
}

// SigHash returns the digest the sender signs: a deterministic binary
// encoding of all transaction fields.
func (tx *Transaction) SigHash() types.Hash {
	h := keccak.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], tx.Nonce)
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], tx.GasPrice)
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], tx.GasLimit)
	h.Write(buf[:])
	if tx.To != nil {
		h.Write([]byte{1})
		h.Write(tx.To[:])
	} else {
		h.Write([]byte{0})
	}
	binary.BigEndian.PutUint64(buf[:], tx.Value)
	h.Write(buf[:])
	h.Write(tx.Data)
	return types.BytesToHash(h.Sum(nil))
}

// Hash returns the transaction identity hash (fields plus signature).
func (tx *Transaction) Hash() types.Hash {
	sh := tx.SigHash()
	if tx.Sig == nil {
		return sh
	}
	return types.HashConcat(sh[:], tx.Sig.Serialize())
}

// Sign attaches the sender's signature.
func (tx *Transaction) Sign(key *secp256k1.PrivateKey) error {
	sig, err := key.Sign(tx.SigHash())
	if err != nil {
		return fmt.Errorf("chain: signing tx: %w", err)
	}
	tx.Sig = sig
	addr := key.PublicKey.Address()
	tx.from = &addr
	return nil
}

// Sender recovers and caches the signing address.
func (tx *Transaction) Sender() (types.Address, error) {
	if tx.from != nil {
		return *tx.from, nil
	}
	if tx.Sig == nil {
		return types.Address{}, ErrBadSignature
	}
	addr, err := secp256k1.RecoverAddress(tx.SigHash(), tx.Sig)
	if err != nil {
		return types.Address{}, fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	tx.from = &addr
	return addr, nil
}

// Receipt is the result of one executed transaction.
type Receipt struct {
	TxHash types.Hash
	// Status is true on success (including plain transfers).
	Status bool
	// GasUsed includes the intrinsic cost.
	GasUsed uint64
	// ContractAddress is set for deployments.
	ContractAddress types.Address
	// ReturnData is the top-level call's return or revert payload.
	ReturnData []byte
	// Logs emitted during execution.
	Logs []evm.Log
	// BlockNumber is the including block.
	BlockNumber uint64
	// Err records the failure reason, if any.
	Err error
}

// Block is one sealed block.
type Block struct {
	Number     uint64
	ParentHash types.Hash
	Hash       types.Hash
	Timestamp  uint64
	Coinbase   types.Address
	GasUsed    uint64
	TxHashes   []types.Hash
}

// NativeContract is an on-chain contract implemented in Go rather than
// bytecode. The off-chain protocol's template (commit / challenge / exit
// verification over Merkle-sum proofs and ECDSA signatures) is installed
// this way: its semantics are executed in full, without hand-assembling
// the verification logic (see DESIGN.md's substitution table).
type NativeContract interface {
	// Run executes a call. State changes go through the chain's state;
	// returning an error reverts the transaction.
	Run(c *Chain, caller types.Address, value uint64, input []byte) ([]byte, error)
}

// NativeGas is the flat execution gas charged for a native-contract call.
const NativeGas = 50_000

// Chain is the simulated ledger.
type Chain struct {
	state    *evm.MemState
	blocks   []*Block
	receipts map[types.Hash]*Receipt
	mempool  []*Transaction
	coinbase types.Address
	natives  map[types.Address]NativeContract
	// genesisTime anchors block timestamps.
	genesisTime uint64
	// sealHooks are invoked after every sealed block (serial MineBlock
	// and the parallel engine both land here). Hooks run synchronously
	// on the sealing goroutine; the service layer uses them to publish
	// block-sealed events.
	sealHooks []func(*Block, []*Receipt)
	// kv and storeErr belong to the persistence layer (see persist.go).
	// storeMu guards storeErr: with the seal pipeline enabled the
	// committer goroutine latches failures concurrently with readers.
	kv       store.KVStore
	storeMu  sync.Mutex
	storeErr error
	// pipe, when non-nil, commits sealed batches asynchronously in seal
	// order so the next block can execute while the previous one hits
	// the WAL (see pipeline.go).
	pipe *sealPipeline
	// disableFusion turns tier-1 superinstruction execution off for
	// every EVM this chain builds (see SetFusion).
	disableFusion bool
	// smt is the incremental MST state commitment (see commit.go);
	// sealDelta is the dirty-account set the latest seal folded into it,
	// which persistSeal writes as that block's account delta.
	smt       *mst.Map
	sealDelta []types.Address
}

// New creates a chain with a genesis block.
func New() *Chain {
	c := &Chain{
		state:       evm.NewMemState(),
		receipts:    make(map[types.Hash]*Receipt),
		coinbase:    types.MustHexToAddress("0xc0ffee00000000000000000000000000c0ffee00"),
		natives:     make(map[types.Address]NativeContract),
		genesisTime: 1_600_000_000,
		smt:         mst.NewMap(),
	}
	c.state.EnableDirtyTracking()
	genesis := &Block{
		Number:    0,
		Timestamp: c.genesisTime,
		Coinbase:  c.coinbase,
	}
	genesis.Hash = blockHash(genesis)
	c.blocks = append(c.blocks, genesis)
	return c
}

func blockHash(b *Block) types.Hash {
	h := keccak.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], b.Number)
	h.Write(buf[:])
	h.Write(b.ParentHash[:])
	binary.BigEndian.PutUint64(buf[:], b.Timestamp)
	h.Write(buf[:])
	h.Write(b.Coinbase[:])
	for _, tx := range b.TxHashes {
		h.Write(tx[:])
	}
	return types.BytesToHash(h.Sum(nil))
}

// ComputeBlockHash returns the canonical hash of a block. It covers
// number, parent, timestamp, coinbase and transaction hashes — not
// GasUsed or receipts — so a cluster follower can compute the expected
// hash of a gossiped block from its header and transaction list before
// executing anything (verify-before-apply).
func ComputeBlockHash(b *Block) types.Hash { return blockHash(b) }

// State exposes the chain state for inspection (tests, explorers).
func (c *Chain) State() *evm.MemState { return c.state }

// GenesisHash returns the hash of block 0; cluster handshakes use it to
// reject peers on a different chain.
func (c *Chain) GenesisHash() types.Hash { return c.blocks[0].Hash }

// SetCoinbase sets the beneficiary address stamped into every block
// template produced from now on. Cluster nodes point it at their node
// key's address so sealed blocks are attributable to a validator; it
// must be set before block production starts.
func (c *Chain) SetCoinbase(addr types.Address) { c.coinbase = addr }

// Coinbase returns the current block beneficiary address.
func (c *Chain) Coinbase() types.Address { return c.coinbase }

// Head returns the latest block.
func (c *Chain) Head() *Block { return c.blocks[len(c.blocks)-1] }

// BlockByNumber returns a sealed block.
func (c *Chain) BlockByNumber(n uint64) (*Block, error) {
	if n >= uint64(len(c.blocks)) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, n)
	}
	return c.blocks[n], nil
}

// Receipt returns the receipt for a transaction hash.
func (c *Chain) Receipt(txHash types.Hash) (*Receipt, bool) {
	r, ok := c.receipts[txHash]
	return r, ok
}

// Fund credits an account (the simulation's faucet / genesis allocation).
func (c *Chain) Fund(addr types.Address, amount uint64) {
	c.state.AddBalance(addr, uint256.NewInt(amount))
}

// BalanceOf returns an account balance.
func (c *Chain) BalanceOf(addr types.Address) uint64 {
	return c.state.Balance(addr).Uint64Capped(^uint64(0))
}

// NonceOf returns an account nonce.
func (c *Chain) NonceOf(addr types.Address) uint64 { return c.state.Nonce(addr) }

// CodeAt returns deployed code.
func (c *Chain) CodeAt(addr types.Address) []byte { return c.state.Code(addr) }

// Submit queues a signed transaction for the next block.
func (c *Chain) Submit(tx *Transaction) error {
	if _, err := tx.Sender(); err != nil {
		return err
	}
	c.mempool = append(c.mempool, tx)
	return nil
}

// Pending returns the number of queued transactions.
func (c *Chain) Pending() int { return len(c.mempool) }

// TakePending drains the mempool, returning the queued transactions in
// submission order. Block producers (MineBlock, the parallel engine)
// call it exactly once per block.
func (c *Chain) TakePending() []*Transaction {
	txs := c.mempool
	c.mempool = nil
	return txs
}

// NextBlockTemplate returns the header of the block being produced on
// top of the current head. The template is not part of the chain until
// SealBlock is called with it.
func (c *Chain) NextBlockTemplate() *Block {
	parent := c.Head()
	return &Block{
		Number:     parent.Number + 1,
		ParentHash: parent.Hash,
		Timestamp:  parent.Timestamp + BlockInterval,
		Coinbase:   c.coinbase,
	}
}

// SealBlock finalizes a template produced by NextBlockTemplate: it
// accumulates gas and transaction hashes from the receipts (in order),
// records the receipts, hashes the block, appends it to the chain and
// folds the accounts mutated since the previous seal into the state
// commitment before any seal hook runs.
func (c *Chain) SealBlock(block *Block, receipts []*Receipt) {
	for _, r := range receipts {
		block.GasUsed += r.GasUsed
		block.TxHashes = append(block.TxHashes, r.TxHash)
		c.receipts[r.TxHash] = r
	}
	block.Hash = blockHash(block)
	c.blocks = append(c.blocks, block)
	c.sealDelta = c.state.TakeDirty()
	c.applyCommitmentDelta(c.sealDelta)
	for _, hook := range c.sealHooks {
		hook(block, receipts)
	}
}

// OnSeal registers a hook called synchronously after each block is
// sealed, with the block and its receipts. Registration is not safe for
// concurrent use with block production; install hooks at setup time.
func (c *Chain) OnSeal(hook func(*Block, []*Receipt)) {
	c.sealHooks = append(c.sealHooks, hook)
}

// MineBlock executes all pending transactions serially and seals a
// block. It returns the receipts in execution order.
func (c *Chain) MineBlock() []*Receipt {
	return c.ApplyTemplate(c.NextBlockTemplate(), c.TakePending())
}

// ApplyTemplate executes txs serially against the canonical state and
// seals them into the given template. It is the deterministic
// verify-and-apply seam the cluster layer uses: a follower builds the
// same template the leader did (NextBlockTemplate is a pure function of
// the head) and applies the gossiped transaction list byte-identically.
// A receipt is produced for every transaction, failed ones included, so
// the sealed TxHashes always equal the input list's hashes in order.
func (c *Chain) ApplyTemplate(block *Block, txs []*Transaction) []*Receipt {
	receipts := make([]*Receipt, 0, len(txs))
	for _, tx := range txs {
		r, _ := c.ExecuteTx(c.state, block, tx)
		receipts = append(receipts, r)
	}
	c.SealBlock(block, receipts)
	return receipts
}

// SendTransaction submits, mines and returns the transaction's receipt —
// the convenience path used by tests and examples.
func (c *Chain) SendTransaction(tx *Transaction) (*Receipt, error) {
	if err := c.Submit(tx); err != nil {
		return nil, err
	}
	receipts := c.MineBlock()
	return receipts[len(receipts)-1], nil
}

// SetFusion enables or disables tier-1 superinstruction execution for
// every EVM this chain builds from now on. Fusion is on by default;
// results are byte-identical either way (the fallback interpreter is
// the reference), so this is a debugging/benchmarking knob.
func (c *Chain) SetFusion(on bool) { c.disableFusion = !on }

// newEVM builds a full-mode EVM bound to the given state and the block
// being produced.
func (c *Chain) newEVM(st evm.StateDB, block *Block, origin types.Address, gasPrice uint64) *evm.EVM {
	cfg := evm.FullConfig()
	if c.disableFusion {
		cfg.DisableFusion = true
	}
	vm := evm.New(cfg, st)
	vm.Block = evm.BlockContext{
		Coinbase:   block.Coinbase,
		Number:     block.Number,
		Timestamp:  block.Timestamp,
		Difficulty: 1,
		GasLimit:   BlockGasLimit,
		BlockHash: func(n uint64) types.Hash {
			if n >= uint64(len(c.blocks)) {
				return types.Hash{}
			}
			return c.blocks[n].Hash
		},
	}
	vm.Tx = evm.TxContext{Origin: origin, GasPrice: gasPrice}
	return vm
}

// ErrNativeNeedsChainState is returned when a native-contract call is
// executed against a detached state view: native contracts run Go code
// directly against the canonical chain state and cannot be speculated.
var ErrNativeNeedsChainState = errors.New("chain: native contract requires canonical chain state")

// IsNativeTx reports whether the transaction targets a native contract
// (and therefore must execute on the canonical chain state).
func (c *Chain) IsNativeTx(tx *Transaction) bool {
	return tx.To != nil && c.IsNative(*tx.To)
}

// ExecuteTx validates and executes one transaction against st, which is
// either the canonical chain state (the serial MineBlock path) or a
// detached view of it (the parallel engine's speculative path). The
// block supplies the execution context; the chain supplies read-only
// context (native registry, sealed blocks for BLOCKHASH).
//
// The second return reports whether execution reached the EVM path —
// the only path that snapshots st.Logs() into the receipt — so callers
// replaying execution on a view can reconstruct the receipt's log slice
// exactly as the serial path would have.
func (c *Chain) ExecuteTx(st evm.StateDB, block *Block, tx *Transaction) (*Receipt, bool) {
	r := &Receipt{TxHash: tx.Hash(), BlockNumber: block.Number}

	sender, err := tx.Sender()
	if err != nil {
		r.Err = err
		return r, false
	}
	if st.Nonce(sender) != tx.Nonce {
		r.Err = fmt.Errorf("%w: have %d, tx %d", ErrBadNonce, st.Nonce(sender), tx.Nonce)
		return r, false
	}
	intrinsic := uint64(IntrinsicGas) + uint64(len(tx.Data))*DataGasPerByte
	if tx.GasLimit < intrinsic {
		r.Err = fmt.Errorf("%w: limit %d < intrinsic %d", ErrInsufficientGas, tx.GasLimit, intrinsic)
		return r, false
	}
	// Buy gas.
	gasCost := uint256.NewInt(tx.GasLimit * tx.GasPrice)
	if err := st.SubBalance(sender, gasCost); err != nil {
		r.Err = ErrCannotPayGas
		return r, false
	}

	// Native contract call path. Native contracts mutate the chain
	// directly, so they only run when st is the canonical state; the
	// parallel engine screens them out before speculating.
	if tx.To != nil {
		if native, ok := c.natives[*tx.To]; ok {
			if st != evm.StateDB(c.state) {
				r.Err = ErrNativeNeedsChainState
				st.AddBalance(sender, gasCost)
				return r, false
			}
			st.SetNonce(sender, tx.Nonce+1)
			snap := st.Snapshot()
			if tx.Value > 0 {
				if err := st.SubBalance(sender, uint256.NewInt(tx.Value)); err != nil {
					st.RevertToSnapshot(snap)
					r.Err = err
					r.GasUsed = intrinsic
					st.AddBalance(sender, uint256.NewInt((tx.GasLimit-r.GasUsed)*tx.GasPrice))
					st.AddBalance(block.Coinbase, uint256.NewInt(r.GasUsed*tx.GasPrice))
					return r, false
				}
				st.AddBalance(*tx.To, uint256.NewInt(tx.Value))
			}
			out, err := native.Run(c, sender, tx.Value, tx.Data)
			if err != nil {
				st.RevertToSnapshot(snap)
			} else {
				st.DiscardSnapshot(snap)
			}
			r.GasUsed = intrinsic + NativeGas
			if r.GasUsed > tx.GasLimit {
				r.GasUsed = tx.GasLimit
			}
			r.ReturnData = out
			r.Status = err == nil
			r.Err = err
			st.AddBalance(sender, uint256.NewInt((tx.GasLimit-r.GasUsed)*tx.GasPrice))
			st.AddBalance(block.Coinbase, uint256.NewInt(r.GasUsed*tx.GasPrice))
			return r, false
		}
	}

	vm := c.newEVM(st, block, sender, tx.GasPrice)
	execGas := tx.GasLimit - intrinsic

	var res *evm.ExecResult
	if tx.To == nil {
		// vm.Create derives the contract address from the sender's
		// current nonce and bumps it — that bump is exactly the
		// transaction-level nonce increment for EOA creates.
		res = vm.Create(sender, tx.Data, uint256.NewInt(tx.Value), execGas)
		r.ContractAddress = res.ContractAddress
		if res.Err != nil {
			// A failed create still consumes the nonce.
			st.SetNonce(sender, tx.Nonce+1)
		}
	} else {
		st.SetNonce(sender, tx.Nonce+1)
		res = vm.Call(sender, *tx.To, tx.Data, uint256.NewInt(tx.Value), execGas)
	}

	r.GasUsed = intrinsic + res.GasUsed
	if r.GasUsed > tx.GasLimit {
		r.GasUsed = tx.GasLimit
	}
	r.ReturnData = res.ReturnData
	r.Status = res.Err == nil
	r.Err = res.Err
	r.Logs = st.Logs()

	// Refund unused gas; pay the coinbase for used gas.
	refund := uint256.NewInt((tx.GasLimit - r.GasUsed) * tx.GasPrice)
	st.AddBalance(sender, refund)
	st.AddBalance(block.Coinbase, uint256.NewInt(r.GasUsed*tx.GasPrice))
	return r, true
}

// CallReadOnly executes a contract view call against the head state
// without creating a transaction (an eth_call analogue).
func (c *Chain) CallReadOnly(from types.Address, to types.Address, data []byte) ([]byte, error) {
	snap := c.state.Snapshot()
	defer c.state.RevertToSnapshot(snap)
	vm := c.newEVM(c.state, c.Head(), from, 1)
	res := vm.Call(from, to, data, uint256.NewInt(0), BlockGasLimit)
	if res.Err != nil {
		return res.ReturnData, res.Err
	}
	return res.ReturnData, nil
}

// InstallNative registers a native contract at addr. The account is
// given a one-byte marker code so EXTCODESIZE and Exists treat it as a
// contract.
func (c *Chain) InstallNative(addr types.Address, contract NativeContract) {
	c.natives[addr] = contract
	c.state.SetCode(addr, []byte{0xfe})
}

// IsNative reports whether addr hosts a native contract.
func (c *Chain) IsNative(addr types.Address) bool {
	_, ok := c.natives[addr]
	return ok
}

// NewTx builds an unsigned transaction with sane defaults.
func NewTx(nonce uint64, to *types.Address, value uint64, data []byte) *Transaction {
	return &Transaction{
		Nonce:    nonce,
		GasPrice: 1,
		GasLimit: 2_000_000,
		To:       to,
		Value:    value,
		Data:     data,
	}
}
