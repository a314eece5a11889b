// Package engine implements TinyEVM's parallel off-chain execution
// engine: a block producer that executes a batch of many devices'
// transactions concurrently instead of strictly serially. It is driven
// by the eval scenarios and benchmarks; the tinyevm service mines with
// chain.MineBlock, because it seals every on-chain operation in its own
// block and so never holds a batch.
//
// The pipeline per block:
//
//  1. Sender recovery (the ECDSA-heavy part of validation) happens at
//     Submit time and is cached on the transaction, so concurrent
//     device submitters parallelize it naturally before mining starts.
//  2. Partition the batch into conflict groups by statically known
//     accounts (sender, recipient) with a union-find; a group is the
//     unit of sequential execution (nonce chains, shared contracts).
//  3. Shard the groups and execute each group speculatively on its own
//     detached overlay view of the frozen chain state, on a worker
//     pool. Views record read/write access sets.
//  4. Detect dynamic conflicts between groups (accounts reached through
//     nested calls, created contracts, storage aliasing). Commutative
//     balance credits — every transaction's coinbase payment — are
//     exempt, so ordinary batches don't serialize on the coinbase.
//  5. Merge: conflict-free groups' write buffers are applied to the
//     chain state; conflicted groups are re-executed serially against
//     the merged state, and if that repair provably interferes with a
//     speculated group, the whole batch falls back to plain serial
//     execution. Receipts — including the serial path's cumulative log
//     slices — are byte-identical to Chain.MineBlock in every case.
//
// Determinism: group formation, scheduling-independent speculation,
// set-based conflict detection and ordered merging make the produced
// block a pure function of the submitted transactions.
//
// Cross-block pipelining: sealing hands the block's durable batch to
// the chain's seal pipeline (internal/chain pipeline.go) when one is
// enabled, so MineBlock returns — and block N+1's conflict groups
// start executing on fresh overlay views — while block N's WAL commit
// is still in flight. The engine never observes the store directly;
// the overlap is safe because speculation reads the already-merged
// in-memory chain state, never the KV store.
package engine

import (
	"runtime"
	"sync"

	"tinyevm/internal/chain"
	"tinyevm/internal/evm"
)

// Scheduling constants: groups are hashed into shards, and each
// shard's groups execute in order on their own detached state views;
// a batch smaller than minBatch runs the serial path directly.
const (
	shardCount = 16
	minBatch   = 2
)

// Options configures an Engine.
type Options struct {
	// Workers is the worker-pool size; 0 means one per CPU
	// (runtime.GOMAXPROCS).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats accumulates engine counters across blocks.
type Stats struct {
	// Blocks is the number of blocks produced through the engine.
	Blocks int
	// Txs is the total number of transactions processed.
	Txs int
	// ParallelTxs counts transactions whose speculative execution was
	// committed; SerialTxs counts transactions executed on the serial
	// path (small batches, native calls, conflict repairs, fallbacks).
	ParallelTxs int
	SerialTxs   int
	// Groups is the total number of conflict groups formed.
	Groups int
	// ConflictGroups counts groups invalidated by dynamic conflicts.
	ConflictGroups int
	// PartialFallbacks counts blocks repaired by re-executing only the
	// conflicted groups; FullFallbacks counts blocks that had to be
	// re-executed serially from scratch.
	PartialFallbacks int
	FullFallbacks    int
}

// Engine is a parallel block producer bound to one chain. Its Submit
// method is safe for concurrent use — devices submit from their own
// goroutines — while MineBlock must be called from one goroutine at a
// time (there is one block producer, as in the serial chain).
type Engine struct {
	chain *chain.Chain
	opts  Options

	mu    sync.Mutex
	pool  []*chain.Transaction
	stats Stats
}

// New creates an engine over the chain.
func New(c *chain.Chain, opts Options) *Engine {
	return &Engine{chain: c, opts: opts.withDefaults()}
}

// Submit queues a signed transaction for the next block. Unlike
// chain.Submit it is safe for concurrent use.
func (e *Engine) Submit(tx *chain.Transaction) error {
	if _, err := tx.Sender(); err != nil {
		return err
	}
	e.mu.Lock()
	e.pool = append(e.pool, tx)
	e.mu.Unlock()
	return nil
}

// Pending returns the number of transactions queued in the engine pool.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pool)
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// txResult is the outcome of one speculatively or serially executed
// transaction, before receipts are finalized at merge.
type txResult struct {
	receipt *chain.Receipt
	evmPath bool
	logs    []evm.Log
}

// MineBlock drains the engine pool and the chain mempool, executes the
// batch in parallel, and seals the block. Receipts are returned in
// submission order and are byte-identical to what Chain.MineBlock
// would have produced for the same batch.
func (e *Engine) MineBlock() []*chain.Receipt {
	e.mu.Lock()
	pool := e.pool
	e.pool = nil
	e.mu.Unlock()

	txs := append(e.chain.TakePending(), pool...)
	block := e.chain.NextBlockTemplate()

	e.mu.Lock()
	e.stats.Blocks++
	e.stats.Txs += len(txs)
	e.mu.Unlock()

	if len(txs) < minBatch || e.opts.Workers <= 1 || e.anyNative(txs) {
		return e.runSerial(block, txs)
	}

	groups := groupTxs(txs)
	e.mu.Lock()
	e.stats.Groups += len(groups)
	e.mu.Unlock()
	if len(groups) < 2 {
		return e.runSerial(block, txs)
	}

	views, results := e.speculate(block, txs, groups)
	receipts := e.merge(block, txs, groups, views, results)
	e.chain.SealBlock(block, receipts)
	return receipts
}

// anyNative reports whether the batch contains a native-contract call;
// natives mutate the chain directly and cannot be speculated.
func (e *Engine) anyNative(txs []*chain.Transaction) bool {
	for _, tx := range txs {
		if e.chain.IsNativeTx(tx) {
			return true
		}
	}
	return false
}

// speculate executes every group on its own overlay view, sharding
// groups across the worker pool. Group g's results land at its
// transactions' global indices in the returned slice.
func (e *Engine) speculate(block *chain.Block, txs []*chain.Transaction, groups [][]int) ([]*view, []txResult) {
	base := e.chain.State()
	views := make([]*view, len(groups))
	results := make([]txResult, len(txs))

	shards := shardCount
	if shards > len(groups) {
		shards = len(groups)
	}
	var wg sync.WaitGroup
	shardCh := make(chan int, shards)
	for s := 0; s < shards; s++ {
		shardCh <- s
	}
	close(shardCh)

	workers := e.opts.Workers
	if workers > shards {
		workers = shards
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range shardCh {
				for g := s; g < len(groups); g += shards {
					v := newView(base)
					views[g] = v
					for _, i := range groups[g] {
						before := len(v.logs)
						r, evmPath := e.chain.ExecuteTx(v, block, txs[i])
						results[i] = txResult{
							receipt: r,
							evmPath: evmPath,
							logs:    v.logs[before:len(v.logs):len(v.logs)],
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return views, results
}

// runSerial executes the batch on the canonical state exactly as
// Chain.MineBlock does, then seals.
func (e *Engine) runSerial(block *chain.Block, txs []*chain.Transaction) []*chain.Receipt {
	receipts := make([]*chain.Receipt, 0, len(txs))
	st := e.chain.State()
	for _, tx := range txs {
		r, _ := e.chain.ExecuteTx(st, block, tx)
		receipts = append(receipts, r)
	}
	e.chain.SealBlock(block, receipts)
	e.mu.Lock()
	e.stats.SerialTxs += len(txs)
	e.mu.Unlock()
	return receipts
}
