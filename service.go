package tinyevm

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/cluster"
	"tinyevm/internal/core"
	"tinyevm/internal/engine"
	"tinyevm/internal/protocol"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// Service errors.
var (
	// ErrServiceClosed is returned by every operation after Close.
	ErrServiceClosed = errors.New("tinyevm: service closed")
	// ErrUnknownNode is returned when a node name is not registered.
	ErrUnknownNode = errors.New("tinyevm: unknown node")
	// ErrIncompleteClose is returned by Close when the counterparty did
	// not produce a valid countersignature.
	ErrIncompleteClose = errors.New("tinyevm: close handshake incomplete")
	// ErrDeliveryFailed is returned (wrapping the counterparty's
	// rejection) when an operation was applied on the local node but the
	// automatically dispatched wire message failed on the remote side:
	// the local channel state HAS advanced. errors.Is matches both
	// ErrDeliveryFailed and the underlying cause; the operation's result
	// (e.g. the signed payment) is returned alongside the error.
	ErrDeliveryFailed = errors.New("tinyevm: delivered locally, rejected by counterparty")
	// ErrLegacyStore is returned by NewService for a data dir or store
	// written in a retired format: the wal backend's single log file, or
	// the full-state digest commitment. Such history is never opened,
	// and never shadowed by a fresh empty store.
	ErrLegacyStore = errors.New("tinyevm: legacy store format")
)

// Option configures a Service (functional options).
type Option func(*serviceConfig)

type serviceConfig struct {
	core          core.Config
	engineWorkers int
	shards        int
	clock         func() time.Time
	kv            store.KVStore
	dataDir       string
	ckptInterval  uint64
	cluster       *ClusterConfig
	// optErr is the first option value NewService must refuse.
	optErr error
}

// WithChallengePeriod sets the on-chain template's challenge window in
// blocks.
func WithChallengePeriod(blocks uint64) Option {
	return func(c *serviceConfig) { c.core.ChallengePeriod = blocks }
}

// WithRadioSeed fixes the TSCH loss process for reproducible runs.
func WithRadioSeed(seed int64) Option {
	return func(c *serviceConfig) { c.core.RadioSeed = seed }
}

// WithRadioLossRate injects independent per-frame radio loss.
func WithRadioLossRate(rate float64) Option {
	return func(c *serviceConfig) { c.core.RadioLossRate = rate }
}

// WithFunds sets the initial chain balances of the provider and of each
// subsequently added node.
func WithFunds(provider, node uint64) Option {
	return func(c *serviceConfig) {
		c.core.ProviderFunds = provider
		c.core.NodeFunds = node
	}
}

// WithEngineWorkers routes the service's on-chain block production
// through the parallel execution engine with n workers. n <= 1 keeps the
// serial producer. Template operations (native-contract calls) always
// execute serially inside the engine; the workers parallelize ordinary
// EVM traffic batched into the same blocks.
func WithEngineWorkers(n int) Option {
	return func(c *serviceConfig) { c.engineWorkers = n }
}

// WithFusion enables or disables tier-1 superinstruction execution on
// the service's chain (default on). Results are byte-identical either
// way; the knob exists for debugging and benchmark comparisons.
func WithFusion(on bool) Option {
	return func(c *serviceConfig) { c.core.DisableFusion = !on }
}

// WithShards sets the number of lock stripes for the pairwise hot path
// (DefaultShards when unset). n <= 1 collapses the service to a single
// stripe — every operation serializes, the pre-sharding behavior. A
// non-zero radio loss rate forces one stripe regardless, because the
// loss process draws from one seeded RNG whose consumption order must
// match the journal.
func WithShards(n int) Option {
	return func(c *serviceConfig) { c.shards = n }
}

// WithClock sets the wall-clock source used to stamp events — tests
// inject a deterministic clock. nil restores time.Now.
func WithClock(now func() time.Time) Option {
	return func(c *serviceConfig) { c.clock = now }
}

// WithStore makes the deployment durable over the given key-value
// store: sealed blocks and per-block state deltas are committed at
// every seal, every state-changing operation is journaled, and
// NewService recovers the previous deployment by replaying the journal
// (see the package documentation in oplog.go for the replay contract).
// The caller owns kv and closes it after the service.
//
// The store must be dedicated to one deployment (same provider name and
// options); recovery fails, rather than forking history, when the
// replayed chain diverges from the persisted blocks.
func WithStore(kv store.KVStore) Option {
	return func(c *serviceConfig) { c.kv = kv }
}

// WithDataDir is WithStore over a service-owned store under dir
// (created as needed): the embedded disk store (internal/store/disk)
// rooted at <dir>/store. The service closes it on Close. WithStore,
// when also given, wins. A dir holding only the retired single-file
// log (<dir>/tinyevm.wal) is refused with ErrLegacyStore.
func WithDataDir(dir string) Option {
	return func(c *serviceConfig) { c.dataDir = dir }
}

// WithStoreBackend names the WithDataDir storage engine. "disk" is the
// only engine; any other value makes NewService fail.
//
// Deprecated: WithDataDir always opens the disk store; drop the option.
func WithStoreBackend(kind string) Option {
	return func(c *serviceConfig) {
		if kind != "disk" && c.optErr == nil {
			c.optErr = fmt.Errorf("tinyevm: unknown store backend %q (the disk store is the only one)", kind)
		}
	}
}

// WithCheckpointInterval makes a durable deployment write a full state
// checkpoint every n sealed blocks: recovery then restores the latest
// checkpoint and replays only the operation tail journaled after it,
// bounding restart time by checkpoint distance instead of deployment
// lifetime. The folded-in prefix of the operation log is pruned
// atomically with each checkpoint. 0 (the default) disables
// checkpointing — recovery replays the whole log.
//
// Checkpoints are automatically disabled under a non-zero radio loss
// rate (the loss process draws from one seeded RNG whose consumption
// order a snapshot cannot restore) and under cluster mode.
func WithCheckpointInterval(n uint64) Option {
	return func(c *serviceConfig) { c.ckptInterval = n }
}

// WithMSTCommitment selects the incremental Merkle-sum-tree state
// commitment, which every chain now seals with. Only true is accepted;
// false makes NewService fail.
//
// Deprecated: the MST commitment is always on; drop the option.
func WithMSTCommitment(on bool) Option {
	return func(c *serviceConfig) {
		if !on && c.optErr == nil {
			c.optErr = errors.New("tinyevm: the digest state commitment was removed; the MST commitment is the only one")
		}
	}
}

// Service is the concurrency-safe façade over a TinyEVM deployment.
// Every operation takes a context.Context and may be called from many
// goroutines.
//
// Concurrency model: service state is lock-striped by device address.
// Channel operations between distinct node pairs (open, pay, claim,
// close — including all payment validation and signature checking) run
// concurrently under their pair's shard locks; only operations that
// touch global state (AddNode, on-chain transactions, block production,
// multi-hop routes) take the exclusive service lock. The intent log has
// its own narrow sequencer lock, taken after the shard locks, so the
// journal order is always a valid linearization of the concurrent
// execution — replaying it single-threaded reproduces the deployment
// byte-for-byte. See shard.go for the lock-ordering rules.
//
// The service dispatches incoming wire messages automatically: a Pay on
// one node is verified, registered and observable on the counterparty
// — via Subscribe event streams — without any manual ReceivePayment
// call.
type Service struct {
	// mu is the global service lock. Sharded (pairwise) operations hold
	// it in read mode for their whole duration; global operations —
	// AddNode, on-chain ops, MineBlock, routes, Close, snapshots — hold
	// it in write mode, which excludes every sharded operation.
	mu  sync.RWMutex
	sys *core.System
	eng *engine.Engine

	// shards stripe the pairwise hot path by device address; see
	// shard.go. logMu is the sequencer lock: it guards opSeq and the
	// intent-log append, and is always acquired after the shard locks.
	shards []serviceShard
	logMu  sync.Mutex

	clock func() time.Time

	nodes  map[string]*ServiceNode
	byAddr map[Address]*ServiceNode
	order  []*ServiceNode

	subMu  sync.Mutex
	subs   map[*subscription]struct{}
	closed bool

	// fraudSeen counts template fraud entries already reported per
	// address, so each new entry emits exactly one dispute event.
	fraudSeen map[Address]int

	// ops is the operation-log store (nil without WithStore); opSeq is
	// the next journal sequence number. ownedKV is closed by Close when
	// the service opened the store itself (WithDataDir).
	ops     store.KVStore
	opSeq   uint64
	ownedKV store.KVStore

	// Checkpoint bookkeeping (checkpoint.go): the configured cadence,
	// the height/sequence of the last written checkpoint, and the op
	// sequence below which the journal has been pruned.
	ckptInterval   uint64
	lastCkptHeight uint64
	lastCkptSeq    uint64
	opPruned       uint64

	// sensorRegs journals the fixed-value sensor registrations so
	// checkpoints can re-install them (the handlers are closures and
	// cannot be snapshotted). opRegisterSensor is a sharded op, so the
	// slice has its own lock.
	sensorMu   sync.Mutex
	sensorRegs []ckptSensor

	// recovery describes what NewService recovered; immutable afterward.
	recovery RecoveryInfo

	// cluster is the multi-node sidechain binding (nil without
	// WithCluster); see cluster_service.go.
	cluster *cluster.Node
}

// NewService creates a TinyEVM deployment whose provider node (the
// payment receiver owning the on-chain template) has the given name.
//
// With WithStore or WithDataDir, NewService also RECOVERS: the journaled
// operation log found in the store is replayed against the fresh
// deployment, reconstructing nodes, channels, balances and sealed
// blocks exactly as they were — every replayed block is verified
// byte-for-byte against the persisted chain records, and a mismatch
// fails construction instead of forking history.
func NewService(providerName string, opts ...Option) (*Service, *ServiceNode, error) {
	cfg := serviceConfig{core: core.DefaultConfig(), clock: time.Now}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.optErr != nil {
		return nil, nil, cfg.optErr
	}
	if cfg.clock == nil {
		cfg.clock = time.Now
	}

	sys, provider, err := core.NewSystem(cfg.core, providerName)
	if err != nil {
		return nil, nil, err
	}
	if cfg.core.RadioLossRate != 0 || cfg.cluster != nil {
		// A checkpoint cannot restore the radio RNG's consumption
		// position, and cluster peers replicate blocks, not snapshots.
		cfg.ckptInterval = 0
	}
	s := &Service{
		sys:          sys,
		clock:        cfg.clock,
		nodes:        make(map[string]*ServiceNode),
		byAddr:       make(map[Address]*ServiceNode),
		subs:         make(map[*subscription]struct{}),
		fraudSeen:    make(map[Address]int),
		shards:       make([]serviceShard, shardCount(cfg)),
		ckptInterval: cfg.ckptInterval,
	}
	if cfg.engineWorkers > 1 {
		s.eng = engine.New(sys.Chain, engine.Options{Workers: cfg.engineWorkers})
	}
	sys.Chain.OnSeal(func(b *chain.Block, _ []*chain.Receipt) {
		s.broadcast(Event{Type: EventBlockSealed, Block: b.Number})
	})
	pn := s.adopt(provider)

	kv := cfg.kv
	if kv == nil && cfg.dataDir != "" {
		if kv, err = openDataDir(cfg.dataDir); err != nil {
			return nil, nil, err
		}
		s.ownedKV = kv
	}
	if kv != nil {
		start := time.Now()
		s.ops = kv
		if err := s.checkMeta(serviceMeta{
			Provider:        providerName,
			ChallengePeriod: cfg.core.ChallengePeriod,
			RadioSeed:       cfg.core.RadioSeed,
			RadioLossRate:   cfg.core.RadioLossRate,
			StateCommitment: stateCommitmentMST,
		}); err != nil {
			s.closeOwnedStore()
			return nil, nil, err
		}
		if err := sys.Chain.AttachStore(store.Prefixed(kv, "chain/")); err != nil {
			s.closeOwnedStore()
			return nil, nil, err
		}
		// Recovery: restore the latest checkpoint when one exists, then
		// replay the journaled operation tail on top of it.
		ck, hasCkpt, err := s.loadCheckpoint()
		if err != nil {
			s.closeOwnedStore()
			return nil, nil, err
		}
		if hasCkpt {
			if err := s.restoreFromCheckpoint(ck); err != nil {
				s.closeOwnedStore()
				return nil, nil, err
			}
			s.recovery.CheckpointHeight = ck.Height
			s.recovery.CheckpointSeq = ck.Seq
		}
		replayed, err := s.replayOps()
		if err != nil {
			s.closeOwnedStore()
			return nil, nil, err
		}
		s.recovery.ReplayedOps = replayed
		s.recovery.Recovered = hasCkpt || replayed > 0
		s.recovery.Duration = time.Since(start)
		// Replay ran with synchronous persistence (every seal verified
		// against the store in lockstep); live mode pipelines batch commits
		// so block N+1 can execute while block N persists.
		sys.Chain.EnablePipeline(chain.DefaultPipelineDepth)
	}
	if cfg.cluster != nil {
		if err := s.setupCluster(&cfg); err != nil {
			return nil, nil, err
		}
	}
	return s, pn, nil
}

func (s *Service) closeOwnedStore() {
	if s.ownedKV != nil {
		s.ownedKV.Close()
	}
}

func (s *Service) adopt(n *core.Node) *ServiceNode {
	sn := &ServiceNode{svc: s, n: n}
	s.nodes[n.Name()] = sn
	s.byAddr[n.Address()] = sn
	s.order = append(s.order, sn)
	return sn
}

// do runs fn under the exclusive service lock — the path for global
// operations and consistent snapshots — honouring context cancellation
// and service shutdown at the boundary. The pairwise hot path does not
// come through here; see runSharded in shard.go.
func (s *Service) do(ctx context.Context, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.isClosed() {
		return ErrServiceClosed
	}
	return fn()
}

func (s *Service) isClosed() bool {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	return s.closed
}

// Close shuts the service down: every Subscribe stream is closed and
// subsequent operations fail with ErrServiceClosed. Close is idempotent.
func (s *Service) Close() error {
	s.subMu.Lock()
	if s.closed {
		s.subMu.Unlock()
		return nil
	}
	s.closed = true
	subs := make([]*subscription, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.cancel()
	}
	// The cluster's goroutines acquire s.mu; stop them before taking it.
	if s.cluster != nil {
		s.cluster.Close() //nolint:errcheck // shutdown path
	}
	// Serialize against in-flight operations (sharded ops hold the read
	// lock for their whole duration), drain the persistence pipeline,
	// then release a store the service owns.
	s.mu.Lock()
	s.sys.Chain.ClosePipeline()
	s.closeOwnedStore()
	s.mu.Unlock()
	return nil
}

// AddNode creates, funds and joins a new node.
func (s *Service) AddNode(ctx context.Context, name string) (*ServiceNode, error) {
	res, err := s.run(ctx, &opRecord{Op: opAddNode, Name: name})
	return res.node, err
}

// Node returns a registered node by name. Name lookups only contend
// with node registration, never with channel traffic.
func (s *Service) Node(name string) (*ServiceNode, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn, ok := s.nodes[name]
	return sn, ok
}

// Nodes returns every node in join order.
func (s *Service) Nodes() []*ServiceNode {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*ServiceNode, len(s.order))
	copy(out, s.order)
	return out
}

// Provider returns the provider node (the template owner).
func (s *Service) Provider() *ServiceNode {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byAddr[s.sys.Provider()]
}

// BalanceOf returns an address's main-chain balance.
func (s *Service) BalanceOf(ctx context.Context, addr Address) (uint64, error) {
	var bal uint64
	err := s.do(ctx, func() error {
		bal = s.sys.Chain.BalanceOf(addr)
		return nil
	})
	return bal, err
}

// HeadBlock returns the current main-chain head number.
func (s *Service) HeadBlock(ctx context.Context) (uint64, error) {
	var n uint64
	err := s.do(ctx, func() error {
		n = s.sys.Chain.Head().Number
		return nil
	})
	return n, err
}

// MineBlock produces one block from any pending transactions, through
// the parallel engine when WithEngineWorkers configured one.
func (s *Service) MineBlock(ctx context.Context) error {
	_, err := s.run(ctx, &opRecord{Op: opMineBlock})
	return err
}

// RunChallengePeriod advances the chain past the active exit deadline.
func (s *Service) RunChallengePeriod(ctx context.Context) error {
	_, err := s.run(ctx, &opRecord{Op: opRunChallenge})
	return err
}

// FraudChannels returns the channel ids the template caught addr
// cheating on.
func (s *Service) FraudChannels(ctx context.Context, addr Address) ([]uint64, error) {
	var out []uint64
	err := s.do(ctx, func() error {
		out = s.sys.Template.FraudChannels(addr)
		return nil
	})
	return out, err
}

// TemplateSettled reports whether the on-chain template has dissolved.
func (s *Service) TemplateSettled(ctx context.Context) (bool, error) {
	var settled bool
	err := s.do(ctx, func() error {
		settled = s.sys.Template.Settled()
		return nil
	})
	return settled, err
}

// System exposes the underlying deployment for measurement and
// inspection. It is NOT safe to mutate concurrently with service
// operations; quiesce the service first.
func (s *Service) System() *core.System { return s.sys }

// RecoveryInfo describes what NewService reconstructed from a durable
// store: whether anything was recovered at all, the checkpoint it
// started from (zero values when none existed), how many journaled
// operations replayed on top, and how long the whole recovery took.
type RecoveryInfo struct {
	// Recovered reports whether the store held prior history.
	Recovered bool
	// CheckpointHeight and CheckpointSeq identify the restored
	// checkpoint (both zero when recovery replayed the full log).
	CheckpointHeight uint64
	CheckpointSeq    uint64
	// ReplayedOps is the length of the journal tail replayed after the
	// checkpoint.
	ReplayedOps int
	// Duration is the wall-clock recovery time inside NewService.
	Duration time.Duration
}

// RecoveryInfo returns what this service recovered at construction.
// It is immutable after NewService returns.
func (s *Service) RecoveryInfo() RecoveryInfo { return s.recovery }

// StoreStatus describes the service's durable store: the storage
// engine under the journal and the checkpoint position. Surfaced over
// RPC as tinyevm_storeStatus.
type StoreStatus struct {
	// Kind names the backend ("mem", "disk", or "custom" for a
	// caller-provided store that reports no stats).
	Kind string
	// Segments / SegmentBytes / MemtableBytes / Flushes / Compactions
	// mirror store.Stats for the backend.
	Segments      int
	SegmentBytes  int64
	MemtableBytes int64
	Flushes       uint64
	Compactions   uint64
	// CheckpointInterval is the configured cadence (0: disabled);
	// CheckpointHeight and CheckpointSeq locate the latest checkpoint
	// written or restored by this service.
	CheckpointInterval uint64
	CheckpointHeight   uint64
	CheckpointSeq      uint64
}

// StoreStatus reports the durable store's backend and checkpoint
// position. ok is false when the service runs without a store.
func (s *Service) StoreStatus(ctx context.Context) (StoreStatus, bool, error) {
	var (
		st StoreStatus
		ok bool
	)
	err := s.do(ctx, func() error {
		if s.ops == nil {
			return nil
		}
		ok = true
		st.CheckpointInterval = s.ckptInterval
		st.CheckpointHeight = s.lastCkptHeight
		st.CheckpointSeq = s.lastCkptSeq
		if sp, has := s.ops.(store.StatsProvider); has {
			stats := sp.Stats()
			st.Kind = stats.Kind
			st.Segments = stats.Segments
			st.SegmentBytes = stats.SegmentBytes
			st.MemtableBytes = stats.MemtableBytes
			st.Flushes = stats.Flushes
			st.Compactions = stats.Compactions
		} else {
			st.Kind = "custom"
		}
		return nil
	})
	return st, ok, err
}

// StateCommitment is the chain's current authenticated state root.
type StateCommitment struct {
	// Root is the Merkle-sum-tree root hash over all accounts.
	Root Hash
	// Sum is the tree's sum total (balances, low 64 bits, wrapping).
	Sum uint64
	// Commitment is the folded digest persisted in block records.
	Commitment Hash
	// Height is the chain head the root was read at.
	Height uint64
}

// StateCommitment returns the MST state root as of the latest seal.
func (s *Service) StateCommitment(ctx context.Context) (StateCommitment, error) {
	var out StateCommitment
	err := s.do(ctx, func() error {
		root := s.sys.Chain.StateRoot()
		out = StateCommitment{
			Root:       root.Hash,
			Sum:        root.Sum,
			Commitment: chain.CommitmentDigest(root),
			Height:     s.sys.Chain.Head().Number,
		}
		return nil
	})
	return out, err
}

// StateProof builds a light-client-verifiable membership proof that
// addr's account is committed under the chain head's state commitment.
// Verify it with chain.VerifyAccountProof (or
// client-side via rpc.Client.VerifyStateProof, which also re-digests
// the account preimage).
func (s *Service) StateProof(ctx context.Context, addr Address) (*AccountProof, error) {
	var p *AccountProof
	err := s.do(ctx, func() error {
		var err error
		p, err = s.sys.Chain.StateProof(addr)
		return err
	})
	return p, err
}

// txSender returns the block producer on-chain operations go through.
func (s *Service) txSender() protocol.TxSender {
	if s.cluster != nil {
		return &clusterTxSender{s: s}
	}
	if s.eng != nil {
		return &engineTxSender{c: s.sys.Chain, e: s.eng}
	}
	return s.sys.Chain
}

// engineTxSender adapts the parallel engine to protocol.TxSender:
// submit, mine one block, return the submitted transaction's receipt.
type engineTxSender struct {
	c *chain.Chain
	e *engine.Engine
}

func (es *engineTxSender) NonceOf(a types.Address) uint64 { return es.c.NonceOf(a) }

func (es *engineTxSender) SendTransaction(tx *chain.Transaction) (*chain.Receipt, error) {
	if err := es.e.Submit(tx); err != nil {
		return nil, err
	}
	want := tx.Hash()
	for _, r := range es.e.MineBlock() {
		if r.TxHash == want {
			return r, nil
		}
	}
	return nil, fmt.Errorf("tinyevm: engine dropped transaction %s", want)
}

// RouteStep names one forwarding hop of a multi-hop payment: the node
// pays the next hop over its local channel handle.
type RouteStep struct {
	Node    string
	Channel uint64
}

// RoutePayment executes an atomic multi-hop hash-locked payment along
// the route, ending at the named receiver. Intermediaries earn hopFee
// each. The whole exchange (forward lock pass, backward claim pass)
// completes before RoutePayment returns; each hop's payee sees
// payment-received and each payer claim-settled on their streams.
func (s *Service) RoutePayment(ctx context.Context, steps []RouteStep, receiver string, amount, hopFee uint64) (Hash, error) {
	// The secret is the route's only nondeterministic input: draw it
	// here and journal it inside the record so recovery replays the
	// identical exchange.
	secret, _, err := protocol.NewSecret()
	if err != nil {
		return Hash{}, err
	}
	rec := &opRecord{
		Op: opRoutePayment, Receiver: receiver,
		Amount: amount, Fee: hopFee, Secret: encodeSecret(secret),
	}
	for _, st := range steps {
		rec.Steps = append(rec.Steps, opStep{Node: st.Node, Channel: st.Channel})
	}
	res, err := s.run(ctx, rec)
	return res.lock, err
}

// --- event plumbing ----------------------------------------------------

// subscription is one Subscribe stream: an unbounded queue decoupling
// the (locked) event producers from an arbitrarily slow consumer.
type subscription struct {
	node string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Event
	closed bool

	done chan struct{}
	once sync.Once
	out  chan Event
}

func newSubscription(node string) *subscription {
	sub := &subscription{
		node: node,
		done: make(chan struct{}),
		out:  make(chan Event, 16),
	}
	sub.cond = sync.NewCond(&sub.mu)
	go sub.pump()
	return sub
}

func (sub *subscription) push(e Event) {
	sub.mu.Lock()
	if !sub.closed {
		sub.queue = append(sub.queue, e)
		sub.cond.Signal()
	}
	sub.mu.Unlock()
}

func (sub *subscription) cancel() {
	sub.once.Do(func() {
		close(sub.done)
		sub.mu.Lock()
		sub.closed = true
		sub.cond.Signal()
		sub.mu.Unlock()
	})
}

func (sub *subscription) pump() {
	for {
		sub.mu.Lock()
		for len(sub.queue) == 0 && !sub.closed {
			sub.cond.Wait()
		}
		if len(sub.queue) == 0 && sub.closed {
			sub.mu.Unlock()
			close(sub.out)
			return
		}
		e := sub.queue[0]
		sub.queue = sub.queue[1:]
		sub.mu.Unlock()
		select {
		case sub.out <- e:
		case <-sub.done:
			close(sub.out)
			return
		}
	}
}

// subscribe registers a stream bound to node (or "" for every event).
func (s *Service) subscribe(ctx context.Context, node string) <-chan Event {
	sub := newSubscription(node)
	s.subMu.Lock()
	if s.closed {
		s.subMu.Unlock()
		sub.cancel()
		return sub.out
	}
	s.subs[sub] = struct{}{}
	s.subMu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
			sub.cancel()
		case <-sub.done:
		}
		s.subMu.Lock()
		delete(s.subs, sub)
		s.subMu.Unlock()
	}()
	return sub.out
}

// emit delivers an event to the named node's streams; broadcast events
// (Node == "") reach every stream.
func (s *Service) emit(e Event) {
	e.Time = s.clock()
	s.subMu.Lock()
	for sub := range s.subs {
		if e.Node == "" || sub.node == "" || sub.node == e.Node {
			sub.push(e)
		}
	}
	s.subMu.Unlock()
}

// broadcast emits a system-wide event.
func (s *Service) broadcast(e Event) {
	e.Node = ""
	s.emit(e)
}

// --- wire dispatch -----------------------------------------------------

// firstErr reduces dispatch's error list to its first element (the
// service surfaces one failure per operation; the rest arrive as error
// events on the streams).
func firstErr(errs []error) error {
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// deliveryErr marks a dispatch failure that happened AFTER the local
// side of the operation succeeded, so callers can distinguish "never
// happened" from "applied locally, rejected remotely". Both
// ErrDeliveryFailed and the cause match through errors.Is.
func deliveryErr(errs []error) error {
	if len(errs) > 0 {
		return fmt.Errorf("%w: %w", ErrDeliveryFailed, errs[0])
	}
	return nil
}

// dispatch drains the radio inboxes of the nodes in scope (nil: every
// node), routing each pending message to the matching protocol handler
// and publishing the resulting events. It runs after every
// state-changing operation, while that operation's locks are held, so
// automatic delivery is atomic with the operation that produced the
// messages.
//
// Scoped dispatch is what keeps the sharded hot path correct: an
// operation only ever produces messages for the nodes whose shard locks
// it holds, and every operation fully drains its own messages before
// releasing them — so between operations no inbox anywhere is non-empty
// and draining just the involved pair is exactly equivalent to draining
// the world. Replay computes the same scope from the record and shares
// this code path.
func (s *Service) dispatch(scope []*ServiceNode) []error {
	if scope == nil {
		scope = s.order
	}
	var errs []error
	for progress := true; progress; {
		progress = false
		for _, sn := range scope {
			for sn.n.Radio.Pending() > 0 {
				progress = true
				if err := s.deliverOne(sn); err != nil {
					errs = append(errs, err)
					s.emit(Event{Type: EventError, Node: sn.n.Name(), Err: err})
				}
			}
		}
	}
	return errs
}

// deliverOne pops and handles the oldest pending message on sn.
func (s *Service) deliverOne(sn *ServiceNode) error {
	msg, ok := sn.n.Radio.Peek()
	if !ok {
		return nil
	}
	t, err := protocol.PeekType(msg.Payload)
	if err != nil {
		sn.n.Radio.Receive() // drop the malformed frame
		return err
	}
	p := sn.n.Party
	name := sn.n.Name()

	switch t {
	case protocol.MsgChannelOpen:
		cs, err := p.AcceptChannel()
		if err != nil {
			return err
		}
		s.emit(Event{Type: EventChannelOpened, Node: name, Channel: cs.ID, Peer: cs.Peer, Amount: cs.Deposit})

	case protocol.MsgPayment:
		pay, err := protocol.DecodePayment(msg.Payload)
		if err != nil {
			sn.n.Radio.Receive()
			return err
		}
		if pay.HashLock.IsZero() {
			prev := uint64(0)
			if cs, ok := p.ChannelByWire(pay.Template, pay.ChannelID, msg.From); ok {
				prev = cs.Cumulative
			}
			pay, err = p.ReceivePayment()
			if err != nil {
				return err
			}
			cs, _ := p.ChannelOf(pay)
			s.emit(Event{
				Type: EventPaymentReceived, Node: name,
				Channel: cs.ID, Peer: cs.Peer,
				Seq: pay.Seq, Amount: pay.Cumulative - prev,
				Payment: pay,
			})
		} else {
			pay, err = p.ReceiveConditional()
			if err != nil {
				return err
			}
			cs, _ := p.ChannelOf(pay)
			s.emit(Event{
				Type: EventPaymentReceived, Node: name,
				Channel: cs.ID, Peer: cs.Peer,
				Seq: pay.Seq, Payment: pay,
			})
		}

	case protocol.MsgCloseRequest, protocol.MsgCloseAck:
		handle := p.AcceptClose // countersign an incoming close
		if t == protocol.MsgCloseAck {
			handle = p.FinishClose // record the ack on the initiator
		}
		fs, err := handle()
		if err != nil {
			return err
		}
		cs, _ := p.ChannelByOpener(fs.Template, fs.ChannelID, fs.Sender)
		s.emit(Event{
			Type: EventChannelClosed, Node: name,
			Channel: cs.ID, Peer: cs.Peer,
			Seq: fs.Seq, Amount: fs.Cumulative, Final: fs,
		})

	case protocol.MsgHTLCClaim:
		pay, err := p.AcceptClaim()
		if err != nil {
			return err
		}
		cs, _ := p.ChannelOf(pay)
		s.emit(Event{
			Type: EventClaimSettled, Node: name,
			Channel: cs.ID, Peer: cs.Peer,
			Seq: pay.Seq, Payment: pay,
		})

	case protocol.MsgSensorData:
		data, err := p.ReceiveSensorData()
		if err != nil {
			return err
		}
		s.emit(Event{Type: EventSensorData, Node: name, Peer: data.From, Readings: data.Readings})

	default:
		sn.n.Radio.Receive()
		return fmt.Errorf("tinyevm: undispatchable message type %d", t)
	}
	return nil
}

// checkDisputes emits a dispute event for every fraud entry the template
// recorded since the last check.
func (s *Service) checkDisputes() {
	for addr := range s.byAddr {
		frauds := s.sys.Template.FraudChannels(addr)
		for _, ch := range frauds[s.fraudSeen[addr]:] {
			s.broadcast(Event{
				Type: EventDispute, Peer: addr, Channel: ch,
				Block: s.sys.Chain.Head().Number,
			})
		}
		s.fraudSeen[addr] = len(frauds)
	}
}

// --- node façade -------------------------------------------------------

// ServiceNode is one IoT node addressed through the service. All methods
// are safe for concurrent use.
type ServiceNode struct {
	svc *Service
	n   *core.Node
}

// Name returns the node's name.
func (sn *ServiceNode) Name() string { return sn.n.Name() }

// Address returns the node's device address.
func (sn *ServiceNode) Address() Address { return sn.n.Address() }

// Subscribe returns this node's event stream: channel-opened,
// payment-received, channel-closed, claim-settled, sensor-data and
// error events observed on this node, plus broadcast dispute and
// block-sealed events. The stream closes when ctx is cancelled or the
// service closes. Delivery is unbounded — a slow consumer never blocks
// the protocol.
func (sn *ServiceNode) Subscribe(ctx context.Context) <-chan Event {
	return sn.svc.subscribe(ctx, sn.n.Name())
}

// RegisterSensor installs a sensor/actuator handler on the node's bus.
// Go handlers cannot be journaled: on a durable deployment, prefer
// RegisterSensorValue (replayed on recovery) or re-register handlers
// after NewService returns.
func (sn *ServiceNode) RegisterSensor(id uint64, fn SensorFunc) {
	sn.n.RegisterSensor(id, fn) // the bus is internally synchronized
}

// RegisterSensorValue installs a fixed-value sensor on the node's bus.
// Unlike RegisterSensor, the registration is journaled, so recovery
// restores it before replaying the channel operations whose contract
// constructors read the sensor — this is the registration path the RPC
// gateway uses.
func (sn *ServiceNode) RegisterSensorValue(ctx context.Context, id, value uint64) error {
	_, err := sn.svc.run(ctx, &opRecord{
		Op: opRegisterSensor, Node: sn.n.Name(), SensorID: id, Value: value,
	})
	return err
}

// OpenChannel executes the local template to create an off-chain payment
// channel funded with deposit and announces it to the peer, which
// replicates it immediately (the peer's stream sees channel-opened).
func (sn *ServiceNode) OpenChannel(ctx context.Context, peer Address, deposit, sensorParam uint64) (ChannelState, error) {
	res, err := sn.svc.run(ctx, &opRecord{
		Op: opOpenChannel, Node: sn.n.Name(), Peer: peer.Hex(),
		Deposit: deposit, SensorParam: sensorParam,
	})
	return res.channel, err
}

// Pay sends an off-chain payment over the channel. The counterparty
// verifies and registers it before Pay returns; its stream sees
// payment-received.
func (sn *ServiceNode) Pay(ctx context.Context, channelID, amount uint64) (*Payment, error) {
	res, err := sn.svc.run(ctx, &opRecord{
		Op: opPay, Node: sn.n.Name(), Channel: channelID, Amount: amount,
	})
	return res.pay, err
}

// PayConditional sends a hash-locked payment; the peer holds it pending
// until Claim reveals the preimage.
func (sn *ServiceNode) PayConditional(ctx context.Context, channelID, amount uint64, lock Hash) (*Payment, error) {
	res, err := sn.svc.run(ctx, &opRecord{
		Op: opPayConditional, Node: sn.n.Name(), Channel: channelID,
		Amount: amount, Lock: lock.Hex(),
	})
	return res.pay, err
}

// Claim resolves a pending inbound conditional payment by revealing the
// preimage; the payer finalizes it in the same call (claim-settled).
func (sn *ServiceNode) Claim(ctx context.Context, channelID uint64, secret Secret) (*Payment, error) {
	res, err := sn.svc.run(ctx, &opRecord{
		Op: opClaim, Node: sn.n.Name(), Channel: channelID, Secret: encodeSecret(secret),
	})
	return res.pay, err
}

// Close runs the full cooperative close handshake: the final state
// travels to the peer, is countersigned, and the ack is processed — both
// parties' streams see channel-closed. The returned state carries both
// signatures.
func (sn *ServiceNode) Close(ctx context.Context, channelID uint64) (*FinalState, error) {
	res, err := sn.svc.run(ctx, &opRecord{Op: opClose, Node: sn.n.Name(), Channel: channelID})
	return res.fs, err
}

// Reopen clears a countersigned checkpoint on this side so payments can
// continue (both parties must reopen).
func (sn *ServiceNode) Reopen(ctx context.Context, channelID uint64) error {
	_, err := sn.svc.run(ctx, &opRecord{Op: opReopen, Node: sn.n.Name(), Channel: channelID})
	return err
}

// Channel returns a snapshot of a channel's local state.
func (sn *ServiceNode) Channel(ctx context.Context, channelID uint64) (ChannelState, bool, error) {
	var (
		out ChannelState
		ok  bool
	)
	err := sn.svc.do(ctx, func() error {
		cs, found := sn.n.Channel(channelID)
		if found {
			out, ok = *cs, true
		}
		return nil
	})
	return out, ok, err
}

// Channels returns snapshots of every channel on this node.
func (sn *ServiceNode) Channels(ctx context.Context) ([]ChannelState, error) {
	var out []ChannelState
	err := sn.svc.do(ctx, func() error {
		for _, cs := range sn.n.ChannelList() {
			out = append(out, *cs)
		}
		return nil
	})
	return out, err
}

// SendSensorData reads the given sensors and pushes the readings to the
// peer, whose stream sees sensor-data.
func (sn *ServiceNode) SendSensorData(ctx context.Context, peer Address, sensorIDs ...uint64) (*SensorData, error) {
	rec := &opRecord{Op: opSendSensorData, Node: sn.n.Name(), Peer: peer.Hex()}
	// Sensor values are nondeterministic inputs: read them under the
	// shard locks, before journaling, so recovery replays the exact
	// frames without needing the (non-persistable) Go handlers.
	res, err := sn.svc.runShardedPrepared(ctx, rec, func() error {
		for _, id := range sensorIDs {
			v, err := sn.n.Dev.Sensors.Sense(id, 0)
			if err != nil {
				return fmt.Errorf("tinyevm: reading sensor 0x%x: %w", id, err)
			}
			rec.Readings = append(rec.Readings, opReading{ID: id, Value: v})
		}
		return nil
	})
	return res.data, err
}

// Deposit locks funds into the on-chain template (phase 1).
func (sn *ServiceNode) Deposit(ctx context.Context, amount uint64) (*Receipt, error) {
	res, err := sn.svc.run(ctx, &opRecord{Op: opDeposit, Node: sn.n.Name(), Amount: amount})
	return res.receipt, err
}

// Commit submits a final state to the on-chain template (phase 3). A
// commit superseding a counterparty's stale commit raises a dispute
// event.
func (sn *ServiceNode) Commit(ctx context.Context, fs *FinalState) (*Receipt, error) {
	res, err := sn.svc.run(ctx, &opRecord{
		Op: opCommit, Node: sn.n.Name(), Final: encodeFinalState(fs),
	})
	return res.receipt, err
}

// Exit starts the on-chain exit / challenge period.
func (sn *ServiceNode) Exit(ctx context.Context) (*Receipt, error) {
	res, err := sn.svc.run(ctx, &opRecord{Op: opExit, Node: sn.n.Name()})
	return res.receipt, err
}

// Settle dissolves the template after the challenge period and
// distributes funds.
func (sn *ServiceNode) Settle(ctx context.Context) (*Receipt, error) {
	res, err := sn.svc.run(ctx, &opRecord{Op: opSettle, Node: sn.n.Name()})
	return res.receipt, err
}

// DeployContract deploys EVM init code on the node's TinyEVM.
func (sn *ServiceNode) DeployContract(ctx context.Context, initCode []byte) (DeployResult, error) {
	res, err := sn.svc.run(ctx, &opRecord{
		Op: opDeployContract, Node: sn.n.Name(), Data: hex.EncodeToString(initCode),
	})
	return res.deploy, err
}

// CallContract executes a deployed contract on the node's TinyEVM.
func (sn *ServiceNode) CallContract(ctx context.Context, addr Address, input []byte, value uint64) (CallResult, error) {
	res, err := sn.svc.run(ctx, &opRecord{
		Op: opCallContract, Node: sn.n.Name(), Addr: addr.Hex(),
		Data: hex.EncodeToString(input), Value: value,
	})
	return res.call, err
}

// EnergyReport returns the node's Table IV style energy report.
func (sn *ServiceNode) EnergyReport(ctx context.Context) (EnergyReport, error) {
	var rep EnergyReport
	err := sn.svc.do(ctx, func() error {
		rep = sn.n.EnergyReport()
		return nil
	})
	return rep, err
}

// VerifyLog checks the node's hash-linked side-chain log.
func (sn *ServiceNode) VerifyLog(ctx context.Context) error {
	return sn.svc.do(ctx, func() error {
		return sn.n.Log.Verify()
	})
}
