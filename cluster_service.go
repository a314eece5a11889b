package tinyevm

// Cluster mode: N services, each running its own chain replica, form
// one sidechain. The service seam is thin on purpose — consensus lives
// in internal/consensus, networking in internal/p2p, and the
// verify-and-apply replication discipline in internal/cluster; this
// file only binds them to the Service lifecycle and lock.
//
// Cluster mode changes the operation contract in three visible ways:
//
//   - On-chain operations (commit, exit, settle, deposit, mine) succeed
//     only on the current leader; followers fail fast with ErrNotLeader
//     and the caller redirects (raft-style) to another daemon.
//   - RunChallengePeriod is unavailable (ErrClusterOp): sealing a burst
//     of blocks outside the leader schedule would be rejected by every
//     peer. The heartbeat auto-miner advances simulated time instead.
//   - WithStore/WithDataDir op-log persistence and WithEngineWorkers
//     are incompatible: replicated blocks arrive over gossip, not the
//     local journal, and must execute serially to stay byte-identical.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/cluster"
	"tinyevm/internal/consensus"
	"tinyevm/internal/p2p"
	"tinyevm/internal/protocol"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// Cluster errors.
var (
	// ErrNotLeader is returned by on-chain operations on a follower
	// daemon; retry against the leader named in NodeStatus.
	ErrNotLeader = consensus.ErrNotLeader
	// ErrClusterOp marks an operation that is not available in cluster
	// mode.
	ErrClusterOp = errors.New("tinyevm: operation unavailable in cluster mode")
)

// ClusterConfig joins this service to a multi-daemon sidechain.
type ClusterConfig struct {
	// Listen is the p2p bind address ("" = outbound connections only).
	Listen string
	// Peers are the other validators' p2p addresses.
	Peers []string
	// NodeKey seeds this node's validator identity deterministically
	// (secp256k1.DeterministicKey); required.
	NodeKey string
	// Validators are the node-key seeds of the full validator set, in
	// schedule order — identical on every node. Required.
	Validators []string
	// BlockInterval enables heartbeat block production by the scheduled
	// leader (zero: blocks are produced only by explicit MineBlock and
	// on-chain operations).
	BlockInterval time.Duration
	// FallbackAfter lets the next validator in schedule order take over
	// an overdue round after this long (zero: strict single leader, no
	// liveness fallback).
	FallbackAfter time.Duration
	// StrictDigests requires applied blocks to reproduce the proposer's
	// gas usage and post-state commitment exactly. Enable only when every
	// node is configured with identical funding.
	StrictDigests bool
	// Transport overrides the wire transport (tests pass an in-process
	// p2p.MemNetwork); nil uses TCP.
	Transport p2p.Transport
	// Store persists the block archive so a restarted daemon can
	// restore locally before syncing; nil keeps it in memory (a restart
	// then recovers purely via state sync). The caller owns the store.
	Store store.KVStore
	// Logf receives cluster diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// WithCluster runs the service as one validator of a multi-node
// sidechain (see ClusterConfig).
func WithCluster(cc ClusterConfig) Option {
	return func(c *serviceConfig) { c.cluster = &cc }
}

// setupCluster validates the cluster configuration and starts the
// cluster node. Called at the end of NewService, before any operation
// can run.
func (s *Service) setupCluster(cfg *serviceConfig) error {
	cc := cfg.cluster
	if cc.NodeKey == "" || len(cc.Validators) == 0 {
		return errors.New("tinyevm: cluster requires NodeKey and Validators")
	}
	if cfg.kv != nil || cfg.dataDir != "" {
		return fmt.Errorf("%w: op-log persistence (WithStore/WithDataDir); use ClusterConfig.Store for the block archive", ErrClusterOp)
	}
	if cfg.engineWorkers > 1 {
		return fmt.Errorf("%w: parallel engine (blocks must apply serially and byte-identically)", ErrClusterOp)
	}

	vals := make([]types.Address, len(cc.Validators))
	for i, seed := range cc.Validators {
		vals[i] = secp256k1.DeterministicKey(seed).Address()
	}
	var maxFallback uint64
	if cc.FallbackAfter > 0 {
		maxFallback = uint64(len(vals) - 1)
	}
	eng, err := consensus.NewRoundRobin(vals, maxFallback)
	if err != nil {
		return err
	}
	transport := cc.Transport
	if transport == nil {
		transport = &p2p.TCP{}
	}
	node, err := cluster.New(cluster.Config{
		Chain:         s.sys.Chain,
		Engine:        eng,
		Key:           secp256k1.DeterministicKey(cc.NodeKey),
		Transport:     transport,
		Listen:        cc.Listen,
		Peers:         cc.Peers,
		Lock:          &s.mu,
		Store:         cc.Store,
		StrictDigests: cc.StrictDigests,
		BlockInterval: cc.BlockInterval,
		FallbackAfter: cc.FallbackAfter,
		Logf:          cc.Logf,
	})
	if err != nil {
		return err
	}
	s.cluster = node
	return node.Start()
}

// clusterTxSender gates block production behind the consensus schedule:
// a follower's on-chain operation fails with ErrNotLeader before any
// transaction is built, and a leader's transaction body is registered
// with the cluster so the sealed block can be gossiped and archived in
// full.
type clusterTxSender struct{ s *Service }

func (cs *clusterTxSender) NonceOf(a types.Address) uint64 { return cs.s.sys.Chain.NonceOf(a) }

func (cs *clusterTxSender) SendTransaction(tx *chain.Transaction) (*chain.Receipt, error) {
	if err := cs.s.cluster.CheckProposerLocked(); err != nil {
		return nil, err
	}
	cs.s.cluster.RegisterBodyLocked(tx)
	return cs.s.sys.Chain.SendTransaction(tx)
}

var _ protocol.TxSender = (*clusterTxSender)(nil)

// NodeStatus reports the node's cluster view: chain height and head
// hash, live peer count, and this node's role, plus the sharded hot
// path's vital signs. A standalone service (no WithCluster) reports
// role "standalone" with zero peers.
type NodeStatus struct {
	Height    uint64
	Head      types.Hash
	Peers     int
	Role      string // "leader" | "follower" | "syncing" | "diverged" | "standalone"
	Validator types.Address
	Leader    types.Address
	Pool      int

	// Shards is the hot path's lock-stripe count; PendingOps counts the
	// pairwise ops currently queued on or holding each stripe; and
	// PipelineDepth is the number of sealed blocks whose WAL commit is
	// still in flight (see shard.go / internal/chain pipeline.go).
	Shards        int
	PendingOps    []int
	PipelineDepth int

	// StoreKind names the durable store backend ("" without a store);
	// Segments and Compactions are its disk-store vitals; and
	// CheckpointHeight is the height of the latest state checkpoint
	// (checkpoint.go). StateRoot is the MST state root hash.
	StoreKind        string
	Segments         int
	Compactions      uint64
	CheckpointHeight uint64
	StateRoot        types.Hash
}

// NodeStatus returns the current cluster status of this service.
func (s *Service) NodeStatus(ctx context.Context) (NodeStatus, error) {
	var st NodeStatus
	err := s.do(ctx, func() error {
		if s.cluster == nil {
			head := s.sys.Chain.Head()
			st = NodeStatus{Height: head.Number, Head: head.Hash, Role: "standalone"}
		} else {
			cst := s.cluster.StatusLocked()
			st = NodeStatus{
				Height:    cst.Height,
				Head:      cst.Head,
				Peers:     cst.Peers,
				Role:      cst.Role,
				Validator: cst.Validator,
				Leader:    cst.Leader,
				Pool:      cst.Pool,
			}
		}
		st.Shards = len(s.shards)
		st.PendingOps = s.shardPending()
		st.PipelineDepth = s.sys.Chain.PipelineDepth()
		if s.ops != nil {
			if sp, ok := s.ops.(store.StatsProvider); ok {
				stats := sp.Stats()
				st.StoreKind = stats.Kind
				st.Segments = stats.Segments
				st.Compactions = stats.Compactions
			} else {
				st.StoreKind = "custom"
			}
			st.CheckpointHeight = s.lastCkptHeight
		}
		st.StateRoot = s.sys.Chain.StateRoot().Hash
		return nil
	})
	return st, err
}

// BlockHash returns the hash of the sealed block at the given height.
// Cluster smoke tests use it to assert head convergence at a fixed
// height across daemons.
func (s *Service) BlockHash(ctx context.Context, number uint64) (types.Hash, error) {
	var h types.Hash
	err := s.do(ctx, func() error {
		b, err := s.sys.Chain.BlockByNumber(number)
		if err != nil {
			return err
		}
		h = b.Hash
		return nil
	})
	return h, err
}
