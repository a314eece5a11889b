package tinyevm

// The durable operation log behind WithStore/WithDataDir: every
// state-changing service operation is journaled as one opRecord BEFORE
// it executes (write-ahead intent logging), and NewService replays the
// log through the exact same dispatcher to reconstruct the deployment
// after a crash or restart.
//
// Why replay works: the whole simulation is deterministic. Device keys
// derive from node names, ECDSA signing uses RFC 6979 nonces, the radio
// loss process is seeded, and block timestamps follow the fixed
// interval. The only nondeterministic inputs — routing secrets and
// sensor readings — are captured inside the records themselves, so
// replaying the log reproduces balances, channels, blocks and state
// commitments byte-for-byte. The chain's persistence hook cross-checks
// this on every replayed seal: a block that does not match the record
// already in the store fails recovery instead of silently forking
// history.
//
// Keyspace (under the service's "op/" namespace of the shared store):
//
//	op/<seq %016x> -> opRecord JSON
//
// The log is append-only through the KVStore; in the disk store's
// write-ahead log each record is one checksummed batch. Logging
// intent-first means an operation that was journaled but not
// acknowledged before a crash is still applied on recovery — the
// durability contract is "acknowledged operations survive; the tail
// may include the in-flight one".

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"tinyevm/internal/protocol"
	"tinyevm/internal/store"
	"tinyevm/internal/store/disk"
	"tinyevm/internal/types"
)

// Operation kinds journaled to the store.
const (
	opAddNode        = "addNode"
	opRegisterSensor = "registerSensorValue"
	opOpenChannel    = "openChannel"
	opPay            = "pay"
	opPayConditional = "payConditional"
	opClaim          = "claim"
	opClose          = "close"
	opReopen         = "reopen"
	opRoutePayment   = "routePayment"
	opSendSensorData = "sendSensorData"
	opDeposit        = "deposit"
	opCommit         = "commit"
	opExit           = "exit"
	opSettle         = "settle"
	opMineBlock      = "mineBlock"
	opRunChallenge   = "runChallengePeriod"
	opDeployContract = "deployContract"
	opCallContract   = "callContract"
)

// opStep is one hop of a journaled multi-hop route.
type opStep struct {
	Node    string `json:"node"`
	Channel uint64 `json:"channel"`
}

// opReading is one journaled sensor reading (nondeterministic input,
// captured at log time so replay does not touch the sensor bus).
type opReading struct {
	ID    uint64 `json:"id"`
	Value uint64 `json:"value"`
}

// opRecord is one journaled operation. A flat union over every op kind;
// unused fields stay empty in the JSON.
type opRecord struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`

	Node        string      `json:"node,omitempty"`
	Name        string      `json:"name,omitempty"`
	Peer        string      `json:"peer,omitempty"`
	Channel     uint64      `json:"channel,omitempty"`
	Amount      uint64      `json:"amount,omitempty"`
	Fee         uint64      `json:"fee,omitempty"`
	Deposit     uint64      `json:"deposit,omitempty"`
	SensorParam uint64      `json:"sensorParam,omitempty"`
	SensorID    uint64      `json:"sensorId,omitempty"`
	Value       uint64      `json:"value,omitempty"`
	Lock        string      `json:"lock,omitempty"`
	Secret      string      `json:"secret,omitempty"`
	Final       string      `json:"final,omitempty"`
	Receiver    string      `json:"receiver,omitempty"`
	Steps       []opStep    `json:"steps,omitempty"`
	Readings    []opReading `json:"readings,omitempty"`
	Data        string      `json:"data,omitempty"`
	Addr        string      `json:"addr,omitempty"`
}

// opResult carries the typed results of applyLocked back to the public
// wrappers; replay discards it.
type opResult struct {
	node    *ServiceNode
	channel ChannelState
	pay     *Payment
	fs      *FinalState
	receipt *Receipt
	data    *SensorData
	deploy  DeployResult
	call    CallResult
	lock    Hash
}

const opKeyPrefix = "op/"

func opKey(seq uint64) []byte { return []byte(fmt.Sprintf("%s%016x", opKeyPrefix, seq)) }

// serviceMeta pins the deployment parameters that change replay
// semantics. It is written the first time a store is used and verified
// on every recovery: replaying a log under a different provider name,
// challenge period or radio loss process would reconstruct a different
// history, so it is refused up front.
type serviceMeta struct {
	Provider        string  `json:"provider"`
	ChallengePeriod uint64  `json:"challengePeriod"`
	RadioSeed       int64   `json:"radioSeed"`
	RadioLossRate   float64 `json:"radioLossRate"`
	// StateCommitment is "mst", the incremental Merkle-sum-tree
	// commitment. Stores written with the retired full-state digest
	// pinned "" (or nothing); their persisted block commitments cannot
	// verify, so they are refused with ErrLegacyStore.
	StateCommitment string `json:"stateCommitment,omitempty"`
}

const (
	serviceMetaKey     = "meta/service"
	stateCommitmentMST = "mst"
)

// migrationHint names the only migration for a legacy data dir.
const migrationHint = "there is no in-place conversion: move the old data dir aside and start the deployment in a fresh one (docs/STORAGE.md, \"Migrating old data dirs\")"

// checkMeta verifies (or, on first use, records) the store's deployment
// parameters.
func (s *Service) checkMeta(meta serviceMeta) error {
	data, ok, err := s.ops.Get([]byte(serviceMetaKey))
	if err != nil {
		return err
	}
	if !ok {
		out, err := json.Marshal(meta)
		if err != nil {
			return err
		}
		return s.ops.Put([]byte(serviceMetaKey), out)
	}
	var have serviceMeta
	if err := json.Unmarshal(data, &have); err != nil {
		return fmt.Errorf("tinyevm: decoding store meta: %w", err)
	}
	if have.StateCommitment != stateCommitmentMST {
		return fmt.Errorf("%w: the store pins the retired digest state commitment (stateCommitment %q); %s",
			ErrLegacyStore, have.StateCommitment, migrationHint)
	}
	if have != meta {
		return fmt.Errorf("tinyevm: store belongs to a different deployment (store %+v, requested %+v)", have, meta)
	}
	return nil
}

// logOp journals rec as the next sequence entry. With no store attached
// it is a no-op. The append happens BEFORE the operation executes;
// a failed append fails the operation without applying it.
//
// The sequencer lock (logMu) makes seq assignment + append atomic, so
// concurrent sharded operations get dense, crash-consistent sequence
// numbers. Callers still hold their shard locks (or the exclusive
// service lock) across logOp AND the subsequent applyLocked, which is
// what guarantees that conflicting operations are journaled in their
// execution order — see the linearization argument in shard.go.
func (s *Service) logOp(rec *opRecord) error {
	if s.ops == nil {
		return nil
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	rec.Seq = s.opSeq
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("tinyevm: encoding op record: %w", err)
	}
	if err := s.ops.Put(opKey(rec.Seq), data); err != nil {
		return fmt.Errorf("tinyevm: journaling %s op: %w", rec.Op, err)
	}
	s.opSeq++
	return nil
}

// run executes one journaled operation. Pairwise operations go down
// the sharded hot path (read lock + shard stripes, see shard.go);
// everything else serializes on the exclusive service lock. Both paths
// append the intent record, apply, then surface any persistence error
// the chain latched while sealing.
func (s *Service) run(ctx context.Context, rec *opRecord) (opResult, error) {
	if opIsSharded(rec.Op) {
		return s.runSharded(ctx, rec)
	}
	var res opResult
	err := s.do(ctx, func() error {
		if err := s.logOp(rec); err != nil {
			return err
		}
		var err error
		res, err = s.applyLocked(rec)
		if serr := s.sys.Chain.StoreErr(); serr != nil {
			return fmt.Errorf("tinyevm: persistence failed: %w", serr)
		}
		// Exclusive-path ops are the only ones that seal blocks, so this
		// is the one place the checkpoint cadence can trip. The op's own
		// error (if any) wins the return; a checkpoint failure surfaces
		// only when the op itself succeeded.
		if cerr := s.maybeCheckpointLocked(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	})
	return res, err
}

// replayOps re-applies the journaled operation log against the freshly
// built (or checkpoint-restored) system, returning how many operations
// replayed. Records below the checkpoint watermark (s.opSeq, set by
// restoreFromCheckpoint; 0 without one) are already folded into the
// snapshot and are skipped — checkpointing prunes them atomically, so
// normally none exist. Operation-level errors are ignored (the
// original attempt failed identically); decode failures and
// chain/store divergence abort the recovery.
func (s *Service) replayOps() (int, error) {
	count := 0
	watermark := s.opSeq
	err := s.ops.Iterate([]byte(opKeyPrefix), func(key, value []byte) error {
		var rec opRecord
		if err := json.Unmarshal(value, &rec); err != nil {
			return fmt.Errorf("tinyevm: decoding op record %s: %w", key, err)
		}
		if rec.Seq < watermark {
			return nil
		}
		if rec.Seq >= s.opSeq {
			s.opSeq = rec.Seq + 1 // single-threaded recovery; no logMu needed
		}
		// The op's own outcome is deterministic and may legitimately be
		// an error (it failed the first time too); replay divergence is
		// caught by the chain's per-block verification below.
		_, _ = s.applyLocked(&rec)
		count++
		return nil
	})
	if err != nil {
		return count, err
	}
	if err := s.sys.Chain.StoreErr(); err != nil {
		return count, fmt.Errorf("tinyevm: recovery verification failed after %d ops: %w", count, err)
	}
	if err := s.sys.Chain.VerifyStoreHead(); err != nil {
		return count, fmt.Errorf("tinyevm: recovery verification failed after %d ops: %w", count, err)
	}
	return count, nil
}

// applyLocked dispatches one operation. It must run with the locks of
// its path held — the exclusive service lock for global operations, or
// the read lock plus the pair's shard stripes for pairwise ones (or
// during single-threaded recovery, where no locks are needed) — and
// contains the ONLY implementation of every journaled operation: the
// live path and the replay path cannot drift apart. Pairwise cases
// dispatch wire traffic scoped to their own pair (opScope); because
// every operation fully drains the messages it generates, all inboxes
// are empty between operations and pair-scoped dispatch delivers
// exactly what a global sweep would.
func (s *Service) applyLocked(rec *opRecord) (opResult, error) {
	var res opResult
	switch rec.Op {
	case opAddNode:
		n, err := s.sys.AddNode(rec.Name)
		if err != nil {
			return res, err
		}
		res.node = s.adopt(n)
		return res, nil

	case opRegisterSensor:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		value := rec.Value
		sn.n.RegisterSensor(rec.SensorID, func(uint64) (uint64, error) { return value, nil })
		// Track the registration for checkpoints (closures cannot be
		// snapshotted; the fixed value can). Sharded op → own lock.
		s.sensorMu.Lock()
		s.sensorRegs = append(s.sensorRegs, ckptSensor{Node: rec.Node, ID: rec.SensorID, Value: value})
		s.sensorMu.Unlock()
		return res, nil

	case opOpenChannel:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		peer, err := decodeAddr(rec.Peer)
		if err != nil {
			return res, err
		}
		cs, err := sn.n.OpenChannel(peer, rec.Deposit, rec.SensorParam)
		if err != nil {
			return res, err
		}
		s.emit(Event{
			Type: EventChannelOpened, Node: sn.n.Name(),
			Channel: cs.ID, Peer: cs.Peer, Amount: cs.Deposit,
		})
		res.channel = *cs
		return res, deliveryErr(s.dispatch(s.opScope(rec, sn)))

	case opPay:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		res.pay, err = sn.n.Pay(rec.Channel, rec.Amount)
		if err != nil {
			return res, err
		}
		return res, deliveryErr(s.dispatch(s.opScope(rec, sn)))

	case opPayConditional:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		lock, err := decodeHash(rec.Lock)
		if err != nil {
			return res, err
		}
		res.pay, err = sn.n.PayConditional(rec.Channel, rec.Amount, lock)
		if err != nil {
			return res, err
		}
		return res, deliveryErr(s.dispatch(s.opScope(rec, sn)))

	case opClaim:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		secret, err := decodeSecret(rec.Secret)
		if err != nil {
			return res, err
		}
		res.pay, err = sn.n.ClaimConditional(rec.Channel, secret)
		if err != nil {
			return res, err
		}
		return res, deliveryErr(s.dispatch(s.opScope(rec, sn)))

	case opClose:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		if _, err := sn.n.CloseChannel(rec.Channel); err != nil {
			return res, err
		}
		errs := s.dispatch(s.opScope(rec, sn))
		cs, ok := sn.n.Channel(rec.Channel)
		if !ok || cs.Final == nil {
			if len(errs) > 0 {
				return res, errs[0]
			}
			return res, ErrIncompleteClose
		}
		res.fs = cs.Final
		return res, nil

	case opReopen:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		return res, sn.n.Reopen(rec.Channel)

	case opRoutePayment:
		secret, err := decodeSecret(rec.Secret)
		if err != nil {
			return res, err
		}
		return s.applyRoute(rec, secret)

	case opSendSensorData:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		peer, err := decodeAddr(rec.Peer)
		if err != nil {
			return res, err
		}
		readings := make([]protocol.SensorReading, len(rec.Readings))
		for i, r := range rec.Readings {
			readings[i] = protocol.SensorReading{ID: r.ID, Value: r.Value}
		}
		res.data, err = sn.n.SendSensorReadings(peer, readings)
		if err != nil {
			return res, err
		}
		return res, deliveryErr(s.dispatch(s.opScope(rec, sn)))

	case opDeposit:
		return s.applyChainOp(rec.Node, func(sn *ServiceNode, ts protocol.TxSender) (*Receipt, error) {
			return sn.n.DepositOnChain(ts, rec.Amount)
		})

	case opCommit:
		fs, err := decodeFinalState(rec.Final)
		if err != nil {
			return res, err
		}
		return s.applyChainOp(rec.Node, func(sn *ServiceNode, ts protocol.TxSender) (*Receipt, error) {
			return sn.n.CommitOnChain(ts, fs)
		})

	case opExit:
		return s.applyChainOp(rec.Node, func(sn *ServiceNode, ts protocol.TxSender) (*Receipt, error) {
			return sn.n.ExitOnChain(ts)
		})

	case opSettle:
		return s.applyChainOp(rec.Node, func(sn *ServiceNode, ts protocol.TxSender) (*Receipt, error) {
			return sn.n.SettleOnChain(ts)
		})

	case opMineBlock:
		if s.cluster != nil {
			if err := s.cluster.CheckProposerLocked(); err != nil {
				return res, err
			}
			s.cluster.ProduceBlockLocked()
		} else if s.eng != nil {
			s.eng.MineBlock()
		} else {
			s.sys.Chain.MineBlock()
		}
		return res, nil

	case opRunChallenge:
		if s.cluster != nil {
			// Sealing a burst of blocks outside the leader schedule would
			// be rejected by every peer; the heartbeat miner advances
			// challenge periods instead.
			return res, fmt.Errorf("%w: RunChallengePeriod (let the heartbeat miner advance the chain)", ErrClusterOp)
		}
		return res, s.sys.RunChallengePeriod()

	case opDeployContract:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		initCode, err := hex.DecodeString(rec.Data)
		if err != nil {
			return res, err
		}
		res.deploy = sn.n.DeployContract(initCode)
		return res, nil

	case opCallContract:
		sn, err := s.nodeLocked(rec.Node)
		if err != nil {
			return res, err
		}
		addr, err := decodeAddr(rec.Addr)
		if err != nil {
			return res, err
		}
		input, err := hex.DecodeString(rec.Data)
		if err != nil {
			return res, err
		}
		res.call = sn.n.CallContract(addr, input, rec.Value)
		return res, nil
	}
	return res, fmt.Errorf("tinyevm: unknown journaled op %q", rec.Op)
}

// applyRoute executes a journaled multi-hop payment (RoutePayment's
// body, with the recorded secret).
func (s *Service) applyRoute(rec *opRecord, secret Secret) (opResult, error) {
	var res opResult
	recv, ok := s.nodes[rec.Receiver]
	if !ok {
		return res, fmt.Errorf("%w: %q", ErrUnknownNode, rec.Receiver)
	}
	parties := make([]*ServiceNode, 0, len(rec.Steps)+1)
	hops := make([]protocol.RouteHop, 0, len(rec.Steps))
	for _, st := range rec.Steps {
		sn, ok := s.nodes[st.Node]
		if !ok {
			return res, fmt.Errorf("%w: %q", ErrUnknownNode, st.Node)
		}
		parties = append(parties, sn)
		hops = append(hops, protocol.RouteHop{From: sn.n.Party, ChannelID: st.Channel})
	}
	parties = append(parties, recv)

	lock, err := protocol.RoutePaymentWithSecret(hops, recv.n.Party, rec.Amount, rec.Fee, secret)
	res.lock = lock
	if err != nil {
		s.dispatch(nil)
		return res, err
	}
	// The route consumed its wire messages lockstep internally, so
	// publish the per-hop events the normal dispatch path would have.
	for i, st := range rec.Steps {
		payer, payee := parties[i], parties[i+1]
		pcs, ok := payer.n.Channel(st.Channel)
		if !ok {
			continue
		}
		hopAmount := rec.Amount + uint64(len(rec.Steps)-1-i)*rec.Fee
		if rcs, ok := payee.n.Party.ChannelByOpener(pcs.Template, pcs.WireID, pcs.Opener); ok {
			s.emit(Event{
				Type: EventPaymentReceived, Node: payee.n.Name(),
				Channel: rcs.ID, Peer: rcs.Peer,
				Seq: rcs.Seq, Amount: hopAmount, Payment: rcs.LastPayment,
			})
		}
		s.emit(Event{
			Type: EventClaimSettled, Node: payer.n.Name(),
			Channel: pcs.ID, Peer: pcs.Peer,
			Seq: pcs.Seq, Payment: pcs.LastPayment,
		})
	}
	return res, firstErr(s.dispatch(nil))
}

// applyChainOp runs one on-chain operation for the named node and
// refreshes dispute bookkeeping, mirroring the pre-journal chainOp.
func (s *Service) applyChainOp(node string, fn func(*ServiceNode, protocol.TxSender) (*Receipt, error)) (opResult, error) {
	var res opResult
	sn, err := s.nodeLocked(node)
	if err != nil {
		return res, err
	}
	res.receipt, err = fn(sn, s.txSender())
	s.checkDisputes()
	return res, err
}

// nodeLocked resolves a node name under the calling path's locks (the
// node table is only mutated while the exclusive lock is held, so a
// read-locked sharded op may look up freely).
func (s *Service) nodeLocked(name string) (*ServiceNode, error) {
	sn, ok := s.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	return sn, nil
}

// --- field encodings ---------------------------------------------------

func decodeAddr(s string) (types.Address, error) {
	a, err := types.HexToAddress(s)
	if err != nil {
		return types.Address{}, fmt.Errorf("tinyevm: op record address: %w", err)
	}
	return a, nil
}

func decodeHash(s string) (Hash, error) {
	h, err := types.HexToHash(s)
	if err != nil {
		return Hash{}, fmt.Errorf("tinyevm: op record hash: %w", err)
	}
	return h, nil
}

func encodeSecret(sec Secret) string { return hex.EncodeToString(sec[:]) }

func decodeSecret(s string) (Secret, error) {
	var sec Secret
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(sec) {
		return sec, errors.New("tinyevm: op record secret malformed")
	}
	copy(sec[:], b)
	return sec, nil
}

// encodeFinalState reuses the protocol wire encoding (which round-trips
// signatures exactly) and wraps it in hex for the JSON record.
func encodeFinalState(fs *FinalState) string {
	return hex.EncodeToString(protocol.EncodeFinalState(protocol.MsgCloseRequest, fs))
}

func decodeFinalState(s string) (*FinalState, error) {
	buf, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("tinyevm: op record final state: %w", err)
	}
	_, fs, err := protocol.DecodeFinalState(buf)
	if err != nil {
		return nil, fmt.Errorf("tinyevm: op record final state: %w", err)
	}
	return fs, nil
}

// openDataDir opens the service-owned disk store at <dir>/store. A dir
// that holds the retired single-file log (tinyevm.wal) but no store is
// refused rather than started empty beside the old history.
// TINYEVM_DISK_FLUSH_BYTES overrides the memtable flush threshold — the
// store-smoke harness shrinks it to force segment flushes and
// background compactions within a short workload.
func openDataDir(dir string) (store.KVStore, error) {
	path := filepath.Join(dir, "store")
	if err := refuseLegacyLog(filepath.Join(dir, "tinyevm.wal"), path); err != nil {
		return nil, err
	}
	var opts []disk.Option
	if v := os.Getenv("TINYEVM_DISK_FLUSH_BYTES"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("tinyevm: bad TINYEVM_DISK_FLUSH_BYTES %q", v)
		}
		opts = append(opts, disk.WithFlushBytes(n))
	}
	return disk.Open(path, opts...)
}

// refuseLegacyLog fails with ErrLegacyStore when the retired wal
// backend's log file exists and the disk store that replaces it does
// not.
func refuseLegacyLog(legacy, storeDir string) error {
	if _, err := os.Stat(legacy); err != nil {
		return nil
	}
	if _, err := os.Stat(storeDir); err == nil {
		return nil
	}
	return fmt.Errorf("%w: %s was written by the retired wal backend and %s does not exist; %s",
		ErrLegacyStore, legacy, storeDir, migrationHint)
}
