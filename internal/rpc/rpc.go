// Package rpc is the network surface of the TinyEVM service: a minimal
// JSON-RPC 2.0 gateway over HTTP exposing the off-chain channel
// protocol — open / pay / close / query / subscribe (long-poll) — plus
// the phase-1/phase-3 on-chain operations, following the gateway
// pattern for IoT–contract interaction: constrained devices (or their
// digital twins) are driven by ordinary HTTP clients while the gateway
// owns the radio, the devices and the simulated main chain.
//
// The protocol's typed error taxonomy crosses the wire: errors carry a
// machine-readable "kind" in the JSON-RPC error data, and the Go Client
// maps kinds back onto the protocol sentinels so errors.Is works on
// both sides of the gateway.
package rpc

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"

	"tinyevm"
	"tinyevm/internal/protocol"
	"tinyevm/internal/radio"
)

// JSON-RPC 2.0 error codes.
const (
	codeParse          = -32700
	codeInvalidRequest = -32600
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
	codeServer         = -32000
)

// request is one JSON-RPC 2.0 call.
type request struct {
	Version string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params"`
}

// response is one JSON-RPC 2.0 reply.
type response struct {
	Version string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
}

// Error is the JSON-RPC error object. Data.Kind carries the typed
// protocol error, when one applies.
type Error struct {
	Code    int        `json:"code"`
	Message string     `json:"message"`
	Data    *ErrorData `json:"data,omitempty"`
}

// ErrorData is the structured part of an Error.
type ErrorData struct {
	// Kind is the kebab-case name of the matched protocol sentinel
	// ("stale-sequence", "channel-closed", ...), empty when no sentinel
	// matched.
	Kind string `json:"kind,omitempty"`
	// Channel is the failing channel handle when the error carried one.
	Channel uint64 `json:"channel,omitempty"`
	// Op is the protocol operation that failed, when known.
	Op string `json:"op,omitempty"`
}

// Error implements error.
func (e *Error) Error() string { return e.Message }

// errorKinds maps protocol sentinels to wire kinds, in match order.
var errorKinds = []struct {
	err  error
	kind string
}{
	{protocol.ErrStaleSequence, "stale-sequence"},
	{protocol.ErrInsufficientChannelBalance, "insufficient-channel-balance"},
	{protocol.ErrChannelClosed, "channel-closed"},
	{protocol.ErrSignature, "bad-signature"},
	{protocol.ErrDecreasingCumulative, "decreasing-cumulative"},
	{protocol.ErrUnknownChannel, "unknown-channel"},
	{protocol.ErrNoPendingHTLC, "no-pending-htlc"},
	{protocol.ErrWrongPreimage, "wrong-preimage"},
	{protocol.ErrHTLCOutstanding, "htlc-outstanding"},
	{protocol.ErrStaleState, "stale-state"},
	{protocol.ErrOverspend, "overspend"},
	{protocol.ErrChallengeOpen, "challenge-open"},
	{protocol.ErrChallengeClosed, "challenge-closed"},
	{protocol.ErrExitActive, "exit-active"},
	{protocol.ErrNoExit, "no-exit"},
	{protocol.ErrSettled, "settled"},
	{protocol.ErrBadMessage, "bad-message"},
	{protocol.ErrBadMsgType, "bad-message-type"},
	{protocol.ErrWrongTemplate, "wrong-template"},
	{protocol.ErrWrongReceiver, "wrong-receiver"},
	{protocol.ErrUnknownOp, "unknown-op"},
	{protocol.ErrNotParticipant, "not-participant"},
	{protocol.ErrRouteTooShort, "route-too-short"},
	{protocol.ErrRouteChannels, "route-channels"},
	{protocol.ErrLogCorrupt, "log-corrupt"},
	{radio.ErrLinkFailure, "link-failure"},
	{tinyevm.ErrUnknownNode, "unknown-node"},
	{tinyevm.ErrServiceClosed, "service-closed"},
	{tinyevm.ErrIncompleteClose, "incomplete-close"},
	// Listed after the protocol sentinels so the wire kind names the
	// concrete cause; local callers still branch on ErrDeliveryFailed.
	{tinyevm.ErrDeliveryFailed, "delivery-failed"},
	{tinyevm.ErrNotLeader, "not-leader"},
	{tinyevm.ErrClusterOp, "cluster-op"},
	{context.Canceled, "canceled"},
	{context.DeadlineExceeded, "deadline-exceeded"},
}

// KindOf returns the wire kind of err ("" when untyped). It is the
// error taxonomy shared by the gateway, the Go client and the load
// harness: protocol sentinels, service errors and context errors map
// to stable kebab-case kinds.
func KindOf(err error) string {
	for _, ek := range errorKinds {
		if errors.Is(err, ek.err) {
			return ek.kind
		}
	}
	return ""
}

// sentinelOf returns the protocol sentinel for a wire kind (nil when
// unknown).
func sentinelOf(kind string) error {
	for _, ek := range errorKinds {
		if ek.kind == kind {
			return ek.err
		}
	}
	return nil
}

// toError converts a service error to the wire error object.
func toError(err error) *Error {
	e := &Error{Code: codeServer, Message: err.Error()}
	data := ErrorData{Kind: KindOf(err)}
	var cerr *protocol.ChannelError
	if errors.As(err, &cerr) {
		data.Channel = cerr.Channel
		data.Op = cerr.Op
	}
	if data != (ErrorData{}) {
		e.Data = &data
	}
	return e
}

// --- wire representations ---------------------------------------------

// Channel is the wire form of a channel-state snapshot.
type Channel struct {
	ID          uint64 `json:"id"`
	WireID      uint64 `json:"wireId"`
	Template    string `json:"template"`
	Addr        string `json:"addr"`
	Peer        string `json:"peer"`
	Opener      string `json:"opener"`
	Role        string `json:"role"`
	Deposit     uint64 `json:"deposit"`
	Seq         uint64 `json:"seq"`
	Cumulative  uint64 `json:"cumulative"`
	SensorValue uint64 `json:"sensorValue"`
	Closed      bool   `json:"closed"`
}

func toChannel(cs tinyevm.ChannelState) Channel {
	role := "sender"
	if cs.Role == protocol.RoleReceiver {
		role = "receiver"
	}
	return Channel{
		ID:          cs.ID,
		WireID:      cs.WireID,
		Template:    cs.Template.Hex(),
		Addr:        cs.Addr.Hex(),
		Peer:        cs.Peer.Hex(),
		Opener:      cs.Opener.Hex(),
		Role:        role,
		Deposit:     cs.Deposit,
		Seq:         cs.Seq,
		Cumulative:  cs.Cumulative,
		SensorValue: cs.SensorValue,
		Closed:      cs.Closed(),
	}
}

// Payment is the wire form of one off-chain payment.
type Payment struct {
	Channel    uint64 `json:"channel"`
	Seq        uint64 `json:"seq"`
	Cumulative uint64 `json:"cumulative"`
	HashLock   string `json:"hashLock,omitempty"`
}

// FinalState is the wire form of a doubly-signed close.
type FinalState struct {
	Channel    uint64 `json:"channel"`
	Sender     string `json:"sender"`
	Receiver   string `json:"receiver"`
	Seq        uint64 `json:"seq"`
	Cumulative uint64 `json:"cumulative"`
	Signed     bool   `json:"signed"`
}

// Receipt is the wire form of an on-chain transaction receipt.
type Receipt struct {
	Status  bool   `json:"status"`
	GasUsed uint64 `json:"gasUsed"`
	Block   uint64 `json:"block"`
	Error   string `json:"error,omitempty"`
}

// NodeStatus is the wire form of a daemon's cluster view. A standalone
// gateway reports role "standalone" with zero peers. The shard and
// pipeline fields are additive — the pre-shard response shape is a
// strict subset, so existing clients keep decoding.
type NodeStatus struct {
	Height    uint64 `json:"height"`
	Head      string `json:"head"`
	Peers     int    `json:"peers"`
	Role      string `json:"role"`
	Validator string `json:"validator,omitempty"`
	Leader    string `json:"leader,omitempty"`
	Pool      int    `json:"pool,omitempty"`

	// Shards is the service's lock-stripe count; PendingOps counts the
	// pairwise ops queued on or holding each stripe; PipelineDepth is
	// the number of sealed blocks whose WAL commit is still in flight.
	Shards        int   `json:"shards,omitempty"`
	PendingOps    []int `json:"pendingOps,omitempty"`
	PipelineDepth int   `json:"pipelineDepth,omitempty"`

	// Store/checkpoint vitals (additive; absent without a durable
	// store): backend kind, disk-segment and compaction counts, latest
	// checkpoint height. StateRoot is the MST state root hash.
	StoreKind        string `json:"storeKind,omitempty"`
	Segments         int    `json:"segments,omitempty"`
	Compactions      uint64 `json:"compactions,omitempty"`
	CheckpointHeight uint64 `json:"checkpointHeight,omitempty"`
	StateRoot        string `json:"stateRoot,omitempty"`
}

func toNodeStatus(st tinyevm.NodeStatus) NodeStatus {
	out := NodeStatus{
		Height:           st.Height,
		Head:             st.Head.Hex(),
		Peers:            st.Peers,
		Role:             st.Role,
		Pool:             st.Pool,
		Shards:           st.Shards,
		PendingOps:       st.PendingOps,
		PipelineDepth:    st.PipelineDepth,
		StoreKind:        st.StoreKind,
		Segments:         st.Segments,
		Compactions:      st.Compactions,
		CheckpointHeight: st.CheckpointHeight,
	}
	if !st.Validator.IsZero() {
		out.Validator = st.Validator.Hex()
	}
	if !st.Leader.IsZero() {
		out.Leader = st.Leader.Hex()
	}
	if !st.StateRoot.IsZero() {
		out.StateRoot = st.StateRoot.Hex()
	}
	return out
}

// StoreStatus is the wire form of the durable store's status
// (tinyevm_storeStatus).
type StoreStatus struct {
	// Kind names the backend: "mem", "disk" or "custom".
	Kind string `json:"kind"`
	// Segments / SegmentBytes / MemtableBytes / Flushes / Compactions
	// mirror the backend's store.Stats.
	Segments      int    `json:"segments"`
	SegmentBytes  int64  `json:"segmentBytes"`
	MemtableBytes int64  `json:"memtableBytes"`
	Flushes       uint64 `json:"flushes"`
	Compactions   uint64 `json:"compactions"`
	// CheckpointInterval is the configured checkpoint cadence in blocks
	// (0: disabled); CheckpointHeight/CheckpointSeq locate the latest
	// written checkpoint.
	CheckpointInterval uint64 `json:"checkpointInterval"`
	CheckpointHeight   uint64 `json:"checkpointHeight"`
	CheckpointSeq      uint64 `json:"checkpointSeq"`
}

func toStoreStatus(st tinyevm.StoreStatus) StoreStatus {
	return StoreStatus{
		Kind:               st.Kind,
		Segments:           st.Segments,
		SegmentBytes:       st.SegmentBytes,
		MemtableBytes:      st.MemtableBytes,
		Flushes:            st.Flushes,
		Compactions:        st.Compactions,
		CheckpointInterval: st.CheckpointInterval,
		CheckpointHeight:   st.CheckpointHeight,
		CheckpointSeq:      st.CheckpointSeq,
	}
}

// StateProofStep is one ancestor on a state-proof path.
type StateProofStep struct {
	Key         string `json:"key"` // hex (an account address)
	ValueHash   string `json:"valueHash"`
	Sum         uint64 `json:"sum"`
	SiblingHash string `json:"siblingHash"`
	SiblingSum  uint64 `json:"siblingSum"`
	Right       bool   `json:"right"`
}

// StateProof is the wire form of a light-client account proof
// (tinyevm_stateProof). Verify with Client.VerifyStateProof; trust in
// Commitment comes from comparing it against a block record obtained
// independently.
type StateProof struct {
	Address       string `json:"address"`
	AccountDigest string `json:"accountDigest"`
	Sum           uint64 `json:"sum"`
	// Account is the hex-encoded persisted account record (the digest
	// preimage the verifier re-hashes).
	Account string `json:"account"`
	// The proven node's child digests plus the bottom-up ancestor path.
	LeftHash  string           `json:"leftHash"`
	LeftSum   uint64           `json:"leftSum"`
	RightHash string           `json:"rightHash"`
	RightSum  uint64           `json:"rightSum"`
	Steps     []StateProofStep `json:"steps,omitempty"`
	// RootHash/RootSum are the MST root; Commitment is the folded
	// digest persisted in block records; Head is the proof's height.
	RootHash   string `json:"rootHash"`
	RootSum    uint64 `json:"rootSum"`
	Commitment string `json:"commitment"`
	Head       uint64 `json:"head"`
}

func toStateProof(p *tinyevm.AccountProof) StateProof {
	out := StateProof{
		Address:       p.Address.Hex(),
		AccountDigest: p.AccountDigest.Hex(),
		Sum:           p.Sum,
		Account:       hex.EncodeToString(p.Account),
		LeftHash:      p.Proof.LeftHash.Hex(),
		LeftSum:       p.Proof.LeftSum,
		RightHash:     p.Proof.RightHash.Hex(),
		RightSum:      p.Proof.RightSum,
		RootHash:      p.Root.Hash.Hex(),
		RootSum:       p.Root.Sum,
		Commitment:    p.Commitment.Hex(),
		Head:          p.Head,
	}
	for _, st := range p.Proof.Steps {
		out.Steps = append(out.Steps, StateProofStep{
			Key:         hex.EncodeToString(st.Key),
			ValueHash:   st.ValueHash.Hex(),
			Sum:         st.Sum,
			SiblingHash: st.SiblingHash.Hex(),
			SiblingSum:  st.SiblingSum,
			Right:       st.Right,
		})
	}
	return out
}

// ServiceStats is the wire form of the sharded hot path's statistics
// (tinyevm_serviceStats).
type ServiceStats struct {
	Shards        int   `json:"shards"`
	ShardPending  []int `json:"shardPending"`
	PipelineDepth int   `json:"pipelineDepth"`
	// Ops is the next journal sequence number (0 without a store).
	Ops uint64 `json:"ops"`
	// Nodes is the registered node count.
	Nodes int `json:"nodes"`
}

func toServiceStats(st tinyevm.ServiceStats) ServiceStats {
	return ServiceStats{
		Shards:        st.Shards,
		ShardPending:  st.ShardPending,
		PipelineDepth: st.PipelineDepth,
		Ops:           st.Ops,
		Nodes:         st.Nodes,
	}
}

// Event is the wire form of a service event.
type Event struct {
	Type    string `json:"type"`
	Node    string `json:"node,omitempty"`
	Channel uint64 `json:"channel,omitempty"`
	Peer    string `json:"peer,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Amount  uint64 `json:"amount,omitempty"`
	Block   uint64 `json:"block,omitempty"`
	Error   string `json:"error,omitempty"`
	// ErrorKind is the typed kind of Error, when one matched.
	ErrorKind string `json:"errorKind,omitempty"`
	// TimeUnixMs is the service clock timestamp.
	TimeUnixMs int64 `json:"timeUnixMs"`
}

func toEvent(e tinyevm.Event) Event {
	out := Event{
		Type:       e.Type.String(),
		Node:       e.Node,
		Channel:    e.Channel,
		Seq:        e.Seq,
		Amount:     e.Amount,
		Block:      e.Block,
		TimeUnixMs: e.Time.UnixMilli(),
	}
	if !e.Peer.IsZero() {
		out.Peer = e.Peer.Hex()
	}
	if e.Err != nil {
		out.Error = e.Err.Error()
		out.ErrorKind = KindOf(e.Err)
	}
	return out
}
