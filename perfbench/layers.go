package main

import (
	"sort"
	"strings"
	"time"

	"tinyevm"
)

// layerNames are the per-layer metrics a traced run prints, in the
// order BENCHMARK.json lists them. A layer a workload does not reach
// reads 0.
var layerNames = []struct{ name, unit string }{
	{"rpc.roundtrip_us", "us"},
	{"rpc.handler_us", "us"},
	{"rpc.transport_us", "us"},
	{"rpc.calls_per_op", "count"},
	{"service.journal_puts_per_op", "count"},
	{"service.journal_bytes_per_op", "B"},
	{"service.shard_pending_mean", "count"},
	{"ckpt.count", "count"},
	{"ckpt.bytes", "B"},
	{"ckpt.commit_ms", "ms"},
	{"recovery.tail_ops", "count"},
	{"recovery.ckpt_get_ms", "ms"},
	{"recovery.iterate_ms", "ms"},
	{"recovery.ms", "ms"},
	{"secp256k1.sign_us", "us"},
	{"secp256k1.recover_us", "us"},
	{"secp256k1.sigops_per_pay", "count"},
	{"secp256k1.sigops_per_close", "count"},
	{"secp256k1.est_share", "ratio"},
	{"keccak.sum256_32B_ns", "ns"},
	{"evm.channel_register_us", "us"},
	{"evm.template_commit_us", "us"},
	{"chain.txs_per_block", "count"},
	{"chain.empty_seal_ms", "ms"},
	{"chain.pipeline_depth_mean", "count"},
	{"mst.update_us", "us"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"store.batch_commit_ms", "ms"},
	{"store.batch_bytes", "B"},
	{"store.flushes", "count"},
	{"store.compactions", "count"},
	{"store.disk_bytes_per_user_byte", "ratio"},
	{"p2p.msgs_per_block", "count"},
	{"p2p.bytes_per_block", "B"},
	{"cluster.not_leader_per_op", "count"},
	{"txpool.pending_mean", "count"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// layerInput is what a traced run gathers for the per-layer metrics.
// Counts cover the traced half of the window unless noted.
type layerInput struct {
	spans []span
	ops   float64 // headline operations completed

	// Device-accounted secp256k1 work: per-operation counts from the
	// calibration, and the operations that incurred it.
	cal          calibration
	pays, closes float64
	// replaySigops is device secp256k1 work done outside any RPC (the
	// restart workload's tail replay).
	replaySigops float64

	probes probes

	blocks, txs float64 // blocks sealed and the transactions in them
	pending     float64 // mean pending ops summed over stripes
	depth       float64 // mean seal-pipeline depth
	pool        float64 // mean cluster tx pool size

	ckpts            float64 // checkpoints written in the whole window
	flushes          float64 // memtable flushes in the whole window
	compactions      float64 // segment compactions in the whole window
	diskBytes, bytes float64 // store files on disk and live user bytes
	recoveries       []tinyevm.RecoveryInfo

	notLeader         float64 // commits refused with not-leader
	p2pMsgs, p2pBytes float64 // frames and bytes the validators sent

	untracedRate, tracedRate float64 // headline ops/s in each half
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	n     int
	total time.Duration
	bytes int
}

func (s spanStats) meanUs() float64 { return ratio(float64(s.total)/1e3, float64(s.n)) }
func (s spanStats) meanMs() float64 { return ratio(float64(s.total)/1e6, float64(s.n)) }

// layers reduces a traced run to the per-layer metrics.
func layers(in layerInput) map[string]float64 {
	spans := withoutWaits(in.spans)
	by := func(match func(span) bool) spanStats {
		var st spanStats
		for _, s := range spans {
			if match(s) {
				st.n++
				st.total += s.dur()
				st.bytes += s.Bytes
			}
		}
		return st
	}
	name := func(n string) func(span) bool { return func(s span) bool { return s.Name == n } }
	client := by(func(s span) bool { return strings.HasPrefix(s.Name, "client.") })
	restart := by(name("restart"))
	handler := by(name("rpc.handler"))
	journal := by(func(s span) bool { return s.Name == "store.put" && s.Tag == "journal" })
	ckptBatch := by(func(s span) bool { return s.Name == "store.batch" && s.Tag == "ckpt" })
	ckptAny := by(func(s span) bool { return s.Tag == "ckpt" })
	ckptGet := by(func(s span) bool { return s.Name == "store.get" && s.Tag == "ckpt" })
	iterate := by(func(s span) bool { return s.Name == "store.iterate" && s.Tag == "journal" })
	batch := by(name("store.batch"))

	signUs, recoverUs := in.probes.signUs, in.probes.recoverUs
	sigops := in.pays*in.cal.perPay + in.closes*in.cal.perClose + in.replaySigops
	estSecp := time.Duration(sigops * (signUs + recoverUs) / 2 * 1e3)

	// Client time splits into the self times of its spans: the client
	// span's own is transport, a store span's is the store. What is left
	// is the self time of the handlers and restarts, plus that of a
	// journal iteration, because recovery replays inside its callback.
	// The signature estimate takes its share of that remainder; the
	// rest no span or estimate covers.
	self := selfTimes(spans)
	clientTime := client.total + restart.total
	unattributed := self["rpc.handler"] + self["restart"] + self["store.iterate"] - estSecp

	var recMs, tail float64
	for _, r := range in.recoveries {
		recMs += float64(r.Duration) / 1e6
		tail += float64(r.ReplayedOps)
	}
	recN := float64(len(in.recoveries))

	return map[string]float64{
		"rpc.roundtrip_us":               client.meanUs(),
		"rpc.handler_us":                 handler.meanUs(),
		"rpc.transport_us":               client.meanUs() - handler.meanUs(),
		"rpc.calls_per_op":               ratio(float64(client.n), in.ops),
		"service.journal_puts_per_op":    ratio(float64(journal.n), in.ops),
		"service.journal_bytes_per_op":   ratio(float64(journal.bytes), in.ops),
		"service.shard_pending_mean":     in.pending,
		"ckpt.count":                     in.ckpts,
		"ckpt.bytes":                     ratio(float64(ckptAny.bytes), float64(ckptAny.n)),
		"ckpt.commit_ms":                 ckptBatch.meanMs(),
		"recovery.tail_ops":              ratio(tail, recN),
		"recovery.ckpt_get_ms":           ckptGet.meanMs(),
		"recovery.iterate_ms":            iterate.meanMs(),
		"recovery.ms":                    ratio(recMs, recN),
		"secp256k1.sign_us":              signUs,
		"secp256k1.recover_us":           recoverUs,
		"secp256k1.sigops_per_pay":       in.cal.perPay,
		"secp256k1.sigops_per_close":     in.cal.perClose,
		"secp256k1.est_share":            clamp01(ratio(float64(estSecp), float64(clientTime))),
		"keccak.sum256_32B_ns":           in.probes.keccakNs,
		"evm.channel_register_us":        in.probes.registerUs,
		"evm.template_commit_us":         in.probes.templateCommitUs,
		"chain.txs_per_block":            ratio(in.txs, in.blocks),
		"chain.empty_seal_ms":            in.probes.emptySealMs,
		"chain.pipeline_depth_mean":      in.depth,
		"mst.update_us":                  in.probes.mstUpdateUs,
		"store.put_us":                   by(name("store.put")).meanUs(),
		"store.get_us":                   by(name("store.get")).meanUs(),
		"store.batch_commit_ms":          batch.meanMs(),
		"store.batch_bytes":              ratio(float64(batch.bytes), float64(batch.n)),
		"store.flushes":                  in.flushes,
		"store.compactions":              in.compactions,
		"store.disk_bytes_per_user_byte": ratio(in.diskBytes, in.bytes),
		"p2p.msgs_per_block":             ratio(float64(in.p2pMsgs), in.blocks),
		"p2p.bytes_per_block":            ratio(float64(in.p2pBytes), in.blocks),
		"cluster.not_leader_per_op":      ratio(in.notLeader, in.ops),
		"txpool.pending_mean":            in.pool,
		"trace.unattributed_share":       clamp01(ratio(float64(unattributed), float64(clientTime))),
		"trace.overhead_share":           1 - ratio(in.tracedRate, in.untracedRate),
	}
}

func clamp01(x float64) float64 { return min(max(x, 0), 1) }

// withoutWaits drops the long polls that wait for replication, with
// the handlers that served them: they measure the replication lag, not
// work done on the request path.
func withoutWaits(spans []span) []span {
	waits := make(map[uint64]bool)
	for _, s := range spans {
		if s.Name == "client.poll" {
			waits[s.ID] = true
		}
	}
	out := make([]span, 0, len(spans))
	for _, s := range spans {
		if !waits[s.ID] && !waits[s.Parent] {
			out = append(out, s)
		}
	}
	return out
}

// breakdown is the readable detail of a traced run: each RPC method's
// round trip and handler time, and each span name's self time, per op.
func breakdown(spans []span, ops float64) []named {
	method := make(map[uint64]string)
	for _, s := range spans {
		if m, ok := strings.CutPrefix(s.Name, "client."); ok {
			method[s.ID] = m
		}
	}
	type agg struct {
		n                  int
		roundtrip, handler time.Duration
	}
	per := make(map[string]*agg)
	get := func(m string) *agg {
		if per[m] == nil {
			per[m] = &agg{}
		}
		return per[m]
	}
	for _, s := range spans {
		if m, ok := method[s.ID]; ok {
			a := get(m)
			a.n++
			a.roundtrip += s.dur()
		} else if m, ok := method[s.Parent]; ok && s.Name == "rpc.handler" {
			get(m).handler += s.dur()
		}
	}
	var out []named
	for _, m := range sortedKeys(per) {
		a := per[m]
		out = append(out,
			named{"rpc." + m + ".roundtrip_us", "us", float64(a.roundtrip) / 1e3 / float64(a.n), a.n},
			named{"rpc." + m + ".handler_us", "us", float64(a.handler) / 1e3 / float64(a.n), a.n})
	}
	self := selfTimes(spans)
	for _, name := range sortedKeys(self) {
		out = append(out, named{"self." + name + "_us_per_op", "us", ratio(float64(self[name])/1e3, ops), 0})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
