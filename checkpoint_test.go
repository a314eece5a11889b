package tinyevm_test

// Checkpointed-recovery tests: with WithCheckpointInterval the service
// periodically folds the whole deployment (chain state, template,
// parties, channels, hash-chained logs, sensors) into one checkpoint
// record and prunes the folded-in op-log prefix. Recovery then loads
// the checkpoint and replays only the journal tail — and must land on
// exactly the same deployment a full from-genesis replay produces.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tinyevm"
	"tinyevm/internal/store"
)

// countOps scans the service journal namespace and returns the number
// of op records left in the store plus the lowest sequence present.
func countOps(t *testing.T, kv store.KVStore) (n int, minSeq uint64) {
	t.Helper()
	minSeq = ^uint64(0)
	if err := kv.Iterate([]byte("op/"), func(k, _ []byte) error {
		seq, err := strconv.ParseUint(strings.TrimPrefix(string(k), "op/"), 16, 64)
		if err != nil {
			return fmt.Errorf("malformed op key %q: %w", k, err)
		}
		if seq < minSeq {
			minSeq = seq
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n, minSeq
}

// TestCheckpointRecoveryRoundTrip journals a workload with a tight
// checkpoint cadence, then recovers: the deployment must be identical,
// the recovery must have started from a checkpoint (not genesis), and
// the folded-in op-log prefix must be gone from the store.
func TestCheckpointRecoveryRoundTrip(t *testing.T) {
	kv := store.NewMem()
	opts := recoveryOpts(tinyevm.WithStore(kv), tinyevm.WithCheckpointInterval(2))
	svc, lot, err := tinyevm.NewService("lot", opts...)
	if err != nil {
		t.Fatal(err)
	}
	runRecoveryWorkload(t, svc, lot)
	want := captureState(t, svc)
	ctx := context.Background()
	st, ok, err := svc.StoreStatus(ctx)
	if err != nil || !ok {
		t.Fatalf("store status: %+v %v %v", st, ok, err)
	}
	if st.Kind != "mem" || st.CheckpointInterval != 2 {
		t.Fatalf("store status: %+v", st)
	}
	if st.CheckpointHeight == 0 || st.CheckpointSeq == 0 {
		t.Fatalf("no checkpoint written during workload: %+v", st)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// The op-log prefix folded into the checkpoint is pruned: every
	// surviving record is at or past the checkpoint watermark.
	n, minSeq := countOps(t, kv)
	if n == 0 {
		t.Fatal("entire op log pruned; tail must survive for replay")
	}
	if minSeq < st.CheckpointSeq {
		t.Fatalf("op %d survives below checkpoint watermark %d", minSeq, st.CheckpointSeq)
	}

	svc2, _, err := tinyevm.NewService("lot", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	assertSameDeployment(t, want, captureState(t, svc2))

	ri := svc2.RecoveryInfo()
	if !ri.Recovered {
		t.Fatal("recovery not reported")
	}
	if ri.CheckpointHeight != st.CheckpointHeight || ri.CheckpointSeq != st.CheckpointSeq {
		t.Fatalf("recovered from checkpoint %d/%d, wrote %d/%d",
			ri.CheckpointHeight, ri.CheckpointSeq, st.CheckpointHeight, st.CheckpointSeq)
	}
	if ri.ReplayedOps != n {
		t.Fatalf("replayed %d ops, store holds %d tail records", ri.ReplayedOps, n)
	}

	// The recovered deployment keeps working, keeps checkpointing, and
	// recovers again from the new checkpoint.
	car, ok2 := svc2.Node("car")
	if !ok2 {
		t.Fatal("car not recovered")
	}
	chs, err := car.Channels(ctx)
	if err != nil || len(chs) == 0 {
		t.Fatalf("car channels after recovery: %v %v", chs, err)
	}
	if _, err := car.Pay(ctx, chs[0].ID, 123); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := svc2.MineBlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st2, _, err := svc2.StoreStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CheckpointHeight <= st.CheckpointHeight {
		t.Fatalf("no new checkpoint after recovery: %d -> %d", st.CheckpointHeight, st2.CheckpointHeight)
	}
	want2 := captureState(t, svc2)
	svc2.Close()

	svc3, _, err := tinyevm.NewService("lot", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	assertSameDeployment(t, want2, captureState(t, svc3))
}

// TestCheckpointMatchesFullReplay pins the checkpoint restore path
// against the from-genesis replay path: the same deterministic
// workload (fixed hash-lock preimages, name-derived identities)
// journaled with and without checkpoints must recover to
// byte-identical deployments (head hash, state digest, balances,
// channels). runRecoveryWorkload cannot be used across runs — its
// routed payment draws a random hash lock.
func TestCheckpointMatchesFullReplay(t *testing.T) {
	run := func(extra ...tinyevm.Option) deploymentState {
		kv := store.NewMem()
		opts := recoveryOpts(append([]tinyevm.Option{tinyevm.WithStore(kv)}, extra...)...)
		svc, hub, err := tinyevm.NewService("hub", opts...)
		if err != nil {
			t.Fatal(err)
		}
		shardDifferentialWorkload(t, svc, hub)
		svc.Close()
		svc2, _, err := tinyevm.NewService("hub", opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc2.Close()
		return captureState(t, svc2)
	}
	full := run()
	ckpt := run(tinyevm.WithCheckpointInterval(1))
	assertSameDeployment(t, full, ckpt)
}

// TestCheckpointDiskBackendRoundTrip runs the checkpointed round-trip
// on the disk backend (memtable + segments + compaction) end to end
// through WithDataDir — the configuration the serve daemon uses with
// -data-dir.
func TestCheckpointDiskBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := recoveryOpts(
		tinyevm.WithDataDir(dir),
		tinyevm.WithCheckpointInterval(2),
	)
	svc, lot, err := tinyevm.NewService("lot", opts...)
	if err != nil {
		t.Fatal(err)
	}
	runRecoveryWorkload(t, svc, lot)
	want := captureState(t, svc)
	sc, err := svc.StateCommitment(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		svc2, _, err := tinyevm.NewService("lot", opts...)
		if err != nil {
			t.Fatalf("recovery %d: %v", i, err)
		}
		assertSameDeployment(t, want, captureState(t, svc2))
		sc2, err := svc2.StateCommitment(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sc2 != sc {
			t.Fatalf("recovery %d: state commitment diverged: %+v vs %+v", i, sc2, sc)
		}
		st, ok, err := svc2.StoreStatus(context.Background())
		if err != nil || !ok || st.Kind != "disk" {
			t.Fatalf("recovery %d: store status %+v %v %v", i, st, ok, err)
		}
		svc2.Close()
	}
}

// TestCheckpointCrashMidPipeline crashes a deployment with the seal
// pipeline hot AND a tight checkpoint cadence, so the store snapshot
// can land between a queued checkpoint batch (which also prunes the op
// log) and the block seals around it — the worst-case interleaving of
// PR 8's pipelined committer with checkpoint pruning. Replay over the
// snapshot must converge, twice (determinism), and stay live.
func TestCheckpointCrashMidPipeline(t *testing.T) {
	kv := store.NewMem()
	opts := recoveryOpts(tinyevm.WithStore(kv), tinyevm.WithCheckpointInterval(1))
	svc, hub, err := tinyevm.NewService("hub", opts...)
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the crash must land with pipeline batches (seals and
	// checkpoints) possibly uncommitted. The abandoned service leaks
	// goroutines for the rest of the run, as a killed process would.
	ctx := context.Background()

	const pairs = 6
	const pays = 10
	if err := hub.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
		t.Fatal(err)
	}
	type pair struct {
		payer *tinyevm.ServiceNode
		ch    uint64
	}
	ps := make([]pair, pairs)
	for i := range ps {
		payer, err := svc.AddNode(ctx, fmt.Sprintf("veh-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := payer.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
			t.Fatal(err)
		}
		cs, err := payer.OpenChannel(ctx, hub.Address(), 50_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = pair{payer: payer, ch: cs.ID}
	}

	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func(i int, p pair) {
			defer wg.Done()
			for j := 0; j < pays; j++ {
				if _, err := p.payer.Pay(ctx, p.ch, 5); err != nil {
					t.Errorf("veh-%d pay: %v", i, err)
					return
				}
				// Block-sealing deposits force a checkpoint per block
				// (interval 1), keeping checkpoint batches in flight.
				if j%3 == 2 {
					if _, err := p.payer.Deposit(ctx, 100); err != nil {
						t.Errorf("veh-%d deposit: %v", i, err)
						return
					}
				}
			}
		}(i, ps[i])
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		if err := svc.MineBlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	want := captureState(t, svc)
	crashed := cloneStore(t, kv)

	svc2, _, err := tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(crashed), tinyevm.WithCheckpointInterval(1))...)
	if err != nil {
		t.Fatal(err)
	}
	got := captureState(t, svc2)
	assertSameDeployment(t, want, got)
	svc2.Close()

	// Determinism: a second replay of the same crash image agrees.
	svc3, _, err := tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(cloneStore(t, crashed)), tinyevm.WithCheckpointInterval(1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	assertSameDeployment(t, got, captureState(t, svc3))

	// And stays live: one more payment and seal on the recovered copy.
	veh, ok := svc3.Node("veh-0")
	if !ok {
		t.Fatal("veh-0 not recovered")
	}
	chs, err := veh.Channels(ctx)
	if err != nil || len(chs) == 0 {
		t.Fatalf("veh-0 channels: %v %v", chs, err)
	}
	if _, err := veh.Pay(ctx, chs[0].ID, 7); err != nil {
		t.Fatal(err)
	}
	if err := svc3.MineBlock(ctx); err != nil {
		t.Fatal(err)
	}
}
