package tinyevm_test

// MST state-commitment tests: the chain seals blocks with an
// incrementally maintained Merkle-sum-tree root. The differential test
// pins that the serial and the parallel engine reach the same
// commitment over an identical workload, the rebuild test pins the
// incremental path against a from-scratch rebuild, the pinning test
// pins the refusal of stores sealed with the retired full-state digest,
// and the proof test pins the light-client verification path end to
// end, including tamper rejection.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tinyevm"
	"tinyevm/internal/chain"
	"tinyevm/internal/store"
)

// TestMSTCommitmentDifferential feeds the identical deterministic
// workload to a serial and a parallel-engine service: every externally
// observable byte, the state commitment included, must agree.
func TestMSTCommitmentDifferential(t *testing.T) {
	run := func(opts ...tinyevm.Option) (deploymentState, tinyevm.StateCommitment) {
		svc, hub, err := tinyevm.NewService("hub", opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		shardDifferentialWorkload(t, svc, hub)
		sc, err := svc.StateCommitment(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return captureState(t, svc), sc
	}
	serial, serialSC := run()
	parallel, parallelSC := run(tinyevm.WithEngineWorkers(4))
	assertSameDeployment(t, serial, parallel)
	if serialSC != parallelSC {
		t.Fatalf("state commitment diverged across engines:\n serial   %+v\n parallel %+v", serialSC, parallelSC)
	}
}

// TestMSTCommitmentIncrementalMatchesRebuilt pins the incremental
// maintenance path (per-seal dirty-account deltas) against the
// from-scratch rebuild path (recovery restores the checkpoint and
// reconstructs the map from the full state): both must land on the
// same root, sum and commitment.
func TestMSTCommitmentIncrementalMatchesRebuilt(t *testing.T) {
	kv := store.NewMem()
	opts := recoveryOpts(
		tinyevm.WithStore(kv),
		tinyevm.WithCheckpointInterval(2),
	)
	svc, hub, err := tinyevm.NewService("hub", opts...)
	if err != nil {
		t.Fatal(err)
	}
	shardDifferentialWorkload(t, svc, hub)
	ctx := context.Background()
	live, err := svc.StateCommitment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if live.Root == (tinyevm.Hash{}) || live.Sum == 0 {
		t.Fatalf("degenerate live root: %+v", live)
	}
	svc.Close()

	svc2, _, err := tinyevm.NewService("hub", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	rebuilt, err := svc2.StateCommitment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != live {
		t.Fatalf("rebuilt root diverged from incremental:\n live    %+v\n rebuilt %+v", live, rebuilt)
	}
}

// TestMSTCommitmentModePinned pins the store meta guard: a store whose
// meta pins the retired full-state digest commitment (stateCommitment
// "" or absent, as the digest mode wrote it) is refused with
// ErrLegacyStore naming the migration — its persisted per-block
// commitments would not verify — and nothing is written to it.
func TestMSTCommitmentModePinned(t *testing.T) {
	for _, meta := range []string{
		`{"provider":"hub","challengePeriod":6,"radioSeed":0,"radioLossRate":0}`,
		`{"provider":"hub","challengePeriod":6,"radioSeed":0,"radioLossRate":0,"stateCommitment":""}`,
	} {
		kv := store.NewMem()
		if err := kv.Put([]byte("meta/service"), []byte(meta)); err != nil {
			t.Fatal(err)
		}
		_, _, err := tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(kv))...)
		if !errors.Is(err, tinyevm.ErrLegacyStore) {
			t.Fatalf("digest-pinned store %s: err = %v, want ErrLegacyStore", meta, err)
		}
		if !strings.Contains(err.Error(), "Migrating old data dirs") {
			t.Fatalf("refusal does not name the migration: %v", err)
		}
		keys := 0
		kv.Iterate(nil, func(_, _ []byte) error { keys++; return nil })
		if keys != 1 {
			t.Fatalf("refused store was written to: %d keys", keys)
		}
	}

	// A store this version creates pins the MST commitment and reopens.
	kv := store.NewMem()
	svc, _, err := tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	meta, _, _ := kv.Get([]byte("meta/service"))
	if !strings.Contains(string(meta), `"stateCommitment":"mst"`) {
		t.Fatalf("new store meta does not pin the MST commitment: %s", meta)
	}
	svc, _, err = tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
}

// TestStateProofVerifies walks the light-client path: request a proof,
// verify the Merkle side (chain.VerifyAccountProof) and the preimage
// side (chain.VerifyAccountRecord), and reject tampered variants of
// each component.
func TestStateProofVerifies(t *testing.T) {
	svc, hub, err := tinyevm.NewService("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	shardDifferentialWorkload(t, svc, hub)
	ctx := context.Background()

	for _, sn := range svc.Nodes() {
		p, err := svc.StateProof(ctx, sn.Address())
		if err != nil {
			t.Fatalf("proof for %s: %v", sn.Name(), err)
		}
		if err := chain.VerifyAccountProof(p.Commitment, p); err != nil {
			t.Fatalf("proof for %s does not verify: %v", sn.Name(), err)
		}
		if err := chain.VerifyAccountRecord(p.Address, p.Account, p.AccountDigest); err != nil {
			t.Fatalf("account record for %s does not re-digest: %v", sn.Name(), err)
		}
	}

	p, err := svc.StateProof(ctx, hub.Address())
	if err != nil {
		t.Fatal(err)
	}
	// Tampered commitment: the root no longer folds into it.
	badCommit := p.Commitment
	badCommit[0] ^= 0xff
	if err := chain.VerifyAccountProof(badCommit, p); err == nil {
		t.Fatal("proof verified against a foreign commitment")
	}
	// Tampered leaf: a different balance claim must break the path.
	tampered := *p
	tampered.Sum++
	if err := chain.VerifyAccountProof(tampered.Commitment, &tampered); err == nil {
		t.Fatal("proof verified with a tampered sum")
	}
	// Tampered preimage: the record no longer digests to the leaf.
	record := append([]byte(nil), p.Account...)
	record[len(record)/2] ^= 0x01
	if err := chain.VerifyAccountRecord(p.Address, record, p.AccountDigest); err == nil {
		t.Fatal("tampered account record re-digested cleanly")
	}

	// Proofs for absent accounts fail loudly.
	if _, err := svc.StateProof(ctx, tinyevm.Address{0xde, 0xad}); err == nil {
		t.Fatal("proof produced for a nonexistent account")
	}
}
