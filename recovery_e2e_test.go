package tinyevm_test

// Crash-recovery end-to-end test: a real tinyevm-serve process with
// -data-dir (the disk store) is SIGKILLed mid-workload (between block seals, with
// payments in flight), restarted, and must come back with every
// acknowledged operation intact. A second SIGKILL/restart cycle then
// proves recovery is deterministic: two recoveries of the same log
// observe byte-identical head blocks, balances and channel states.
//
// Run directly with:
//
//	go test -race -run TestCrashRecoveryE2E .
//
// (also wired into CI and `make recover-e2e`).

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tinyevm/internal/rpc"
)

func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crashes a child process; skipped in -short")
	}

	bin := filepath.Join(t.TempDir(), "tinyevm-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/tinyevm-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tinyevm-serve: %v\n%s", err, out)
	}

	dataDir := t.TempDir()
	addr := freeAddr(t)
	url := "http://" + addr
	client := rpc.NewClient(url, nil)
	ctx := context.Background()

	var proc *exec.Cmd
	start := func() {
		t.Helper()
		proc = exec.Command(bin, "-addr", addr, "-provider", "lot", "-data-dir", dataDir)
		proc.Stderr = os.Stderr
		if err := proc.Start(); err != nil {
			t.Fatal(err)
		}
		waitReady(t, client)
	}
	kill := func() {
		t.Helper()
		if err := proc.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
			t.Fatal(err)
		}
		proc.Wait()
	}
	t.Cleanup(func() {
		if proc != nil && proc.ProcessState == nil {
			proc.Process.Kill()
			proc.Wait()
		}
	})

	// --- phase 1: build acknowledged baseline state -------------------
	start()
	if _, err := client.AddNode(ctx, "car"); err != nil {
		t.Fatal(err)
	}
	ch, err := client.OpenChannel(ctx, "car", "lot", 50_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ackedCum := uint64(0)
	for i := 0; i < 5; i++ {
		if _, err := client.Pay(ctx, "car", ch.ID, 100); err != nil {
			t.Fatal(err)
		}
		ackedCum += 100
	}
	if _, err := client.Deposit(ctx, "car", 10_000); err != nil { // seals a block
		t.Fatal(err)
	}
	ackedHead, err := client.Head(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ackedHead == 0 {
		t.Fatal("no block sealed in phase 1")
	}

	// --- phase 2: crash with operations in flight ---------------------
	// A background client hammers payments and block-sealing deposits;
	// the process is SIGKILLed mid-stream, so the kill lands between
	// block seals with un-acked operations outstanding.
	var (
		mu           sync.Mutex
		attemptedCum = ackedCum
		done         = make(chan struct{})
	)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			mu.Lock()
			attemptedCum += 7
			mu.Unlock()
			if _, err := client.Pay(ctx, "car", ch.ID, 7); err != nil {
				return // the process died under us
			}
			mu.Lock()
			ackedCum += 7
			mu.Unlock()
			if i%5 == 4 {
				if _, err := client.Deposit(ctx, "car", 50); err != nil {
					return
				}
			}
		}
	}()
	time.Sleep(250 * time.Millisecond)
	kill()
	<-done
	mu.Lock()
	lowCum, highCum := ackedCum, attemptedCum
	mu.Unlock()

	// --- phase 3: recover and verify the durability contract ----------
	start()
	if st, err := client.StoreStatus(ctx); err != nil || st.Kind != "disk" {
		t.Fatalf("recovered daemon store status %+v, %v; want the disk store", st, err)
	}
	head, err := client.Head(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if head < ackedHead {
		t.Fatalf("recovered head %d below acknowledged head %d", head, ackedHead)
	}
	carChans, err := client.Channels(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	if len(carChans) != 1 {
		t.Fatalf("car channels after crash: %d", len(carChans))
	}
	gotCum := carChans[0].Cumulative
	if gotCum < lowCum || gotCum > highCum {
		t.Fatalf("recovered cumulative %d outside acked..attempted window [%d, %d]", gotCum, lowCum, highCum)
	}
	// The receiver side must agree with the payer side exactly.
	lotChans, err := client.Channels(ctx, "lot")
	if err != nil {
		t.Fatal(err)
	}
	if len(lotChans) != 1 || lotChans[0].Cumulative != gotCum {
		t.Fatalf("lot mirror diverged: %+v vs cumulative %d", lotChans, gotCum)
	}

	snapA := e2eSnapshot(t, client)

	// --- phase 4: crash again; two recoveries must be identical -------
	kill()
	start()
	snapB := e2eSnapshot(t, client)
	if snapA != snapB {
		t.Fatalf("recovery is not deterministic:\n first  %+v\n second %+v", snapA, snapB)
	}

	// The recovered deployment stays live: one more payment and seal.
	if _, err := client.Pay(ctx, "car", ch.ID, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deposit(ctx, "car", 25); err != nil {
		t.Fatal(err)
	}
	kill()
}

// e2eSnapshot captures the externally observable deployment state over
// RPC, as a comparable value.
func e2eSnapshot(t *testing.T, client *rpc.Client) string {
	t.Helper()
	ctx := context.Background()
	head, err := client.Head(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := client.Provider(ctx)
	if err != nil {
		t.Fatal(err)
	}
	provBal, err := client.Balance(ctx, prov.Address)
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("head=%d provider=%s bal=%d", head, prov.Address, provBal)
	for _, node := range []string{"car", "lot"} {
		chans, err := client.Channels(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chans {
			out += fmt.Sprintf(" %s[id=%d wire=%d dep=%d seq=%d cum=%d closed=%v]",
				node, c.ID, c.WireID, c.Deposit, c.Seq, c.Cumulative, c.Closed)
		}
	}
	return out
}

// freeAddr reserves a localhost port for the child process.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitReady polls the daemon until it answers RPC.
func waitReady(t *testing.T, client *rpc.Client) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := client.Head(ctx)
		cancel()
		if err == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("tinyevm-serve did not become ready")
}
