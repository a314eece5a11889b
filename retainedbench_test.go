package tinyevm_test

// BenchmarkRetainedPerOp measures memory that stays live per operation
// on a deployment composed like tinyevm-serve -data-dir (disk store,
// MST state commitment, a checkpoint every 64 blocks): the heap growth
// across a fixed operation count, after a full GC, divided by that
// count. A faster payment path retains more history in the same
// wall-clock window, so this is what a throughput gain multiplies into
// resident memory (docs/STORAGE.md, "Memory that grows with history").
//
//	go test -run '^$' -bench BenchmarkRetainedPerOp -benchtime 1x .
//
// pay reports retained-B/pay; lifecycle (open, 4 payments, close,
// commit) reports retained-B/lifecycle and ckpt-B/lifecycle, the growth
// of the full-state checkpoint record per lifecycle.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tinyevm"
	"tinyevm/internal/store/disk"
)

const (
	retainedCkptInterval = 64
	retainedPays         = 1024
	retainedChannels     = 16
	// Every lifecycle seals one block (its commit), so the window spans
	// exactly two checkpoints.
	retainedLifecycles = 2 * retainedCkptInterval
)

// liveHeap returns the live heap after a full collection.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// retainedRun opens a durable deployment with four funded cars, lets
// setup prepare it, and returns the live-heap growth across op.
func retainedRun(b *testing.B, setup func(*tinyevm.Service, *tinyevm.ServiceNode, []*tinyevm.ServiceNode, *disk.DB) func()) float64 {
	b.StopTimer()
	ctx := context.Background()
	db, err := disk.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	svc, hub, err := tinyevm.NewService("hub", tinyevm.WithChallengePeriod(10),
		tinyevm.WithStore(db), tinyevm.WithCheckpointInterval(retainedCkptInterval))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	defer svc.Close()
	check(b, hub.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150))
	var cars []*tinyevm.ServiceNode
	for i := 0; i < 4; i++ {
		car, err := svc.AddNode(ctx, fmt.Sprintf("car-%d", i))
		check(b, err)
		check(b, car.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150))
		_, err = car.Deposit(ctx, 10_000_000)
		check(b, err)
		cars = append(cars, car)
	}
	op := setup(svc, hub, cars, db)
	before := liveHeap()
	b.StartTimer()
	op()
	b.StopTimer()
	return liveHeap() - before
}

func check(b *testing.B, err error) {
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRetainedPerOp(b *testing.B) {
	ctx := context.Background()
	b.Run("pay", func(b *testing.B) {
		var retained float64
		for i := 0; i < b.N; i++ {
			retained += retainedRun(b, func(_ *tinyevm.Service, hub *tinyevm.ServiceNode, cars []*tinyevm.ServiceNode, _ *disk.DB) func() {
				var chans []uint64
				for j := 0; j < retainedChannels; j++ {
					cs, err := cars[j%len(cars)].OpenChannel(ctx, hub.Address(), 1_000_000, 0)
					check(b, err)
					chans = append(chans, cs.ID)
				}
				return func() {
					for j := 0; j < retainedPays; j++ {
						_, err := cars[j%len(cars)].Pay(ctx, chans[j%retainedChannels], 1)
						check(b, err)
					}
				}
			})
		}
		b.ReportMetric(retained/float64(b.N)/retainedPays, "retained-B/pay")
	})

	b.Run("lifecycle", func(b *testing.B) {
		var retained, ckptGrowth float64
		for i := 0; i < b.N; i++ {
			retained += retainedRun(b, func(svc *tinyevm.Service, hub *tinyevm.ServiceNode, cars []*tinyevm.ServiceNode, db *disk.DB) func() {
				// Start on a checkpoint so the lifecycles fill the next two.
				for head := uint64(1); head%retainedCkptInterval != 0; {
					check(b, svc.MineBlock(ctx))
					head, _ = svc.HeadBlock(ctx)
				}
				return func() {
					var sizes []int
					for j := 0; j < retainedLifecycles; j++ {
						car := cars[j%len(cars)]
						cs, err := car.OpenChannel(ctx, hub.Address(), 1_000, 0)
						check(b, err)
						for p := 0; p < 4; p++ {
							_, err := car.Pay(ctx, cs.ID, 3)
							check(b, err)
						}
						fs, err := car.Close(ctx, cs.ID)
						check(b, err)
						if r, err := car.Commit(ctx, fs); err != nil || !r.Status {
							b.Fatalf("commit: %v %+v", err, r)
						}
						if head, _ := svc.HeadBlock(ctx); head%retainedCkptInterval == 0 {
							b.StopTimer()
							sizes = append(sizes, checkpointSize(b, svc, db))
							b.StartTimer()
						}
					}
					if len(sizes) != 2 {
						b.Fatalf("window wrote %d checkpoints, want 2", len(sizes))
					}
					ckptGrowth += float64(sizes[1]-sizes[0]) / retainedCkptInterval
				}
			})
		}
		b.ReportMetric(retained/float64(b.N)/retainedLifecycles, "retained-B/lifecycle")
		b.ReportMetric(ckptGrowth/float64(b.N), "ckpt-B/lifecycle")
	})
}

// checkpointSize waits for the seal pipeline to commit the checkpoint
// batch just queued and returns the checkpoint record's size.
func checkpointSize(b *testing.B, svc *tinyevm.Service, db *disk.DB) int {
	for st, err := svc.NodeStatus(context.Background()); st.PipelineDepth > 0; st, err = svc.NodeStatus(context.Background()) {
		if err != nil {
			b.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	v, _, err := db.Get([]byte("ckpt/state"))
	if err != nil {
		b.Fatal(err)
	}
	return len(v)
}
