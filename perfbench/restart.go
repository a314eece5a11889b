package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tinyevm/internal/rpc"
)

// restartCkpts is how many checkpoints the history holds.
const restartCkpts = 3

// settleOpsPerBlock is how many journal ops the settle mix writes per
// sealed block: a cold start after 15 s settle windows on the reference
// machine replayed 564 ops over 50 blocks past the last checkpoint, and
// 616 over 56. The history's tail is that traffic over half a
// checkpoint interval, the mean distance from a checkpoint of a restart
// at a random moment.
const settleOpsPerBlock = 11

// sideState is one side of a channel as read before shutdown.
type sideState struct {
	node       string
	id         uint64
	seq, cumul uint64
}

// snapshot is what a restart must reproduce.
type snapshot struct {
	status rpc.NodeStatus
	sides  []sideState
}

func takeSnapshot(ctx context.Context, c *client, sample []*payChan) (snapshot, error) {
	var s snapshot
	var err error
	if s.status, err = c.NodeStatus(ctx); err != nil {
		return s, err
	}
	for _, pc := range sample {
		for _, side := range []sideState{{node: pc.vehicle, id: pc.vid}, {node: pc.meter, id: pc.mid}} {
			ch, err := c.Channel(ctx, side.node, side.id)
			if err != nil {
				return s, err
			}
			side.seq, side.cumul = ch.Seq, ch.Cumulative
			s.sides = append(s.sides, side)
		}
	}
	return s, nil
}

// compare checks a recovered deployment against the snapshot.
func (s snapshot) compare(ctx context.Context, c *client, st rpc.NodeStatus, o *outcome) error {
	o.check(st.Height == s.status.Height && st.Head == s.status.Head && st.StateRoot == s.status.StateRoot,
		"recovered head %d %s root %s, before shutdown %d %s root %s",
		st.Height, st.Head, st.StateRoot, s.status.Height, s.status.Head, s.status.StateRoot)
	for _, want := range s.sides {
		ch, err := c.Channel(ctx, want.node, want.id)
		if err != nil {
			return err
		}
		o.check(ch.Seq == want.seq && ch.Cumulative == want.cumul,
			"recovered %s channel %d at seq %d cumulative %d, before shutdown %d %d",
			want.node, want.id, ch.Seq, ch.Cumulative, want.seq, want.cumul)
	}
	return nil
}

type restartEnv struct {
	dir  string
	car  string
	snap snapshot
	cal  calibration
}

// buildHistory writes a durable history into dir and shuts it down:
// lifecycles and empty seals past restartCkpts checkpoints, then a tail
// of payments after the last one, which recovery has to replay.
func buildHistory(ctx context.Context, dir string, t *tracer, sz sizes, rng *rand.Rand, calibrated bool) (*restartEnv, closer, error) {
	env, err := buildSettle(ctx, dir, t, sz)
	if err != nil {
		return nil, nil, err
	}
	d := env.d
	r := &restartEnv{dir: dir, car: env.cars[0]}
	fail := func(err error) (*restartEnv, closer, error) {
		d.close()
		return nil, nil, err
	}
	for i, amounts := range lifecyclePlan(rng, sz.restartRounds) {
		if _, err := runLifecycle(ctx, d.c, nil, env.cars[i%len(env.cars)], amounts, &outcome{}); err != nil {
			return fail(err)
		}
	}
	if calibrated {
		if r.cal, err = calibrate(ctx, d, env.cars[0]); err != nil {
			return fail(err)
		}
	}
	for {
		st, _, err := d.svc.StoreStatus(ctx)
		if err != nil {
			return fail(err)
		}
		if st.CheckpointHeight >= restartCkpts*ckptInterval {
			break
		}
		if err := d.svc.MineBlock(ctx); err != nil {
			return fail(err)
		}
	}
	if err := payAll(ctx, d.c, payPlans(rng, env.fleet, sideChans, clients, sz.restartTail/clients)); err != nil {
		return fail(err)
	}
	sample := make([]*payChan, sz.restartSample)
	for i := range sample {
		sample[i] = env.fleet[rng.Intn(len(env.fleet))]
	}
	if r.snap, err = takeSnapshot(ctx, d.c, sample); err != nil {
		return fail(err)
	}
	return r, d, d.close()
}

// payAll sends each plan from its own goroutine.
func payAll(ctx context.Context, c *client, plans [][]payStep) error {
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for g, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range plan {
				if errs[g] = pay(ctx, c, nil, s); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runRestart is the recovery path: cold starts over copies of a data
// directory holding several checkpoints and a payment-only tail, each
// timed from NewService to the first served RPC.
func runRestart(ctx context.Context, cfg config, t *tracer) (*outcome, error) {
	sz := cfg.size
	o := &outcome{}
	env, err := setupRepeated(cfg, o, func(dir string) (*restartEnv, closer, error) {
		return buildHistory(ctx, dir, t, sz, rand.New(rand.NewSource(cfg.seed)), t != nil)
	})
	if err != nil {
		return nil, err
	}

	var (
		in       layerInput
		at       []interval       // when each restart ran
		done     [2]int           // restarts begun in each half
		spent    [2]time.Duration // and their time
		lastTail int
	)
	in.cal = env.cal
	// restart opens a fresh copy of the history and serves its first
	// RPC; the caller closes the deployment.
	restart := func(i int) (*deployment, interval, rpc.NodeStatus, error) {
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("restart-%d", i))
		if err := copyDir(env.dir, dir); err != nil {
			return nil, interval{}, rpc.NodeStatus{}, err
		}
		// A real restart is a new process: start from a collected heap.
		runtime.GC()
		start := time.Now()
		var d *deployment
		err := t.root("restart", func() error {
			var err error
			d, err = openDeployment(ctx, dir, t)
			return err
		})
		if err != nil {
			return nil, interval{}, rpc.NodeStatus{}, err
		}
		var st rpc.NodeStatus
		err = t.call(ctx, "nodeStatus", func(ctx context.Context) error {
			st, err = d.c.NodeStatus(ctx)
			return err
		})
		took := since(start)
		if err != nil {
			d.close()
			return nil, took, st, err
		}
		return d, took, st, nil
	}

	w := openWindow(cfg.window, t)
	w.manual()
	for i := 0; w.open(); i++ {
		h := w.step(t)
		d, took, st, err := restart(i)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		at = append(at, took)
		done[h]++
		spent[h] += took.d()
		ri := d.svc.RecoveryInfo()
		lastTail = ri.ReplayedOps
		o.check(ri.CheckpointHeight >= restartCkpts*ckptInterval && ri.ReplayedOps >= sz.restartTail,
			"restart %d recovered from checkpoint %d replaying %d ops", i, ri.CheckpointHeight, ri.ReplayedOps)
		err = env.snap.compare(ctx, d.c, st, o)
		if err == nil && t.on() {
			in.recoveries = append(in.recoveries, ri)
			var sigops float64
			sigops, err = cryptoSigops(ctx, d.svc.Nodes())
			in.replaySigops += sigops
		}
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		os.RemoveAll(d.dir) // only frees space; a leftover is harmless
	}
	spans, err := w.finish(t, o)
	if err != nil {
		return nil, err
	}

	times := durations(at, nil)
	o.attempted = len(times)
	o.op = at
	o.rateOver = at
	o.opsPerS = float64(len(times)) / (spent[0] + spent[1]).Seconds()
	o.add("restart_s", "s", times.quantile(0.5)/1e3, len(times))
	o.add("recovery_tail_ops", "count", float64(lastTail), 0)

	if t != nil {
		in.spans = spans
		in.ops = float64(done[1])
		// Restarts per second of restart time in each half, as ops_per_s.
		in.untracedRate = float64(done[0]) / spent[0].Seconds()
		in.tracedRate = float64(done[1]) / spent[1].Seconds()
		if err := restartProbes(ctx, cfg, t, env, &in); err != nil {
			return nil, err
		}
		o.layers = layers(in)
		o.named = append(o.named, breakdown(spans, in.ops)...)
		return o, dumpSpans(cfg, spans)
	}
	return o, nil
}

// restartProbes runs the calibration probes on one more recovered copy
// and measures the history's on-disk footprint.
func restartProbes(ctx context.Context, cfg config, t *tracer, env *restartEnv, in *layerInput) error {
	dir := filepath.Join(cfg.workdir, "probe")
	if err := copyDir(env.dir, dir); err != nil {
		return err
	}
	d, err := openDeployment(ctx, dir, t)
	if err != nil {
		return err
	}
	in.diskBytes = float64(dirBytes(env.dir))
	if in.bytes, err = liveBytes(d.kv); err == nil {
		accounts := len(d.svc.System().Chain.State().Addresses())
		in.probes, err = runProbes(env.car, accounts, emptySeal(ctx, d.svc))
	}
	if cerr := d.close(); err == nil {
		err = cerr
	}
	return err
}
