package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tinyevm"
)

// lifecyclePays is the number of payments in one channel lifecycle.
const lifecyclePays = 4

// lifecycle is one channel's trip through the paper's protocol: open,
// off-chain payments, cooperative close, commit on chain.
type lifecycle struct {
	car        string
	wire       uint64 // the channel id the template records
	cumulative uint64
	block      uint64 // the block the commit sealed
	close      time.Duration
	commit     interval
}

// runLifecycle drives one lifecycle from car to the provider over RPC,
// checking what each step returns.
func runLifecycle(ctx context.Context, c *client, t *tracer, car string, amounts []uint64, o *outcome) (lifecycle, error) {
	lc := lifecycle{car: car}
	var id uint64
	err := t.call(ctx, "openChannel", func(ctx context.Context) error {
		ch, err := c.OpenChannel(ctx, car, providerName, chanDeposit, 0)
		id, lc.wire = ch.ID, ch.WireID
		return err
	})
	if err != nil {
		return lc, err
	}
	for _, a := range amounts {
		if err := t.call(ctx, "pay", func(ctx context.Context) error {
			_, err := c.Pay(ctx, car, id, a)
			return err
		}); err != nil {
			return lc, err
		}
		lc.cumulative += a
	}
	start := time.Now()
	err = t.call(ctx, "closeChannel", func(ctx context.Context) error {
		fs, err := c.CloseChannel(ctx, car, id)
		if err == nil {
			o.check(fs.Signed && fs.Seq == uint64(len(amounts)) && fs.Cumulative == lc.cumulative,
				"%s channel %d closed at seq %d cumulative %d signed %v, paid %d over %d payments",
				car, id, fs.Seq, fs.Cumulative, fs.Signed, lc.cumulative, len(amounts))
		}
		return err
	})
	lc.close = time.Since(start)
	if err != nil {
		return lc, err
	}
	start = time.Now()
	err = t.call(ctx, "commit", func(ctx context.Context) error {
		r, err := c.Commit(ctx, car, id)
		if err == nil && !r.Status {
			err = fmt.Errorf("commit %s channel %d: receipt failed: %s", car, id, r.Error)
		}
		lc.block = r.Block
		return err
	})
	lc.commit = since(start)
	return lc, err
}

// checkCommitted compares each committed lifecycle with the template's
// on-chain record. The clients must have stopped.
func checkCommitted(ctx context.Context, svc *tinyevm.Service, lcs []lifecycle, o *outcome) {
	tpl := svc.System().Template
	for _, lc := range lcs {
		n, ok := svc.Node(lc.car)
		if !ok {
			o.check(false, "unknown car %s", lc.car)
			continue
		}
		cm, ok := tpl.CommittedBy(n.Address(), lc.wire)
		o.check(ok && cm.State.Seq == lifecyclePays && cm.State.Cumulative == lc.cumulative && cm.Block == lc.block,
			"%s channel %d: on-chain commit %+v, want seq %d cumulative %d in block %d",
			lc.car, lc.wire, cm, lifecyclePays, lc.cumulative, lc.block)
	}
}

// lifecyclePlan draws the payment amounts of n lifecycles.
func lifecyclePlan(rng *rand.Rand, n int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, lifecyclePays)
		for j := range out[i] {
			out[i][j] = uint64(1 + rng.Intn(3))
		}
	}
	return out
}

// openLoop sends plan's payments on a fixed schedule of perSecond
// from the window's start, timing each from when it was due. late
// collects how far behind schedule each request was sent.
func openLoop(ctx context.Context, c *client, t *tracer, w *window, plan []payStep, perSecond float64) (r loopResult, late samples) {
	for i := 0; ; i++ {
		due := w.start.Add(time.Duration(float64(i) / perSecond * float64(time.Second)))
		if !due.Before(w.end) {
			return r, late
		}
		time.Sleep(time.Until(due))
		late.add(time.Since(due))
		if err := pay(ctx, c, t, plan[i%len(plan)]); err != nil {
			r.fail(err)
			continue
		}
		end := time.Now()
		r.lat.add(end.Sub(due))
		r.done[w.half(end)]++
	}
}

// mineTo seals empty blocks until the head is lead blocks short of the
// next checkpoint, so every window starts at the same distance from one.
func mineTo(ctx context.Context, svc *tinyevm.Service, lead uint64) error {
	for {
		head, err := svc.HeadBlock(ctx)
		if err != nil {
			return err
		}
		if (head+lead)%ckptInterval == 0 {
			return nil
		}
		if err := svc.MineBlock(ctx); err != nil {
			return err
		}
	}
}

// settleLead is how many seals into the window the first checkpoint
// falls.
const settleLead = 4

type settleEnv struct {
	d     *deployment
	cars  []string
	fleet []*payChan
}

// buildSettle opens a deployment with lifecycle cars that have locked
// deposits in the template, and a side fleet of vehicle→meter channels.
func buildSettle(ctx context.Context, dir string, t *tracer, sz sizes) (*settleEnv, error) {
	d, err := openDeployment(ctx, dir, t)
	if err != nil {
		return nil, err
	}
	env := &settleEnv{d: d, cars: names("car", sz.settleVehicles)}
	vehicles, meters := names("veh", sz.sidePairs), names("meter", sz.sidePairs)
	err = addNodes(ctx, d.c, append(append(append([]string{}, env.cars...), vehicles...), meters...))
	if err == nil {
		err = deposit(ctx, d.c, env.cars)
	}
	if err == nil {
		env.fleet, err = openFleet(ctx, d.c, vehicles, meters, sideChans)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return env, nil
}

// sideChans is the channel count of each side-payment pair.
const sideChans = 4

// runSettle is the seal path: one client loops the channel lifecycle,
// each commit sealing a block; the other pays open-loop on disjoint
// channels beside the commits' exclusive lock.
func runSettle(ctx context.Context, cfg config, t *tracer) (*outcome, error) {
	sz := cfg.size
	o := &outcome{}
	env, err := setupRepeated(cfg, o, func(dir string) (*settleEnv, closer, error) {
		env, err := buildSettle(ctx, dir, t, sz)
		if err != nil {
			return nil, nil, err
		}
		if err := mineTo(ctx, env.d.svc, settleLead); err != nil {
			env.d.close()
			return nil, nil, err
		}
		return env, env.d, nil
	})
	if err != nil {
		return nil, err
	}
	d := env.d
	defer d.close()

	var cal calibration
	if t != nil {
		if cal, err = calibrate(ctx, d, env.cars[0]); err != nil {
			return nil, err
		}
		if err := mineTo(ctx, d.svc, settleLead); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	amounts := lifecyclePlan(rng, 4096)
	side := payPlans(rng, env.fleet, sideChans, 1, 4096)[0]
	st0, _, err := d.svc.StoreStatus(ctx)
	if err != nil {
		return nil, err
	}
	tw := traceWatch{}
	if err := tw.begin(ctx, d, t); err != nil {
		return nil, err
	}

	w := openWindow(cfg.window, t)
	var (
		lcs      []lifecycle
		lcDone   [2]int
		lcFailed int
		lcErr    error
		sideRes  loopResult
		late     samples
		last     time.Time
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sideRes, late = openLoop(ctx, d.c, t, w, side, sz.sideRate)
	}()
	for i := 0; w.open(); i++ {
		lc, err := runLifecycle(ctx, d.c, t, env.cars[i%len(env.cars)], amounts[i%len(amounts)], o)
		if err != nil {
			lcFailed++
			lcErr = errors.Join(lcErr, err)
			continue
		}
		lcs = append(lcs, lc)
		last = time.Now()
		lcDone[w.half(last)]++
	}
	wg.Wait()
	spans, err := w.finish(t, o)
	if err != nil {
		return nil, err
	}

	var commits, closes samples
	for _, lc := range lcs {
		commits.add(lc.commit.d())
		o.op = append(o.op, lc.commit)
		closes.add(lc.close)
	}
	o.failed = lcFailed + sideRes.failed
	o.attempted = len(lcs) + lcFailed + len(sideRes.lat) + sideRes.failed
	o.check(lcErr == nil, "lifecycle failed: %v", lcErr)
	o.check(sideRes.err == nil, "side payment failed: %v", sideRes.err)
	o.opsPerS = rate(len(lcs), w.start, last)
	o.rateOver = []interval{{w.start, last}}
	o.add("settle_per_s", "1/s", o.opsPerS, len(lcs))
	o.latency("commit", commits)
	o.add("close_p50_ms", "ms", closes.quantile(0.5), len(closes))
	o.latency("pay", sideRes.lat)
	o.add("pay_generator_late_ms", "ms", late.mean(), len(late))
	st1, _, err := d.svc.StoreStatus(ctx)
	if err != nil {
		return nil, err
	}
	o.add("checkpoints", "count", float64(st1.CheckpointHeight-st0.CheckpointHeight)/ckptInterval, 0)
	o.add("store_flushes", "count", float64(st1.Flushes-st0.Flushes), 0)

	if err := verifyChannels(ctx, d.c, env.fleet, o); err != nil {
		return nil, err
	}
	checkCommitted(ctx, d.svc, lcs, o)

	if t != nil {
		in := layerInput{spans: spans, ops: float64(lcDone[1]), cal: cal}
		in.pays = float64(lcDone[1]*lifecyclePays + sideRes.done[1])
		in.closes = float64(lcDone[1])
		in.untracedRate, in.tracedRate = w.rates(lcDone)
		if err := tw.end(ctx, d, &in, env.cars[0]); err != nil {
			return nil, err
		}
		o.layers = layers(in)
		o.named = append(o.named, breakdown(spans, in.ops)...)
		return o, dumpSpans(cfg, spans)
	}
	return o, nil
}
