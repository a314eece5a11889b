package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tinyevm/internal/rpc"
)

// clients is the number of client goroutines (nproc on the reference
// machine).
const clients = 2

// payChan is one open channel of a vehicle→meter pair, with the ids
// each side knows it by and the payments acknowledged on it.
type payChan struct {
	vehicle, meter string
	vid, mid       uint64
	acked          uint64
	pays           uint64
}

// payStep is one planned payment.
type payStep struct {
	ch     *payChan
	amount uint64
}

// openFleet opens chans channels on every vehicle→meter pair over RPC,
// spreading pairs over the client goroutines, and resolves each
// channel's id on the meter's side. Pair p's channels are
// fleet[p*chans : (p+1)*chans].
func openFleet(ctx context.Context, c *client, vehicles, meters []string, chans int) ([]*payChan, error) {
	fleet := make([]*payChan, len(vehicles)*chans)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p := g; p < len(vehicles); p += clients {
				for k := 0; k < chans; k++ {
					ch, err := c.OpenChannel(ctx, vehicles[p], meters[p], chanDeposit, 0)
					if err != nil {
						errs[g] = fmt.Errorf("open %s→%s: %w", vehicles[p], meters[p], err)
						return
					}
					fleet[p*chans+k] = &payChan{vehicle: vehicles[p], meter: meters[p], vid: ch.ID}
				}
				// The meter's side of each channel: matched by opener and
				// wire id.
				theirs, err := c.Channels(ctx, meters[p])
				if err != nil {
					errs[g] = err
					return
				}
				ids := make(map[string]uint64, len(theirs))
				for _, ch := range theirs {
					ids[wireKey(ch)] = ch.ID
				}
				for k := 0; k < chans; k++ {
					pc := fleet[p*chans+k]
					mine, err := c.Channel(ctx, pc.vehicle, pc.vid)
					if err != nil {
						errs[g] = err
						return
					}
					id, ok := ids[wireKey(mine)]
					if !ok {
						errs[g] = fmt.Errorf("channel %s missing on %s", wireKey(mine), pc.meter)
						return
					}
					pc.mid = id
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// wireKey names a channel the same way on both of its sides.
func wireKey(ch rpc.Channel) string { return fmt.Sprintf("%s/%d", ch.Opener, ch.WireID) }

// payPlans draws parts payment sequences from the seed. Sequence g
// pays only on pairs p with p%parts == g, so no two clients share a
// channel and each channel's payments are acknowledged in order.
func payPlans(rng *rand.Rand, fleet []*payChan, chans, parts, steps int) [][]payStep {
	pairs := len(fleet) / chans
	plans := make([][]payStep, parts)
	for g := range plans {
		var mine []int
		for p := g; p < pairs; p += parts {
			mine = append(mine, p)
		}
		for i := 0; i < steps && len(mine) > 0; i++ {
			p := mine[rng.Intn(len(mine))]
			plans[g] = append(plans[g], payStep{fleet[p*chans+rng.Intn(chans)], uint64(1 + rng.Intn(3))})
		}
	}
	return plans
}

// loopResult is one client's tally.
type loopResult struct {
	lat    samples    // an open loop's latencies
	at     []interval // a closed loop's requests, when each ran
	done   [2]int     // completions per window half
	last   time.Time  // the last completion
	failed int
	err    error // the first failure
}

func (r *loopResult) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// pay sends one planned payment and records it on success.
func pay(ctx context.Context, c *client, t *tracer, s payStep) error {
	err := t.call(ctx, "pay", func(ctx context.Context) error {
		_, err := c.Pay(ctx, s.ch.vehicle, s.ch.vid, s.amount)
		return err
	})
	if err == nil {
		s.ch.acked += s.amount
		s.ch.pays++
	}
	return err
}

// closedLoop pays through plan (cycling) until the window closes, one
// request at a time.
func closedLoop(ctx context.Context, c *client, t *tracer, w *window, plan []payStep) loopResult {
	var r loopResult
	for i := 0; w.open(); i++ {
		start := time.Now()
		if err := pay(ctx, c, t, plan[i%len(plan)]); err != nil {
			r.fail(err)
			continue
		}
		end := time.Now()
		r.at = append(r.at, interval{start, end})
		r.done[w.half(end)]++
		r.last = end
	}
	return r
}

// verifyChannels checks that both sides of every paid channel hold the
// acknowledged sequence number and cumulative amount.
func verifyChannels(ctx context.Context, c *client, fleet []*payChan, o *outcome) error {
	for _, pc := range fleet {
		if pc.pays == 0 {
			continue
		}
		for _, side := range []struct {
			node string
			id   uint64
		}{{pc.vehicle, pc.vid}, {pc.meter, pc.mid}} {
			ch, err := c.Channel(ctx, side.node, side.id)
			if err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			o.check(ch.Cumulative == pc.acked && ch.Seq == pc.pays,
				"%s channel %d: cumulative %d seq %d, acknowledged %d over %d payments",
				side.node, side.id, ch.Cumulative, ch.Seq, pc.acked, pc.pays)
		}
	}
	return nil
}

type payEnv struct {
	d     *deployment
	fleet []*payChan
}

// runPay is the off-chain hot path: two closed-loop clients, one
// payment per RPC, over a pre-opened fleet of disjoint vehicle→meter
// pairs. No block is sealed.
func runPay(ctx context.Context, cfg config, t *tracer) (*outcome, error) {
	sz := cfg.size
	o := &outcome{}
	vehicles, meters := names("veh", sz.payPairs), names("meter", sz.payPairs)
	env, err := setupRepeated(cfg, o, func(dir string) (*payEnv, closer, error) {
		d, err := openDeployment(ctx, dir, t)
		if err != nil {
			return nil, nil, err
		}
		if err := addNodes(ctx, d.c, append(append([]string{}, vehicles...), meters...)); err != nil {
			d.close()
			return nil, nil, err
		}
		fleet, err := openFleet(ctx, d.c, vehicles, meters, sz.payChans)
		if err != nil {
			d.close()
			return nil, nil, err
		}
		return &payEnv{d, fleet}, d, nil
	})
	if err != nil {
		return nil, err
	}
	d := env.d
	defer d.close()

	var cal calibration
	if t != nil {
		if cal, err = calibrate(ctx, d, vehicles[0]); err != nil {
			return nil, err
		}
	}
	plans := payPlans(rand.New(rand.NewSource(cfg.seed)), env.fleet, sz.payChans, clients, 4096)
	tw := traceWatch{}
	if err := tw.begin(ctx, d, t); err != nil {
		return nil, err
	}

	w := openWindow(cfg.window, t)
	results := make([]loopResult, clients)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = closedLoop(ctx, d.c, t, w, plans[g])
		}(g)
	}
	wg.Wait()
	spans, err := w.finish(t, o)
	if err != nil {
		return nil, err
	}

	var done [2]int
	var last time.Time
	for _, r := range results {
		if r.last.After(last) {
			last = r.last
		}
		o.op = append(o.op, r.at...)
		done[0] += r.done[0]
		done[1] += r.done[1]
		o.failed += r.failed
		o.check(r.err == nil, "payment failed: %v", r.err)
	}
	lat := durations(o.op, nil)
	o.attempted = len(lat) + o.failed
	o.opsPerS = rate(len(lat), w.start, last)
	o.rateOver = []interval{{w.start, last}}
	o.add("pay_per_s", "1/s", o.opsPerS, len(lat))
	o.latency("pay", lat)
	if err := verifyChannels(ctx, d.c, env.fleet, o); err != nil {
		return nil, err
	}

	if t != nil {
		in := layerInput{spans: spans, ops: float64(done[1]), cal: cal, pays: float64(done[1])}
		in.untracedRate, in.tracedRate = w.rates(done)
		if err := tw.end(ctx, d, &in, vehicles[0]); err != nil {
			return nil, err
		}
		o.layers = layers(in)
		o.named = append(o.named, breakdown(spans, in.ops)...)
		return o, dumpSpans(cfg, spans)
	}
	return o, nil
}
