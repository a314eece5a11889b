package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"tinyevm"
	"tinyevm/internal/p2p"
	"tinyevm/internal/rpc"
	"tinyevm/internal/store/disk"
)

// validators is the cluster size.
const validators = 3

// replicaCars is the committing cars per validator.
const replicaCars = 2

// lagTimeout bounds the wait for a commit to reach every replica.
const lagTimeout = 10 * time.Second

// freeAddrs reserves n loopback TCP addresses.
func freeAddrs(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		out[i] = l.Addr().String()
		if err := l.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cluster is validators services forming one sidechain over loopback
// TCP, each with a disk block archive and its own HTTP gateway.
type cluster struct {
	dir   string
	nodes []*deployment
	// pools[i] are channels pre-closed on validator i, keyed by car.
	pools [][]pooled
	// subs[i] is an event subscription on validator i's watcher node,
	// which owns no channel and so sees only broadcast events; sealed[i]
	// is the highest block-sealed event read from it.
	subs   []string
	sealed []uint64
}

// watcher is the node whose subscription reports sealed blocks.
const watcher = "watch"

type pooled struct {
	car string
	id  uint64
}

func (cl *cluster) close() error {
	var errs []error
	for _, d := range cl.nodes {
		errs = append(errs, d.close())
	}
	return errors.Join(errs...)
}

// openCluster starts the validators and waits until they are meshed.
func openCluster(ctx context.Context, dir string, t *tracer) (*cluster, error) {
	addrs, err := freeAddrs(validators)
	if err != nil {
		return nil, err
	}
	seeds := names("validator", validators)
	cl := &cluster{dir: dir}
	for i := 0; i < validators; i++ {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		d, err := openValidator(ctx, filepath.Join(dir, seeds[i]), t, tinyevm.ClusterConfig{
			Listen:     addrs[i],
			Peers:      peers,
			NodeKey:    seeds[i],
			Validators: seeds,
		})
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.nodes = append(cl.nodes, d)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, d := range cl.nodes {
		for {
			st, err := d.c.NodeStatus(ctx)
			if err == nil && st.Peers >= validators-1 && st.Role != "syncing" {
				break
			}
			if time.Now().After(deadline) {
				cl.close()
				return nil, fmt.Errorf("cluster did not mesh: %+v %v", st, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return cl, nil
}

// openValidator opens one cluster member. Its block archive is a disk
// store (timed under a tracer) and, under a tracer, its p2p transport
// counts what it sends.
func openValidator(ctx context.Context, dir string, t *tracer, cc tinyevm.ClusterConfig) (*deployment, error) {
	db, err := disk.Open(filepath.Join(dir, "archive"))
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, kv: db}
	if t != nil {
		d.kv = &timedStore{kv: db, t: t}
		cc.Transport = &countingTransport{inner: &p2p.TCP{}, t: t}
	}
	cc.Store = d.kv
	svc, prov, err := tinyevm.NewService(providerName, append(serviceOptions(), tinyevm.WithCluster(cc))...)
	if err != nil {
		d.close()
		return nil, err
	}
	d.svc, d.prov = svc, prov
	if err := prov.RegisterSensorValue(ctx, tinyevm.SensorTemperature, rpc.DefaultSensorValue); err != nil {
		d.close()
		return nil, err
	}
	var h http.Handler = rpc.NewServer(svc)
	if t != nil {
		h = t.handler(h)
	}
	if d.srv, err = serve(h); err != nil {
		d.close()
		return nil, err
	}
	d.c = newClient(d.srv.url, t)
	return d, nil
}

// leader finds the validator scheduled to seal the next block, asking
// the expected one first.
func (cl *cluster) leader(ctx context.Context, t *tracer, guess int) (int, error) {
	for k := 0; k < validators; k++ {
		i := (guess + k) % validators
		var st rpc.NodeStatus
		err := t.call(ctx, "nodeStatus", func(ctx context.Context) error {
			var err error
			st, err = cl.nodes[i].c.NodeStatus(ctx)
			return err
		})
		if err != nil {
			return 0, err
		}
		if st.Role == "leader" {
			return i, nil
		}
	}
	return 0, errors.New("no leader")
}

// landed waits until every validator holds the leader's block at
// height h: it long-polls each follower's subscription until the
// follower reports sealing h, then compares the block hashes.
func (cl *cluster) landed(ctx context.Context, t *tracer, li int, h uint64) error {
	want, err := blockHash(ctx, t, cl.nodes[li].c, h)
	if err != nil {
		return err
	}
	for i, d := range cl.nodes {
		if i == li {
			continue
		}
		for cl.sealed[i] < h {
			var evs []rpc.Event
			err := t.call(ctx, "poll", func(ctx context.Context) error {
				var err error
				evs, _, err = d.c.Poll(ctx, cl.subs[i], 64, int(lagTimeout/time.Millisecond))
				return err
			})
			if err != nil {
				return err
			}
			if len(evs) == 0 {
				return fmt.Errorf("validator %d sealed nothing in %s while below height %d", i, lagTimeout, h)
			}
			for _, e := range evs {
				if e.Type == "block-sealed" {
					cl.sealed[i] = max(cl.sealed[i], e.Block)
				}
			}
		}
		got, err := blockHash(ctx, t, d.c, h)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("validator %d holds %s at height %d, leader %s", i, got, h, want)
		}
	}
	return nil
}

func blockHash(ctx context.Context, t *tracer, c *client, h uint64) (string, error) {
	var hash string
	err := t.call(ctx, "blockHash", func(ctx context.Context) error {
		var err error
		hash, err = c.BlockHash(ctx, h)
		return err
	})
	return hash, err
}

// carsOf names validator v's committing cars.
func carsOf(v int) []string { return names(fmt.Sprintf("car%d", v), replicaCars) }

// buildCluster starts the cluster, registers the same nodes on every
// validator and locks each car's template deposit on chain.
func buildCluster(ctx context.Context, dir string, t *tracer) (*cluster, error) {
	cl, err := openCluster(ctx, dir, t)
	if err != nil {
		return nil, err
	}
	var all []string
	for v := 0; v < validators; v++ {
		all = append(all, carsOf(v)...)
	}
	err = func() error {
		cl.subs, cl.sealed = make([]string, validators), make([]uint64, validators)
		for i, d := range cl.nodes {
			if err := addNodes(ctx, d.c, append(all, watcher)); err != nil {
				return err
			}
			var err error
			if cl.subs[i], err = d.c.Subscribe(ctx, watcher); err != nil {
				return err
			}
		}
		li := 0
		for _, car := range all {
			var err error
			if li, err = cl.leader(ctx, nil, li); err != nil {
				return err
			}
			r, err := cl.nodes[li].c.Deposit(ctx, car, templateDeposit)
			if err != nil || !r.Status {
				return fmt.Errorf("deposit %s: %v %s", car, err, r.Error)
			}
			if err := cl.landed(ctx, nil, li, r.Block); err != nil {
				return err
			}
			li = (li + 1) % validators
		}
		return nil
	}()
	if err != nil {
		cl.close()
		return nil, err
	}
	return cl, nil
}

// preClose fills every validator's pool with pool channels opened and
// closed from that validator's own cars. Validators are independent off
// chain, so two goroutines work in parallel: one takes validator 0 then
// the first half of validator 2, the other the second half of
// validator 2 then validator 1, so they never share a validator.
func (cl *cluster) preClose(ctx context.Context, pool int) error {
	type item struct{ v, k int }
	var plan [clients][]item
	for k := 0; k < pool; k++ {
		plan[0] = append(plan[0], item{0, k})
		plan[1] = append(plan[1], item{1, k})
	}
	var head []item
	for k := 0; k < pool; k++ {
		if k < pool/2 {
			plan[0] = append(plan[0], item{2, k})
		} else {
			head = append(head, item{2, k})
		}
	}
	plan[1] = append(head, plan[1]...)

	got := make([]map[item]pooled, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make(map[item]pooled)
			for _, it := range plan[g] {
				p, err := cl.preCloseOne(ctx, it.v, it.k)
				if err != nil {
					errs[g] = err
					return
				}
				got[g][it] = p
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	cl.pools = make([][]pooled, validators)
	for v := range cl.pools {
		for k := 0; k < pool; k++ {
			for g := range got {
				if p, ok := got[g][item{v, k}]; ok {
					cl.pools[v] = append(cl.pools[v], p)
				}
			}
		}
	}
	return nil
}

// preCloseOne opens and closes the k-th pooled channel of validator v.
func (cl *cluster) preCloseOne(ctx context.Context, v, k int) (pooled, error) {
	car := carsOf(v)[k%replicaCars]
	ch, err := cl.nodes[v].c.OpenChannel(ctx, car, providerName, chanDeposit, 0)
	if err == nil {
		_, err = cl.nodes[v].c.CloseChannel(ctx, car, ch.ID)
	}
	if err != nil {
		return pooled{}, fmt.Errorf("pre-close on validator %d: %w", v, err)
	}
	return pooled{car, ch.ID}, nil
}

// refill gives validator v another n pre-closed channels.
func (cl *cluster) refill(ctx context.Context, v, n int) error {
	for k := 0; k < n; k++ {
		p, err := cl.preCloseOne(ctx, v, k)
		if err != nil {
			return err
		}
		cl.pools[v] = append(cl.pools[v], p)
	}
	return nil
}

// runReplicate is the cluster path: a client commits pre-closed
// channels on whichever validator leads, and waits for each commit's
// block to land on every replica.
func runReplicate(ctx context.Context, cfg config, t *tracer) (*outcome, error) {
	o := &outcome{}
	cl, err := setupRepeated(cfg, o, func(dir string) (*cluster, closer, error) {
		cl, err := buildCluster(ctx, dir, t)
		return cl, cl, err
	})
	if err != nil {
		return nil, err
	}
	defer cl.close()
	// The pool is the bulk of the set-up; it is built once, on the
	// cluster that is kept. The leader rotates every block, so each
	// validator's pool serves a third of the commits. A pool that runs
	// dry in the window is refilled by as much again, and the window is
	// extended by the refill time.
	pool := int(math.Ceil(cfg.window.Seconds() * cfg.size.replicaRate / validators))
	start := time.Now()
	if err := cl.preClose(ctx, pool); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.setupOnce = since(start)

	var in layerInput
	if t != nil {
		var err error
		if in.cal, err = calibrate(ctx, cl.nodes[0], "car0-0"); err != nil {
			return nil, err
		}
	}
	var (
		mu                    sync.Mutex
		poolSizes, pendingOps samples
		heads                 [2]uint64
	)
	var s *sampler
	if t != nil {
		// NodeStatus takes each validator's exclusive lock: sample sparingly.
		s = startSampler(100*time.Millisecond, func() {
			if !t.on() {
				return
			}
			var pool, pending float64
			for _, d := range cl.nodes {
				st, err := d.svc.NodeStatus(ctx)
				if err != nil {
					return
				}
				pool += float64(st.Pool)
				for _, p := range st.PendingOps {
					pending += float64(p)
				}
			}
			mu.Lock()
			poolSizes = append(poolSizes, pool/validators)
			pendingOps = append(pendingOps, pending/validators)
			mu.Unlock()
		})
	}

	var (
		commits   samples
		lagAt     []interval
		done      [2]int
		notLeader int
		failErr   error
		last      time.Time
		refills   int
		refilled  [2]time.Duration // refill time in each half
		guess     int
	)
	w := openWindow(cfg.window, t)
	w.manual()
	for w.open() {
		h := w.step(t) // an op counts in the half it began in
		li, err := cl.leader(ctx, t, guess)
		if err != nil {
			return nil, err
		}
		if len(cl.pools[li]) == 0 {
			began := time.Now()
			if t != nil {
				t.enabled.Store(false)
			}
			if err := cl.refill(ctx, li, pool); err != nil {
				return nil, fmt.Errorf("refill: %w", err)
			}
			took := time.Since(began)
			refills++
			refilled[h] += took
			w.pause(took, h)
			continue
		}
		// The head as each half begins bounds the blocks the traced half
		// sealed.
		if t != nil && heads[h] == 0 {
			if heads[h], err = cl.nodes[li].svc.HeadBlock(ctx); err != nil {
				return nil, err
			}
		}
		p := cl.pools[li][0]
		var r rpc.Receipt
		start := time.Now()
		err = t.call(ctx, "commit", func(ctx context.Context) error {
			var err error
			r, err = cl.nodes[li].c.Commit(ctx, p.car, p.id)
			return err
		})
		replied := time.Now()
		if errors.Is(err, tinyevm.ErrNotLeader) {
			notLeader++
			continue
		}
		cl.pools[li] = cl.pools[li][1:]
		if err == nil && !r.Status {
			err = fmt.Errorf("receipt failed: %s", r.Error)
		}
		if err == nil {
			err = cl.landed(ctx, t, li, r.Block)
		}
		if err != nil {
			o.failed++
			failErr = errors.Join(failErr, err)
			continue
		}
		last = time.Now()
		commits.add(replied.Sub(start))
		lagAt = append(lagAt, interval{replied, last})
		done[h]++
		guess = (li + 1) % validators
	}
	if s != nil {
		s.halt()
	}
	spans, err := w.finish(t, o)
	if err != nil {
		return nil, err
	}

	lags := durations(lagAt, nil)
	o.attempted = len(lags) + o.failed
	o.check(failErr == nil, "commit failed: %v", failErr)
	o.op = lagAt
	o.rateOver = []interval{{w.start, last}}
	if len(lags) > 0 {
		o.opsPerS = float64(len(lags)) / (last.Sub(w.start) - refilled[0] - refilled[1]).Seconds()
	}
	o.add("replicate_per_s", "1/s", o.opsPerS, len(lags))
	o.latency("replicate_lag", lags)
	o.latency("commit", commits)
	if refills > 0 {
		o.add("pool_refills", "count", float64(refills), 0)
		o.add("pool_refill_s", "s", (refilled[0] + refilled[1]).Seconds(), 0)
	}
	if err := checkReplicas(ctx, cl, o); err != nil {
		return nil, err
	}

	if t != nil {
		in.spans = spans
		in.ops = float64(done[1])
		in.untracedRate = float64(done[0]) / (w.mid.Sub(w.start) - refilled[0]).Seconds()
		in.tracedRate = float64(done[1]) / (w.end.Sub(w.mid) - refilled[1]).Seconds()
		in.notLeader = float64(notLeader)
		in.pool, in.pending = poolSizes.mean(), pendingOps.mean()
		in.p2pMsgs, in.p2pBytes = float64(t.p2pMsgs.Load()), float64(t.p2pBytes.Load())
		if err := clusterLayers(ctx, cl, heads[1], &in); err != nil {
			return nil, err
		}
		o.layers = layers(in)
		o.named = append(o.named, breakdown(spans, in.ops)...)
		return o, dumpSpans(cfg, spans)
	}
	return o, nil
}

// checkReplicas requires identical block hashes on every validator at
// every height. The client must have stopped.
func checkReplicas(ctx context.Context, cl *cluster, o *outcome) error {
	ref := cl.nodes[0].svc
	head, err := ref.HeadBlock(ctx)
	if err != nil {
		return err
	}
	for _, d := range cl.nodes[1:] {
		h, err := d.svc.HeadBlock(ctx)
		if err != nil {
			return err
		}
		o.check(h == head, "replica heads differ: %d and %d", head, h)
	}
	for n := uint64(1); n <= head; n++ {
		want, err := ref.BlockHash(ctx, n)
		if err != nil {
			return err
		}
		for i, d := range cl.nodes[1:] {
			got, err := d.svc.BlockHash(ctx, n)
			o.check(err == nil && got == want, "validator %d block %d: %s %v, validator 0 has %s", i+1, n, got, err, want)
		}
	}
	return nil
}

// clusterLayers fills in the chain, store and probe inputs from the
// quiesced cluster. from is the head when the traced half began.
func clusterLayers(ctx context.Context, cl *cluster, from uint64, in *layerInput) error {
	svc := cl.nodes[0].svc
	head, err := svc.HeadBlock(ctx)
	if err != nil {
		return err
	}
	ch := svc.System().Chain
	for n := from + 1; from > 0 && n <= head; n++ {
		b, err := ch.BlockByNumber(n)
		if err != nil {
			return err
		}
		in.blocks++
		in.txs += float64(len(b.TxHashes))
	}
	for _, d := range cl.nodes {
		in.diskBytes += float64(dirBytes(filepath.Join(d.dir, "archive")))
		b, err := liveBytes(d.kv)
		if err != nil {
			return err
		}
		in.bytes += b
	}
	accounts := len(ch.State().Addresses())
	// The leader's seal alone is timed; waiting for it to land lets the
	// next leader take the following one.
	seal := func() (time.Duration, error) {
		i, err := cl.leader(ctx, nil, 0)
		if err != nil {
			return 0, err
		}
		took, err := emptySeal(ctx, cl.nodes[i].svc)()
		if err != nil {
			return 0, err
		}
		head, err := cl.nodes[i].svc.HeadBlock(ctx)
		if err != nil {
			return 0, err
		}
		return took, cl.landed(ctx, nil, i, head)
	}
	in.probes, err = runProbes("car0-0", accounts, seal)
	return err
}
