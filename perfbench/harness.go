package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tinyevm"
	"tinyevm/internal/device"
	"tinyevm/internal/rpc"
	"tinyevm/internal/store"
	"tinyevm/internal/store/disk"
)

// The deployment is composed the way tinyevm-serve composes it with
//
//	-challenge 10 -engine-workers 0 -backend disk
//	-state-commitment mst -checkpoint-interval 64
//
// and served by rpc.NewServer over loopback HTTP.
const (
	providerName    = "hub"
	challengePeriod = 10
	ckptInterval    = 64
	// chanDeposit funds every payment channel; payments of 1–3 units
	// never exhaust it within a run.
	chanDeposit = 1_000_000
	// templateDeposit is what each committing vehicle locks into the
	// on-chain template, covering every cumulative it will commit.
	templateDeposit = 10_000_000
)

// serviceOptions are the options every deployment shares.
func serviceOptions() []tinyevm.Option {
	return []tinyevm.Option{
		tinyevm.WithChallengePeriod(challengePeriod),
		tinyevm.WithRadioLossRate(0),
		tinyevm.WithRadioSeed(1),
		tinyevm.WithEngineWorkers(0),
		tinyevm.WithMSTCommitment(true),
	}
}

// server serves one handler on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is an rpc.Client with its own connection pool, so closing it
// stops its keep-alive goroutines.
type client struct {
	*rpc.Client
	tr *http.Transport
}

func newClient(url string, t *tracer) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	var rt http.RoundTripper = tr
	if t != nil {
		rt = spanTransport{tr}
	}
	return &client{Client: rpc.NewClient(url, &http.Client{Transport: rt}), tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// deployment is one service served over HTTP: a standalone durable
// deployment, or one validator of a cluster.
type deployment struct {
	dir  string
	svc  *tinyevm.Service
	prov *tinyevm.ServiceNode
	kv   store.KVStore // the traced store; nil when the service owns its store
	srv  *server
	c    *client

	closeOnce sync.Once
	closeErr  error
}

// openDeployment opens (or recovers) the deployment in dir. With a
// tracer the service gets a timing store over the same disk.Open
// directory WithDataDir uses, and the handler is timed too.
func openDeployment(ctx context.Context, dir string, t *tracer) (*deployment, error) {
	d := &deployment{dir: dir}
	opts := append(serviceOptions(), tinyevm.WithCheckpointInterval(ckptInterval))
	if t != nil {
		db, err := disk.Open(filepath.Join(dir, "store"))
		if err != nil {
			return nil, err
		}
		d.kv = &timedStore{kv: db, t: t}
		opts = append(opts, tinyevm.WithStore(d.kv))
	} else {
		opts = append(opts, tinyevm.WithDataDir(dir), tinyevm.WithStoreBackend("disk"))
	}
	svc, prov, err := tinyevm.NewService(providerName, opts...)
	if err != nil {
		if d.kv != nil {
			d.kv.Close()
		}
		return nil, err
	}
	d.svc, d.prov = svc, prov
	// As tinyevm-serve does: the provider's journaled default sensor.
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

// close stops the server, the service and a store it was given; later
// calls return the first call's result.
func (d *deployment) close() error {
	d.closeOnce.Do(func() {
		var errs []error
		if d.c != nil {
			d.c.close()
		}
		if d.srv != nil {
			errs = append(errs, d.srv.stop())
		}
		if d.svc != nil {
			errs = append(errs, d.svc.Close())
		}
		if d.kv != nil {
			errs = append(errs, d.kv.Close())
		}
		d.closeErr = errors.Join(errs...)
	})
	return d.closeErr
}

// addNodes registers nodes over RPC (which also journals each node's
// default sensor).
func addNodes(ctx context.Context, c *client, names []string) error {
	for _, n := range names {
		if _, err := c.AddNode(ctx, n); err != nil {
			return fmt.Errorf("add node %s: %w", n, err)
		}
	}
	return nil
}

// deposit locks templateDeposit for each vehicle; every deposit seals a
// block.
func deposit(ctx context.Context, c *client, vehicles []string) error {
	for _, v := range vehicles {
		r, err := c.Deposit(ctx, v, templateDeposit)
		if err != nil {
			return fmt.Errorf("deposit %s: %w", v, err)
		}
		if !r.Status {
			return fmt.Errorf("deposit %s: receipt failed: %s", v, r.Error)
		}
	}
	return nil
}

// names returns prefix-0 … prefix-(n-1).
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

// cryptoSigops is the secp256k1 work the nodes' devices have charged:
// the crypto engine bills ECDSA sign and verify at the same latency, so
// the billed crypto time over that latency counts both.
func cryptoSigops(ctx context.Context, nodes []*tinyevm.ServiceNode) (float64, error) {
	var total time.Duration
	for _, n := range nodes {
		rep, err := n.EnergyReport(ctx)
		if err != nil {
			return 0, err
		}
		for _, row := range rep.Rows {
			if row.State == device.StateCrypto {
				total += row.Time
			}
		}
	}
	return float64(total) / float64(device.ECDSASignTime), nil
}

// calibration holds the per-operation secp256k1 counts measured from
// device accounting on one spare channel.
type calibration struct{ perPay, perClose float64 }

// calibrate opens a spare channel from vehicle to the provider, pays
// once and closes it, reading both devices' crypto accounting around
// each step.
func calibrate(ctx context.Context, d *deployment, vehicle string) (calibration, error) {
	var cal calibration
	vn, ok := d.svc.Node(vehicle)
	if !ok {
		return cal, fmt.Errorf("calibrate: unknown node %s", vehicle)
	}
	pair := []*tinyevm.ServiceNode{vn, d.prov}
	ch, err := d.c.OpenChannel(ctx, vehicle, providerName, chanDeposit, 0)
	if err != nil {
		return cal, fmt.Errorf("calibrate: open: %w", err)
	}
	s0, err := cryptoSigops(ctx, pair)
	if err != nil {
		return cal, err
	}
	if _, err := d.c.Pay(ctx, vehicle, ch.ID, 1); err != nil {
		return cal, fmt.Errorf("calibrate: pay: %w", err)
	}
	s1, err := cryptoSigops(ctx, pair)
	if err != nil {
		return cal, err
	}
	if _, err := d.c.CloseChannel(ctx, vehicle, ch.ID); err != nil {
		return cal, fmt.Errorf("calibrate: close: %w", err)
	}
	s2, err := cryptoSigops(ctx, pair)
	if err != nil {
		return cal, err
	}
	return calibration{perPay: s1 - s0, perClose: s2 - s1}, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// rssMB is the process's resident set size, read from /proc/self/statm
// (its second field, in pages).
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return float64(pages*uint64(os.Getpagesize())) / (1 << 20), nil
}

// liveBytes sums the keys and values a store holds, reading under any
// timing wrapper so the scan records no spans.
func liveBytes(kv store.KVStore) (float64, error) {
	if ts, ok := kv.(*timedStore); ok {
		kv = ts.kv
	}
	var n float64
	err := kv.Iterate(nil, func(k, v []byte) error {
		n += float64(len(k) + len(v))
		return nil
	})
	return n, err
}

// closer is what set-up builds: a deployment or a cluster.
type closer interface{ close() error }

// setupRepeated builds cfg.size.setups times with build, timing each,
// and keeps the last. Each earlier one is closed and removed before the
// next starts, and each starts from a collected heap, so that every
// set-up runs in the same conditions.
func setupRepeated[T any](cfg config, o *outcome, build func(dir string) (T, closer, error)) (T, error) {
	var keep T
	for i := 0; i < cfg.size.setups; i++ {
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("setup-%d", i))
		runtime.GC()
		start := time.Now()
		v, c, err := build(dir)
		if err != nil {
			return keep, fmt.Errorf("setup: %w", err)
		}
		o.setups = append(o.setups, since(start))
		if i == cfg.size.setups-1 {
			return v, nil
		}
		if err := c.close(); err != nil {
			return keep, err
		}
		os.RemoveAll(dir) // only frees space; a leftover is harmless
	}
	return keep, nil
}

// traceWatch samples a standalone deployment during a traced window and
// gathers the per-layer inputs the service reports about itself.
type traceWatch struct {
	st0            tinyevm.StoreStatus
	s              *sampler
	mu             sync.Mutex
	pending, depth samples
	headMid        uint64 // chain head when the traced half began
}

func (tw *traceWatch) begin(ctx context.Context, d *deployment, t *tracer) error {
	if t == nil {
		return nil
	}
	st, _, err := d.svc.StoreStatus(ctx)
	if err != nil {
		return err
	}
	tw.st0 = st
	tw.s = startSampler(20*time.Millisecond, func() {
		if !t.on() {
			return
		}
		st, err := d.svc.ServiceStats(ctx)
		if err != nil {
			return
		}
		sum := 0
		for _, p := range st.ShardPending {
			sum += p
		}
		tw.mu.Lock()
		if len(tw.pending) == 0 {
			tw.headMid, _ = d.svc.HeadBlock(ctx)
		}
		tw.pending = append(tw.pending, float64(sum))
		tw.depth = append(tw.depth, float64(st.PipelineDepth))
		tw.mu.Unlock()
	})
	return nil
}

// end stops sampling and fills in the service-reported inputs. The
// clients must have stopped: it reads the chain directly.
func (tw *traceWatch) end(ctx context.Context, d *deployment, in *layerInput, vehicle string) error {
	tw.s.halt()
	in.pending, in.depth = tw.pending.mean(), tw.depth.mean()
	st, _, err := d.svc.StoreStatus(ctx)
	if err != nil {
		return err
	}
	in.flushes = float64(st.Flushes - tw.st0.Flushes)
	in.compactions = float64(st.Compactions - tw.st0.Compactions)
	in.ckpts = float64(st.CheckpointHeight-tw.st0.CheckpointHeight) / ckptInterval
	head, err := d.svc.HeadBlock(ctx)
	if err != nil {
		return err
	}
	ch := d.svc.System().Chain
	if len(tw.pending) > 0 {
		for n := tw.headMid + 1; n <= head; n++ {
			b, err := ch.BlockByNumber(n)
			if err != nil {
				return err
			}
			in.blocks++
			in.txs += float64(len(b.TxHashes))
		}
	}
	in.recoveries = append(in.recoveries, d.svc.RecoveryInfo())
	in.diskBytes = float64(dirBytes(d.dir))
	if in.bytes, err = liveBytes(d.kv); err != nil {
		return err
	}
	accounts := len(ch.State().Addresses())
	in.probes, err = runProbes(vehicle, accounts, emptySeal(ctx, d.svc))
	return err
}

// rate is n completions per second from start to the last of them.
func rate(n int, start, last time.Time) float64 {
	if n == 0 {
		return 0
	}
	return float64(n) / last.Sub(start).Seconds()
}
