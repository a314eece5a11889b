package main

// Outside-in tracing: spans are recorded from this package's own
// wrappers around the layers it composes — the RPC client, the HTTP
// handler in front of rpc.Server, the service's key-value store and the
// cluster's p2p transport. Nothing inside the program is instrumented.
//
// A span's parent is passed explicitly where a boundary carries it: the
// client puts its span id in the request context, the transport copies
// it into a header, and the handler registers its own span against the
// goroutine that serves the request. Store calls made on that goroutine
// (the journal append, checkpoint reads during recovery) find their
// parent there; store calls on background goroutines (the seal
// pipeline's batch commits) are roots.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tinyevm/internal/p2p"
	"tinyevm/internal/store"
)

// span is one timed call at a layer boundary. Start and End are offsets
// from the tracer's start.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	// Tag classifies store spans by keyspace: "journal" (op/),
	// "ckpt" (a batch or read of ckpt/state) or "".
	Tag string `json:"tag,omitempty"`
	// Bytes is the payload a store call carried: key and value for a
	// write, the value for a read.
	Bytes int `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory while enabled. A nil or disabled tracer
// records nothing, so wrappers cost one atomic load when off.
type tracer struct {
	t0      time.Time
	enabled atomic.Bool
	nextID  atomic.Uint64
	active  sync.Map // goroutine id -> handler span id

	mu    sync.Mutex
	spans []span

	// p2p counters (countingTransport).
	p2pMsgs  atomic.Int64
	p2pBytes atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) open(name string, parent uint64) span {
	return span{ID: t.nextID.Add(1), Parent: parent, Name: name, Start: time.Since(t.t0)}
}

func (t *tracer) close(s span) {
	s.End = time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// dumpSpans writes a traced run's spans as JSON lines to the file its
// configuration names.
func dumpSpans(cfg config, spans []span) error {
	f, err := os.Create(cfg.spanFile)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// call runs one client RPC under a "client.<method>" span.
func (t *tracer) call(ctx context.Context, method string, fn func(context.Context) error) error {
	if !t.on() {
		return fn(ctx)
	}
	s := t.open("client."+method, 0)
	err := fn(context.WithValue(ctx, spanKey{}, s.ID))
	t.close(s)
	return err
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// goroutineParent is the handler span serving the calling goroutine,
// or 0 on a background goroutine.
func (t *tracer) goroutineParent() uint64 {
	if v, ok := t.active.Load(goid()); ok {
		return v.(uint64)
	}
	return 0
}

const spanHeader = "X-Perfbench-Span"

// spanTransport copies the client span id from the request context
// into a header the handler wrapper reads.
type spanTransport struct{ inner http.RoundTripper }

func (st spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return st.inner.RoundTrip(req)
}

// handler times h as "rpc.handler", parented to the client span.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		t.around("rpc.handler", parent, func() { h.ServeHTTP(w, r) })
	})
}

// root runs fn under a root span; store calls fn makes are its children.
func (t *tracer) root(name string, fn func() error) error {
	if !t.on() {
		return fn()
	}
	var err error
	t.around(name, 0, func() { err = fn() })
	return err
}

// around runs fn under a span registered against the calling goroutine.
func (t *tracer) around(name string, parent uint64, fn func()) {
	s := t.open(name, parent)
	g := goid()
	t.active.Store(g, s.ID)
	fn()
	t.active.Delete(g)
	t.close(s)
}

// timedStore times every KVStore call as a "store.*" span.
type timedStore struct {
	kv store.KVStore
	t  *tracer
}

func tagOf(key string) string {
	switch {
	case strings.HasPrefix(key, "op/"):
		return "journal"
	case key == "ckpt/state":
		return "ckpt"
	}
	return ""
}

func (s *timedStore) timed(name, key string, n int, fn func() error) error {
	if !s.t.on() {
		return fn()
	}
	sp := s.t.open(name, s.t.goroutineParent())
	sp.Tag, sp.Bytes = tagOf(key), n
	err := fn()
	s.t.close(sp)
	return err
}

func (s *timedStore) Get(key []byte) ([]byte, bool, error) {
	if !s.t.on() {
		return s.kv.Get(key)
	}
	sp := s.t.open("store.get", s.t.goroutineParent())
	v, ok, err := s.kv.Get(key)
	sp.Tag, sp.Bytes = tagOf(string(key)), len(v)
	s.t.close(sp)
	return v, ok, err
}

func (s *timedStore) Put(key, value []byte) error {
	return s.timed("store.put", string(key), len(key)+len(value), func() error { return s.kv.Put(key, value) })
}

func (s *timedStore) Delete(key []byte) error {
	return s.timed("store.delete", string(key), len(key), func() error { return s.kv.Delete(key) })
}

func (s *timedStore) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	return s.timed("store.iterate", string(prefix), 0, func() error { return s.kv.Iterate(prefix, fn) })
}

func (s *timedStore) Batch() store.Batch { return &timedBatch{b: s.kv.Batch(), s: s} }

func (s *timedStore) Close() error { return s.kv.Close() }

// Stats keeps tinyevm_storeStatus reporting the backend under the
// wrapper.
func (s *timedStore) Stats() store.Stats {
	if sp, ok := s.kv.(store.StatsProvider); ok {
		return sp.Stats()
	}
	return store.Stats{Kind: "custom"}
}

type timedBatch struct {
	b     store.Batch
	s     *timedStore
	bytes int
	tag   string
}

func (b *timedBatch) Put(key, value []byte) {
	b.bytes += len(key) + len(value)
	if tagOf(string(key)) == "ckpt" {
		b.tag = "ckpt"
	}
	b.b.Put(key, value)
}

func (b *timedBatch) Delete(key []byte) {
	b.bytes += len(key)
	b.b.Delete(key)
}

func (b *timedBatch) Len() int { return b.b.Len() }

func (b *timedBatch) Commit() error {
	if !b.s.t.on() {
		return b.b.Commit()
	}
	sp := b.s.t.open("store.batch", b.s.t.goroutineParent())
	sp.Tag, sp.Bytes = b.tag, b.bytes
	err := b.b.Commit()
	b.s.t.close(sp)
	return err
}

// countingTransport counts the frames and bytes a cluster node sends.
type countingTransport struct {
	inner p2p.Transport
	t     *tracer
}

func (c *countingTransport) Listen(addr string) (p2p.Listener, error) {
	l, err := c.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{l, c.t}, nil
}

func (c *countingTransport) Dial(addr string) (p2p.Conn, error) {
	conn, err := c.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return countingConn{conn, c.t}, nil
}

type countingListener struct {
	p2p.Listener
	t *tracer
}

func (l countingListener) Accept() (p2p.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.t}, nil
}

type countingConn struct {
	p2p.Conn
	t *tracer
}

func (c countingConn) Send(frame []byte) error {
	if c.t.on() {
		c.t.p2pMsgs.Add(1)
		c.t.p2pBytes.Add(int64(len(frame)))
	}
	return c.Conn.Send(frame)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}
