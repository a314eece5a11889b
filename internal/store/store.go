// Package store is the pluggable persistence layer under TinyEVM's
// durable state: a small key-value interface with an in-memory backend
// (tests, ephemeral deployments). The durable backend that survives
// process crashes is the disk store in the disk subpackage.
//
// The chain layer commits sealed blocks and per-block state deltas
// through a KVStore; the service layer journals its operation log into
// one. Both address disjoint key prefixes of the same store through
// Prefixed.
package store

import (
	"errors"
	"sort"
	"strings"
	"sync"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// KVStore is a flat key-value store with atomic batched writes.
// Implementations must be safe for concurrent use.
type KVStore interface {
	// Get returns the value for key and whether it exists. The returned
	// slice is the caller's to keep.
	Get(key []byte) ([]byte, bool, error)
	// Put stores key -> value (a single-op batch).
	Put(key, value []byte) error
	// Delete removes key; deleting a missing key is not an error.
	Delete(key []byte) error
	// Iterate calls fn for every key with the given prefix in ascending
	// byte order. Returning an error from fn stops the iteration and is
	// returned. The key and value slices are the callback's to keep.
	Iterate(prefix []byte, fn func(key, value []byte) error) error
	// Batch starts a write batch; its ops apply atomically on Commit.
	Batch() Batch
	// Close releases the store. Operations after Close fail with
	// ErrClosed.
	Close() error
}

// Batch collects writes that commit atomically: after a crash, either
// every op of the batch is visible or none is.
type Batch interface {
	Put(key, value []byte)
	Delete(key []byte)
	// Len returns the number of buffered ops.
	Len() int
	// Commit applies the batch. The batch must not be reused afterwards.
	Commit() error
}

// Mem is the in-memory KVStore backend.
type Mem struct {
	mu     sync.RWMutex
	m      map[string][]byte
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Get implements KVStore.
func (s *Mem) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.m[string(key)]
	if !ok {
		return nil, false, nil
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true, nil
}

// Put implements KVStore.
func (s *Mem) Put(key, value []byte) error {
	b := s.Batch()
	b.Put(key, value)
	return b.Commit()
}

// Delete implements KVStore.
func (s *Mem) Delete(key []byte) error {
	b := s.Batch()
	b.Delete(key)
	return b.Commit()
}

// Iterate implements KVStore.
func (s *Mem) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	p := string(prefix)
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		if strings.HasPrefix(k, p) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	// Copy the selected pairs out under the lock so fn runs without it.
	pairs := make([][2][]byte, len(keys))
	for i, k := range keys {
		v := s.m[k]
		kc, vc := make([]byte, len(k)), make([]byte, len(v))
		copy(kc, k)
		copy(vc, v)
		pairs[i] = [2][]byte{kc, vc}
	}
	s.mu.RUnlock()
	for _, kv := range pairs {
		if err := fn(kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
}

// Batch implements KVStore.
func (s *Mem) Batch() Batch { return &memBatch{s: s} }

// Close implements KVStore.
func (s *Mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// memBatch buffers ops for Mem.
type memBatch struct {
	s   *Mem
	ops []batchOp
}

// batchOp is one buffered write; value == nil marks a delete (stored
// values are never nil: Put copies into a non-nil slice).
type batchOp struct {
	key   string
	value []byte
}

func (b *memBatch) Put(key, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	b.ops = append(b.ops, batchOp{key: string(key), value: cp})
}

func (b *memBatch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: string(key)})
}

func (b *memBatch) Len() int { return len(b.ops) }

func (b *memBatch) Commit() error {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	if b.s.closed {
		return ErrClosed
	}
	for _, op := range b.ops {
		if op.value == nil {
			delete(b.s.m, op.key)
		} else {
			b.s.m[op.key] = op.value
		}
	}
	b.ops = nil
	return nil
}

// Prefixed returns a view of kv that namespaces every key under prefix,
// letting independent subsystems (chain persistence, the service op
// log) share one underlying store without key collisions. Closing the
// view is a no-op; the owner of kv closes it.
func Prefixed(kv KVStore, prefix string) KVStore {
	return &prefixed{kv: kv, prefix: []byte(prefix)}
}

type prefixed struct {
	kv     KVStore
	prefix []byte
}

func (p *prefixed) key(k []byte) []byte {
	out := make([]byte, 0, len(p.prefix)+len(k))
	out = append(out, p.prefix...)
	return append(out, k...)
}

func (p *prefixed) Get(key []byte) ([]byte, bool, error) { return p.kv.Get(p.key(key)) }
func (p *prefixed) Put(key, value []byte) error          { return p.kv.Put(p.key(key), value) }
func (p *prefixed) Delete(key []byte) error              { return p.kv.Delete(p.key(key)) }

func (p *prefixed) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	return p.kv.Iterate(p.key(prefix), func(key, value []byte) error {
		return fn(key[len(p.prefix):], value)
	})
}

func (p *prefixed) Batch() Batch { return &prefixedBatch{p: p, b: p.kv.Batch()} }

func (p *prefixed) Close() error { return nil }

type prefixedBatch struct {
	p *prefixed
	b Batch
}

func (b *prefixedBatch) Put(key, value []byte) { b.b.Put(b.p.key(key), value) }
func (b *prefixedBatch) Delete(key []byte)     { b.b.Delete(b.p.key(key)) }
func (b *prefixedBatch) Len() int              { return b.b.Len() }
func (b *prefixedBatch) Commit() error         { return b.b.Commit() }
