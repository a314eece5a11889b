// Package disk is the embedded durable backend behind store.KVStore: a
// small log-structured engine with a write-ahead log, an in-memory
// memtable, sorted immutable segment files with sparse indexes, and
// background compaction.
//
// Write path: a committed batch appends one CRC-framed record to the
// WAL (fsynced by default) and applies to the memtable — a commit is
// crash-atomic: after a crash a batch is visible iff its whole record
// reached the file. When the memtable passes the flush threshold it is
// written out as a sorted segment (temp file + fsync + rename +
// directory fsync), the MANIFEST is atomically swapped to include it,
// and the WAL is truncated. Reads
// consult the memtable, then segments newest → oldest; deletions
// propagate as tombstones so newer segments shadow older ones.
//
// Crash safety is a chain of atomic pointer swaps: the MANIFEST names
// the live segments and is replaced by rename only after the new
// segment is durable, and the WAL is truncated only after the MANIFEST
// is durable. A SIGKILL between any two steps leaves either the old
// manifest + full WAL (replay reconstructs the memtable) or the new
// manifest + stale WAL records (replay is idempotent: the records
// rewrite the values the segment already holds). Orphan files from a
// crash mid-flush or mid-compaction are swept on Open.
//
// Compaction merges every live segment into one (newest value wins,
// tombstones dropped — nothing older remains to shadow), swaps the
// MANIFEST, and only then deletes the inputs. It runs on a background
// goroutine once the segment count passes a threshold.
package disk

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tinyevm/internal/store"
)

const (
	walName      = "wal.log"
	manifestName = "MANIFEST"

	defaultFlushBytes  = 1 << 20
	defaultCompactSegs = 4
)

var walMagic = []byte("TEVMDWL1")

// DB is the disk-backed KVStore.
type DB struct {
	mu  sync.Mutex
	dir string

	wal     *os.File
	walSize int64

	// mem is the memtable; a nil value is a tombstone shadowing older
	// segments. memBytes drives the flush threshold.
	mem      map[string][]byte
	memBytes int64

	// segs holds the live segments oldest → newest.
	segs    []*segment
	nextSeg uint64

	syncWrites  bool
	flushBytes  int64
	compactSegs int

	flushes     uint64
	compactions uint64

	compacting bool
	compactErr error
	compactWG  sync.WaitGroup

	closed bool
}

// Option configures Open.
type Option func(*DB)

// WithNoSync disables fsync on commit: committed batches survive a
// process crash (the OS holds the pages) but may be lost on power
// failure. Useful for tests and throwaway runs.
func WithNoSync() Option {
	return func(db *DB) { db.syncWrites = false }
}

// WithFlushBytes sets the memtable size that triggers a segment flush.
func WithFlushBytes(n int64) Option {
	return func(db *DB) {
		if n > 0 {
			db.flushBytes = n
		}
	}
}

// WithCompactSegments sets the live-segment count that triggers a
// background compaction.
func WithCompactSegments(n int) Option {
	return func(db *DB) {
		if n > 1 {
			db.compactSegs = n
		}
	}
}

// manifest is the on-disk MANIFEST: the live segment list in
// oldest → newest order plus the next segment id. It is replaced
// atomically (temp + rename + directory fsync), so the set of live
// segments changes in one step or not at all.
type manifest struct {
	Version  int      `json:"version"`
	Next     uint64   `json:"next"`
	Segments []string `json:"segments"`
}

// Open opens (or creates) a disk store rooted at dir: it loads the
// MANIFEST, sweeps orphan files from interrupted flushes/compactions,
// opens the segments and replays the WAL into the memtable (repairing
// a torn tail).
func Open(dir string, opts ...Option) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: creating dir: %w", err)
	}
	db := &DB{
		dir:         dir,
		mem:         make(map[string][]byte),
		nextSeg:     1,
		syncWrites:  true,
		flushBytes:  defaultFlushBytes,
		compactSegs: defaultCompactSegs,
	}
	for _, o := range opts {
		o(db)
	}

	m, err := db.loadManifest()
	if err != nil {
		return nil, err
	}
	if err := db.sweepOrphans(m); err != nil {
		return nil, err
	}
	for _, name := range m.Segments {
		seg, err := openSegment(filepath.Join(dir, name))
		if err != nil {
			db.closeSegments()
			return nil, err
		}
		db.segs = append(db.segs, seg)
	}
	if m.Next > db.nextSeg {
		db.nextSeg = m.Next
	}

	if err := db.openWAL(); err != nil {
		if db.wal != nil {
			db.wal.Close()
		}
		db.closeSegments()
		return nil, err
	}
	if len(db.segs) >= db.compactSegs {
		db.mu.Lock()
		db.startCompactionLocked()
		db.mu.Unlock()
	}
	return db, nil
}

// loadManifest reads the MANIFEST; a missing file means a fresh store.
func (db *DB) loadManifest() (manifest, error) {
	var m manifest
	b, err := os.ReadFile(filepath.Join(db.dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{Version: 1, Next: 1}, nil
	}
	if err != nil {
		return m, fmt.Errorf("disk: reading manifest: %w", err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Version != 1 {
		return m, fmt.Errorf("%w: manifest version %d", ErrCorrupt, m.Version)
	}
	return m, nil
}

// writeManifestLocked atomically replaces the MANIFEST.
func (db *DB) writeManifestLocked() error {
	names := make([]string, len(db.segs))
	for i, s := range db.segs {
		names[i] = filepath.Base(s.path)
	}
	b, err := json.Marshal(manifest{Version: 1, Next: db.nextSeg, Segments: names})
	if err != nil {
		return err
	}
	path := filepath.Join(db.dir, manifestName)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, b); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("disk: replacing manifest: %w", err)
	}
	return db.syncDir()
}

// writeFileSync writes b to path and fsyncs it.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("disk: creating %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("disk: writing %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("disk: syncing %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// syncDir makes a rename in the store directory durable.
func (db *DB) syncDir() error {
	if !db.syncWrites {
		return nil
	}
	d, err := os.Open(db.dir)
	if err != nil {
		return nil
	}
	d.Sync()
	return d.Close()
}

// sweepOrphans removes temp files and segment files the manifest does
// not reference — leftovers of a crash mid-flush or mid-compaction.
// It runs before the WAL is opened, so a swept segment's contents are
// still recoverable from the log.
func (db *DB) sweepOrphans(m manifest) error {
	live := make(map[string]bool, len(m.Segments))
	for _, name := range m.Segments {
		live[name] = true
	}
	names, err := os.ReadDir(db.dir)
	if err != nil {
		return fmt.Errorf("disk: listing dir: %w", err)
	}
	for _, e := range names {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") && !live[name]:
		default:
			continue
		}
		if err := os.Remove(filepath.Join(db.dir, name)); err != nil {
			return fmt.Errorf("disk: sweeping %s: %w", name, err)
		}
	}
	return nil
}

// openWAL opens and replays the write-ahead log. Only the final frame
// may be damaged: a torn append from a crash is truncated away so
// appends resume on a record boundary. A damaged frame with data after
// it, or a checksummed frame that does not decode, is corruption —
// Open fails with ErrCorrupt and the file is left untouched.
func (db *DB) openWAL() error {
	f, err := os.OpenFile(filepath.Join(db.dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("disk: opening wal: %w", err)
	}
	db.wal = f
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("disk: stat wal: %w", err)
	}
	if info.Size() == 0 {
		if _, err := f.Write(walMagic); err != nil {
			return fmt.Errorf("disk: writing wal header: %w", err)
		}
		if err := db.maybeSync(f); err != nil {
			return err
		}
		db.walSize = int64(len(walMagic))
		return nil
	}

	valid, err := db.replayWAL(io.NewSectionReader(f, 0, info.Size()), info.Size())
	if err != nil {
		return err
	}
	if valid < info.Size() {
		if err := f.Truncate(valid); err != nil {
			return fmt.Errorf("disk: truncating torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fmt.Errorf("disk: seeking wal: %w", err)
	}
	db.walSize = valid
	return nil
}

// replayWAL applies every committed batch in the size-byte log r to the
// memtable and returns the length of its intact prefix: everything but
// a torn final frame. A frame whose declared length runs past the end
// of the file is taken as torn; a checksum failure is torn only when
// the frame ends exactly at the end of the file.
func (db *DB) replayWAL(r io.Reader, size int64) (int64, error) {
	header := make([]byte, len(walMagic))
	if _, err := io.ReadFull(r, header); err != nil || string(header) != string(walMagic) {
		return 0, fmt.Errorf("%w: bad wal magic", ErrCorrupt)
	}
	off := int64(len(walMagic))
	var hdr [frameHeader]byte
	for off < size {
		if size-off < frameHeader {
			return off, nil
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, fmt.Errorf("disk: reading wal: %w", err)
		}
		end := off + frameHeader + int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if end > size {
			return off, nil
		}
		payload := make([]byte, end-off-frameHeader)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, fmt.Errorf("disk: reading wal: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
			if end == size {
				return off, nil
			}
			return 0, fmt.Errorf("%w: wal record at offset %d fails its checksum with %d bytes after it",
				ErrCorrupt, off, size-end)
		}
		if err := db.applyWALPayload(payload); err != nil {
			return 0, fmt.Errorf("wal record at offset %d: %w", off, err)
		}
		off = end
	}
	return off, nil
}

// applyWALPayload replays one committed batch into the memtable.
func (db *DB) applyWALPayload(payload []byte) error {
	for len(payload) > 0 {
		op := payload[0]
		key, rest, err := decodeField(payload[1:])
		if err != nil {
			return err
		}
		payload = rest
		switch op {
		case opPut:
			val, rest, err := decodeField(payload)
			if err != nil {
				return err
			}
			payload = rest
			// A non-nil copy: an empty value is a put, not a tombstone.
			db.memApply(string(key), append(make([]byte, 0, len(val)), val...))
		case opDel:
			db.memApply(string(key), nil)
		default:
			return fmt.Errorf("%w: unknown wal op %d", ErrCorrupt, op)
		}
	}
	return nil
}

// memApply sets key in the memtable (nil value = tombstone), keeping
// the byte estimate current.
func (db *DB) memApply(key string, val []byte) {
	if old, ok := db.mem[key]; ok {
		db.memBytes -= int64(len(key) + len(old))
	}
	db.mem[key] = val
	db.memBytes += int64(len(key) + len(val))
}

func (db *DB) maybeSync(f *os.File) error {
	if !db.syncWrites {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("disk: fsync: %w", err)
	}
	return nil
}

func (db *DB) closeSegments() {
	for _, s := range db.segs {
		s.f.Close()
	}
}

// Get implements store.KVStore: memtable first, then segments newest
// to oldest; a tombstone anywhere stops the search.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, store.ErrClosed
	}
	if v, ok := db.mem[string(key)]; ok {
		if v == nil {
			return nil, false, nil
		}
		cp := make([]byte, len(v))
		copy(cp, v)
		return cp, true, nil
	}
	for i := len(db.segs) - 1; i >= 0; i-- {
		v, found, deleted, err := db.segs[i].get(key)
		if err != nil {
			return nil, false, err
		}
		if deleted {
			return nil, false, nil
		}
		if found {
			cp := make([]byte, len(v))
			copy(cp, v)
			return cp, true, nil
		}
	}
	return nil, false, nil
}

// Put implements store.KVStore.
func (db *DB) Put(key, value []byte) error {
	b := db.Batch()
	b.Put(key, value)
	return b.Commit()
}

// Delete implements store.KVStore.
func (db *DB) Delete(key []byte) error {
	b := db.Batch()
	b.Delete(key)
	return b.Commit()
}

// Iterate implements store.KVStore: the merged view (segments oldest
// to newest, then the memtable) is collected under the lock and fn
// runs without it, matching the other backends.
func (db *DB) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return store.ErrClosed
	}
	p := string(prefix)
	merged := make(map[string][]byte)
	for _, s := range db.segs {
		entries, err := s.all()
		if err != nil {
			db.mu.Unlock()
			return err
		}
		for _, e := range entries {
			if !strings.HasPrefix(e.key, p) {
				continue
			}
			if e.del {
				delete(merged, e.key)
			} else {
				merged[e.key] = e.val
			}
		}
	}
	for k, v := range db.mem {
		if !strings.HasPrefix(k, p) {
			continue
		}
		if v == nil {
			delete(merged, k)
		} else {
			merged[k] = v
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([][2][]byte, len(keys))
	for i, k := range keys {
		v := merged[k]
		kc, vc := make([]byte, len(k)), make([]byte, len(v))
		copy(kc, k)
		copy(vc, v)
		pairs[i] = [2][]byte{kc, vc}
	}
	db.mu.Unlock()
	for _, kv := range pairs {
		if err := fn(kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
}

// Batch implements store.KVStore.
func (db *DB) Batch() store.Batch { return &diskBatch{db: db} }

// Close implements store.KVStore: it waits for an in-flight compaction,
// syncs the WAL and closes every file.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	db.compactWG.Wait()

	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.maybeSync(db.wal)
	if cerr := db.wal.Close(); err == nil {
		err = cerr
	}
	db.closeSegments()
	return err
}

// Stats implements store.StatsProvider.
func (db *DB) Stats() store.Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := store.Stats{
		Kind:          "disk",
		Segments:      len(db.segs),
		MemtableBytes: db.memBytes,
		Flushes:       db.flushes,
		Compactions:   db.compactions,
	}
	for _, s := range db.segs {
		st.SegmentBytes += s.size
	}
	return st
}

// Flush forces the memtable out as a segment (mainly for tests).
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return store.ErrClosed
	}
	return db.flushLocked()
}

// Compact triggers a compaction (if one is not already running) and
// waits for it.
func (db *DB) Compact() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return store.ErrClosed
	}
	if !db.compacting && len(db.segs) > 1 {
		db.startCompactionLocked()
	}
	db.mu.Unlock()
	db.compactWG.Wait()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.compactErr
}

// diskBatch buffers ops; Commit appends one framed WAL record, applies
// to the memtable, and may flush.
type diskBatch struct {
	db  *DB
	ops []batchOp
}

// batchOp is one buffered write; value == nil marks a delete (Put
// copies into a non-nil slice).
type batchOp struct {
	key   string
	value []byte
}

func (b *diskBatch) Put(key, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	b.ops = append(b.ops, batchOp{key: string(key), value: cp})
}

func (b *diskBatch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: string(key)})
}

func (b *diskBatch) Len() int { return len(b.ops) }

func (b *diskBatch) Commit() error {
	if len(b.ops) == 0 {
		return nil
	}
	db := b.db
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return store.ErrClosed
	}

	var payload []byte
	for _, op := range b.ops {
		if op.value == nil {
			payload = append(payload, opDel)
			payload = appendField(payload, []byte(op.key))
		} else {
			payload = append(payload, opPut)
			payload = appendField(payload, []byte(op.key))
			payload = appendField(payload, op.value)
		}
	}
	rec := frame(payload)
	if _, err := db.wal.Write(rec); err != nil {
		// Roll a partial append back so later records don't land after
		// a torn one (replay would stop at the tear and drop them).
		db.wal.Truncate(db.walSize)
		db.wal.Seek(db.walSize, io.SeekStart)
		return fmt.Errorf("disk: appending wal record: %w", err)
	}
	if err := db.maybeSync(db.wal); err != nil {
		// Same rollback: a batch reported as failed must not survive in
		// the log, or a restart would resurrect it.
		db.wal.Truncate(db.walSize)
		db.wal.Seek(db.walSize, io.SeekStart)
		return err
	}
	db.walSize += int64(len(rec))
	for _, op := range b.ops {
		db.memApply(op.key, op.value)
	}
	b.ops = nil

	if db.memBytes >= db.flushBytes {
		if err := db.flushLocked(); err != nil {
			// The batch is durable (the WAL record committed); failing
			// to flush is still surfaced so the caller halts rather
			// than running on a store that cannot roll forward.
			return err
		}
	}
	return nil
}

// flushLocked writes the memtable out as a new segment, swaps the
// MANIFEST and truncates the WAL. Tombstones are written only when an
// older segment exists for them to shadow.
func (db *DB) flushLocked() error {
	if len(db.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(db.mem))
	for k := range db.mem {
		if db.mem[k] == nil && len(db.segs) == 0 {
			continue // tombstone with nothing to shadow
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]segEntry, len(keys))
	for i, k := range keys {
		v := db.mem[k]
		entries[i] = segEntry{key: k, val: v, del: v == nil}
	}

	if len(entries) > 0 {
		name := fmt.Sprintf("seg-%08d.seg", db.nextSeg)
		path := filepath.Join(db.dir, name)
		if err := writeFileSync(path+".tmp", encodeSegment(entries)); err != nil {
			return err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			os.Remove(path + ".tmp")
			return fmt.Errorf("disk: installing segment: %w", err)
		}
		if err := db.syncDir(); err != nil {
			return err
		}
		seg, err := openSegment(path)
		if err != nil {
			return err
		}
		db.segs = append(db.segs, seg)
		db.nextSeg++
	}
	if err := db.writeManifestLocked(); err != nil {
		return err
	}
	// The segment and manifest are durable; drop the WAL and memtable.
	// A crash before this truncate replays records whose values the
	// segment already holds — harmless.
	if err := db.wal.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("disk: truncating wal: %w", err)
	}
	if _, err := db.wal.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("disk: seeking wal: %w", err)
	}
	if err := db.maybeSync(db.wal); err != nil {
		return err
	}
	db.walSize = int64(len(walMagic))
	db.mem = make(map[string][]byte)
	db.memBytes = 0
	db.flushes++

	if len(db.segs) >= db.compactSegs && !db.compacting {
		db.startCompactionLocked()
	}
	return nil
}

// startCompactionLocked kicks off a background merge of the current
// segment list. Flushes may append new segments meanwhile; the swap
// splices the merged segment in front of them.
func (db *DB) startCompactionLocked() {
	if len(db.segs) < 2 {
		return
	}
	db.compacting = true
	snap := make([]*segment, len(db.segs))
	copy(snap, db.segs)
	id := db.nextSeg
	db.nextSeg++
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		db.compact(snap, id)
	}()
}

// compact merges snap (oldest → newest, newest wins) into one segment.
// The merge reads immutable files without the lock; the swap — rename,
// manifest, segment-list splice, input deletion — runs under it.
func (db *DB) compact(snap []*segment, id uint64) {
	fail := func(err error) {
		db.mu.Lock()
		db.compactErr = err
		db.compacting = false
		db.mu.Unlock()
	}

	merged := make(map[string][]byte)
	for _, s := range snap {
		entries, err := s.all()
		if err != nil {
			fail(err)
			return
		}
		for _, e := range entries {
			if e.del {
				// snap starts at the oldest live segment, so there is
				// nothing left for a tombstone to shadow.
				delete(merged, e.key)
			} else {
				merged[e.key] = e.val
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]segEntry, len(keys))
	for i, k := range keys {
		entries[i] = segEntry{key: k, val: merged[k]}
	}

	name := fmt.Sprintf("seg-%08d.seg", id)
	path := filepath.Join(db.dir, name)
	if err := writeFileSync(path+".tmp", encodeSegment(entries)); err != nil {
		fail(err)
		return
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		os.Remove(path + ".tmp")
		db.compacting = false
		return
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		os.Remove(path + ".tmp")
		db.compactErr = fmt.Errorf("disk: installing compacted segment: %w", err)
		db.compacting = false
		return
	}
	if err := db.syncDir(); err != nil {
		db.compactErr = err
		db.compacting = false
		return
	}
	seg, err := openSegment(path)
	if err != nil {
		db.compactErr = err
		db.compacting = false
		return
	}
	old := db.segs[:len(snap)]
	db.segs = append([]*segment{seg}, db.segs[len(snap):]...)
	if err := db.writeManifestLocked(); err != nil {
		// Roll the in-memory list back; the old manifest is still the
		// durable truth and still names the inputs.
		db.segs = append(old[:len(old):len(old)], db.segs[1:]...)
		seg.f.Close()
		os.Remove(path)
		db.compactErr = err
		db.compacting = false
		return
	}
	for _, s := range old {
		s.f.Close()
		os.Remove(s.path)
	}
	db.compactions++
	db.compactErr = nil
	db.compacting = false
}
