package disk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tinyevm/internal/store"
)

// openTest opens a store in dir with small thresholds and no fsync so
// tests can exercise flush and compaction cheaply.
func openTest(t *testing.T, dir string, opts ...Option) *DB {
	t.Helper()
	db, err := Open(dir, append([]Option{WithNoSync()}, opts...)...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func TestDiskBasicReopen(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := db.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := db.Delete([]byte("a")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db = openTest(t, dir)
	defer db.Close()
	if _, ok, err := db.Get([]byte("a")); err != nil || ok {
		t.Fatalf("deleted key resurfaced: ok=%v err=%v", ok, err)
	}
	v, ok, err := db.Get([]byte("b"))
	if err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get b = %q, %v, %v", v, ok, err)
	}
}

func TestDiskBatchAtomic(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	defer db.Close()

	b := db.Batch()
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	b.Delete([]byte("x"))
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if _, ok, _ := db.Get([]byte("x")); ok {
		t.Fatal("x should be deleted by the same batch")
	}
	if v, ok, _ := db.Get([]byte("y")); !ok || string(v) != "2" {
		t.Fatalf("y = %q, %v", v, ok)
	}
}

// TestDiskFlushAndGet drives enough writes through a tiny flush
// threshold to produce several segments, then checks point lookups and
// overwrites across the memtable/segment boundary.
func TestDiskFlushAndGet(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, WithFlushBytes(256), WithCompactSegments(1000))
	defer db.Close()

	const n = 200
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := fmt.Sprintf("val-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
	// Overwrite a slice of them so newer segments must shadow older.
	for i := 0; i < n; i += 7 {
		k := fmt.Sprintf("key-%04d", i)
		if err := db.Put([]byte(k), []byte("new")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st := db.Stats()
	if st.Kind != "disk" || st.Segments == 0 || st.Flushes == 0 {
		t.Fatalf("expected flushed segments, got %+v", st)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		want := fmt.Sprintf("val-%d", i)
		if i%7 == 0 {
			want = "new"
		}
		v, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get %s = %q, %v, %v (want %q)", k, v, ok, err, want)
		}
	}
	if _, ok, _ := db.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestDiskTombstoneShadowsSegments(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, WithCompactSegments(1000))
	defer db.Close()

	if err := db.Put([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// The tombstone now lives in a newer segment; it must shadow the
	// older segment's value, including across a reopen.
	if _, ok, _ := db.Get([]byte("k")); ok {
		t.Fatal("tombstone did not shadow older segment")
	}
	db.Close()
	db = openTest(t, dir, WithCompactSegments(1000))
	defer db.Close()
	if _, ok, _ := db.Get([]byte("k")); ok {
		t.Fatal("tombstone lost across reopen")
	}
}

func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, WithCompactSegments(1000))
	defer db.Close()

	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v := fmt.Sprintf("round-%d", round)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	if err := db.Delete([]byte("key-000")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before := db.Stats()
	if before.Segments < 2 {
		t.Fatalf("want several segments, got %+v", before)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := db.Stats()
	if after.Segments != 1 || after.Compactions == 0 {
		t.Fatalf("compaction did not collapse segments: %+v", after)
	}
	if _, ok, _ := db.Get([]byte("key-000")); ok {
		t.Fatal("tombstoned key resurfaced after compaction")
	}
	for i := 1; i < 20; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(v) != "round-4" {
			t.Fatalf("Get %s = %q, %v, %v", k, v, ok, err)
		}
	}
	// Old segment files must be gone from disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Fatalf("want 1 segment file after compaction, got %d", segFiles)
	}
}

func TestDiskIteratePrefix(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, WithCompactSegments(1000))
	defer db.Close()

	pairs := map[string]string{
		"chain/a": "1", "chain/b": "2", "op/000": "3", "op/001": "4",
	}
	for k, v := range pairs {
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-flush mutations land in the memtable and must merge over
	// the segment view.
	if err := db.Put([]byte("op/002"), []byte("5")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("op/000")); err != nil {
		t.Fatal(err)
	}

	var got []string
	err := db.Iterate([]byte("op/"), func(k, v []byte) error {
		got = append(got, string(k)+"="+string(v))
		return nil
	})
	if err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	want := []string{"op/001=4", "op/002=5"}
	if len(got) != len(want) {
		t.Fatalf("Iterate = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Iterate = %v, want %v", got, want)
		}
	}
}

// TestDiskTornWALTail simulates a crash mid-append: bytes past the
// last committed record must be discarded, earlier records kept.
func TestDiskTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	if err := db.Put([]byte("committed"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: plausible header, missing payload bytes.
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db = openTest(t, dir)
	defer db.Close()
	v, ok, err := db.Get([]byte("committed"))
	if err != nil || !ok || string(v) != "yes" {
		t.Fatalf("committed record lost: %q, %v, %v", v, ok, err)
	}
	// The torn tail must have been truncated away so appends resume on
	// a record boundary.
	if err := db.Put([]byte("after"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db = openTest(t, dir)
	defer db.Close()
	if v, ok, _ := db.Get([]byte("after")); !ok || string(v) != "ok" {
		t.Fatalf("post-repair append lost: %q, %v", v, ok)
	}
}

// TestDiskWALMidLogCorruption flips one byte inside the first record's
// payload. That record is not the log's last, so it cannot be a torn
// append: Open must fail with ErrCorrupt and leave the file as it was,
// rather than truncate every committed record after it away.
func TestDiskWALMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	for _, k := range []string{"a", "b", "c"} {
		if err := db.Put([]byte(k), []byte("value-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+frameHeader+2] ^= 0x01 // inside record a's payload
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, WithNoSync()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a mid-log flip: err = %v, want ErrCorrupt", err)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("refused wal was modified: %d bytes -> %d", len(data), len(after))
	}
}

// TestDiskWALUndecodableRecord appends a frame whose checksum is valid
// but whose payload is not a batch. A checksummed frame was written
// whole, so even as the last frame it is corruption, not a torn append.
func TestDiskWALUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	if err := db.Put([]byte("committed"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	db.Close()
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame([]byte{9, 0, 0, 0, 0})); err != nil { // op 9 does not exist
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.ReadFile(walPath)

	if _, err := Open(dir, WithNoSync()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over an undecodable record: err = %v, want ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(walPath); !bytes.Equal(after, before) {
		t.Fatal("refused wal was modified")
	}
}

// TestDiskEmptyValueSurvivesReplay pins that a put of an empty value
// replays as a put, not as a tombstone.
func TestDiskEmptyValueSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	if err := db.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db = openTest(t, dir)
	defer db.Close()
	if v, ok, err := db.Get([]byte("empty")); err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value after replay = %q, %v, %v", v, ok, err)
	}
}

// TestDiskSegmentBitFlip flips every byte of a segment file in turn;
// each mutation must surface as an error on full parse — never as a
// silently different decode.
func TestDiskSegmentBitFlip(t *testing.T) {
	var entries []segEntry
	for i := 0; i < 40; i++ {
		entries = append(entries, segEntry{
			key: fmt.Sprintf("key-%03d", i),
			val: []byte(fmt.Sprintf("value-%d", i)),
		})
	}
	entries[5] = segEntry{key: entries[5].key, del: true}
	img := encodeSegment(entries)

	orig, err := parseSegment(img)
	if err != nil {
		t.Fatalf("parse of pristine image: %v", err)
	}
	if len(orig) != len(entries) {
		t.Fatalf("parse lost entries: %d != %d", len(orig), len(entries))
	}

	for pos := 0; pos < len(img); pos++ {
		mut := append([]byte(nil), img...)
		mut[pos] ^= 0x40
		got, err := parseSegment(mut)
		if err != nil {
			continue
		}
		// A parse that still succeeds must be canonical — re-encoding
		// must reproduce the mutated image — and that cannot happen for
		// a single-bit flip unless decode output changed silently.
		if !bytes.Equal(encodeSegment(got), mut) {
			t.Fatalf("flip at %d: silent non-canonical decode", pos)
		}
		t.Fatalf("flip at %d went undetected", pos)
	}

	// Every truncation must fail loudly too.
	for cut := 0; cut < len(img); cut++ {
		if _, err := parseSegment(img[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// TestDiskCrashMidFlushOrphan simulates dying between writing a
// segment file and committing the manifest: the orphan segment must be
// swept and the data must still come back from the WAL.
func TestDiskCrashMidFlushOrphan(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate the crash artifacts: an orphan segment and a temp file.
	orphan := encodeSegment([]segEntry{{key: "zzz", val: []byte("orphan")}})
	if err := os.WriteFile(filepath.Join(dir, "seg-09999999.seg"), orphan, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000042.seg.tmp"), orphan, 0o644); err != nil {
		t.Fatal(err)
	}

	db = openTest(t, dir)
	defer db.Close()
	if _, ok, _ := db.Get([]byte("zzz")); ok {
		t.Fatal("orphan segment data visible")
	}
	if v, ok, _ := db.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("WAL data lost: %q, %v", v, ok)
	}
	for _, name := range []string{"seg-09999999.seg", "seg-00000042.seg.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s not swept", name)
		}
	}
}

// TestDiskAsKVStore runs the backend through the store.KVStore
// interface under a Prefixed view, the way the service consumes it.
func TestDiskAsKVStore(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	defer db.Close()
	var kv store.KVStore = db
	pre := store.Prefixed(kv, "chain/")
	if err := pre.Put([]byte("head"), []byte("7")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := kv.Get([]byte("chain/head"))
	if err != nil || !ok || string(v) != "7" {
		t.Fatalf("prefixed write not visible raw: %q %v %v", v, ok, err)
	}
	if _, ok := interface{}(db).(store.StatsProvider); !ok {
		t.Fatal("disk backend must implement store.StatsProvider")
	}
}

func TestDiskClosed(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get([]byte("k")); err != store.ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != store.ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if err := db.Iterate(nil, func(_, _ []byte) error { return nil }); err != store.ErrClosed {
		t.Fatalf("Iterate after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// FuzzSegmentCodec pins the segment format's two safety properties:
// parseSegment never panics on arbitrary bytes, and any image it does
// accept is canonical — re-encoding the decoded entries reproduces the
// input bit for bit. Together with the CRC frames this means a torn
// write, truncation or bit flip can only ever surface as ErrCorrupt,
// never as silently different data.
func FuzzSegmentCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(encodeSegment(nil))
	f.Add(encodeSegment([]segEntry{{key: "a", val: []byte("1")}}))
	f.Add(encodeSegment([]segEntry{
		{key: "a", val: []byte{}},
		{key: "b", del: true},
		{key: "c", val: []byte("ccc")},
	}))
	var many []segEntry
	for i := 0; i < 50; i++ {
		many = append(many, segEntry{key: fmt.Sprintf("k%04d", i), val: []byte{byte(i)}})
	}
	full := encodeSegment(many)
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(full[:len(full)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := parseSegment(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeSegment(entries), data) {
			t.Fatalf("accepted non-canonical segment image (%d bytes)", len(data))
		}
		for i := 1; i < len(entries); i++ {
			if entries[i-1].key >= entries[i].key {
				t.Fatalf("accepted unsorted entries %q >= %q", entries[i-1].key, entries[i].key)
			}
		}
	})
}
