// The store package's tests live in an external test package so the
// store.KVStore contract runs against the durable disk backend too (disk
// imports store). The TestWAL* tests pin the crash behaviour of the
// disk store's write-ahead log through its public surface.
package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tinyevm/internal/store"
	"tinyevm/internal/store/disk"
)

// walFile is the disk store's write-ahead log inside its directory.
func walFile(dir string) string { return filepath.Join(dir, "wal.log") }

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	info, err := os.Stat(walFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func openDisk(t *testing.T, dir string) *disk.DB {
	t.Helper()
	db, err := disk.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// backends runs a subtest against every KVStore implementation: the
// in-memory store and the disk store, the latter both with its data
// still in the write-ahead log ("wal": the default flush threshold is
// never reached) and flushed into segments on every commit ("disk"),
// each also behind a Prefixed view.
func backends(t *testing.T, fn func(t *testing.T, kv store.KVStore)) {
	t.Run("mem", func(t *testing.T) { fn(t, store.NewMem()) })
	for _, c := range []struct {
		name string
		opts []disk.Option
	}{
		{"wal", nil},
		{"disk", []disk.Option{disk.WithFlushBytes(1)}},
	} {
		for _, prefixed := range []bool{false, true} {
			name := c.name
			if prefixed {
				name = "prefixed-" + name
			}
			t.Run(name, func(t *testing.T) {
				db, err := disk.Open(t.TempDir(), append([]disk.Option{disk.WithNoSync()}, c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if prefixed {
					fn(t, store.Prefixed(db, "ns/"))
				} else {
					fn(t, db)
				}
			})
		}
	}
}

func TestStoreBasics(t *testing.T) {
	backends(t, func(t *testing.T, kv store.KVStore) {
		if _, ok, _ := kv.Get([]byte("missing")); ok {
			t.Fatal("missing key found")
		}
		if err := kv.Put([]byte("a"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := kv.Put([]byte("a"), []byte("2")); err != nil {
			t.Fatal(err)
		}
		v, ok, err := kv.Get([]byte("a"))
		if err != nil || !ok || string(v) != "2" {
			t.Fatalf("get a = %q %v %v", v, ok, err)
		}
		if err := kv.Delete([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := kv.Get([]byte("a")); ok {
			t.Fatal("deleted key found")
		}
		if err := kv.Delete([]byte("a")); err != nil {
			t.Fatal("double delete errored:", err)
		}
	})
}

func TestStoreIterateOrder(t *testing.T) {
	backends(t, func(t *testing.T, kv store.KVStore) {
		for _, k := range []string{"b/2", "a/1", "b/1", "c", "b/10"} {
			if err := kv.Put([]byte(k), []byte("v"+k)); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		if err := kv.Iterate([]byte("b/"), func(k, v []byte) error {
			if string(v) != "v"+string(k) {
				t.Fatalf("value mismatch for %q: %q", k, v)
			}
			got = append(got, string(k))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := []string{"b/1", "b/10", "b/2"}
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	})
}

func TestStoreBatchAtomicVisibility(t *testing.T) {
	backends(t, func(t *testing.T, kv store.KVStore) {
		if err := kv.Put([]byte("gone"), []byte("x")); err != nil {
			t.Fatal(err)
		}
		b := kv.Batch()
		b.Put([]byte("k1"), []byte("v1"))
		b.Put([]byte("k2"), []byte("v2"))
		b.Delete([]byte("gone"))
		if _, ok, _ := kv.Get([]byte("k1")); ok {
			t.Fatal("uncommitted batch visible")
		}
		if b.Len() != 3 {
			t.Fatalf("batch len = %d", b.Len())
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := kv.Get([]byte("k2")); !ok || string(v) != "v2" {
			t.Fatalf("k2 = %q %v", v, ok)
		}
		if _, ok, _ := kv.Get([]byte("gone")); ok {
			t.Fatal("batched delete not applied")
		}
	})
}

func TestWALReopenRestores(t *testing.T) {
	dir := t.TempDir()
	w := openDisk(t, dir)
	for i := 0; i < 100; i++ {
		if err := w.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Delete([]byte("key-050")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openDisk(t, dir)
	defer w2.Close()
	if v, ok, _ := w2.Get([]byte("key-099")); !ok || string(v) != "val-99" {
		t.Fatalf("key-099 = %q %v", v, ok)
	}
	if _, ok, _ := w2.Get([]byte("key-050")); ok {
		t.Fatal("deleted key resurrected on reopen")
	}
	n := 0
	w2.Iterate(nil, func(k, v []byte) error { n++; return nil })
	if n != 99 {
		t.Fatalf("keys after reopen = %d, want 99", n)
	}
}

// TestWALTornTail crash-simulates a partial append: everything up to
// the last fully written record must replay, the tail is discarded, and
// the log stays appendable.
func TestWALTornTail(t *testing.T) {
	for _, cut := range []int{1, 5, 9} { // cut inside frame header and payload
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			w := openDisk(t, dir)
			if err := w.Put([]byte("durable"), []byte("yes")); err != nil {
				t.Fatal(err)
			}
			sizeAfterFirst := walSize(t, dir)
			if err := w.Put([]byte("torn"), []byte("record")); err != nil {
				t.Fatal(err)
			}
			w.Close()

			// Tear the second record cut bytes after its start.
			if err := os.Truncate(walFile(dir), sizeAfterFirst+int64(cut)); err != nil {
				t.Fatal(err)
			}

			w2 := openDisk(t, dir)
			if v, ok, _ := w2.Get([]byte("durable")); !ok || string(v) != "yes" {
				t.Fatalf("durable = %q %v", v, ok)
			}
			if _, ok, _ := w2.Get([]byte("torn")); ok {
				t.Fatal("torn record replayed")
			}
			// The log must accept and persist new appends after repair.
			if err := w2.Put([]byte("after"), []byte("repair")); err != nil {
				t.Fatal(err)
			}
			w2.Close()
			w3 := openDisk(t, dir)
			defer w3.Close()
			if v, ok, _ := w3.Get([]byte("after")); !ok || string(v) != "repair" {
				t.Fatalf("after = %q %v", v, ok)
			}
		})
	}
}

// TestWALChecksumCorruption flips a payload byte of the last record: the
// checksum must reject it and replay must stop at the previous record.
// (A flip in an earlier record is corruption, not a torn tail; see
// disk's TestDiskWALMidLogCorruption.)
func TestWALChecksumCorruption(t *testing.T) {
	dir := t.TempDir()
	w := openDisk(t, dir)
	if err := w.Put([]byte("good"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Put([]byte("bad"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	data, err := os.ReadFile(walFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // corrupt the last payload byte
	if err := os.WriteFile(walFile(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openDisk(t, dir)
	defer w2.Close()
	if v, ok, _ := w2.Get([]byte("good")); !ok || string(v) != "1" {
		t.Fatalf("good = %q %v", v, ok)
	}
	if _, ok, _ := w2.Get([]byte("bad")); ok {
		t.Fatal("checksum-corrupted record replayed")
	}
}

func TestWALBadHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(walFile(dir), []byte("NOTAWAL0junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.Open(dir); !errors.Is(err, disk.ErrCorrupt) {
		t.Fatalf("bad header: err = %v, want ErrCorrupt", err)
	}
	if data, _ := os.ReadFile(walFile(dir)); string(data) != "NOTAWAL0junk" {
		t.Fatalf("refused log was rewritten: %q", data)
	}
}

// TestWALCompact flushes overwritten history out of the log and
// preserves the live map across the flush and a reopen.
func TestWALCompact(t *testing.T) {
	dir := t.TempDir()
	w := openDisk(t, dir)
	big := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 200; i++ {
		if err := w.Put([]byte("hot"), append(big, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Put([]byte("cold"), []byte("keep")); err != nil {
		t.Fatal(err)
	}
	before := walSize(t, dir)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := walSize(t, dir); after >= before/10 {
		t.Fatalf("flush barely shrank the log: %d -> %d", before, after)
	}
	if v, ok, _ := w.Get([]byte("cold")); !ok || string(v) != "keep" {
		t.Fatalf("cold after flush = %q %v", v, ok)
	}
	// The truncated log must still replay and accept appends.
	if err := w.Put([]byte("post"), []byte("compact")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2 := openDisk(t, dir)
	defer w2.Close()
	for _, kv := range [][2]string{{"hot", string(append(big, 199))}, {"cold", "keep"}, {"post", "compact"}} {
		if v, ok, _ := w2.Get([]byte(kv[0])); !ok || string(v) != kv[1] {
			t.Fatalf("%s after flush+reopen = %q %v", kv[0], v, ok)
		}
	}
}

func TestPrefixedIsolation(t *testing.T) {
	base := store.NewMem()
	a := store.Prefixed(base, "a/")
	b := store.Prefixed(base, "b/")
	if err := a.Put([]byte("k"), []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put([]byte("k"), []byte("vb")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := a.Get([]byte("k")); !ok || string(v) != "va" {
		t.Fatalf("a/k = %q %v", v, ok)
	}
	var keys []string
	a.Iterate(nil, func(k, v []byte) error { keys = append(keys, string(k)); return nil })
	if len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("a iterate = %v", keys)
	}
	// The raw store sees both namespaced keys.
	if v, ok, _ := base.Get([]byte("b/k")); !ok || string(v) != "vb" {
		t.Fatalf("base b/k = %q %v", v, ok)
	}
}

func TestStoreClosed(t *testing.T) {
	backends(t, func(t *testing.T, kv store.KVStore) {
		if strings.HasPrefix(t.Name(), "TestStoreClosed/prefixed-") {
			t.Skip("prefixed views do not own the underlying store")
		}
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := kv.Put([]byte("k"), []byte("v")); err == nil {
			t.Fatal("put after close succeeded")
		}
		if _, _, err := kv.Get([]byte("k")); err == nil {
			t.Fatal("get after close succeeded")
		}
	})
}
