package store

// Stats is a point-in-time description of a KVStore backend — which
// engine sits under the interface and how much it is holding. The
// service surfaces it over RPC as tinyevm_storeStatus.
//
// Fields that do not apply to a backend stay zero: the in-memory store
// has no files at all.
type Stats struct {
	// Kind names the backend: "mem" or "disk".
	Kind string
	// Segments is the number of immutable segment files (disk backend).
	Segments int
	// SegmentBytes is the total on-disk size of the segment files.
	SegmentBytes int64
	// MemtableBytes is the live byte estimate of the in-memory write
	// buffer (the disk memtable, or the whole in-memory store).
	MemtableBytes int64
	// Flushes counts memtable → segment flushes since open.
	Flushes uint64
	// Compactions counts completed segment compactions since open.
	Compactions uint64
}

// StatsProvider is implemented by backends that can describe
// themselves. Callers type-assert a KVStore against it; a store that
// does not implement it simply reports no stats.
type StatsProvider interface {
	Stats() Stats
}

// Stats implements StatsProvider.
func (s *Mem) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var bytes int64
	for k, v := range s.m {
		bytes += int64(len(k) + len(v))
	}
	return Stats{Kind: "mem", MemtableBytes: bytes}
}
