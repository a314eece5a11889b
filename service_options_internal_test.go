package tinyevm

import "testing"

// TestRetiredOptionValuesRefused pins the options kept only for
// existing callers: they accept the one remaining store engine,
// commitment and serial block producer, and make NewService fail on
// anything else.
func TestRetiredOptionValuesRefused(t *testing.T) {
	for name, opt := range map[string]Option{
		`WithStoreBackend("wal")`:  WithStoreBackend("wal"),
		`WithStoreBackend("")`:     WithStoreBackend(""),
		`WithMSTCommitment(false)`: WithMSTCommitment(false),
		`WithEngineWorkers(4)`:     WithEngineWorkers(4),
	} {
		if _, _, err := NewService("hub", opt); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	svc, _, err := NewService("hub", WithDataDir(t.TempDir()), WithStoreBackend("disk"), WithMSTCommitment(true), WithEngineWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
}
