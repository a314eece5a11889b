package tinyevm

import "testing"

// TestRetiredOptionValuesRefused pins the two options kept only for
// existing callers: they accept the one remaining engine and commitment
// and make NewService fail on anything else.
func TestRetiredOptionValuesRefused(t *testing.T) {
	for name, opt := range map[string]Option{
		`WithStoreBackend("wal")`:  WithStoreBackend("wal"),
		`WithStoreBackend("")`:     WithStoreBackend(""),
		`WithMSTCommitment(false)`: WithMSTCommitment(false),
	} {
		if _, _, err := NewService("hub", opt); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	svc, _, err := NewService("hub", WithDataDir(t.TempDir()), WithStoreBackend("disk"), WithMSTCommitment(true))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
}
