package secp256k1

// Known-answer vectors recorded from this package, so a reimplementation
// of the field and group arithmetic must match it byte for byte.
// Regenerate (only when the recorded behaviour is meant to change) with:
//
//	go test ./internal/secp256k1 -run TestKnownAnswerVectors -update-kat

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"testing"

	"tinyevm/internal/keccak"
	"tinyevm/internal/types"
)

var updateKAT = flag.Bool("update-kat", false, "rewrite testdata/kat.json from the current implementation")

const katPath = "testdata/kat.json"

// katVector is one signature over a digest: a (DeterministicKey seed,
// digest) → 65-byte signature and signer address tuple, or, with Name
// set, a 65-byte encoding ParseSignature must reject.
type katVector struct {
	Name    string `json:"name,omitempty"`
	Seed    string `json:"seed,omitempty"`
	Digest  string `json:"digest"`
	Sig     string `json:"sig"`
	Address string `json:"address,omitempty"`
}

type katFile struct {
	Sign   []katVector `json:"sign"`
	Reject []katVector `json:"reject"`
}

// katDigest returns the i-th digest: all-zero, all-ones and the group
// order first, keccak of a label after that.
func katDigest(i int) (h types.Hash) {
	switch i {
	case 0:
	case 1:
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)).FillBytes(h[:])
	case 2:
		N.FillBytes(h[:])
	default:
		h = keccak.Sum256([]byte(fmt.Sprintf("tinyevm-kat-digest-%d", i)))
	}
	return h
}

func generateKAT(t *testing.T) (f katFile) {
	for i := 0; i < 64; i++ {
		seed, digest := fmt.Sprintf("tinyevm-kat-key-%d", i), katDigest(i)
		key := DeterministicKey(seed)
		sig, err := key.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		f.Sign = append(f.Sign, katVector{Seed: seed, Digest: hex.EncodeToString(digest[:]),
			Sig: hex.EncodeToString(sig.Serialize()), Address: key.PublicKey.Address().Hex()})
	}
	// Variants of vector 3's signature. high-s is the same point with
	// s' = N - s and the parity flipped: valid ECDSA, refused by low-s.
	good, _ := hex.DecodeString(f.Sign[3].Sig)
	r, s := new(big.Int).SetBytes(good[:32]), new(big.Int).SetBytes(good[32:64])
	maxR := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	for _, v := range []struct {
		name string
		r, s *big.Int
		v    byte
	}{
		{"high-s", r, new(big.Int).Sub(N, s), good[64] ^ 1},
		{"v=2", r, s, 2},
		{"r=0", new(big.Int), s, good[64]},
		{"r=N", N, s, good[64]},
		{"r=2^256-1", maxR, s, good[64]},
	} {
		sig := (&Signature{R: v.r, S: v.s, V: v.v}).Serialize()
		f.Reject = append(f.Reject, katVector{Name: v.name, Digest: f.Sign[3].Digest, Sig: hex.EncodeToString(sig)})
	}
	return f
}

func TestKnownAnswerVectors(t *testing.T) {
	if *updateKAT {
		data, err := json.MarshalIndent(generateKAT(t), "", "  ")
		if err == nil {
			err = os.WriteFile(katPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(katPath)
	if err != nil {
		t.Fatalf("reading vectors (run with -update-kat to create): %v", err)
	}
	var f katFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Sign) != 64 || len(f.Reject) != 5 {
		t.Fatalf("vector file holds %d signing and %d rejection vectors", len(f.Sign), len(f.Reject))
	}
	for _, v := range f.Sign {
		var digest types.Hash
		hex.Decode(digest[:], []byte(v.Digest))
		key := DeterministicKey(v.Seed)
		sig, err := key.Sign(digest)
		if err != nil || hex.EncodeToString(sig.Serialize()) != v.Sig {
			t.Fatalf("%s: signature %x (%v), want %s", v.Seed, sig.Serialize(), err, v.Sig)
		}
		raw, _ := hex.DecodeString(v.Sig)
		parsed, err := ParseSignature(raw)
		if err != nil {
			t.Fatalf("%s: parse: %v", v.Seed, err)
		}
		if addr, err := RecoverAddress(digest, parsed); err != nil || addr.Hex() != v.Address {
			t.Fatalf("%s: recovered %s (%v), want %s", v.Seed, addr.Hex(), err, v.Address)
		}
		if !Verify(&key.PublicKey, digest, parsed) {
			t.Fatalf("%s: signature does not verify", v.Seed)
		}
	}
	for _, v := range f.Reject {
		raw, _ := hex.DecodeString(v.Sig)
		if _, err := ParseSignature(raw); !errors.Is(err, ErrInvalidSignature) {
			t.Fatalf("%s: ParseSignature err = %v, want ErrInvalidSignature", v.Name, err)
		}
	}
}
