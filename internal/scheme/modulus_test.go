package scheme

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

func TestFieldForResolvesModuli(t *testing.T) {
	cases := []struct {
		name    string
		modulus uint64
		wantQ   uint64
	}{
		{"zero means the paper default", 0, field.QDefault},
		{"explicit paper modulus", field.QDefault, field.QDefault},
		{"ntt modulus", field.QNTT, field.QNTT},
		{"arbitrary prime", 97, 97},
	}
	for _, c := range cases {
		got, err := FieldFor(Config{Modulus: c.modulus})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Q() != c.wantQ {
			t.Errorf("%s: q = %d, want %d", c.name, got.Q(), c.wantQ)
		}
	}
	// The shipped moduli resolve to the shared instances.
	if got, _ := FieldFor(Config{Modulus: field.QNTT}); got != field.NTTFriendly() {
		t.Error("QNTT did not resolve to the shared companion instance")
	}
	if got, _ := FieldFor(Config{}); got != field.Default() {
		t.Error("zero modulus did not resolve to the shared default instance")
	}
	if _, err := FieldFor(Config{Modulus: 1 << 20}); err == nil {
		t.Error("FieldFor accepted a composite modulus")
	}
}

// TestNewRejectsModulusMismatch pins the cross-check: a config pinned to one
// modulus must not silently construct a master over a different field.
func TestNewRejectsModulusMismatch(t *testing.T) {
	x := fieldmat.Rand(f, rand.New(rand.NewSource(5)), 18, 6)
	data := map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
	_, err := New("avcc", f, NewConfig(WithModulus(field.QNTT)), data, nil, nil)
	var cfgErr *InvalidConfigError
	if !errors.As(err, &cfgErr) {
		t.Fatalf("got %v, want *InvalidConfigError", err)
	}
	if cfgErr.Field != "Modulus" {
		t.Fatalf("error names field %q, want Modulus", cfgErr.Field)
	}
}

// TestNewRejectsNonCanonicalData plants one entry at q+3 in a data matrix:
// every scheme, sharded or not and with receipts on or off, must refuse it
// at New with an error errors.Is matches against ErrNonCanonicalInput and
// that names the entry, instead of building a master whose first round
// panics packing the shard.
func TestNewRejectsNonCanonicalData(t *testing.T) {
	x := fieldmat.Rand(f, rand.New(rand.NewSource(5)), 18, 6)
	x.Data[7] = f.Q() + 3
	for _, name := range Names() {
		data := map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose(), "gram": x}
		for _, cfg := range []Config{NewConfig(), NewConfig(WithReceipts(true)), NewConfig(WithShards(2))} {
			_, err := New(name, f, cfg, data, nil, nil)
			if !errors.Is(err, ErrNonCanonicalInput) {
				t.Fatalf("%s: New returned %v, want an error matching ErrNonCanonicalInput", name, err)
			}
			var dataErr *NonCanonicalDataError
			var entry *fieldmat.NonCanonicalError
			if !errors.As(err, &dataErr) || dataErr.Key != "bwd" || !errors.As(err, &entry) || entry.Value != f.Q()+3 {
				t.Fatalf("%s: New returned %v, want the bwd matrix's entry %d named", name, err, f.Q()+3)
			}
		}
	}
}

// TestRoundOnNTTModulus runs one verified round end to end on the
// companion field QNTT — the full protocol stack (encode, Freivalds verify,
// decode) over a modulus other than the paper's.
func TestRoundOnNTTModulus(t *testing.T) {
	cfg := NewConfig(WithModulus(field.QNTT), WithSeed(7))
	nf, err := FieldFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x := fieldmat.Rand(nf, rng, 36, 10)
	data := map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
	m, err := New("avcc", nf, cfg, data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := nf.RandVec(rng, 10)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(nf, x, w)
	if !field.EqualVec(out.Decoded, want) {
		t.Fatal("round on the NTT modulus decoded the wrong product")
	}
}
