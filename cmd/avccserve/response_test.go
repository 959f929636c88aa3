package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/metrics"
)

// mapMatvecBody is the /v1/matvec body built the reflective way: the
// response as a map, through json.NewEncoder. appendMatvecResponse must
// write exactly these bytes.
func mapMatvecBody(t *testing.T, out *cluster.RoundOutput, receipt []byte) []byte {
	t.Helper()
	resp := map[string]any{
		"output":    out.Decoded,
		"used":      out.Used,
		"byzantine": out.Byzantine,
		"wall_sec":  out.Breakdown.Wall,
	}
	if receipt != nil {
		resp["receipt"] = base64.StdEncoding.EncodeToString(receipt)
		resp["receipt_column"] = out.ReceiptColumn
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMatvecResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	receipt := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	outputs := [][]field.Elem{nil, {}, {0}, {field.Elem(field.QDefault - 1), 7, 1<<32 - 1, 1<<64 - 1}}
	ints := [][]int{nil, {}, {0}, {3, 11, -1}}
	walls := []float64{0, 1e-9, 1e21, 1e20, 5e-7, 1e-6, 123.456, 0.001234, 3.5e22, -1.5, 2.5e-300}
	receipts := [][]byte{nil, receipt(1), receipt(2), receipt(3), receipt(50 << 10)}
	cases := 0
	for _, dec := range outputs {
		for _, used := range ints {
			for _, byz := range ints {
				for _, wall := range walls {
					for _, rc := range receipts {
						out := &cluster.RoundOutput{
							Decoded:       dec,
							Used:          used,
							Byzantine:     byz,
							Breakdown:     metrics.Breakdown{Wall: wall},
							ReceiptColumn: cases % 33,
						}
						want := mapMatvecBody(t, out, rc)
						if got := appendMatvecResponse(nil, out, rc); !bytes.Equal(got, want) {
							t.Fatalf("body diverges from encoding/json:\n got %.300q\nwant %.300q", got, want)
						}
						cases++
					}
				}
			}
		}
	}
	// Appending keeps what dst already holds.
	out := &cluster.RoundOutput{Decoded: []field.Elem{1, 2}, Used: []int{0}}
	if got := appendMatvecResponse([]byte("prefix"), out, nil); !bytes.Equal(got, append([]byte("prefix"), mapMatvecBody(t, out, nil)...)) {
		t.Fatalf("append onto a non-empty dst: %q", got)
	}
}
