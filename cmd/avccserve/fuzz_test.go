package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
)

// FuzzMatvecHandler sends arbitrary body bytes under an arbitrary X-Tenant
// through the /v1/matvec handler over a real AVCC deployment. The handler
// must answer 200, 400, 413 or 503 — never panic, never 500. A 200 must come
// from a body whose first JSON value is a cols-wide, in-field input, and its
// output must be the exact product; such a body within the size bound must
// get its 200; and a 413 must come from a body above the bound.
func FuzzMatvecHandler(fz *testing.F) {
	f := field.Default()
	rng := rand.New(rand.NewSource(13))
	x := fieldmat.Rand(f, rng, 36, 4)
	master, err := scheme.New("avcc", f, scheme.NewConfig(scheme.WithSeed(13)),
		map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		fz.Fatal(err)
	}
	svc := scheme.NewService(master, scheme.ServiceConfig{MaxBatch: 8})
	fz.Cleanup(func() { svc.Close(context.Background()) })
	h := newServer(svc, master, f, x.Cols).handler()
	limit := maxBodyBytes(x.Cols)

	fz.Add([]byte(`{"input": [1, 2, 3, 4]}`), "")
	fz.Add([]byte(`{"input": [4294967295, 0, 0, 0]}`), "alice")
	fz.Add([]byte(`{"input": [1, 2, 3]}`), "bob")
	fz.Add([]byte(`{"input": [1, 2, 3, -4]}`), "")
	fz.Add([]byte(`{"input": [1, 2, 3, 4]} trailing`), "x\x00y")
	fz.Add([]byte(`{not json`), "")
	fz.Add(append([]byte(`{"input": [1, 2, 3, 4]`), append(bytes.Repeat([]byte(" "), int(limit)), '}')...), "")

	fz.Fuzz(func(t *testing.T, body []byte, tenant string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/matvec", bytes.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		// What the handler should have seen: the first JSON value of the body.
		var want struct {
			Input []field.Elem `json:"input"`
		}
		wellFormed := json.NewDecoder(bytes.NewReader(body)).Decode(&want) == nil &&
			len(want.Input) == x.Cols
		for _, v := range want.Input {
			wellFormed = wellFormed && uint64(v) < f.Q()
		}

		switch rec.Code {
		case http.StatusOK:
			if !wellFormed {
				t.Fatalf("200 for a body that is not a %d-wide in-field input: %q", x.Cols, body)
			}
			var got struct {
				Output []field.Elem `json:"output"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("200 with an undecodable response %q: %v", rec.Body.Bytes(), err)
			}
			if !field.EqualVec(got.Output, fieldmat.MatVec(f, x, want.Input)) {
				t.Fatalf("200 with the wrong product for %v", want.Input)
			}
		case http.StatusBadRequest:
			if wellFormed && int64(len(body)) <= limit {
				t.Fatalf("400 for a well-formed body: %q: %s", body, rec.Body.Bytes())
			}
		case http.StatusRequestEntityTooLarge:
			if int64(len(body)) <= limit {
				t.Fatalf("413 for a %d-byte body, bound %d", len(body), limit)
			}
		case http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}
