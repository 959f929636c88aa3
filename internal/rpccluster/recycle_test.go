package rpccluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
)

// dirtyVec puts back into the pool a vector of n words, none of them below
// q: whatever later reads one out of its tail reads a non-field element.
func dirtyVec(n int) {
	v := field.GetVec(n)
	for i := range v {
		v[i] = f.Q() + field.Elem(i)
	}
	field.PutVec(v)
}

// TestRecycledInputIsExactlyTheRequest: a request read into a recycled
// vector holds exactly its own elements, whatever a longer request left in
// the vector before it.
func TestRecycledInputIsExactlyTheRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for range 8 {
		dirtyVec(1000)
		in := f.RandVec(rng, 600) // the same size class as 1000
		wire := encodeRequest(&requestFrame{ID: 1, Key: "k", Batch: 1, Input: in})
		got, err := readRequest(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatal(err)
		}
		if !field.EqualVec(got.Input, in) {
			t.Fatalf("recycled input read %d elements, not the request's %d", len(got.Input), len(in))
		}
		field.PutVec(got.Input)
	}
}

// TestFrameServerLongThenShortRequest: on one connection, a long request
// whose tail holds words ≥ q is refused, and the short request after it —
// read into whichever vector the pool hands back — is computed over exactly
// its own elements.
func TestFrameServerLongThenShortRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(410))
	long, short := fieldmat.Rand(f, rng, 4, 1000), fieldmat.Rand(f, rng, 4, 600)
	w := cluster.NewWorker(0)
	w.Shards["long"], w.Shards["short"] = long, short
	srv, err := ServeFrames("127.0.0.1:0", f, w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	exec, err := DialFrames([]string{srv.Addr}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	for round := range 20 {
		bad := f.RandVec(rng, long.Cols)
		for i := short.Cols; i < long.Cols; i++ {
			bad[i] = f.Q() + field.Elem(i)
		}
		res := exec.RunRound(context.Background(), "long", bad, 1, round, []int{0})
		var we WorkerError
		if len(res) != 1 || !errors.As(res[0].Err, &we) {
			t.Fatalf("round %d: a long input with words ≥ q was not refused: %+v", round, res)
		}
		in := f.RandVec(rng, short.Cols)
		res = exec.RunRound(context.Background(), "short", in, 1, round, []int{0})
		if len(res) != 1 || res[0].Err != nil {
			t.Fatalf("round %d: short request after a long one: %+v", round, res)
		}
		if !field.EqualVec(res[0].Output, fieldmat.MatVec(f, short, in)) {
			t.Fatalf("round %d: short request computed over more than its own elements", round)
		}
	}
}

// TestLyingLengthHeaderGrowsByChunks: a header claiming more elements than
// the pool recycles is read chunk by chunk, so a stream that runs dry costs
// one chunk, not the claimed size.
func TestLyingLengthHeaderGrowsByChunks(t *testing.T) {
	const claimed = 1 << 26 // 512 MiB of elements
	wire := encodeRequest(&requestFrame{ID: 1, Key: "k", Batch: 1, Input: []field.Elem{1, 2, 3}})
	// Patch the frame length and the element count to the claim; the stream
	// still carries three elements.
	binary.LittleEndian.PutUint32(wire[0:], uint32(len(wire)-4-3*8+claimed*8))
	binary.LittleEndian.PutUint64(wire[len(wire)-4*8:], claimed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := readRequest(bufio.NewReader(bytes.NewReader(wire))); err == nil {
		t.Fatal("a frame short of its claimed elements was accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*elemChunk*8 {
		t.Fatalf("a lying header cost %d bytes of allocation, more than a few %d-element chunks", grew, elemChunk)
	}
}

// TestServedRequestRecyclesItsVectors: in steady state the server's request
// path — read the frame, compute, release — allocates no element vector:
// the input and the result both come back from the pool.
func TestServedRequestRecyclesItsVectors(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop vectors on purpose")
	}
	rng := rand.New(rand.NewSource(411))
	const batch = 8
	shard := fieldmat.Rand(f, rng, 32, 512)
	w := cluster.NewWorker(0)
	w.Shards["fwd"] = shard
	s := &FrameServer{f: f, workers: map[int]*cluster.Worker{0: w}}
	wire := encodeRequest(&requestFrame{ID: 1, Key: "fwd", Batch: batch, Input: f.RandVec(rng, batch*shard.Cols)})
	r := bytes.NewReader(wire)
	br := bufio.NewReader(r)
	serve := func() {
		r.Reset(wire)
		br.Reset(r)
		req, err := readRequest(br)
		if err != nil {
			t.Fatal(err)
		}
		resp := s.handle(req)
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		release(req, resp)
	}
	serve() // packs the shard and fills the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	allocs := testing.AllocsPerRun(runs, serve)
	runtime.ReadMemStats(&after)
	// What is left is small and fixed whatever the vector length: the
	// header buffers, the frame, its key and the response (7 on go1.24).
	if allocs > 8 {
		t.Errorf("%.1f allocations per served request, want at most 8 (no element vector)", allocs)
	}
	// The result (batch × rows) is the smaller of the two vectors.
	outBytes := uint64(batch*shard.Rows) * 8
	if perReq := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perReq >= outBytes/4 {
		t.Errorf("%d bytes allocated per served request; the result vector alone is %d", perReq, outBytes)
	}
}
