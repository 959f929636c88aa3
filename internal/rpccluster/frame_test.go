package rpccluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"repro/internal/field"
)

func TestFrameRequestRoundTrip(t *testing.T) {
	cases := []*requestFrame{
		{ID: 1, Worker: 0, Key: "fwd", Batch: 1, Iter: 0, Input: []field.Elem{1, 2, 3}},
		{ID: 1<<64 - 1, Worker: 4095, Key: "", Batch: 0, Iter: -1, Input: nil},
		{ID: 42, Worker: 7, Key: "bwd", Batch: 32, Iter: 999,
			Input: []field.Elem{0, 1<<64 - 1, 0x0123456789abcdef}},
	}
	for _, rf := range cases {
		wire := encodeRequest(rf)
		got, err := readRequest(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("%+v: %v", rf, err)
		}
		if !reflect.DeepEqual(got, rf) {
			t.Fatalf("request round trip:\n got %+v\nwant %+v", got, rf)
		}
		// Decoding must consume exactly the frame: a second frame appended
		// to the stream still reads cleanly.
		double := bufio.NewReader(bytes.NewReader(append(append([]byte{}, wire...), wire...)))
		for i := 0; i < 2; i++ {
			if _, err := readRequest(double); err != nil {
				t.Fatalf("frame %d of a back-to-back stream: %v", i, err)
			}
		}
	}
}

func TestFrameResponseRoundTrip(t *testing.T) {
	cases := []*responseFrame{
		{ID: 9, Output: []field.Elem{5, 6, 7}},
		{ID: 0, Output: nil},
		{ID: 3, Output: []field.Elem{8}},
		{ID: 77, Err: "rpccluster: no shard for key \"x\""},
	}
	for _, rf := range cases {
		wire := encodeResponse(rf)
		got, err := readResponse(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("%+v: %v", rf, err)
		}
		if !reflect.DeepEqual(got, rf) {
			t.Fatalf("response round trip:\n got %+v\nwant %+v", got, rf)
		}
	}
}

func TestFrameWritevPartsMatchWholeEncoding(t *testing.T) {
	// The server's writev path (head, elems) must concatenate to the
	// canonical encoding byte for byte.
	rf := &responseFrame{ID: 11, Output: []field.Elem{1, 2, 3}}
	head, elems := encodeResponseParts(rf)
	joined := append(append([]byte{}, head...), elems...)
	if !bytes.Equal(joined, encodeResponse(rf)) {
		t.Fatal("writev parts do not concatenate to the canonical frame")
	}
	// Same for the client's request path.
	req := &requestFrame{ID: 12, Worker: 3, Key: "fwd", Batch: 2, Iter: 5, Input: []field.Elem{9}}
	reqTail := encodeRequestTail(req.Key, req.Batch, req.Iter, req.Input)
	var reqHead [requestHeadLen]byte
	requestHead(&reqHead, req.ID, req.Worker, len(reqTail))
	if !bytes.Equal(append(reqHead[:], reqTail...), encodeRequest(req)) {
		t.Fatal("request head+tail do not concatenate to the canonical frame")
	}
}

func TestFrameRejectsMalformedInput(t *testing.T) {
	valid := encodeRequest(&requestFrame{ID: 1, Key: "k", Batch: 1, Input: []field.Elem{1}})
	cases := map[string][]byte{
		"empty":                  {},
		"truncated head":         valid[:7],
		"truncated body":         valid[:len(valid)-3],
		"zero length":            {0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"huge length":            {0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"response where request": encodeResponse(&responseFrame{ID: 1, Output: []field.Elem{1}}),
		"unknown type": func() []byte {
			b := append([]byte{}, valid...)
			b[4] = 9
			return b
		}(),
		"key length past body": func() []byte {
			b := append([]byte{}, valid...)
			binary.LittleEndian.PutUint32(b[frameHeadLen+12:], 1<<30)
			return b
		}(),
		"element count mismatch": func() []byte {
			b := append([]byte{}, valid...)
			binary.LittleEndian.PutUint64(b[len(b)-16:], 7)
			return b
		}(),
	}
	for name, wire := range cases {
		if _, err := readRequest(bufio.NewReader(bytes.NewReader(wire))); err == nil {
			t.Errorf("%s: readRequest accepted a malformed frame", name)
		}
	}

	validResp := encodeResponse(&responseFrame{ID: 1, Output: []field.Elem{1}})
	respCases := map[string][]byte{
		"empty":              {},
		"truncated":          validResp[:len(validResp)-2],
		"request where resp": valid,
		"empty error message": func() []byte {
			// msgLen 0 with a consistent frame length: rejected, because an
			// empty Err would be indistinguishable from success.
			b := []byte{0, 0, 0, 0, typeErr, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
			binary.LittleEndian.PutUint32(b, uint32(1+8+4))
			return b
		}(),
		"trailing bytes after output": func() []byte {
			// The frame length covers four bytes past the output vector: a
			// typeOK body is exactly the count and the elements.
			b := append(append([]byte{}, validResp...), 0, 0, 0, 0)
			binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}(),
	}
	for name, wire := range respCases {
		if _, err := readResponse(bufio.NewReader(bytes.NewReader(wire))); err == nil {
			t.Errorf("%s: readResponse accepted a malformed frame", name)
		}
	}
}

// FuzzFrameRoundTrip throws arbitrary bytes at both frame readers: they must
// never panic, and any stream they DO accept must re-encode byte-identically
// (the codec has exactly one wire form per frame).
func FuzzFrameRoundTrip(fz *testing.F) {
	fz.Add(encodeRequest(&requestFrame{ID: 3, Worker: 1, Key: "fwd", Batch: 2, Iter: 1,
		Input: []field.Elem{1, 2, 3}}))
	fz.Add(encodeResponse(&responseFrame{ID: 4, Output: []field.Elem{7, 8}}))
	fz.Add(encodeResponse(&responseFrame{ID: 5, Err: "boom"}))
	fz.Add([]byte{0, 0, 0, 0})
	fz.Fuzz(func(t *testing.T, wire []byte) {
		if req, err := readRequest(bufio.NewReader(bytes.NewReader(wire))); err == nil {
			re := encodeRequest(req)
			if !bytes.Equal(re, wire[:len(re)]) {
				t.Fatalf("accepted request does not re-encode to its own wire form")
			}
			back, err := readRequest(bufio.NewReader(bytes.NewReader(re)))
			if err != nil || !reflect.DeepEqual(back, req) {
				t.Fatalf("re-encoded request does not round-trip: %v", err)
			}
		}
		if resp, err := readResponse(bufio.NewReader(bytes.NewReader(wire))); err == nil {
			re := encodeResponse(resp)
			if !bytes.Equal(re, wire[:len(re)]) {
				t.Fatalf("accepted response does not re-encode to its own wire form")
			}
			back, err := readResponse(bufio.NewReader(bytes.NewReader(re)))
			if err != nil || !reflect.DeepEqual(back, resp) {
				t.Fatalf("re-encoded response does not round-trip: %v", err)
			}
		}
	})
}

// TestFrameReaderStopsAtFrameBoundary guards the zero-copy read path: the
// element reader must take exactly count*8 bytes and leave the rest.
func TestFrameReaderStopsAtFrameBoundary(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(elemsWire([]field.Elem{10, 20}))
	buf.WriteString("leftover")
	r := bufio.NewReader(&buf)
	v, err := readElems(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 10 || v[1] != 20 {
		t.Fatalf("readElems decoded %v", v)
	}
	rest, _ := io.ReadAll(r)
	if string(rest) != "leftover" {
		t.Fatalf("readElems consumed past its elements; %q left", rest)
	}
}
