// The framed wire protocol of the data plane.
//
// A general-purpose RPC layer costs this path three ways: every call
// re-encodes its arguments by reflection over []uint64 payloads that are
// already in wire shape, a round broadcasting one input to N workers pays
// that encoding N times, and an abandoned call (timeout, cancellation) stays
// pinned in the client's pending map until the server eventually answers.
// The framed protocol avoids all three structurally:
//
//   - Length-prefixed binary frames with explicit little-endian layout: no
//     reflection, no per-call encoder state.
//   - []field.Elem payloads travel as their raw backing bytes (field.Elem
//     is uint64): on little-endian hosts the vector's memory is written
//     directly to the socket and read directly into the result slice —
//     zero copies, zero transformations. Big-endian hosts byte-swap.
//   - The request body is split into a 17-byte per-call header (length,
//     type, request ID, worker ID) and a shared tail (batch, iter, key,
//     input vector). A round encodes the tail ONCE and writes header+tail
//     to every worker with one writev each.
//   - A response is the output vector and nothing else: the worker vouches
//     for nothing. The master checks what arrives (Freivalds), and a
//     receipt's output trees are built by the master from the outputs its
//     decode consumed.
//   - Responses carry the request ID they answer. A caller that gives up
//     removes its pending entry immediately (the reap); when the late
//     frame finally arrives it matches nothing, and the vector it was read
//     into goes back to the pool. Nothing is ever pinned by a slow server.
//
// Frame layout (all integers little-endian):
//
//	frame    := u32 length | u8 type | u64 requestID | body
//	             (length covers everything after the length field)
//	request  := u32 worker | u32 batch | i32 iter | u32 keyLen | key
//	          | u64 elems | input[elems]
//	response := u64 elems | output[elems]                 (typeOK)
//	response := u32 msgLen | msg                          (typeErr)
package rpccluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/field"
)

// Frame types.
const (
	typeRequest byte = 1
	typeOK      byte = 2
	typeErr     byte = 3
)

// maxFrameBytes bounds a frame's declared length so a corrupt or hostile
// peer cannot make the reader allocate unbounded memory. 1 GiB comfortably
// covers the largest coded round this repository ships (a 4096-vector batch
// of GISETTE-width inputs is still an order of magnitude smaller).
const maxFrameBytes = 1 << 30

// fixed per-frame sizes.
const (
	frameHeadLen   = 4 + 1 + 8        // length + type + requestID
	requestHeadLen = frameHeadLen + 4 // + worker ID, the non-shared request prefix
)

// hostLittleEndian reports whether the running machine's native byte order
// matches the wire's. When it does, element vectors cross the unsafe.Slice
// boundary instead of a conversion loop.
var hostLittleEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// elemsWire returns the wire bytes of v. On little-endian hosts this is the
// vector's own backing array (zero-copy: the caller must finish writing
// before mutating v); otherwise a byte-swapped copy.
func elemsWire(v []field.Elem) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, e := range v {
		binary.LittleEndian.PutUint64(out[i*8:], e)
	}
	return out
}

// elemChunk is readElems's growth step in elements (512 KiB), and the
// largest vector readRecycledElems takes from the pool.
const elemChunk = field.MaxPooledVec

// readElems reads count elements from r directly into a fresh vector: on
// little-endian hosts the socket bytes land in the []field.Elem backing
// array with no intermediate buffer. The vector grows chunk by chunk as
// bytes actually arrive, so a frame header lying about a huge payload runs
// the stream dry after one chunk instead of forcing a giant allocation.
func readElems(r io.Reader, count int) ([]field.Elem, error) {
	if count == 0 {
		return nil, nil
	}
	v := make([]field.Elem, 0, min(count, elemChunk))
	for len(v) < count {
		n := min(count-len(v), elemChunk)
		start := len(v)
		v = append(v, make([]field.Elem, n)...)
		if err := readElemsInto(r, v[start:]); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// readRecycledElems is readElems into a recycled vector (field.GetVec),
// which the caller gives back with field.PutVec once nothing reads it. Only
// a count up to one chunk is recycled; a larger one — the most a lying
// header can claim — grows chunk by chunk through readElems.
func readRecycledElems(r io.Reader, count int) ([]field.Elem, error) {
	if count == 0 || count > elemChunk {
		return readElems(r, count)
	}
	v := field.GetVec(count)
	if err := readElemsInto(r, v); err != nil {
		return nil, err
	}
	return v, nil
}

// readElemsInto fills v from exactly len(v) elements of wire bytes.
func readElemsInto(r io.Reader, v []field.Elem) error {
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	if !hostLittleEndian {
		for i := range v {
			v[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
	}
	return nil
}

// readBytes is readElems's plain-bytes sibling for the variable-length
// string fields (key, error message): chunked growth, never
// allocating far ahead of what the stream has delivered.
func readBytes(r io.Reader, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	const chunk = 1 << 19 // 512 KiB
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		c := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// requestFrame is one decoded worker call.
type requestFrame struct {
	ID     uint64
	Worker int
	Key    string
	Batch  int
	Iter   int
	Input  []field.Elem
}

// responseFrame is one decoded worker answer. A non-empty Err is a
// server-side application error (the endpoint is alive and answered): the
// executor surfaces it as Result.Err, never as an erasure.
type responseFrame struct {
	ID     uint64
	Err    string
	Output []field.Elem
}

// encodeRequestTail encodes the worker-independent part of a request frame
// — everything after the worker ID. A broadcast encodes this once and
// shares the buffer across every worker's writev.
func encodeRequestTail(key string, batch, iter int, input []field.Elem) []byte {
	return appendRequestTail(make([]byte, 0, 4+4+4+len(key)+8+len(input)*8), key, batch, iter, input)
}

// appendRequestTail appends encodeRequestTail's bytes to tail.
func appendRequestTail(tail []byte, key string, batch, iter int, input []field.Elem) []byte {
	tail = binary.LittleEndian.AppendUint32(tail, uint32(batch))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(int32(iter)))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(key)))
	tail = append(tail, key...)
	tail = binary.LittleEndian.AppendUint64(tail, uint64(len(input)))
	tail = append(tail, elemsWire(input)...)
	return tail
}

// requestHead fills the per-call request prefix: frame length, type,
// request ID, worker ID. tailLen is the shared tail's byte length.
func requestHead(head *[requestHeadLen]byte, id uint64, worker, tailLen int) {
	binary.LittleEndian.PutUint32(head[0:], uint32(1+8+4+tailLen))
	head[4] = typeRequest
	binary.LittleEndian.PutUint64(head[5:], id)
	binary.LittleEndian.PutUint32(head[13:], uint32(worker))
}

// encodeRequest returns the full wire bytes of one request frame. The
// executor's hot path uses requestHead + encodeRequestTail with writev
// instead; this form serves the server loopback tests and the fuzz target.
func encodeRequest(rf *requestFrame) []byte {
	tail := encodeRequestTail(rf.Key, rf.Batch, rf.Iter, rf.Input)
	var head [requestHeadLen]byte
	requestHead(&head, rf.ID, rf.Worker, len(tail))
	return append(head[:], tail...)
}

// encodeResponseParts returns the two writev segments of a response frame:
// a fixed head and the output vector's wire bytes (zero-copy on
// little-endian hosts). Concatenated they form the full frame.
func encodeResponseParts(rf *responseFrame) (head, elems []byte) {
	return appendResponseParts(nil, rf)
}

// appendResponseParts is encodeResponseParts appending the head to a
// caller's buffer, so a worker's handler reuses one head buffer for every
// response it writes.
func appendResponseParts(head []byte, rf *responseFrame) ([]byte, []byte) {
	if rf.Err != "" {
		head = binary.LittleEndian.AppendUint32(head, uint32(1+8+4+len(rf.Err)))
		head = append(head, typeErr)
		head = binary.LittleEndian.AppendUint64(head, rf.ID)
		head = binary.LittleEndian.AppendUint32(head, uint32(len(rf.Err)))
		head = append(head, rf.Err...)
		return head, nil
	}
	elems := elemsWire(rf.Output)
	head = binary.LittleEndian.AppendUint32(head, uint32(1+8+8+len(elems)))
	head = append(head, typeOK)
	head = binary.LittleEndian.AppendUint64(head, rf.ID)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(rf.Output)))
	return head, elems
}

// encodeResponse returns the full wire bytes of one response frame.
func encodeResponse(rf *responseFrame) []byte {
	head, elems := encodeResponseParts(rf)
	return append(head, elems...)
}

// frameError is a protocol violation: the connection that produced it is
// beyond trusting and must be closed.
type frameError struct{ msg string }

func (e *frameError) Error() string { return "rpccluster: bad frame: " + e.msg }

func badFrame(format string, args ...any) error {
	return &frameError{msg: fmt.Sprintf(format, args...)}
}

// readFixed consumes the next n bytes of br, n at most br.Size(), and returns
// them in place: they are br's own and valid until its next read. The fixed
// fields of a frame are read this way so that no header buffer escapes to
// the heap.
func readFixed(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	_, _ = br.Discard(n) // cannot fail: Peek has buffered n bytes
	return b, nil
}

// readFrameHead reads the length prefix, type and request ID, returning the
// body length still on the wire (frame length minus type and ID).
func readFrameHead(br *bufio.Reader) (ftype byte, id uint64, bodyLen int, err error) {
	head, err := readFixed(br, frameHeadLen)
	if err != nil {
		return 0, 0, 0, err
	}
	length := binary.LittleEndian.Uint32(head[0:])
	if length < 1+8 || length > maxFrameBytes {
		return 0, 0, 0, badFrame("frame length %d", length)
	}
	return head[4], binary.LittleEndian.Uint64(head[5:]), int(length) - 1 - 8, nil
}

// readRequest reads one request frame. Any protocol violation returns a
// *frameError; the caller must close the connection on it (the stream can
// no longer be framed).
func readRequest(br *bufio.Reader) (*requestFrame, error) {
	ftype, id, left, err := readFrameHead(br)
	if err != nil {
		return nil, err
	}
	if ftype != typeRequest {
		return nil, badFrame("type %d where a request was expected", ftype)
	}
	const fixed = 4 + 4 + 4 + 4 // worker, batch, iter, keyLen
	if left < fixed {
		return nil, badFrame("request body %d bytes, need at least %d", left, fixed)
	}
	buf, err := readFixed(br, fixed)
	if err != nil {
		return nil, err
	}
	rf := &requestFrame{
		ID:     id,
		Worker: int(int32(binary.LittleEndian.Uint32(buf[0:]))),
		Batch:  int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		Iter:   int(int32(binary.LittleEndian.Uint32(buf[8:]))),
	}
	keyLen := int(binary.LittleEndian.Uint32(buf[12:]))
	left -= fixed
	if keyLen > left-8 {
		return nil, badFrame("key length %d exceeds remaining body %d", keyLen, left)
	}
	var key []byte
	if keyLen <= br.Size() {
		key, err = readFixed(br, keyLen) // copied once, into the string
	} else {
		key, err = readBytes(br, keyLen)
	}
	if err != nil {
		return nil, err
	}
	rf.Key = string(key)
	left -= keyLen
	cnt, err := readFixed(br, 8)
	if err != nil {
		return nil, err
	}
	left -= 8
	elems := binary.LittleEndian.Uint64(cnt)
	if elems > math.MaxInt/8 || int(elems)*8 != left {
		return nil, badFrame("input count %d does not match remaining body %d", elems, left)
	}
	if rf.Input, err = readRecycledElems(br, int(elems)); err != nil {
		return nil, err
	}
	return rf, nil
}

// readResponse reads one response frame. Protocol violations return a
// *frameError (close the connection); server-side application errors come
// back as a frame with Err set, not as a read error. The output is read into
// a recycled vector (readRecycledElems): whoever ends up holding it last
// gives it back.
func readResponse(br *bufio.Reader) (*responseFrame, error) {
	rf := new(responseFrame)
	if err := readResponseInto(br, rf); err != nil {
		return nil, err
	}
	return rf, nil
}

// readResponseInto is readResponse into a caller's frame, which it
// overwrites whole: a connection's read loop reads every response into one.
func readResponseInto(br *bufio.Reader, rf *responseFrame) error {
	ftype, id, left, err := readFrameHead(br)
	if err != nil {
		return err
	}
	*rf = responseFrame{ID: id}
	switch ftype {
	case typeErr:
		if left < 4 {
			return badFrame("error body %d bytes", left)
		}
		n, err := readFixed(br, 4)
		if err != nil {
			return err
		}
		msgLen := int(binary.LittleEndian.Uint32(n))
		if msgLen != left-4 {
			return badFrame("error length %d does not match body %d", msgLen, left)
		}
		msg, err := readBytes(br, msgLen)
		if err != nil {
			return err
		}
		rf.Err = string(msg)
		if rf.Err == "" {
			return badFrame("error frame with empty message")
		}
		return nil
	case typeOK:
		if left < 8 {
			return badFrame("response body %d bytes", left)
		}
		cnt, err := readFixed(br, 8)
		if err != nil {
			return err
		}
		left -= 8
		elems := binary.LittleEndian.Uint64(cnt)
		if elems > math.MaxInt/8 || int(elems)*8 != left {
			return badFrame("output count %d does not match remaining body %d", elems, left)
		}
		if rf.Output, err = readRecycledElems(br, int(elems)); err != nil {
			return err
		}
		return nil
	default:
		return badFrame("type %d where a response was expected", ftype)
	}
}
