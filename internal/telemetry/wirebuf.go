package telemetry

import "sync"

// maxPooledWire caps the wire buffers the pool keeps: a buffer that grew
// past it (a handoff-sized page set, an unusually wide page) is left to the
// collector rather than pinned for every later leg.
const maxPooledWire = 4 << 20

// wirePool holds the byte buffers the binary legs encode into (a node's
// /sketches and /keys answers) and read through (the frontend's scatter
// legs), so a leg's body costs no allocation once the pool is warm.
var wirePool = sync.Pool{New: func() any { return new([]byte) }}

// TakeWireBuffer returns an empty buffer from the wire pool. Append to
// (*b)[:0] and store the result back in *b, so a buffer that had to grow
// returns to the pool grown.
func TakeWireBuffer() *[]byte {
	b := wirePool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// ReleaseWireBuffer hands b back to the pool. Nothing may read b, or any
// value that aliases it (a decoded SketchPage's sketches), afterwards.
func ReleaseWireBuffer(b *[]byte) {
	if cap(*b) > maxPooledWire {
		return
	}
	wirePool.Put(b)
}
