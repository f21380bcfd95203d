// Package ring provides Buffer, the one growable circular buffer of the
// tree. It holds a storing FIFO's packets, each DRR class, a pipe's
// in-flight records, a flow's per-segment state and the service's
// per-pipe throughput history.
package ring

// Buffer is a growable FIFO of T in a circular slice. The zero value is an
// empty buffer that allocates on its first Push. The slice length is
// always a power of two (16, doubled), so an index wraps with a mask, not
// a divide; a Buffer grows to its high-water mark and never shrinks.
type Buffer[T any] struct {
	buf        []T
	head, size int
}

// Len returns the number of entries.
func (r *Buffer[T]) Len() int { return r.size }

// Cap returns the number of entries the buffer holds before it grows.
func (r *Buffer[T]) Cap() int { return len(r.buf) }

// Push appends v at the tail.
func (r *Buffer[T]) Push(v T) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = v
	r.size++
}

// Pop removes and returns the head entry; ok is false when the buffer is
// empty.
func (r *Buffer[T]) Pop() (v T, ok bool) {
	if r.size == 0 {
		return v, false
	}
	var zero T
	v, r.buf[r.head] = r.buf[r.head], zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return v, true
}

// PopN discards the n head entries (0 <= n <= Len) without reading them.
func (r *Buffer[T]) PopN(n int) {
	var zero T
	for i := 0; i < n; i++ {
		r.buf[r.head] = zero
		r.head = (r.head + 1) & (len(r.buf) - 1)
	}
	r.size -= n
}

// Peek returns the head entry without removing it; ok is false when the
// buffer is empty.
func (r *Buffer[T]) Peek() (v T, ok bool) {
	if r.size == 0 {
		return v, false
	}
	return r.buf[r.head], true
}

// At returns the entry i places behind the head (0 <= i < Len).
func (r *Buffer[T]) At(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// Set overwrites the entry i places behind the head (0 <= i < Len).
func (r *Buffer[T]) Set(i int, v T) { r.buf[(r.head+i)&(len(r.buf)-1)] = v }

// grow doubles a full buffer and unwraps it to start at index 0.
func (r *Buffer[T]) grow() {
	buf := make([]T, max(16, 2*len(r.buf)))
	copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}
