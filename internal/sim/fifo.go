package sim

// FIFO is a first-in, first-out queue on one reused slice. Pop
// advances a head index instead of reslicing, so the consumed front of
// the slice stays available, and Push slides the live items back to
// the front rather than grow a slice whose first half is consumed. A
// queue that fills and drains at a steady rate, such as a NIC's
// packets on the wire or a delay line, therefore allocates nothing
// once it has reached its peak length. The zero value is an empty
// queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Peek returns the head item without removing it. The queue must not
// be empty.
func (q *FIFO[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the head item. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// At returns the i-th item from the head.
func (q *FIFO[T]) At(i int) T { return q.buf[q.head+i] }

// Remove deletes the i-th item from the head, keeping the order of the
// rest. It costs O(Len) and serves the rare removal away from the head.
func (q *FIFO[T]) Remove(i int) {
	if i == 0 {
		q.Pop()
		return
	}
	j := q.head + i
	copy(q.buf[j:], q.buf[j+1:])
	var zero T
	q.buf[len(q.buf)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
}

// Clear empties the queue, keeping its storage.
func (q *FIFO[T]) Clear() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}
