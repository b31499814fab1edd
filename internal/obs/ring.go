package obs

// ringBlock is the ring's unit of allocation: storage grows one block
// at a time as the ring fills, so a run that pushes n items holds
// ⌈n/ringBlock⌉ blocks, not the ring's whole capacity.
const ringBlock = 256

// ring is a bounded FIFO of the most recent items, shared by the
// journal's replay window, the tracer's span window and the flight
// recorder. An item is addressed by its position, the number of items
// pushed before it, so a reader keeps its place across pushes with one
// integer. Storage grows in blocks until the ring holds capacity
// items; from then on each push overwrites the oldest item and
// allocates nothing. The caller synchronises.
type ring[T any] struct {
	blocks   [][]T
	capacity int
	end      uint64 // position of the next push: the items ever pushed
}

// newRing returns an empty ring holding up to capacity (> 0) items.
func newRing[T any](capacity int) ring[T] {
	return ring[T]{blocks: make([][]T, (capacity+ringBlock-1)/ringBlock), capacity: capacity}
}

// push stores v as the newest item, overwriting the oldest when full.
func (r *ring[T]) push(v T) {
	slot := int(r.end % uint64(r.capacity))
	b := slot / ringBlock
	if r.blocks[b] == nil {
		r.blocks[b] = make([]T, min(ringBlock, r.capacity-b*ringBlock))
	}
	r.blocks[b][slot%ringBlock] = v
	r.end++
}

// start returns the position of the oldest item held.
func (r *ring[T]) start() uint64 { return r.end - min(r.end, uint64(r.capacity)) }

// at returns the item at position p, which must lie in [start, end).
func (r *ring[T]) at(p uint64) *T {
	slot := int(p % uint64(r.capacity))
	return &r.blocks[slot/ringBlock][slot%ringBlock]
}

// appendAll appends every item held, oldest first, to dst.
func (r *ring[T]) appendAll(dst []T) []T {
	for p := r.start(); p < r.end; p++ {
		dst = append(dst, *r.at(p))
	}
	return dst
}
