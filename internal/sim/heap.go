package sim

// Event is one scheduled wake-up in an event-driven execution: a node
// and the time it fires, in whatever unit the owner uses (RunEvents
// counts in Δt units).
type Event struct {
	At   float64
	Node int32
}

// EventHeap is a binary min-heap on Event.At — the schedule of the
// kernel's event-based executor (RunEvents). Hand-rolled rather than
// container/heap to keep hot loops free of interface allocations. Not
// safe for concurrent use.
type EventHeap struct {
	items []Event
}

// NewEventHeap returns an empty heap with room for capacity events.
func NewEventHeap(capacity int) *EventHeap {
	return &EventHeap{items: make([]Event, 0, capacity)}
}

// Push inserts an event.
func (h *EventHeap) Push(e Event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].At <= h.items[i].At {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

// Pop removes and returns the earliest event. It panics on an empty
// heap; callers gate on Len or Peek.
func (h *EventHeap) Pop() Event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < last && h.items[left].At < h.items[smallest].At {
			smallest = left
		}
		if right < last && h.items[right].At < h.items[smallest].At {
			smallest = right
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// Len reports the number of scheduled events.
func (h *EventHeap) Len() int { return len(h.items) }

// Reset empties the heap while keeping its backing storage, so a
// long-lived owner (the kernel's event executor, a scenario worker
// reusing one Kernel per run) schedules the next run without
// reallocating.
func (h *EventHeap) Reset() { h.items = h.items[:0] }
