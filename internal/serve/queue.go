package serve

import (
	"container/heap"
	"errors"
	"sync"
)

// The run queue is the admission-control point of the service: a bounded
// priority queue (higher JobSpec.Priority first, FIFO within a priority).
// Push on a full queue fails fast — the HTTP layer turns that into 429 —
// so queue depth, not heap growth, is the backpressure signal.

// ErrQueueFull is returned by Push when the queue is at capacity.
var ErrQueueFull = errors.New("serve: run queue full")

// ErrQueueClosed is returned by Push after Close.
var ErrQueueClosed = errors.New("serve: run queue closed")

type queueItem struct {
	job      *Job
	priority int
	seq      int64 // FIFO tiebreak within a priority
}

type queueHeap []queueItem

func (h queueHeap) Len() int { return len(h) }
func (h queueHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h queueHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *queueHeap) Push(x any)   { *h = append(*h, x.(queueItem)) }
func (h *queueHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  queueHeap
	cap    int
	seq    int64
	closed bool
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues j, failing when the queue is full or closed.
func (q *queue) Push(j *Job, priority int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if len(q.items) >= q.cap {
		return ErrQueueFull
	}
	q.seq++
	heap.Push(&q.items, queueItem{job: j, priority: priority, seq: q.seq})
	q.cond.Signal()
	return nil
}

// forcePush enqueues j ignoring the capacity bound — used only by the
// startup recovery scan, whose jobs were already admitted once; bouncing
// them would lose durable work.
func (q *queue) forcePush(j *Job, priority int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.seq++
	heap.Push(&q.items, queueItem{job: j, priority: priority, seq: q.seq})
	q.cond.Signal()
}

// Pop blocks until a job is available or the queue is closed. A closed
// queue returns (nil, false) immediately even if items remain — on drain
// the leftover queued jobs stay durable in the spool and are re-admitted by
// the next start's recovery scan.
func (q *queue) Pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil, false
		}
		if len(q.items) > 0 {
			it := heap.Pop(&q.items).(queueItem)
			return it.job, true
		}
		q.cond.Wait()
	}
}

// Len returns the current depth.
func (q *queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close stops the queue: waiting Pops return false, further Pushes fail.
func (q *queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
