package sim

// eventQueue pops events in time order, and events of equal time in the
// order they were pushed. Symmetric plans finish whole waves of
// transfers at the same instant, so events share timestamps heavily:
// the 4096-rank hierarchical AllReduce schedules about a million events
// at under five hundred distinct times, and the 32-rank MSCCL AllReduce
// about 137 thousand at under two thousand. The queue therefore keeps
// one FIFO bucket per distinct pending time and orders only the bucket
// times in a heap: a push appends to its time's bucket, a pop takes the
// front of the earliest one.
type eventQueue struct {
	times timeHeap
	// index maps a pending time to its bucket; last caches the latest
	// lookup, since consecutive pushes often share a time.
	index       map[float64]int32
	last        int32
	buckets     []bucket
	freeBuckets []int32
	// nodes is the pool the buckets' linked lists live in; freed nodes
	// are chained from freeNode (-1: none).
	nodes    []qnode
	freeNode int32
	n        int
}

// bucket is the FIFO of the events pending at one time: a list of nodes
// from head to tail.
type bucket struct {
	time       float64
	head, tail int32
}

type qnode struct {
	arg, next int32
	version   uint32
	kind      uint8
}

// newEventQueue sizes the node pool for the given number of pending
// events; the pool grows past it when needed.
func newEventQueue(pending int) eventQueue {
	return eventQueue{index: map[float64]int32{}, last: -1, freeNode: -1, nodes: make([]qnode, 0, pending)}
}

func (q *eventQueue) Len() int { return q.n }

// minTime is the earliest pending time; the queue must not be empty.
func (q *eventQueue) minTime() float64 { return q.times[0].time }

func (q *eventQueue) push(e event) {
	q.n++
	nd := q.freeNode
	if nd >= 0 {
		q.freeNode = q.nodes[nd].next
	} else {
		nd = int32(len(q.nodes))
		q.nodes = append(q.nodes, qnode{})
	}
	q.nodes[nd] = qnode{arg: e.arg, next: -1, version: e.version, kind: e.kind}

	b := q.last
	if b < 0 || q.buckets[b].time != e.time {
		var ok bool
		if b, ok = q.index[e.time]; !ok {
			if k := len(q.freeBuckets); k > 0 {
				b = q.freeBuckets[k-1]
				q.freeBuckets = q.freeBuckets[:k-1]
			} else {
				b = int32(len(q.buckets))
				q.buckets = append(q.buckets, bucket{})
			}
			q.buckets[b] = bucket{time: e.time, head: nd, tail: nd}
			q.index[e.time] = b
			q.times.push(timeEntry{e.time, b})
			q.last = b
			return
		}
		q.last = b
	}
	bk := &q.buckets[b]
	q.nodes[bk.tail].next = nd
	bk.tail = nd
}

func (q *eventQueue) pop() event {
	q.n--
	b := q.times[0].bucket
	bk := &q.buckets[b]
	nd := bk.head
	node := q.nodes[nd]
	q.nodes[nd].next = q.freeNode
	q.freeNode = nd
	if node.next >= 0 {
		bk.head = node.next
	} else {
		// The bucket drained: retire its time.
		q.times.pop()
		delete(q.index, bk.time)
		q.freeBuckets = append(q.freeBuckets, b)
		if q.last == b {
			q.last = -1
		}
	}
	return event{time: bk.time, arg: node.arg, version: node.version, kind: node.kind}
}

type timeEntry struct {
	time   float64
	bucket int32
}

// timeHeap is a 4-ary min-heap over the distinct pending times. Four
// children per node halve the depth of a binary heap; both sifts move a
// hole instead of swapping.
type timeHeap []timeEntry

func (h *timeHeap) push(e timeEntry) {
	*h = append(*h, e)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if e.time >= hh[parent].time {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	hh[i] = e
}

func (h *timeHeap) pop() {
	hh := *h
	n := len(hh) - 1
	last := hh[n]
	hh = hh[:n]
	*h = hh
	if n == 0 {
		return
	}
	// Move the hole at the root down the path of least children to a
	// leaf, then sift the old last entry up from there: it came from the
	// bottom and usually belongs near it, so this skips comparing it on
	// every level on the way down.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if hh[j].time < hh[m].time {
				m = j
			}
		}
		hh[i] = hh[m]
		i = m
	}
	for i > 0 {
		parent := (i - 1) / 4
		if last.time >= hh[parent].time {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	hh[i] = last
}
