package disk

// elevator implements the SCAN (elevator) disk-arm scheduling discipline
// from Table II: pending requests are served in cylinder order, continuing
// in the current sweep direction and reversing at the last request.
type elevator struct {
	pending []*Request
	up      bool // current sweep direction: toward higher cylinders
}

func newElevator() *elevator { return &elevator{up: true} }

// Len returns the number of queued requests.
func (q *elevator) Len() int { return len(q.pending) }

// Push inserts a request keeping the slice cylinder-sorted.
func (q *elevator) Push(r *Request) {
	i := q.firstAtOrAbove(r.cylinder)
	q.pending = append(q.pending, nil)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = r
}

// firstAtOrAbove returns the index of the first pending request whose
// cylinder is at or above cyl (len(pending) if none): sort.Search's binary
// search, written out so no predicate closure is built per call.
func (q *elevator) firstAtOrAbove(cyl int64) int {
	lo, hi := 0, len(q.pending)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.pending[mid].cylinder >= cyl {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Pop removes and returns the next request to serve given the head position,
// or nil when empty. It continues the current sweep, reversing direction
// when the sweep is exhausted.
func (q *elevator) Pop(headCyl int64) *Request {
	n := len(q.pending)
	if n == 0 {
		return nil
	}
	// Index of first request at or above the head.
	i := q.firstAtOrAbove(headCyl)
	var pick int
	if q.up {
		if i < n {
			pick = i
		} else {
			q.up = false
			pick = n - 1
		}
	} else {
		if i > 0 {
			pick = i - 1
			// A request exactly at the head belongs to the downward
			// sweep too.
			if i < n && q.pending[i].cylinder == headCyl {
				pick = i
			}
		} else {
			q.up = true
			pick = 0
		}
	}
	r := q.pending[pick]
	q.pending = append(q.pending[:pick], q.pending[pick+1:]...)
	return r
}
