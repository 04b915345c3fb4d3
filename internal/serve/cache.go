package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/xform"
)

// PlanKey computes the content key of a compiled plan: a SHA-256 over a
// canonical rendering of everything the plan is a function of — the
// molecular system (orbital counts, basis size, tiling, symmetry labels,
// and the amplitude seed), the resolved plan shape, and the affinity
// node count. The shape is keyed by its canonical normalized string, not
// the variant name the client sent: "v5" and "seg=1,fission=none" are
// the same plan and share a cache entry, while recipe dimensions the old
// key never saw (reduction-tree arity, priority scheme) now correctly
// split entries. Runtime worker count is deliberately excluded: it
// changes how a plan executes, not what the plan is, so jobs differing
// only in workers share an entry.
func PlanKey(sys *molecule.System, shape xform.Shape, nodes int) string {
	canon := fmt.Sprintf("sys=%s|occ=%d|virt=%d|basis=%d|irreps=%d|tile=%d|seed=%#x|shape=%s|nodes=%d",
		sys.Name, sys.NOccupied, sys.NVirtual, sys.BasisFns, sys.NIrreps,
		sys.TileTarget, sys.Seed, shape.Canon(), nodes)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// cacheEntry is one plan slot. ready is closed when compilation
// finishes (successfully or not); waiters block on it, so concurrent
// same-key requests ride one compile instead of racing their own.
type cacheEntry struct {
	key   string
	ready chan struct{}
	plan  *ccsd.CompiledPlan
	err   error
	elem  *list.Element
	done  bool
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts lookups that found an entry, including ones that
	// joined a compile still in flight (they avoid the work all the
	// same). Misses counts lookups that had to compile.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	// ResidentBytes sums the cached plans' resident inputs and energy
	// weights (ccsd.CompiledPlan.ResidentBytes).
	ResidentBytes int64 `json:"resident_bytes"`
}

// PlanCache is a content-keyed LRU of compiled plans with singleflight
// admission: the first requester of a key compiles while later
// requesters wait for its result, so a burst of identical submissions
// costs one inspection + planning pass. Failed compiles are not cached —
// the entry is removed so a later submission retries.
//
// A plan executed more than once keeps its inputs resident (see
// ccsd.CompiledPlan.Execute). With a positive resident budget, every Get
// drops the residency of least-recently-used plans until the cached
// plans' resident bytes fit it; the plans themselves stay cached.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	budget    int64 // resident-bytes bound; <= 0 leaves residency unbounded
	entries   map[string]*cacheEntry
	lru       *list.List // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

// NewPlanCache returns a cache holding at most capacity ready plans
// (capacity < 1 is treated as 1) whose resident inputs Get bounds by
// residentBudget bytes (<= 0: unbounded). In-flight compiles never count
// against the cap, so admission can transiently overshoot it.
func NewPlanCache(capacity int, residentBudget int64) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		budget:   residentBudget,
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
	}
}

// Get returns the plan for key, compiling it with compile on a miss.
// The boolean reports whether the lookup was a hit (the plan existed or
// was already being compiled by another goroutine). Errors from compile
// propagate to every waiter of that flight and evict the entry. Either
// way, Get first trims resident inputs to the cache's budget.
func (c *PlanCache) Get(key string, compile func() (*ccsd.CompiledPlan, error)) (*ccsd.CompiledPlan, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.trimResidentLocked()
		c.mu.Unlock()
		<-e.ready
		return e.plan, true, e.err
	}
	c.misses++
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
	c.trimResidentLocked()
	c.mu.Unlock()

	plan, err := compile()

	c.mu.Lock()
	e.plan, e.err, e.done = plan, err, true
	if err != nil {
		// Do not cache failures: remove the entry (if a concurrent
		// eviction has not already) so the next Get retries.
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
			c.lru.Remove(e.elem)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return plan, false, err
}

// evictLocked trims ready entries from the LRU tail until the cache fits
// its capacity. In-flight entries are skipped — their requesters hold
// the result channel — so the map can exceed capacity while compiles
// are outstanding.
func (c *PlanCache) evictLocked() {
	over := len(c.entries) - c.capacity
	for el := c.lru.Back(); el != nil && over > 0; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.done {
			delete(c.entries, e.key)
			c.lru.Remove(el)
			c.evictions++
			over--
		}
		el = prev
	}
}

// residentLocked sums the resident bytes of the cached plans.
func (c *PlanCache) residentLocked() int64 {
	var total int64
	for _, e := range c.entries {
		if e.plan != nil {
			total += e.plan.ResidentBytes()
		}
	}
	return total
}

// trimResidentLocked drops the resident inputs of plans from the LRU
// tail until the cached plans' resident bytes fit the budget. Plans
// stay cached; an execution already holding dropped inputs keeps them
// until it finishes.
func (c *PlanCache) trimResidentLocked() {
	if c.budget <= 0 {
		return
	}
	total := c.residentLocked()
	for el := c.lru.Back(); el != nil && total > c.budget; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if e.plan == nil {
			continue
		}
		if n := e.plan.ResidentBytes(); n > 0 {
			e.plan.DropResident()
			total -= n
		}
	}
}

// Stats snapshots the hit/miss/eviction counters, current size and
// resident bytes.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Entries:       len(c.entries),
		Capacity:      c.capacity,
		ResidentBytes: c.residentLocked(),
	}
}
