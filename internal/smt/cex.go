// Counterexample cache: the CEGIS-style screening layer in front of the
// solver (Reynolds et al., counterexample-guided quantifier instantiation).
// Every refuted equivalence query yields a satisfying assignment of the
// inequality — a concrete witness separating the two terms. Those
// witnesses transfer: candidate pairs produced by later patterns reuse
// the same small vocabulary of variable names (pattern leaves, embedded
// immediates, paired loads), so an assignment that separated one wrong
// candidate very often separates the next. Replaying cached assignments
// through the compiled concrete evaluator costs microseconds; a hit
// refutes the pair without building a single clause.
//
// Screening is sound and verdict-preserving: a cached assignment refutes
// a pair only if the two sides concretely evaluate to different values,
// which is exactly a satisfying assignment of the inequality the solver
// would otherwise search for. A screen hit can therefore never displace
// an Equal verdict — it only short-circuits NotEqual (or spends a
// solver-timeout Unknown, which the synthesis pipeline treats the same
// way: candidate rejected). The synthesized rule library is byte-for-byte
// identical with the cache hot, cold, shared, or disabled.
package smt

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"iselgen/internal/bv"
	"iselgen/internal/term"
)

// Assignment is one cached counterexample: concrete values for the
// variable names that appeared in the refuted query.
type Assignment struct {
	Vals map[string]bv.BV
}

// value resolves a variable for screening. Cached widths are adapted
// (truncate/zero-extend) rather than rejected: any concrete value is a
// legal assignment, and width-flexible reuse is what lets a 32-bit
// counterexample kill a 64-bit candidate. Unknown names get a
// deterministic name-hashed fill so screening stays reproducible.
func (a Assignment) value(name string, w int) bv.BV {
	if v, ok := a.Vals[name]; ok {
		switch {
		case v.W() > w:
			return v.Trunc(w)
		case v.W() < w:
			return v.ZExt(w)
		}
		return v
	}
	return fillValue(name, w)
}

// fillValue is the deterministic default for variables a cached
// assignment does not mention: a hash of the name, so distinct variables
// get distinct (but reproducible) values instead of an all-zero vector
// that aliases too many terms.
func fillValue(name string, w int) bv.BV {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	rng := bv.NewRNG(h ^ 0xc2b2ae3d27d4eb4f)
	return rng.BV(w)
}

// CexCache is a process-wide, concurrency-safe counterexample store.
// Screening reads a copy-on-write snapshot (no lock on the hot path);
// Add dedupes by content and evicts FIFO beyond the capacity. The zero
// value is not usable; use NewCexCache, or the process-wide Cex.
type CexCache struct {
	cap  int
	snap atomic.Pointer[[]Assignment]

	mu   sync.Mutex
	ring []Assignment
	next int
	seen map[uint64]struct{}

	screens atomic.Int64
	hits    atomic.Int64
	stored  atomic.Int64
}

// DefaultCexCap bounds the process-wide cache. Screening cost is linear
// in the cache size, so the cap trades screen power against screen cost;
// at 256 assignments a screen is still microseconds.
const DefaultCexCap = 256

// Cex is the process-wide cache every synthesis worker shares: a
// counterexample discovered while matching one pattern screens
// candidates for every other pattern, across goroutines and across
// synthesis runs in the same process.
var Cex = NewCexCache(ResolveCexCap(0))

// ResolveCexCap applies the capacity precedence flag > ISEL_CEX_CACHE
// env > DefaultCexCap, mirroring core.ResolveWorkers: a positive flag
// value wins, then a positive environment value, then the default. The
// capacity trades screen power against per-screen cost and — like the
// worker count — can never change which rules synthesis produces
// (screening is verdict-preserving at any capacity), so it is excluded
// from core.Config.CacheKey.
func ResolveCexCap(flagVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	if v := os.Getenv("ISEL_CEX_CACHE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return DefaultCexCap
}

// NewCexCache returns an empty cache bounded to capacity assignments.
func NewCexCache(capacity int) *CexCache {
	if capacity < 1 {
		capacity = DefaultCexCap
	}
	c := &CexCache{cap: capacity, seen: make(map[uint64]struct{})}
	empty := []Assignment{}
	c.snap.Store(&empty)
	return c
}

// fingerprint hashes an assignment for dedupe, independent of map order.
func fingerprint(vals map[string]bv.BV) uint64 {
	var sum uint64
	for name, v := range vals {
		h := uint64(1469598103934665603)
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 1099511628211
		}
		h ^= v.Lo * 0x9e3779b97f4a7c15
		h ^= v.Hi * 0xc2b2ae3d27d4eb4f
		h ^= uint64(v.Width) << 48
		sum += h * 0xff51afd7ed558ccd // commutative: map iteration order free
	}
	return sum
}

// Add stores a counterexample assignment. Duplicates (by content) are
// dropped; beyond capacity the oldest assignment is evicted.
func (c *CexCache) Add(vals map[string]bv.BV) {
	if c == nil || len(vals) == 0 {
		return
	}
	fp := fingerprint(vals)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.seen[fp]; dup {
		return
	}
	c.seen[fp] = struct{}{}
	a := Assignment{Vals: vals}
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, a)
	} else {
		evicted := c.ring[c.next]
		delete(c.seen, fingerprint(evicted.Vals))
		c.ring[c.next] = a
		c.next = (c.next + 1) % c.cap
	}
	c.stored.Add(1)
	snap := make([]Assignment, len(c.ring))
	copy(snap, c.ring)
	c.snap.Store(&snap)
}

// Snapshot returns the current assignments (newest content included;
// order is insertion order modulo ring eviction). The returned slice is
// immutable.
func (c *CexCache) Snapshot() []Assignment {
	if c == nil {
		return nil
	}
	return *c.snap.Load()
}

// Len reports how many assignments are cached.
func (c *CexCache) Len() int { return len(c.Snapshot()) }

// Counters reports lifetime screens, hits, and stores.
func (c *CexCache) Counters() (screens, hits, stored int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.screens.Load(), c.hits.Load(), c.stored.Load()
}

// Reset empties the cache and zeroes its counters (used by benchmarks
// that need a cold cache per measured run).
func (c *CexCache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring = nil
	c.next = 0
	c.seen = make(map[uint64]struct{})
	empty := []Assignment{}
	c.snap.Store(&empty)
	c.screens.Store(0)
	c.hits.Store(0)
	c.stored.Store(0)
}

// SetCapacity rebounds the cache to n assignments (values < 1 restore
// the default), trimming the oldest entries when shrinking. The capacity
// only trades screen power against per-screen cost; at any value the
// screen stays verdict-preserving, so resizing is always safe.
func (c *CexCache) SetCapacity(n int) {
	if c == nil {
		return
	}
	if n < 1 {
		n = DefaultCexCap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n == c.cap {
		return
	}
	if len(c.ring) > n {
		// Drop the oldest entries: ring order is oldest-first starting
		// at next once the ring has wrapped, insertion order before.
		ordered := make([]Assignment, 0, len(c.ring))
		ordered = append(ordered, c.ring[c.next:]...)
		ordered = append(ordered, c.ring[:c.next]...)
		dropped := ordered[:len(ordered)-n]
		for _, a := range dropped {
			delete(c.seen, fingerprint(a.Vals))
		}
		c.ring = ordered[len(ordered)-n:]
		c.next = 0
		snap := make([]Assignment, len(c.ring))
		copy(snap, c.ring)
		c.snap.Store(&snap)
	} else if c.next != 0 {
		// Unwrap so future evictions stay oldest-first under the new cap.
		ordered := make([]Assignment, 0, len(c.ring))
		ordered = append(ordered, c.ring[c.next:]...)
		ordered = append(ordered, c.ring[:c.next]...)
		c.ring = ordered
		c.next = 0
	}
	c.cap = n
}

// Refutes screens a set of equivalence goals against the cached
// counterexamples: it reports true when some cached assignment makes
// some goal pair evaluate to different values — a concrete witness that
// the conjunction of goals cannot be valid, making the solver query
// unnecessary. The goal terms must be load-free (Equiv substitutes
// paired loads with fresh variables before screening).
func (c *CexCache) Refutes(goals [][2]*term.Term) bool {
	_, ok := c.Refuting(goals)
	return ok
}

// Refuting is Refutes returning the witness: the cached assignment that
// separated some goal pair, so callers (the SMT memo) can persist the
// refutation alongside the verdict.
func (c *CexCache) Refuting(goals [][2]*term.Term) (map[string]bv.BV, bool) {
	if c == nil {
		return nil, false
	}
	cexes := c.Snapshot()
	c.screens.Add(1)
	if len(cexes) == 0 {
		return nil, false
	}
	for _, g := range goals {
		if g[0] == g[1] {
			continue
		}
		lp, rp := term.Compile(nil, g[0]), term.Compile(nil, g[1])
		lv, rv := lp.Vars(), rp.Vars()
		lvals := make([]bv.BV, len(lv))
		rvals := make([]bv.BV, len(rv))
		lregs, rregs := make([]bv.BV, lp.NumRegs()), make([]bv.BV, rp.NumRegs())
		for _, a := range cexes {
			for i, v := range lv {
				lvals[i] = a.value(v.Name, v.Width)
			}
			for i, v := range rv {
				rvals[i] = a.value(v.Name, v.Width)
			}
			if lp.Run(lvals, lregs, nil) != rp.Run(rvals, rregs, nil) {
				c.hits.Add(1)
				return a.Vals, true
			}
		}
	}
	return nil, false
}

// assignmentRefutes replays one concrete assignment against the goals,
// reporting whether it separates some pair — the degraded trust path
// for memoized NotEqual verdicts whose spec fingerprint no longer
// matches. Unknown variable names get the same deterministic fill as
// cache screening, so replay verdicts are reproducible.
func assignmentRefutes(vals map[string]bv.BV, goals [][2]*term.Term) bool {
	a := Assignment{Vals: vals}
	for _, g := range goals {
		if g[0] == g[1] {
			continue
		}
		lp, rp := term.Compile(nil, g[0]), term.Compile(nil, g[1])
		lv, rv := lp.Vars(), rp.Vars()
		lvals := make([]bv.BV, len(lv))
		rvals := make([]bv.BV, len(rv))
		lregs, rregs := make([]bv.BV, lp.NumRegs()), make([]bv.BV, rp.NumRegs())
		for i, v := range lv {
			lvals[i] = a.value(v.Name, v.Width)
		}
		for i, v := range rv {
			rvals[i] = a.value(v.Name, v.Width)
		}
		if lp.Run(lvals, lregs, nil) != rp.Run(rvals, rregs, nil) {
			return true
		}
	}
	return false
}
