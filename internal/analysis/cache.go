package analysis

import "repro/internal/ir"

// Cache memoizes the function-level analyses behind a (function,
// version) key, where the version is ir.Function.Version — the
// mutation counter bumped by every structural edit and by MarkDirty at
// in-place rewrite sites. The convergent formation loop asks for
// dominance and reverse postorder after every merge step even though
// most steps change nothing (a rejected trial merge restores the
// hyperblock and the version with it, see ir.BlockSnapshot); with the
// cache those requests become pointer+integer comparisons. After a
// committed step the cache rebuilds its one DomTree in place, reusing
// its buffers, so the DomTree and RPO slice it hands out are valid
// only until its next recompute.
//
// Because a restored version names the pre-trial state again, nothing
// may consult a Cache for a function while one of its blocks is under
// an undoable trial edit.
//
// A Cache is single-goroutine state (one per Former / per worker); it
// holds at most one function's analyses at a time, which matches the
// formation loop's access pattern of working one function to
// completion before moving on.
type Cache struct {
	fn      *ir.Function
	version uint64

	dom   DomTree
	domOK bool
	loops *LoopForest
	live  *Liveness
}

// sync flushes everything if f or its version differs from what the
// cache holds.
func (c *Cache) sync(f *ir.Function) {
	if c.fn == f && c.version == f.Version() {
		return
	}
	c.fn = f
	c.version = f.Version()
	c.domOK = false
	c.loops = nil
	c.live = nil
}

// RPO returns ReversePostorder(f), shared with the cached dominator
// tree. Callers must not mutate the returned slice, and it is valid
// only until the cache's next recompute.
func (c *Cache) RPO(f *ir.Function) []*ir.Block {
	return c.Dom(f).order
}

// Dom returns Dominators(f), rebuilt in place in the cache's own
// buffers when f or its version changed. The tree is valid only until
// the cache's next recompute.
func (c *Cache) Dom(f *ir.Function) *DomTree {
	c.sync(f)
	if !c.domOK {
		c.dom.build(f)
		c.domOK = true
	}
	return &c.dom
}

// Loops returns (possibly cached) Loops(f), sharing the dominator tree
// with Dom. The forest owns its data and outlives recomputes.
func (c *Cache) Loops(f *ir.Function) *LoopForest {
	c.sync(f)
	if c.loops == nil {
		c.loops = LoopsWithDom(c.Dom(f))
	}
	return c.loops
}

// Liveness returns (possibly cached) ComputeLiveness(f).
func (c *Cache) Liveness(f *ir.Function) *Liveness {
	c.sync(f)
	if c.live == nil {
		c.live = ComputeLiveness(f)
	}
	return c.live
}
