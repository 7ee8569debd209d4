package ios

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// maxBlockOps bounds the number of operators one DP block may hold: the
// bitset state is a fixed [8]uint64 so it can serve directly as a hash key
// without per-state string allocation. 512 operators per block is far
// beyond anything the dynamic program could enumerate in practice anyway.
const maxBlockOps = 8 * 64

// bitset is a fixed-width set over a block's local operator indices,
// comparable by value.
type bitset [8]uint64

func (b *bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b *bitset) unset(i int)    { b[i/64] &^= 1 << (uint(i) % 64) }
func (b *bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// zobrist holds one random-looking 64-bit key per local operator index.
// A state's hash is the XOR of its members' keys, so the DP maintains it
// incrementally in O(1) per set/unset along the subset-enumeration DFS
// instead of re-mixing the whole bitset per candidate. The keys come from
// a splitmix64 stream over the index — fixed constants that hash bitsets
// and never feed an RNG, hence the seedflow suppressions. The hash only
// picks open-addressing probe positions (lookups compare full bitsets),
// so the choice of constants cannot affect any result.
var zobrist [maxBlockOps]uint64

func init() {
	x := uint64(0)
	for i := range zobrist {
		x += 0x9e3779b97f4a7c15 //lint:seedflow (hash mixing, not seed derivation)
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9 //lint:seedflow (hash mixing, not seed derivation)
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb //lint:seedflow (hash mixing, not seed derivation)
		zobrist[i] = z ^ (z >> 31)
	}
}

// dpState is one DP node: a prefix-closed set of scheduled block operators.
// Pending states live in their count bucket's slab and are indexed there by
// open addressing on the incremental hash; once expanded, a state is copied
// to the solver's done slab, and prev always names a done index — a state's
// predecessor is necessarily expanded before the state itself. Nothing in a
// dpState points into the heap, so growing either slab moves states without
// invalidating anything.
//
// A state stores no stage: the enumeration builds every stage in ascending
// local-index order, so the stage that reached a state is exactly the
// ascending members of set &^ done[prev].set, which the backtrack reads
// back once per solve. reach fits the tail padding after inTop, so a
// state is 88 bytes, and a uint16 holds any reach up to maxBlockOps.
type dpState struct {
	set   bitset
	hash  uint64       // XOR of zobrist keys of the members
	cost  units.Millis // best known dp[S]
	prev  int32        // done-slab index of the predecessor (-1 for the start)
	inTop bool         // has an entry in its bucket's top heap
	reach uint16       // successor reach (solver.reach), set on expansion
}

// topEntry is one entry of a bucket's top heap: a state and the cost it
// had when it entered. Costs only fall, so the entry's cost is an upper
// bound on the state's current cost.
type topEntry struct {
	cost units.Millis
	si   int32
}

// pending is the storage of one in-flight operator count: the states that
// have been created but not yet expanded and the open-addressing index over
// them (0 = empty, else state index + 1). In beam mode it also keeps top, a
// max-heap over the entry costs of at most Beam+1 distinct states, and
// bound, the heap's root cost once the heap is full (+Inf until then): at
// least Beam+1 states then cost no more than bound, so a transition priced
// above it can never reach a state the beam keeps (DESIGN.md §15).
//
// Transitions strictly increase the count by at most MaxStage, so at most
// MaxStage+1 counts are ever live at once: the one being expanded and the
// MaxStage ahead of it. The solver keeps a ring of that many pending
// buckets and recycles each one wholesale after its count is processed —
// the old single-slab layout retained every state ever created, which made
// a 200-op beam solve touch hundreds of megabytes; the ring keeps the
// working set to the live window.
type pending struct {
	states []dpState
	index  []int32
	filled int
	top    []topEntry
	bound  units.Millis
}

// find returns the bucket index of the state with the given set, or -1.
// The stored hash is compared first: it rejects almost every collision
// without touching the 64-byte set.
func (p *pending) find(hash uint64, set *bitset) int32 {
	mask := uint64(len(p.index) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		e := p.index[i]
		if e == 0 {
			return -1
		}
		if st := &p.states[e-1]; st.hash == hash && st.set == *set {
			return e - 1
		}
	}
}

// insert records the (already appended) state at bucket index si in the
// index, growing and rehashing at 3/4 load.
func (p *pending) insert(si int32) {
	if (p.filled+1)*4 >= len(p.index)*3 {
		p.rehash(len(p.index) * 2)
	}
	mask := uint64(len(p.index) - 1)
	i := p.states[si].hash & mask
	for p.index[i] != 0 {
		i = (i + 1) & mask
	}
	p.index[i] = si + 1
	p.filled++
}

func (p *pending) rehash(capacity int) {
	if cap(p.index) >= capacity {
		p.index = p.index[:capacity]
		clear(p.index)
	} else {
		p.index = make([]int32, capacity)
	}
	mask := uint64(capacity - 1)
	for si := range p.states {
		i := p.states[si].hash & mask
		for p.index[i] != 0 {
			i = (i + 1) & mask
		}
		p.index[i] = int32(si) + 1
	}
}

// recycle empties the bucket for reuse by a later count, keeping every
// backing array.
func (p *pending) recycle() {
	p.states = p.states[:0]
	p.filled = 0
	clear(p.index)
	p.top = p.top[:0]
	p.bound = units.Millis(math.Inf(1))
}

// offer gives state si (st), whose cost just became c, a place in the
// top heap of at most limit entries (limit 0 disables the heap). A state
// already in the heap keeps its older, larger entry, which stays an upper
// bound; a NaN cost never enters, since the root would stop being one.
func (p *pending) offer(st *dpState, si int32, c units.Millis, limit int) {
	if limit == 0 || st.inTop || math.IsNaN(float64(c)) {
		return
	}
	h := p.top
	if len(h) < limit {
		st.inTop = true
		h = append(h, topEntry{cost: c, si: si})
		p.top = h
		if len(h) == limit {
			for i := len(h)/2 - 1; i >= 0; i-- {
				siftDownTop(h, i)
			}
			p.bound = h[0].cost
		}
		return
	}
	if len(h) == 0 || !(c < h[0].cost) {
		return
	}
	// Evict the root. Its index always names a bucket state; the unsigned
	// compare lets the compiler drop the bounds check.
	if ev := int(h[0].si); uint(ev) < uint(len(p.states)) {
		p.states[ev].inTop = false
	}
	st.inTop = true
	h[0] = topEntry{cost: c, si: si}
	siftDownTop(h, 0)
	p.bound = h[0].cost
}

// siftDownTop restores the max-heap property (largest entry cost on top)
// at position i of h, moving the entry down through a hole so every
// index it reads is proven in bounds.
func siftDownTop(h []topEntry, i int) {
	if uint(i) >= uint(len(h)) {
		return
	}
	hole := &h[i]
	e := *hole
	for k := uint(i); ; {
		l := 2*k + 1
		if l >= uint(len(h)) {
			break
		}
		child, j := &h[l], l
		if r := l + 1; r < uint(len(h)) && child.cost < h[r].cost {
			child, j = &h[r], r
		}
		if !(e.cost < child.cost) {
			break
		}
		*hole = *child
		hole, k = child, j
	}
	*hole = e
}

// stateCmp orders two bucket states by (cost, bitset): the beam
// selection's total order. Distinct states have distinct bitsets, so the
// order is strict and the selected set is unique.
func (p *pending) stateCmp(a, b int32) int {
	x, y := &p.states[a], &p.states[b]
	if c := cmp.Compare(x.cost, y.cost); c != 0 {
		return c
	}
	return slices.Compare(x.set[:], y.set[:])
}

// solver holds every scratch structure of the block dynamic program, so
// the blocks of one solve, and the later solves that take it from the
// idle list (ios.go), reuse the allocations. The zero value is ready.
// Per-block context (the block, the model, the filled options) lives in
// fields so the enumeration can recurse through methods without
// per-block closures.
type solver struct {
	inBlock []int32 // graph OpID -> local block index, -1 outside

	// Per-block dependency structure (linkBlock): local intra-block
	// predecessor lists, each operator's successor top (1 + the highest
	// local index among its intra-block successors, 0 for none), the
	// sources (operators with no intra-block predecessor) and the number
	// of bitset words the block spans.
	preds   [][]int
	succTop [maxBlockOps]uint16
	sources bitset
	words   int

	ring []pending // pending buckets, slot = count % (MaxStage+1)
	done []dpState // expanded states, in expansion order

	front  []int        // frontier scratch
	stage  []int        // current candidate stage (local indices)
	probe  []graph.OpID // candidate stage as graph IDs (generic path)
	keep   []int32      // beam selection scratch
	keyBuf []byte       // dpcache signature scratch (cache.go)

	// Per-block context.
	block    []graph.OpID
	m        cost.Model
	items    []cost.Item     // per local op (fast path only)
	ct       cost.Contention // item fold (fast path only)
	maxStage int
	topLimit int // top heap size per bucket: Beam+1 in beam mode, else 0

	// Per-block stage-price memo of the generic path, on only for a
	// cost.MemoModel (mm) when MaxStage is at most cost.MemoWidth. memo
	// holds the block's first probes in probe order, which makes it the
	// batch handed to mm.CommitStages when the block ends. memoIndex is
	// open addressing over memo (memoSlot); memoEpoch names the current
	// block's slots, so starting a block empties the index without
	// touching it. skey is the candidate stage's memo key, maintained
	// beside s.stage.
	mm        cost.MemoModel
	memo      []cost.MemoProbe
	memoIndex []uint64
	memoEpoch uint64
	skey      [cost.MemoWidth]uint16

	// DFS-incremental candidate state: nset/nhash track curSet plus the
	// members of s.stage; cur* are the expanding state's fields, copied
	// out of the bucket so methods never hold pointers into growable
	// slabs. curSlot is the expanding state's ring slot; nhash ^ curHash
	// is the zobrist hash of the stage alone.
	nset    bitset
	nhash   uint64
	curHash uint64
	curCost units.Millis
	curDone int32
	curSlot int
}

// ensureInBlock sizes the OpID -> local-index map for a graph of n
// operators, every entry -1 (callers restore what they set).
func (s *solver) ensureInBlock(n int) {
	if len(s.inBlock) < n {
		s.inBlock = make([]int32, n)
		for i := range s.inBlock {
			s.inBlock[i] = -1
		}
	}
}

// reset prepares the solver for a block of b operators over a graph of n.
func (s *solver) reset(n, b int, opt Options) {
	s.ensureInBlock(n)
	s.preds = growNested(s.preds, b)
	for i := range s.preds {
		s.preds[i] = s.preds[i][:0]
	}
	ringLen := opt.MaxStage + 1
	if cap(s.ring) < ringLen {
		next := make([]pending, ringLen)
		copy(next, s.ring)
		s.ring = next
	} else {
		s.ring = s.ring[:ringLen]
	}
	// Start each index small; rehash doubles as a count's population grows,
	// and recycle keeps whatever size a slot reached.
	const initialIndex = 256
	for i := range s.ring {
		pd := &s.ring[i]
		if cap(pd.index) < initialIndex {
			pd.index = make([]int32, initialIndex)
		}
		pd.recycle()
	}
	s.done = s.done[:0]
	s.maxStage = opt.MaxStage
}

// growNested resizes a slice of slices, keeping the inner backing arrays
// of reused entries. New entries start nil.
func growNested[T any](buf [][]T, n int) [][]T {
	if cap(buf) < n {
		next := make([][]T, n)
		copy(next, buf)
		return next
	}
	return buf[:n]
}

// transition records the candidate stage in s.stage as a DP transition
// from the current expanding state: dp[S∪T] = min(dp[S∪T], dp[S] + t).
// The target state's set and hash are already in nset/nhash (maintained by
// the enumeration DFS).
//
// The beam cut returns before the lookup when ncost exceeds the target
// bucket's bound: at least Beam+1 other states already cost less, so the
// target can never be kept, and every kept state ends cheaper than ncost,
// so the transition is never the first minimal one into a kept state.
// Pricing happens before the call, so the cut never changes which stages
// a probe-counting model sees.
func (s *solver) transition(t units.Millis) {
	ncost := s.curCost + t
	slot := s.curSlot + len(s.stage) // len(stage) < len(ring): one wrap
	if slot >= len(s.ring) {
		slot -= len(s.ring)
	}
	pd := &s.ring[slot]
	if ncost > pd.bound {
		return
	}
	oi := pd.find(s.nhash, &s.nset)
	if oi >= 0 {
		old := &pd.states[oi]
		if !(ncost < old.cost) {
			return
		}
		old.cost = ncost
		old.prev = s.curDone
		pd.offer(old, oi, ncost, s.topLimit)
		return
	}
	oi = int32(len(pd.states))
	pd.states = append(pd.states, dpState{
		set:  s.nset,
		hash: s.nhash,
		cost: ncost,
		prev: s.curDone,
	})
	pd.insert(oi)
	pd.offer(&pd.states[oi], oi, ncost, s.topLimit)
}

// enumFast visits every non-empty subset of fr[i:] extending the current
// stage prefix (capped at maxStage members), pricing each candidate by
// folding the block's items through the contention model incrementally:
// the aggregates ride the recursion as arguments, so extending a stage by
// one operator costs one accumulate instead of re-pricing the whole
// candidate. The visit order is identical to the generic enumeration.
func (s *solver) enumFast(fr []int, i int, maxT, work units.Millis, util float64) {
	for j := i; j < len(fr); j++ {
		li := fr[j]
		it := s.items[li]
		nmaxT, nwork, nutil := s.ct.Accumulate(maxT, work, util, it.Time, it.Util)
		s.nset.set(li)
		s.nhash ^= zobrist[li]
		s.stage = append(s.stage, li)
		var t units.Millis
		if len(s.stage) == 1 {
			// Bit-identical to the fold: with util in (0, 1] after
			// clamping, max(t, t·u) is t and no oversubscription scale
			// fires. Matches GraphModel.StageTime's singleton case.
			t = it.Time
		} else {
			t = s.ct.Combine(nmaxT, nwork, nutil)
		}
		s.transition(t)
		if len(s.stage) < s.maxStage && j+1 < len(fr) {
			s.enumFast(fr, j+1, nmaxT, nwork, nutil)
		}
		s.stage = s.stage[:len(s.stage)-1]
		s.nhash ^= zobrist[li]
		s.nset.unset(li)
	}
}

// enumGeneric is enumFast for models outside the ItemModel contract: each
// candidate is priced by m.StageTime on the incrementally maintained probe
// slice. The probe contents, call set and call order are identical to the
// pre-rework DP, which keeps probe-counting models byte-identical. The one
// exception is opt-in: for a cost.MemoModel (profile.CostTable and the
// Fig. 14 accounting built on it), when no stage can outgrow the memo
// key, every stage is priced once per block by PriceStage, repeats read
// the memo, and the block's first probes reach the model in one
// CommitStages batch — the model promised the same values and the same
// accounting.
func (s *solver) enumGeneric(fr []int, i int) {
	for j := i; j < len(fr); j++ {
		li := fr[j]
		s.nset.set(li)
		s.nhash ^= zobrist[li]
		s.stage = append(s.stage, li)
		s.probe = append(s.probe, s.block[li])
		n := len(s.stage)
		if s.mm != nil {
			s.skey[n-1] = uint16(li + 1)
			s.transition(s.memoStageTime())
		} else {
			s.transition(s.m.StageTime(s.probe))
		}
		if n < s.maxStage && j+1 < len(fr) {
			s.enumGeneric(fr, j+1)
		}
		if s.mm != nil {
			s.skey[n-1] = 0
		}
		s.probe = s.probe[:n-1]
		s.stage = s.stage[:n-1]
		s.nhash ^= zobrist[li]
		s.nset.unset(li)
	}
}

// A memoSlot (memoIndex entry) packs the block epoch into bits 48-63,
// the high 16 bits of the stage's zobrist hash into bits 32-47 and the
// memo entry's index into bits 0-31. A slot of another epoch is empty,
// and the hash tag lets a probe skip almost every colliding entry
// without reading it.
const (
	memoEpochShift = 48
	memoTagShift   = 32
)

// memoStageTime prices the candidate stage in s.probe once per block:
// the first probe of a member set is priced by the model and appended to
// the batch, and a repeat reads it back.
func (s *solver) memoStageTime() units.Millis {
	h := s.nhash ^ s.curHash
	want := s.memoEpoch<<(memoEpochShift-memoTagShift) | h>>memoEpochShift
	mask := uint64(len(s.memoIndex) - 1)
	i := h & mask
	for ; s.memoIndex[i]>>memoEpochShift == s.memoEpoch; i = (i + 1) & mask {
		sl := s.memoIndex[i]
		if sl>>memoTagShift != want {
			continue
		}
		if e := uint32(sl); uint(e) < uint(len(s.memo)) && s.memo[e].Members == s.skey {
			return s.memo[e].Time
		}
	}
	t := s.mm.PriceStage(s.probe)
	if (len(s.memo)+1)*4 >= len(s.memoIndex)*3 {
		s.growMemo()
		i = s.memoFree(h)
	}
	s.memoIndex[i] = want<<memoTagShift | uint64(len(s.memo))
	s.memo = append(s.memo, cost.MemoProbe{Members: s.skey, Time: t})
	return t
}

// memoFree returns the first slot from hash h's home slot on that holds
// no entry of the current block.
func (s *solver) memoFree(h uint64) uint64 {
	mask := uint64(len(s.memoIndex) - 1)
	i := h & mask
	for s.memoIndex[i]>>memoEpochShift == s.memoEpoch {
		i = (i + 1) & mask
	}
	return i
}

// growMemo doubles the memo index and re-inserts the current block's
// entries, recomputing each stage's zobrist hash from its key.
func (s *solver) growMemo() {
	s.memoIndex = make([]uint64, 2*len(s.memoIndex))
	tag := s.memoEpoch << (memoEpochShift - memoTagShift)
	for e, p := range s.memo {
		var h uint64
		for _, x := range p.Members {
			if x == 0 {
				break
			}
			h ^= zobrist[x-1]
		}
		s.memoIndex[s.memoFree(h)] = (tag|h>>memoEpochShift)<<memoTagShift | uint64(e)
	}
}

// resetMemo empties the stage memo for a new block by starting a new
// epoch, clearing the index only when the 16-bit epoch wraps.
func (s *solver) resetMemo() {
	const initialMemo = 1024
	if len(s.memoIndex) == 0 {
		s.memoIndex = make([]uint64, initialMemo)
	}
	s.memoEpoch = (s.memoEpoch + 1) & (1<<(64-memoEpochShift) - 1)
	if s.memoEpoch == 0 {
		clear(s.memoIndex)
		s.memoEpoch = 1
	}
	s.memo = s.memo[:0]
}

// selectBeam returns the indices of the beam cheapest states of the
// bucket, in ascending (cost, bitset) order: exactly the prefix a full
// sort-and-trim would keep. Only states costing no more than the bucket's
// bound can rank among them, since at least beam+1 states cost no more
// than bound (DESIGN.md §15), so it sorts just those.
func (s *solver) selectBeam(pd *pending, beam int) []int32 {
	s.keep = s.keep[:0]
	for i := range pd.states {
		if !(pd.states[i].cost > pd.bound) {
			s.keep = append(s.keep, int32(i))
		}
	}
	slices.SortFunc(s.keep, pd.stateCmp)
	return s.keep[:beam]
}

// solveBlock runs the IOS dynamic program on one block and returns the
// optimal (or beam-pruned) stage decomposition in execution order. The
// returned stages share one freshly allocated backing slice (the solver's
// storage is reused by the next block).
//
// solveBlock (not Schedule) is the hot-path root: the surrounding block
// partition (Blocks) legitimately allocates its one-shot reachability
// bitsets, while everything below runs once per DP state transition.
//
//lint:hotpath
func (s *solver) solveBlock(g *graph.Graph, m cost.Model, block []graph.OpID, opt Options) ([][]graph.OpID, error) {
	b := len(block)
	if b == 1 {
		return [][]graph.OpID{{block[0]}}, nil
	}
	if b > maxBlockOps {
		return nil, fmt.Errorf("ios: block of %d operators exceeds the %d-operator limit", b, maxBlockOps)
	}
	s.reset(g.NumOps(), b, opt)
	s.block, s.m = block, m
	for i, v := range block {
		s.inBlock[v] = int32(i)
	}
	// inBlock entries are restored to -1, and the stage memo's batch is
	// committed, before returning, so the next block (or the next graph)
	// starts clean and an error return still records what was probed.
	defer func() {
		for _, v := range block {
			s.inBlock[v] = -1
		}
		if s.mm != nil {
			s.mm.CommitStages(s.block, s.memo)
		}
	}()
	s.linkBlock(g, block)
	beam := opt.Beam
	if b <= opt.ExactLimit {
		beam = 0 // exact within small blocks
	}
	s.topLimit = 0
	if beam > 0 {
		s.topLimit = beam + 1
	}

	im, fast := m.(cost.ItemModel)
	if fast {
		s.ct = im.Contention()
		s.items = s.items[:0]
		for _, v := range block {
			s.items = append(s.items, im.StageItem(v))
		}
	}
	s.mm = nil
	if mm, memo := m.(cost.MemoModel); memo && !fast && opt.MaxStage <= cost.MemoWidth {
		s.mm = mm
		s.resetMemo()
	}

	// State 0 is the empty start state; buckets are processed in count
	// order, and every transition strictly increases the count, so each
	// bucket is final when its turn comes.
	ring0 := &s.ring[0]
	ring0.states = append(ring0.states, dpState{prev: -1})
	ring0.insert(0)

	if cap(s.probe) < opt.MaxStage {
		s.probe = make([]graph.OpID, 0, opt.MaxStage)
	}
	s.probe = s.probe[:0]
	if cap(s.stage) < opt.MaxStage {
		s.stage = make([]int, 0, opt.MaxStage)
	}
	s.stage = s.stage[:0]

	for c := 0; c < b; c++ {
		slot := c % len(s.ring)
		pd := &s.ring[slot]
		var kept []int32
		n := len(pd.states)
		if beam > 0 && n > beam {
			kept = s.selectBeam(pd, beam)
			n = len(kept)
		}
		for k := 0; k < n; k++ {
			si := int32(k)
			if kept != nil {
				si = kept[k]
			}
			st := &pd.states[si]
			if st.prev >= 0 {
				p := &s.done[st.prev]
				st.reach = s.reach(&st.set, &p.set, p.reach)
			}
			s.front = s.frontier(&st.set, st.reach, opt.PruneWindow, s.front[:0])
			if len(s.front) == 0 {
				return nil, fmt.Errorf("ios: empty frontier with %d/%d scheduled (cyclic block?)", c, b)
			}
			// Move the expanding state to the done slab: its bucket is
			// recycled after this count, but back-pointers must survive.
			di := int32(len(s.done))
			s.done = append(s.done, *st)

			s.curCost, s.curDone, s.curSlot = st.cost, di, slot
			s.nset = st.set
			s.nhash, s.curHash = st.hash, st.hash
			if fast {
				s.enumFast(s.front, 0, 0, 0, 0)
			} else {
				s.enumGeneric(s.front, 0)
			}
		}
		pd.recycle()
	}

	var full bitset
	fh := uint64(0)
	for i := 0; i < b; i++ {
		full.set(i)
		fh ^= zobrist[i]
	}
	fullPd := &s.ring[b%len(s.ring)]
	end := fullPd.find(fh, &full)
	if end < 0 {
		return nil, fmt.Errorf("ios: dynamic program did not reach the full state (beam too narrow?)")
	}
	// Walk predecessors back to the empty state twice: once to count the
	// stages, once to read each stage off its set difference into its
	// execution-order slot. The stages partition the block, so one flat
	// slice of b operators backs them all.
	last := fullPd.states[end]
	count := 1
	for cur := last.prev; s.done[cur].prev >= 0; cur = s.done[cur].prev {
		count++
	}
	flat := make([]graph.OpID, b)
	out := make([][]graph.OpID, count)
	k := b
	set, prev := last.set, last.prev
	for i := count - 1; i >= 0; i-- {
		p := &s.done[prev]
		var diff bitset
		n := 0
		for w := range diff {
			diff[w] = set[w] &^ p.set[w]
			n += bits.OnesCount64(diff[w])
		}
		seg := flat[k-n : k : k]
		j := 0
		for w, x := range diff {
			for ; x != 0; x &= x - 1 {
				seg[j] = block[w*64+bits.TrailingZeros64(x)]
				j++
			}
		}
		out[i] = seg
		k -= n
		set, prev = p.set, p.prev
	}
	return out, nil
}

// linkBlock builds the per-block dependency structure over the local
// indices in inBlock: only intra-block edges constrain the DP (inter-block
// inputs come from earlier blocks, already complete). The collect
// callback is created once for the whole block sweep; li carries the
// current local index into it.
func (s *solver) linkBlock(g *graph.Graph, block []graph.OpID) {
	s.succTop = [maxBlockOps]uint16{}
	s.sources = bitset{}
	s.words = (len(block) + 63) / 64
	var li int
	collect := func(u graph.OpID, _ float64) {
		if j := s.inBlock[u]; j >= 0 {
			s.preds[li] = append(s.preds[li], int(j))
			s.succTop[j] = max(s.succTop[j], uint16(li+1))
		}
	}
	for i, v := range block {
		li = i
		g.Preds(v, collect)
		if len(s.preds[i]) == 0 {
			s.sources.set(i)
		}
	}
}

// reach returns the successor reach of set, the largest succTop among its
// members, given the reach of base, a subset of set: only the members of
// set &^ base are folded in. An expanding state passes its predecessor,
// so at most MaxStage members are read.
func (s *solver) reach(set, base *bitset, baseReach uint16) uint16 {
	r := baseReach
	for w := range set {
		if w == s.words {
			break
		}
		for x := set[w] &^ base[w]; x != 0; x &= x - 1 {
			r = max(r, s.succTop[w*64+bits.TrailingZeros64(x)])
		}
	}
	return r
}

// frontier appends to out, in ascending local-index (descending-priority)
// order, the operators whose intra-block predecessors are all members of
// set and which are not members themselves, stopping once out holds limit
// of them: the candidates of the stage enumeration. reach is set's
// successor reach. An operator with an intra-block predecessor can only
// be ready as the successor of a member, so its index is below reach; one
// without is a source. The scan therefore visits just the non-members
// among the sources and below reach, word by word, and never the finished
// prefix or the unreachable tail of the block.
func (s *solver) frontier(set *bitset, reach uint16, limit int, out []int) []int {
	r := int(reach)
	for w := range set {
		if w == s.words {
			break
		}
		// below holds the word's bits under reach. A shift by 64 or more
		// yields 0, so a word wholly under reach is all ones.
		lo := w * 64
		var below uint64
		if r > lo {
			below = 1<<uint(r-lo) - 1
		}
		for x := (s.sources[w] | below) &^ set[w]; x != 0; x &= x - 1 {
			i := lo + bits.TrailingZeros64(x)
			ready := true
			for _, p := range s.preds[i] {
				if !set.has(p) {
					ready = false
					break
				}
			}
			if ready {
				out = append(out, i)
				if len(out) == limit {
					return out
				}
			}
		}
	}
	return out
}
