// Package predicate implements the predicate manager of §10.3 of the
// paper: the half of the hybrid isolation mechanism that prevents phantom
// insertions.
//
// Search operations attach their search predicate to every node they visit
// (top-down, starting at the root); insert operations check only the
// predicates attached to their target leaf — far fewer than a tree-global
// predicate list. The manager maintains the three data structures the paper
// prescribes: a list of predicates per transaction, a list of node
// attachments per predicate, and a FIFO list of the predicates attached to
// each node. FIFO ordering plus the rule that inserts leave their own key
// behind as an insert predicate provides fair (starvation-free) blocking.
//
// The manager is oblivious to predicate semantics: conflicts are decided by
// a caller-supplied consistency function (the same extension method that
// drives tree navigation).
//
// Node attachment lists are hash-partitioned by PageID into shards with
// independent mutexes, so attach/detach/conflict-check on different nodes
// never contend. The per-predicate attachment set lives on the Predicate
// itself under its own mutex; the locking discipline is shard before
// predicate, and the two-shard operations (split replication, BP
// percolation) take both shards up front in index order.
package predicate

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/page"
	"repro/internal/shards"
	"repro/internal/stats"
)

// Kind distinguishes search predicates (attached by scans to guard their
// whole search range) from insert predicates (left behind by inserts so
// later scans block, and by the search phase of unique insertion, §8).
type Kind int

// Predicate kinds.
const (
	Search Kind = iota
	Insert
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Search {
		return "search"
	}
	return "insert"
}

// Predicate is a registered predicate lock. Data is the encoded query (for
// Search) or key (for Insert); its interpretation belongs to the access
// method extension.
type Predicate struct {
	ID    uint64
	Owner page.TxnID
	Kind  Kind
	Data  []byte

	seq uint64 // global arrival order, drives per-node FIFO fairness

	// mu guards the attachment set; it is always acquired after the
	// shard mutex of the node involved, never before.
	mu       sync.Mutex
	nodes    map[page.PageID]bool
	released bool
}

// attachment links a predicate to a node with its arrival order preserved.
type attachment struct {
	pred *Predicate
	seq  uint64
}

// Shard count adapts to GOMAXPROCS (see package shards) and is surfaced
// by the predicate.shards gauge.

// predShard is one partition of the byNode attachment table.
type predShard struct {
	mu        sync.Mutex
	byNode    map[page.PageID][]attachment
	contended *stats.Counter
}

func (s *predShard) lock() {
	if s.mu.TryLock() {
		return
	}
	s.contended.Add(1)
	s.mu.Lock()
}

// Manager tracks predicates and their node attachments.
type Manager struct {
	shards  []predShard
	nextID  atomic.Uint64
	nextSeq atomic.Uint64

	ownersMu sync.Mutex
	byTxn    map[page.TxnID][]*Predicate

	reg           *stats.Registry
	checks        *stats.Counter // conflict checks performed
	predsExamined *stats.Counter // predicates examined across all checks
	contended     *stats.Counter // shard mutex acquisitions that blocked
}

// NewManager returns an empty predicate manager.
func NewManager() *Manager {
	m := &Manager{
		byTxn: make(map[page.TxnID][]*Predicate),
		reg:   stats.NewRegistry(),
	}
	m.checks = m.reg.Counter("predicate.checks")
	m.predsExamined = m.reg.Counter("predicate.preds_examined")
	m.contended = m.reg.Counter("predicate.shard_contention")
	m.reg.Gauge("predicate.shards", func() int64 { return int64(len(m.shards)) })
	m.reg.Gauge("predicate.live", func() int64 {
		n, _ := m.Counts()
		return int64(n)
	})
	m.shards = make([]predShard, shards.Count(0))
	for i := range m.shards {
		m.shards[i].byNode = make(map[page.PageID][]attachment)
		m.shards[i].contended = m.contended
	}
	return m
}

// Metrics exposes the manager's counter registry.
func (m *Manager) Metrics() *stats.Registry { return m.reg }

func (m *Manager) shardOf(node page.PageID) *predShard {
	h := (uint64(node) + 1) * 0x9E3779B97F4A7C15
	return &m.shards[(h>>32)%uint64(len(m.shards))]
}

// New registers a predicate for owner. The predicate is not yet attached to
// any node.
func (m *Manager) New(owner page.TxnID, kind Kind, data []byte) *Predicate {
	p := &Predicate{
		ID:    m.nextID.Add(1),
		Owner: owner,
		Kind:  kind,
		Data:  data,
		nodes: make(map[page.PageID]bool),
	}
	m.ownersMu.Lock()
	m.byTxn[owner] = append(m.byTxn[owner], p)
	m.ownersMu.Unlock()
	return p
}

// Attach adds p to node's FIFO list (idempotent). It returns the predicates
// attached ahead of p on that node that belong to other transactions and
// for which conflicts reports true — the FIFO fairness rule: a newcomer
// must wait behind conflicting predicates already in the list.
func (m *Manager) Attach(p *Predicate, node page.PageID, conflicts func(other *Predicate) bool) []*Predicate {
	s := m.shardOf(node)
	s.lock()
	p.mu.Lock()
	if p.released {
		// Predicate was released concurrently; nothing to attach.
		p.mu.Unlock()
		s.mu.Unlock()
		return nil
	}
	if !p.nodes[node] {
		seq := m.nextSeq.Add(1)
		if p.seq == 0 {
			p.seq = seq
		}
		s.byNode[node] = append(s.byNode[node], attachment{pred: p, seq: seq})
		p.nodes[node] = true
	}
	p.mu.Unlock()
	if conflicts == nil {
		s.mu.Unlock()
		return nil
	}
	var ahead []*Predicate
	m.checks.Inc()
	for _, a := range s.byNode[node] {
		if a.pred == p {
			break
		}
		if a.pred.Owner == p.Owner {
			continue
		}
		m.predsExamined.Inc()
		if conflicts(a.pred) {
			ahead = append(ahead, a.pred)
		}
	}
	s.mu.Unlock()
	return ahead
}

// AttachedTo returns the predicates attached to node in FIFO order.
func (m *Manager) AttachedTo(node page.PageID) []*Predicate {
	s := m.shardOf(node)
	s.lock()
	defer s.mu.Unlock()
	out := make([]*Predicate, 0, len(s.byNode[node]))
	for _, a := range s.byNode[node] {
		out = append(out, a.pred)
	}
	return out
}

// Conflicting returns the predicates attached to node, owned by other
// transactions, for which conflicts reports true. This is the insert
// operation's target-leaf check (§4.3 step 6). The counters feeding
// experiment E9 are updated.
func (m *Manager) Conflicting(node page.PageID, self page.TxnID, conflicts func(*Predicate) bool) []*Predicate {
	s := m.shardOf(node)
	s.lock()
	defer s.mu.Unlock()
	m.checks.Inc()
	var out []*Predicate
	for _, a := range s.byNode[node] {
		if a.pred.Owner == self {
			continue
		}
		m.predsExamined.Inc()
		if conflicts(a.pred) {
			out = append(out, a.pred)
		}
	}
	return out
}

// ConflictingGlobal scans every registered predicate — the tree-global
// check of pure predicate locking (§4.2), implemented only as the baseline
// for experiment E9.
func (m *Manager) ConflictingGlobal(self page.TxnID, conflicts func(*Predicate) bool) []*Predicate {
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	m.checks.Inc()
	var out []*Predicate
	for _, preds := range m.byTxn {
		for _, p := range preds {
			if p.Owner == self {
				continue
			}
			m.predsExamined.Inc()
			if conflicts(p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// ReplicateOnSplit attaches to the new sibling every predicate attached to
// orig for which applies reports true (its predicate is consistent with the
// new node's BP) — maintaining the invariant that a search predicate
// consistent with a node's BP is attached to that node (§4.3, case 1).
// When the two nodes hash to different shards, both shard mutexes are held
// for the duration, taken in index order.
func (m *Manager) ReplicateOnSplit(orig, sibling page.PageID, applies func(*Predicate) bool) int {
	so, ss := m.shardOf(orig), m.shardOf(sibling)
	m.lockPair(so, ss)
	defer m.unlockPair(so, ss)
	n := 0
	for _, a := range so.byNode[orig] {
		if applies != nil && !applies(a.pred) {
			continue
		}
		a.pred.mu.Lock()
		if a.pred.released || a.pred.nodes[sibling] {
			a.pred.mu.Unlock()
			continue
		}
		ss.byNode[sibling] = append(ss.byNode[sibling], attachment{pred: a.pred, seq: m.nextSeq.Add(1)})
		a.pred.nodes[sibling] = true
		a.pred.mu.Unlock()
		n++
	}
	return n
}

// lockPair acquires the two shards' mutexes in index order (once if equal).
func (m *Manager) lockPair(a, b *predShard) {
	ai := m.shardIndex(a)
	bi := m.shardIndex(b)
	switch {
	case ai == bi:
		a.lock()
	case ai < bi:
		a.lock()
		b.lock()
	default:
		b.lock()
		a.lock()
	}
}

func (m *Manager) unlockPair(a, b *predShard) {
	a.mu.Unlock()
	if a != b {
		b.mu.Unlock()
	}
}

func (m *Manager) shardIndex(s *predShard) int {
	for i := range m.shards {
		if &m.shards[i] == s {
			return i
		}
	}
	return 0
}

// Percolate copies predicates attached to parent down to child when the
// child's BP expansion makes them newly consistent with it (§4.3, case 2).
// applies receives each parent-attached predicate and reports whether it
// must now cover the child.
func (m *Manager) Percolate(parent, child page.PageID, applies func(*Predicate) bool) int {
	// Identical mechanics to split replication; kept separate for
	// tracing and statistics clarity.
	return m.ReplicateOnSplit(parent, child, applies)
}

// Detach removes p from a single node.
func (m *Manager) Detach(p *Predicate, node page.PageID) {
	s := m.shardOf(node)
	s.lock()
	p.mu.Lock()
	if !p.nodes[node] {
		p.mu.Unlock()
		s.mu.Unlock()
		return
	}
	delete(p.nodes, node)
	p.mu.Unlock()
	removeAttachmentLocked(s, node, p)
	s.mu.Unlock()
}

// removeAttachmentLocked drops p's attachment from node's list (shard mutex
// held).
func removeAttachmentLocked(s *predShard, node page.PageID, p *Predicate) {
	as := s.byNode[node]
	for i, a := range as {
		if a.pred == p {
			s.byNode[node] = append(as[:i], as[i+1:]...)
			break
		}
	}
	if len(s.byNode[node]) == 0 {
		delete(s.byNode, node)
	}
}

// Release removes a single predicate and all its attachments (used for the
// transient "=key" predicates of unique insertion once the insert finishes,
// §8).
func (m *Manager) Release(p *Predicate) {
	p.mu.Lock()
	if p.released {
		p.mu.Unlock()
		return
	}
	p.released = true
	nodes := make([]page.PageID, 0, len(p.nodes))
	for node := range p.nodes {
		nodes = append(nodes, node)
	}
	p.nodes = make(map[page.PageID]bool)
	p.mu.Unlock()

	for _, node := range nodes {
		s := m.shardOf(node)
		s.lock()
		removeAttachmentLocked(s, node, p)
		s.mu.Unlock()
	}

	m.ownersMu.Lock()
	preds := m.byTxn[p.Owner]
	for i, q := range preds {
		if q == p {
			m.byTxn[p.Owner] = append(preds[:i], preds[i+1:]...)
			break
		}
	}
	if len(m.byTxn[p.Owner]) == 0 {
		delete(m.byTxn, p.Owner)
	}
	m.ownersMu.Unlock()
}

// ReleaseTxn removes every predicate owned by txn and all their node
// attachments; called when the owner transaction terminates (predicates
// live until end of transaction, §4.3). It takes the owner's list once
// and filters each touched node's attachment list once, so releasing k
// predicates costs O(k) plus the lists' lengths, not O(k²).
func (m *Manager) ReleaseTxn(txn page.TxnID) {
	m.ownersMu.Lock()
	preds := m.byTxn[txn]
	delete(m.byTxn, txn)
	m.ownersMu.Unlock()
	var nodes []page.PageID
	for _, p := range preds {
		p.mu.Lock()
		if !p.released {
			p.released = true
			for node := range p.nodes {
				nodes = append(nodes, node)
			}
			clear(p.nodes)
		}
		p.mu.Unlock()
	}
	if len(preds) > 1 {
		slices.Sort(nodes)
		nodes = slices.Compact(nodes)
	}
	for _, node := range nodes {
		s := m.shardOf(node)
		s.lock()
		// Every attachment txn still has is one of preds: the transaction
		// is ending, so it creates no more.
		as := s.byNode[node]
		kept := as[:0]
		for _, a := range as {
			if a.pred.Owner != txn {
				kept = append(kept, a)
			}
		}
		clear(as[len(kept):])
		if len(kept) == 0 {
			delete(s.byNode, node)
		} else {
			s.byNode[node] = kept
		}
		s.mu.Unlock()
	}
}

// DropNode removes every attachment at a node being deleted from the tree.
// The predicates themselves survive on their other attachments.
func (m *Manager) DropNode(node page.PageID) {
	s := m.shardOf(node)
	s.lock()
	for _, a := range s.byNode[node] {
		a.pred.mu.Lock()
		delete(a.pred.nodes, node)
		a.pred.mu.Unlock()
	}
	delete(s.byNode, node)
	s.mu.Unlock()
}

// PredicatesOf returns the predicates registered by txn.
func (m *Manager) PredicatesOf(txn page.TxnID) []*Predicate {
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	return append([]*Predicate(nil), m.byTxn[txn]...)
}

// NodesOf returns the nodes p is attached to.
func (m *Manager) NodesOf(p *Predicate) []page.PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]page.PageID, 0, len(p.nodes))
	for n := range p.nodes {
		out = append(out, n)
	}
	return out
}

// Counts returns the total number of live predicates and attachments.
func (m *Manager) Counts() (preds, attachments int) {
	m.ownersMu.Lock()
	for _, ps := range m.byTxn {
		preds += len(ps)
	}
	m.ownersMu.Unlock()
	for i := range m.shards {
		s := &m.shards[i]
		s.lock()
		for _, as := range s.byNode {
			attachments += len(as)
		}
		s.mu.Unlock()
	}
	return preds, attachments
}

// ResetStats zeroes every counter and histogram in the manager's registry.
// Per-counter Store(0) resets silently miss latency histograms added later;
// Registry.Reset covers both kinds by construction.
func (m *Manager) ResetStats() {
	m.reg.Reset()
}
