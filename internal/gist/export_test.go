package gist

import "repro/internal/page"

// SetBeforeSplitEnd installs f to run inside every split SMO just before
// its nested top action ends.
func SetBeforeSplitEnd(t *Tree, f func()) { t.beforeSplitEnd = f }

// SetBeforeLeafLatch installs f to run in every insert descent just before
// the target leaf is X-latched, with nothing latched.
func SetBeforeLeafLatch(t *Tree, f func(leaf page.PageID)) { t.beforeLeafLatch = f }

// Quarantined returns the number of unlinked pages awaiting reuse.
func Quarantined(t *Tree) int {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	return len(t.quarantine)
}
