package gist

// SetBeforeSplitEnd installs f to run inside every split SMO just before
// its nested top action ends.
func SetBeforeSplitEnd(t *Tree, f func()) { t.beforeSplitEnd = f }
