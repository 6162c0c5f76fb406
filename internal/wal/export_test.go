package wal

// IOCounts reports how many times the tail listed the segment chain
// and read a segment file.
func (t *Tail) IOCounts() (lists, reads int) { return t.lists, t.reads }
