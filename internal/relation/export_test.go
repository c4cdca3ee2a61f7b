package relation

// longestProbe is the most index slots a lookup of any entry of column col
// reads: from the slot its hash starts at to the one that holds its code.
func (d *Dictionary) longestProbe(col int) int {
	c := &d.cols[col]
	mask := len(c.index) - 1
	longest := 0
	for slot, e := range c.index {
		if e != 0 {
			start := int(c.hash(d.hash, Value(e-1))) & mask
			longest = max(longest, (slot-start)&mask+1)
		}
	}
	return longest
}
