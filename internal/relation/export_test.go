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

// indexedColumns is how many of d's columns hold an index.
func (d *Dictionary) indexedColumns() int {
	n := 0
	for i := range d.cols {
		if d.cols[i].index != nil {
			n++
		}
	}
	return n
}

// spare is the capacity d's entries hold beyond their length, summed over
// every column's vals, isText and texts.
func (d *Dictionary) spare() int {
	n := 0
	for i := range d.cols {
		c := &d.cols[i]
		n += cap(c.vals) - len(c.vals) + cap(c.isText) - len(c.isText) + cap(c.texts) - len(c.texts)
	}
	return n
}
