package main

import (
	"fmt"
	"slices"
	"sort"

	"fastcolumns"
)

// column is the benchmark's own model of one attribute: the values in
// row order and a sorted copy. Answers from the engine are checked
// against it, never against an earlier run's output.
type column struct {
	vals   []fastcolumns.Value
	sorted []fastcolumns.Value
}

func newColumn(vals []fastcolumns.Value) *column {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return &column{vals: vals, sorted: sorted}
}

// reserve grows the model's capacity by n rows, so extend allocates
// nothing while the program is being timed.
func (c *column) reserve(n int) {
	c.vals = slices.Grow(c.vals, n)
	c.sorted = slices.Grow(c.sorted, n)
}

// extend appends rows to the model and merges them into the sorted copy
// in place, from the back.
func (c *column) extend(add []fastcolumns.Value) {
	c.vals = append(c.vals, add...)
	in := slices.Clone(add)
	slices.Sort(in)
	i, j := len(c.sorted)-1, len(in)-1
	c.sorted = append(c.sorted, in...)
	for k := len(c.sorted) - 1; j >= 0; k-- {
		if i >= 0 && c.sorted[i] > in[j] {
			c.sorted[k] = c.sorted[i]
			i--
		} else {
			c.sorted[k] = in[j]
			j--
		}
	}
}

// count is the number of rows with lo <= v <= hi, by binary search on
// the sorted copy.
func (c *column) count(p fastcolumns.Predicate) int {
	if p.Hi < p.Lo {
		return 0
	}
	lo := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] >= p.Lo })
	hi := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > p.Hi })
	return hi - lo
}

// check proves ids is exactly the set of rows satisfying p: every rowID
// is in range and its value satisfies p, the rowIDs are strictly
// ascending (so distinct), and their number equals the independent
// count. A subset of the right size is the whole set.
func (c *column) check(p fastcolumns.Predicate, ids []fastcolumns.RowID) error {
	prev := int64(-1)
	for _, id := range ids {
		if int64(id) <= prev {
			return fmt.Errorf("rowID %d after %d: not strictly ascending", id, prev)
		}
		if int(id) >= len(c.vals) {
			return fmt.Errorf("rowID %d out of range (%d rows)", id, len(c.vals))
		}
		if v := c.vals[id]; v < p.Lo || v > p.Hi {
			return fmt.Errorf("rowID %d has value %d outside [%d,%d]", id, v, p.Lo, p.Hi)
		}
		prev = int64(id)
	}
	if want := c.count(p); len(ids) != want {
		return fmt.Errorf("[%d,%d]: %d rows returned, %d qualify", p.Lo, p.Hi, len(ids), want)
	}
	return nil
}

// checkBatch checks one result set per predicate.
func (c *column) checkBatch(preds []fastcolumns.Predicate, rows [][]fastcolumns.RowID) error {
	if len(rows) != len(preds) {
		return fmt.Errorf("%d result sets for %d queries", len(rows), len(preds))
	}
	for i, p := range preds {
		if err := c.check(p, rows[i]); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}
