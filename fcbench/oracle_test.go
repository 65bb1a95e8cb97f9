package main

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"fastcolumns"
)

// exact is a brute-force answer: every row whose value satisfies p.
func exact(vals []fastcolumns.Value, p fastcolumns.Predicate) []fastcolumns.RowID {
	var ids []fastcolumns.RowID
	for i, v := range vals {
		if v >= p.Lo && v <= p.Hi {
			ids = append(ids, fastcolumns.RowID(i))
		}
	}
	return ids
}

func testColumn() (*column, fastcolumns.Predicate) {
	vals := uniform(rand.New(rand.NewPCG(7, 7)), 5000, 1000)
	return newColumn(vals), fastcolumns.Predicate{Lo: 100, Hi: 180}
}

func TestCheckAcceptsExactAnswer(t *testing.T) {
	c, p := testColumn()
	if err := c.check(p, exact(c.vals, p)); err != nil {
		t.Fatal(err)
	}
	empty := fastcolumns.Predicate{Lo: 2000, Hi: 3000}
	if err := c.check(empty, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsCorruptedAnswer(t *testing.T) {
	c, p := testColumn()
	good := exact(c.vals, p)
	var outside fastcolumns.RowID
	for i, v := range c.vals {
		if v < p.Lo || v > p.Hi {
			outside = fastcolumns.RowID(i)
			break
		}
	}
	cases := map[string]func([]fastcolumns.RowID) []fastcolumns.RowID{
		"drop first": func(ids []fastcolumns.RowID) []fastcolumns.RowID { return ids[1:] },
		"drop middle": func(ids []fastcolumns.RowID) []fastcolumns.RowID {
			return slices.Delete(ids, len(ids)/2, len(ids)/2+1)
		},
		"add non-matching row": func(ids []fastcolumns.RowID) []fastcolumns.RowID {
			ids = append(ids, outside)
			slices.Sort(ids)
			return ids
		},
		"add duplicate": func(ids []fastcolumns.RowID) []fastcolumns.RowID {
			return slices.Insert(ids, 1, ids[0])
		},
		"out of range": func(ids []fastcolumns.RowID) []fastcolumns.RowID {
			return append(ids, fastcolumns.RowID(len(c.vals)))
		},
		"replace with out of range": func(ids []fastcolumns.RowID) []fastcolumns.RowID {
			ids[len(ids)-1] = fastcolumns.RowID(len(c.vals) + 5)
			return ids
		},
		"unsorted": func(ids []fastcolumns.RowID) []fastcolumns.RowID {
			ids[0], ids[1] = ids[1], ids[0]
			return ids
		},
		"empty": func([]fastcolumns.RowID) []fastcolumns.RowID { return nil },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			if err := c.check(p, corrupt(slices.Clone(good))); err == nil {
				t.Fatal("corrupted answer accepted")
			}
		})
	}
}

func TestCheckBatchRejectsMissingResultSet(t *testing.T) {
	c, p := testColumn()
	preds := []fastcolumns.Predicate{p, {Lo: 5, Hi: 5}}
	rows := [][]fastcolumns.RowID{exact(c.vals, preds[0]), exact(c.vals, preds[1])}
	if err := c.checkBatch(preds, rows); err != nil {
		t.Fatal(err)
	}
	if err := c.checkBatch(preds, rows[:1]); err == nil {
		t.Fatal("short batch accepted")
	}
	rows[1] = rows[1][1:]
	if err := c.checkBatch(preds, rows); err == nil {
		t.Fatal("batch with a dropped row accepted")
	}
}

// TestIngestVisibility pins the ingest check: appended tuples must be
// invisible before the merge and visible at their positions after it.
func TestIngestVisibility(t *testing.T) {
	c, _ := testColumn()
	base := len(c.vals)
	add := []fastcolumns.Value{4242, 17, 4242}
	p := fastcolumns.Predicate{Lo: 4242, Hi: 4242}
	full := append(slices.Clone(c.vals), add...)

	// Before the merge the model holds only the base rows: an answer
	// that already shows an appended row is wrong.
	if err := c.check(p, nil); err != nil {
		t.Fatalf("pre-merge empty answer rejected: %v", err)
	}
	if err := c.check(p, exact(full, p)); err == nil {
		t.Fatal("appended rows visible before merge accepted")
	}

	c.extend(add)
	if !slices.IsSorted(c.sorted) || len(c.sorted) != base+len(add) {
		t.Fatal("extend broke the sorted copy")
	}
	want := exact(full, p)
	if !slices.Equal(want, []fastcolumns.RowID{fastcolumns.RowID(base), fastcolumns.RowID(base + 2)}) {
		t.Fatalf("test set-up: %v", want)
	}
	if err := c.check(p, want); err != nil {
		t.Fatalf("post-merge answer rejected: %v", err)
	}
	if err := c.check(p, nil); err == nil {
		t.Fatal("appended rows invisible after merge accepted")
	}
	// The right number of rows at the wrong positions.
	if err := c.check(p, []fastcolumns.RowID{fastcolumns.RowID(base + 1), fastcolumns.RowID(base + 2)}); err == nil {
		t.Fatal("appended row at the wrong position accepted")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, 1, at(0), at(100))
	tr.add("a", root, 1, at(10), at(40))
	tr.add("b", root, 1, at(30), at(50))  // overlaps a
	tr.add("c", root, 1, at(90), at(120)) // runs past the parent
	self := tr.selfByName()
	if got, want := self["root"], 50*time.Millisecond; got != want {
		t.Fatalf("root self %v, want %v", got, want)
	}
	if got := tr.selfPerReq("a", "b"); len(got) != 1 || got[0] != float64(50*time.Millisecond) {
		t.Fatalf("selfPerReq %v", got)
	}
}
