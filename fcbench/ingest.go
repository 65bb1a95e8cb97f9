package main

import (
	"fmt"
	"slices"
	"time"

	"fastcolumns"
	"fastcolumns/internal/index"
	"fastcolumns/internal/stats"
	"fastcolumns/internal/storage"
)

// The ingest workload: one caller, a fixed number of cycles, each
// 4,096 Table.Append calls, a verifying read batch, Table.Merge, and the
// same read batch again. The raw attribute carries a B+-tree and a
// histogram; the 15-bit attribute is compressed with a zonemap and a
// histogram, so a merge extends the column, inserts into the tree,
// re-compresses, rebuilds the zonemap and re-sorts both histograms.
const (
	ingestRows  = 1_000_000
	ingestBatch = 4096
	ingestZone  = 4096
	// ingestCyclesPerSecond sets the fixed number of cycles from
	// -seconds; one cycle takes about 0.8 s on the 2-core reference host.
	ingestCyclesPerSecond = 1.0
	// readPoints point queries on just-appended values and readRanges 1%
	// ranges make up each attribute's verifying read batch.
	readPoints = 8
	readRanges = 8
)

// ingestModel is the benchmark's own copy of the table: the merged rows
// per attribute, in the table's tuple order (attribute names sorted).
type ingestModel struct {
	names   []string
	cols    []*column
	domains []int32
}

func runIngest(e *env) error {
	m := &ingestModel{
		names:   []string{"c15", "raw"},
		cols:    []*column{newColumn(uniform(e.rng(1), ingestRows, gridC15Domain)), newColumn(uniform(e.rng(2), ingestRows, gridRawDomain))},
		domains: []int32{gridC15Domain, gridRawDomain},
	}

	cycles := max(2, int(float64(e.seconds)*ingestCyclesPerSecond+0.5))
	for _, c := range m.cols {
		c.reserve((cycles + 1) * ingestBatch)
	}

	var eng *fastcolumns.Engine
	var tbl *fastcolumns.Table
	closeEngine, err := e.timeSetup(7, func() (time.Duration, func(), error) {
		// The table gets its own copies: Merge may extend a column in
		// place, and the model must not change with it.
		c15, raw := slices.Clone(m.cols[0].vals), slices.Clone(m.cols[1].vals)
		en, t, d, err := setupTable("ingest", func(_ *fastcolumns.Engine, t *fastcolumns.Table) []func() error {
			return []func() error{
				func() error { return t.AddColumn("raw", raw) },
				func() error { return t.CreateIndex("raw") },
				func() error { return t.Analyze("raw", 128) },
				func() error { return t.AddColumn("c15", c15) },
				func() error { return t.Compress("c15") },
				func() error { return t.BuildZonemap("c15", ingestZone) },
				func() error { return t.Analyze("c15", 128) },
			}
		})
		if err != nil {
			return 0, nil, err
		}
		eng, tbl = en, t
		return d, en.Close, nil
	})
	if err != nil {
		return err
	}
	defer closeEngine()

	var appendRate, mergeMs, freshMs [2][]float64
	// cycle runs one append/read/merge/read cycle; req 0 is the untimed
	// warm-up cycle.
	cycle := func(req int64, traced bool) {
		r := e.rng(2000 + uint64(req))
		flat := make([]fastcolumns.Value, 2*ingestBatch)
		tuples := make([][]fastcolumns.Value, ingestBatch)
		for i := range tuples {
			tuples[i] = flat[2*i : 2*i+2 : 2*i+2]
			tuples[i][0], tuples[i][1] = r.Int32N(gridC15Domain), r.Int32N(gridRawDomain)
		}
		// Per attribute: points on values appended this cycle, whose new
		// rows must be absent before the merge and present after it, and
		// 1% ranges.
		preds := make([][]fastcolumns.Predicate, len(m.names))
		for a := range m.names {
			for i := 0; i < readPoints; i++ {
				v := tuples[i*ingestBatch/readPoints][a]
				preds[a] = append(preds[a], fastcolumns.Predicate{Lo: v, Hi: v})
			}
			for i := 0; i < readRanges; i++ {
				preds[a] = append(preds[a], pred(r, m.domains[a], 0.01))
			}
		}
		var root int64
		if traced {
			root = e.tr.add("ingest.cycle", 0, req, time.Now(), time.Now())
		}
		read := func(name string) time.Duration {
			var total time.Duration
			for a, attr := range m.names {
				start := time.Now()
				res, err := tbl.SelectBatch(attr, preds[a])
				end := time.Now()
				total += end.Sub(start)
				if traced {
					e.tr.add(name, root, req, start, end)
				}
				var bad error
				if err == nil {
					bad = m.cols[a].checkBatch(preds[a], res.RowIDs)
					res.Release()
				}
				e.op(err, wrap(name+" "+attr, bad))
			}
			return total
		}

		// One span covers the whole append loop: a span per ~100 ns call
		// would time the tracer's clock reads rather than the storage.
		errs := make([]error, len(tuples))
		start := time.Now()
		for i, tu := range tuples {
			errs[i] = tbl.Append(tu)
		}
		appended := time.Now()
		appendTime := appended.Sub(start)
		if traced {
			e.tr.add("table.append", root, req, start, appended)
		}
		for _, err := range errs {
			e.op(err, nil)
		}
		if p, rows := tbl.Pending(), tbl.Rows(); p != ingestBatch || rows != len(m.cols[0].vals) {
			e.op(nil, fmt.Errorf("before merge: %d pending, %d rows; want %d, %d", p, rows, ingestBatch, len(m.cols[0].vals)))
		}
		read("read.pre")

		start = time.Now()
		err := tbl.Merge()
		end := time.Now()
		if traced {
			e.tr.add("table.merge", root, req, start, end)
		}
		e.op(err, nil)
		for a := range m.names {
			add := make([]fastcolumns.Value, len(tuples))
			for i, tu := range tuples {
				add[i] = tu[a]
			}
			m.cols[a].extend(add)
		}
		if p, rows := tbl.Pending(), tbl.Rows(); p != 0 || rows != len(m.cols[0].vals) {
			e.op(nil, fmt.Errorf("after merge: %d pending, %d rows; want 0, %d", p, rows, len(m.cols[0].vals)))
		}
		fresh := read("read.post")
		if traced {
			e.tr.setEnd(root, time.Now())
		}
		if req > 0 {
			k := b2i(traced)
			appendRate[k] = append(appendRate[k], float64(ingestBatch)/appendTime.Seconds())
			mergeMs[k] = append(mergeMs[k], ms(end.Sub(start)))
			freshMs[k] = append(freshMs[k], ms(fresh))
		}
	}

	cycle(0, false)
	err = e.measure(eng.Observe, func() error {
		for i := 1; i <= cycles; i++ {
			cycle(int64(i), e.traced && i%2 == 0)
			if i < cycles {
				e.mark()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("# cycles %d (plus 1 warm-up) of %d appends; table ends at %d rows\n", cycles, ingestBatch, tbl.Rows())
	spread("append_rate", appendRate[0])
	spread("merge_ms", mergeMs[0])
	spread("fresh_read_ms", freshMs[0])
	if !e.traced {
		return nil
	}

	e.set("trace.overhead_pct", "%", overhead("merge_ms", median(mergeMs[0]), median(mergeMs[1])), true)
	overhead("append_rate", median(appendRate[0]), median(appendRate[1]))
	overhead("fresh_read_ms", median(freshMs[0]), median(freshMs[1]))
	appendNs := median(e.tr.selfPerReq("table.append"))
	blocking("append_rate", ingestBatch/(appendNs/1e9), median(appendRate[0]))
	blocking("merge_ms", median(e.tr.selfPerReq("table.merge"))/1e6, median(mergeMs[0]))
	blocking("fresh_read_ms", median(e.tr.selfPerReq("read.post"))/1e6, median(freshMs[0]))
	e.layer("storage.append_ns", "ns", appendNs/ingestBatch)
	if err := mergeSteps(e, m); err != nil {
		return err
	}
	// c15 has no B+-tree, so the reference grid runs on raw alone.
	return probeGrid(e, tbl, gridCells(&gridAttr{name: "raw", col: m.cols[1], domain: gridRawDomain}))
}

// mergeSteps times the steps Table.Merge takes, one by one, on a
// same-size copy of the table built from the model: extending the
// columns, re-compressing, rebuilding the zonemap, re-sorting both
// histograms and inserting the new tuples into the B+-tree.
func mergeSteps(e *env, m *ingestModel) error {
	const reps = 3
	var extend, compress, zonemap, hist, insert []float64
	r := e.rng(3)
	for rep := 0; rep < reps; rep++ {
		st := storage.NewTable("copy")
		for a, name := range m.names {
			if err := st.AddColumn(name, slices.Clone(m.cols[a].vals)); err != nil {
				return err
			}
		}
		rawCol, err := st.Column("raw")
		if err != nil {
			return err
		}
		tree := index.Build(rawCol, index.DefaultFanout)
		oldRows := st.Rows()
		for i := 0; i < ingestBatch; i++ {
			if err := st.Delta().Append([]storage.Value{r.Int32N(gridC15Domain), r.Int32N(gridRawDomain)}); err != nil {
				return err
			}
		}
		start := time.Now()
		if _, err := st.MergeDelta(); err != nil {
			return err
		}
		extend = append(extend, ms(time.Since(start)))
		c15, err := st.Column("c15")
		if err != nil {
			return err
		}
		raw, err := st.Column("raw")
		if err != nil {
			return err
		}

		start = time.Now()
		for i := oldRows; i < raw.Len(); i++ {
			tree.Insert(raw.Get(i), storage.RowID(i))
		}
		insert = append(insert, float64(time.Since(start).Nanoseconds())/ingestBatch)

		start = time.Now()
		if _, err := storage.Compress(c15); err != nil {
			return err
		}
		compress = append(compress, ms(time.Since(start)))

		start = time.Now()
		storage.BuildZonemap(c15, ingestZone)
		zonemap = append(zonemap, ms(time.Since(start)))

		start = time.Now()
		for _, c := range []*storage.Column{raw, c15} {
			if _, err := stats.BuildHistogram(c, 128); err != nil {
				return err
			}
		}
		hist = append(hist, ms(time.Since(start)))
	}
	e.layer("storage.extend_ms", "ms", median(extend))
	e.layer("storage.compress_ms", "ms", median(compress))
	e.layer("storage.zonemap_ms", "ms", median(zonemap))
	e.layer("stats.histogram_ms", "ms", median(hist))
	e.layer("index.insert_ns", "ns", median(insert))
	fmt.Printf("# merge steps on a %d-row copy: extend_ms %.3f index_insert_ms %.3f compress_ms %.3f zonemap_ms %.3f histograms_ms %.3f sum_ms %.3f\n",
		len(m.cols[0].vals), median(extend), median(insert)*ingestBatch/1e6, median(compress), median(zonemap), median(hist),
		median(extend)+median(insert)*ingestBatch/1e6+median(compress)+median(zonemap)+median(hist))
	return nil
}
