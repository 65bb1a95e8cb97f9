package main

import (
	"fmt"
	"math/rand/v2"
	"runtime/metrics"
	"slices"
	"time"

	"fastcolumns"
)

// The aps-grid workload: one caller, closed loop, rounds of SelectBatch
// over q x selectivity on a 2M-row uniform 20-bit attribute (8 MB, more
// than the host's L2) and on a dictionary-compressed 15-bit attribute,
// with single-query point lookups interleaved. The grid straddles the
// scan/index crossover, so both a better APS decision and a faster
// kernel move the CPU cost per operation and round_ms; no scheduler,
// coop or merge code runs.
const (
	gridRows      = 2_000_000
	gridRawDomain = 1 << 20
	gridC15Domain = 1 << 15
	// gridRoundsPerSecond sets the fixed number of rounds from -seconds;
	// one round takes about 1.8 s on the 2-core reference host.
	gridRoundsPerSecond = 0.6
	// probeReps is how often the traced run times each cell on each
	// forced path; the median is kept.
	probeReps = 3
	// mischosenMargin is how much slower than the faster forced path the
	// chosen path must be for a cell to count as mischosen; closer cells
	// are ties within the probes' own spread.
	mischosenMargin = 0.10
)

var (
	gridQs   = []int{1, 16, 64}
	gridSels = []float64{0, 0.001, 0.01, 0.05} // 0 is a point query
)

type gridAttr struct {
	name       string
	col        *column
	domain     int32
	compressed bool
}

type gridCell struct {
	attr *gridAttr
	q    int
	sel  float64
}

func (c gridCell) String() string {
	s := "point"
	if c.sel > 0 {
		s = fmt.Sprintf("%g%%", c.sel*100)
	}
	return fmt.Sprintf("%s q=%d %s", c.attr.name, c.q, s)
}

// pred draws one predicate of the cell's selectivity over the domain.
func pred(r *rand.Rand, domain int32, sel float64) fastcolumns.Predicate {
	w := int32(sel * float64(domain))
	if w < 1 {
		v := r.Int32N(domain)
		return fastcolumns.Predicate{Lo: v, Hi: v}
	}
	lo := r.Int32N(domain - w + 1)
	return fastcolumns.Predicate{Lo: lo, Hi: lo + w - 1}
}

// gridCells is every q x selectivity cell on each attribute.
func gridCells(attrs ...*gridAttr) []gridCell {
	var cells []gridCell
	for _, a := range attrs {
		for _, q := range gridQs {
			for _, s := range gridSels {
				cells = append(cells, gridCell{attr: a, q: q, sel: s})
			}
		}
	}
	return cells
}

func (c gridCell) preds(r *rand.Rand) []fastcolumns.Predicate {
	ps := make([]fastcolumns.Predicate, c.q)
	for i := range ps {
		ps[i] = pred(r, c.attr.domain, c.sel)
	}
	return ps
}

func uniform(r *rand.Rand, n int, domain int32) []fastcolumns.Value {
	vals := make([]fastcolumns.Value, n)
	for i := range vals {
		vals[i] = r.Int32N(domain)
	}
	return vals
}

func runAPSGrid(e *env) error {
	raw := &gridAttr{name: "raw", col: newColumn(uniform(e.rng(1), gridRows, gridRawDomain)), domain: gridRawDomain}
	c15 := &gridAttr{name: "c15", col: newColumn(uniform(e.rng(2), gridRows, gridC15Domain)), domain: gridC15Domain, compressed: true}
	cells := gridCells(raw, c15)

	var eng *fastcolumns.Engine
	var tbl *fastcolumns.Table
	closeEngine, err := e.timeSetup(5, func() (time.Duration, func(), error) {
		// The table gets its own copies: a column keeps the slice it is
		// given, and the model must not share storage with the program.
		rawVals, c15Vals := slices.Clone(raw.col.vals), slices.Clone(c15.col.vals)
		en, t, d, err := setupTable("grid", func(_ *fastcolumns.Engine, t *fastcolumns.Table) []func() error {
			return []func() error{
				func() error { return t.AddColumn(raw.name, rawVals) },
				func() error { return t.CreateIndex(raw.name) },
				func() error { return t.Analyze(raw.name, 128) },
				func() error { return t.AddColumn(c15.name, c15Vals) },
				func() error { return t.CreateIndex(c15.name) },
				func() error { return t.Analyze(c15.name, 128) },
				func() error { return t.Compress(c15.name) },
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

	rounds := max(2, int(float64(e.seconds)*gridRoundsPerSecond+0.5))
	var (
		roundMs  [2][]float64 // [traced] per-round sum of SelectBatch wall times
		lookupUs [2][]float64
	)
	// round runs one grid round; req 0 is the untimed warm-up round.
	round := func(req int64, traced bool) {
		r := e.rng(1000 + uint64(req))
		rootStart := time.Now()
		var root int64
		if traced {
			root = e.tr.add("grid.round", 0, req, rootStart, rootStart) // end fixed below
		}
		var total time.Duration
		for _, c := range cells {
			ps := c.preds(r)
			start := time.Now()
			res, err := tbl.SelectBatch(c.attr.name, ps)
			end := time.Now()
			total += end.Sub(start)
			if traced && err == nil {
				id := e.tr.add("optimizer.select_batch", root, req, start, end)
				e.tr.add("exec.batch", id, req, end.Add(-res.Elapsed), end)
			}
			var bad error
			if err == nil {
				cs := time.Now()
				bad = c.attr.col.checkBatch(ps, res.RowIDs)
				res.Release()
				if traced {
					e.tr.add("bench.check", root, req, cs, time.Now())
				}
			}
			e.op(err, wrap(c.String(), bad))

			// One single-query point lookup after every batch.
			p := pred(r, raw.domain, 0)
			start = time.Now()
			ids, _, err := tbl.Select(raw.name, p.Lo, p.Hi)
			end = time.Now()
			if traced {
				e.tr.add("optimizer.lookup", root, req, start, end)
			}
			if req > 0 {
				lookupUs[b2i(traced)] = append(lookupUs[b2i(traced)], us(end.Sub(start)))
			}
			if err == nil {
				bad = raw.col.check(p, ids)
			}
			e.op(err, bad)
		}
		if traced {
			e.tr.setEnd(root, time.Now())
		}
		if req > 0 {
			roundMs[b2i(traced)] = append(roundMs[b2i(traced)], ms(total))
		}
	}

	round(0, false)
	err = e.measure(eng.Observe, func() error {
		for i := 1; i <= rounds; i++ {
			round(int64(i), e.traced && i%2 == 0)
			if i < rounds {
				e.mark()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("# rounds %d (plus 1 warm-up), %d grid cells\n", rounds, len(cells))
	spread("round_ms", roundMs[0])
	spread("lookup_us", lookupUs[0])
	if !e.traced {
		return nil
	}

	e.set("trace.overhead_pct", "%", overhead("round_ms", median(roundMs[0]), median(roundMs[1])), true)
	overhead("lookup_us", median(lookupUs[0]), median(lookupUs[1]))
	blocking("round_ms", median(e.tr.selfPerReq("optimizer.select_batch", "exec.batch"))/1e6, median(roundMs[0]))
	return probeGrid(e, tbl, cells)
}

// probeGrid times every cell on the chosen path and on each forced path
// (the traced run's reference grid) and derives decision quality,
// per-kernel cost and heap-per-result figures from it. Every workload
// runs it after its timed phase, on the indexed attributes of its own
// table, so they all report these per-layer metrics.
func probeGrid(e *env, tbl *fastcolumns.Table, cells []gridCell) error {
	fmt.Printf("# %-20s %-6s %8s %10s %10s %10s %10s\n", "cell", "chosen", "ratio", "aps_ms", "scan_ms", "index_ms", "results")
	var chosenSum, bestSum, scanRaw, valsRaw, scanSWAR, valsSWAR, idxSum, idxResults float64
	mischosen := 0
	var heapPerResult []float64
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	for ci, c := range cells {
		var aps, scan, index []float64
		var chosen fastcolumns.Path
		var ratio float64
		results := 0
		for rep := 0; rep < probeReps; rep++ {
			ps := c.preds(e.rng(1_000_000 + uint64(ci)))
			// Path -1 lets APS choose; the others force the path.
			for _, path := range []fastcolumns.Path{-1, fastcolumns.PathScan, fastcolumns.PathIndex} {
				metrics.Read(allocs)
				a0 := allocs[0].Value.Uint64()
				start := time.Now()
				var res fastcolumns.BatchResult
				var err error
				if path < 0 {
					res, err = tbl.SelectBatch(c.attr.name, ps)
				} else {
					res, err = tbl.SelectVia(path, c.attr.name, ps)
				}
				d := ms(time.Since(start))
				metrics.Read(allocs)
				grown := float64(allocs[0].Value.Uint64() - a0)
				var bad error
				if err == nil {
					bad = c.attr.col.checkBatch(ps, res.RowIDs)
					results = 0
					for _, ids := range res.RowIDs {
						results += len(ids)
					}
					res.Release()
				}
				e.op(err, wrap(c.String(), bad))
				if err != nil {
					return fmt.Errorf("probe %v: %w", c, err)
				}
				switch path {
				case fastcolumns.PathScan:
					scan = append(scan, d)
					if c.attr == cells[0].attr && c.q == gridQs[len(gridQs)-1] && c.sel == gridSels[len(gridSels)-1] && results > 0 {
						heapPerResult = append(heapPerResult, grown/float64(4*results))
					}
				case fastcolumns.PathIndex:
					index = append(index, d)
				default:
					aps = append(aps, d)
					chosen, ratio = res.Decision.Path, res.Decision.Ratio
				}
			}
		}
		ts, ti := median(scan), median(index)
		tc := ts
		if chosen == fastcolumns.PathIndex {
			tc = ti
		}
		chosenSum += tc
		bestSum += min(ts, ti)
		if tc > (1+mischosenMargin)*min(ts, ti) {
			mischosen++
		}
		if c.attr.compressed {
			scanSWAR += ts
			valsSWAR += float64(len(c.attr.col.vals) * c.q)
		} else {
			scanRaw += ts
			valsRaw += float64(len(c.attr.col.vals) * c.q)
		}
		idxSum += ti
		idxResults += float64(results)
		fmt.Printf("# %-20s %-6v %8.3f %10.3f %10.3f %10.3f %10d\n", c, chosen, ratio, median(aps), ts, ti, results)
	}
	e.set("optimizer.regret", "ratio", chosenSum/bestSum, true)
	e.set("optimizer.mischosen_cells", "count", float64(mischosen), true)
	e.set("scan.shared_ns_per_value", "ns", scanRaw*1e6/valsRaw, true)
	if valsSWAR > 0 {
		e.layer("scan.swar_ns_per_value", "ns", scanSWAR*1e6/valsSWAR)
	}
	e.set("index.ns_per_result", "ns", idxSum*1e6/idxResults, true)
	e.layer("runtime.heap_per_result", "ratio", median(heapPerResult))
	fmt.Printf("# regret %.3f mischosen %d of %d cells (chosen path >%.0f%% slower); widest scan batch allocates %.1f heap bytes per result byte\n",
		chosenSum/bestSum, mischosen, len(cells), 100*mischosenMargin, median(heapPerResult))
	return nil
}

func wrap(label string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", label, err)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
