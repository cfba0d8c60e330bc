package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/storage"
)

// The kernels' parameters: the Q6 predicate every FAST scan and every
// serve agg=q6 session folds, and the Q1 settings the CLI's live workload
// uses for SLOW scans.
const (
	q1DateMax = 700
	q1Arith   = 8
)

// oracle holds reference per-chunk results, computed once at set-up from a
// plain read of every chunk (TableFile.ReadPageRange) evaluated with the
// exec package's vectorized selection primitives — an evaluation path
// independent of the engine's pinned-buffer kernels and of the serve
// front-end's receipts.
type oracle struct {
	tuples []int64
	q6     []exec.Q6Result
	q1     []exec.Q1Result
	crcQ6  []uint32 // receipt CRC of the Q6 projection
	crcQ1  []uint32 // receipt CRC of the Q1 projection
	// q6Kept is the chunk set a zonemap-pruned Q6 scan of the whole table
	// registers (every chunk on a table without zonemaps).
	q6Kept storage.RangeSet
}

// q6Range is the reference Q6 aggregate over chunks [start, end). Pruning
// must not change it: pruned chunks hold no matching rows.
func (o *oracle) q6Range(start, end int) exec.Q6Result {
	var r exec.Q6Result
	for c := start; c < end; c++ {
		r.Add(o.q6[c])
	}
	return r
}

// buildOracle reads every chunk of tf once and evaluates the reference
// kernels and receipt CRCs on it.
func buildOracle(tf *engine.TableFile) (*oracle, error) {
	n := tf.NumChunks()
	o := &oracle{
		tuples: make([]int64, n),
		q6:     make([]exec.Q6Result, n),
		q1:     make([]exec.Q1Result, n),
		crcQ6:  make([]uint32, n),
		crcQ1:  make([]uint32, n),
	}
	for c := 0; c < n; c++ {
		stripes, err := readStripes(tf, c, engine.Q1Cols())
		if err != nil {
			return nil, err
		}
		tuples := min(tf.TuplesPerChunk(), tf.Rows()-int64(c)*tf.TuplesPerChunk())
		o.tuples[c] = tuples
		o.crcQ6[c] = receiptCRC(engine.Q6Cols(), stripes, tuples)
		o.crcQ1[c] = receiptCRC(engine.Q1Cols(), stripes, tuples)
		col := func(i int) []int64 { return int64s(stripes[i], tuples) }
		o.q6[c] = refQ6(col(engine.ColShipDate), col(engine.ColDiscount), col(engine.ColQuantity), col(engine.ColExtendedPrice))
		o.q1[c] = refQ1(col(engine.ColShipDate), col(engine.ColQuantity), col(engine.ColExtendedPrice),
			col(engine.ColDiscount), col(engine.ColTax), col(engine.ColReturnFlag), col(engine.ColLineStatus))
	}
	o.q6Kept = storage.NewRangeSet(storage.Range{Start: 0, End: n})
	for _, p := range engine.Q6Preds(exec.DefaultQ6()) {
		if zm := tf.ZoneMap(p.Col); zm != nil {
			o.q6Kept = o.q6Kept.Intersect(zm.Prune(p.Lo, p.Hi))
		}
	}
	return o, nil
}

// readStripes reads the column stripes of one chunk: the whole chunk in one
// read on an NSM file (whose pages are the chunk's stripes in column
// order), one read per projected column on a DSM file.
func readStripes(tf *engine.TableFile, chunk int, cols storage.ColSet) ([][]byte, error) {
	out := make([][]byte, engine.NumCols)
	if tf.Format() == engine.NSM {
		first, count := tf.PartPages(chunk, -1)
		buf := make([]byte, tf.ChunkBytes())
		if err := tf.ReadPageRange(first, count, buf); err != nil {
			return nil, fmt.Errorf("oracle: read chunk %d: %w", chunk, err)
		}
		var off int64
		for col := 0; col < count; col++ {
			n := tf.PageBytes(first + int64(col))
			out[col] = buf[off : off+n]
			off += n
		}
		return out, nil
	}
	var err error
	cols.Each(func(col int) {
		if err != nil {
			return
		}
		first, count := tf.PartPages(chunk, col)
		buf := make([]byte, tf.ColStripeBytes(col))
		if rerr := tf.ReadPageRange(first, count, buf); rerr != nil {
			err = fmt.Errorf("oracle: read chunk %d col %d: %w", chunk, col, rerr)
		}
		out[col] = buf
	})
	return out, err
}

// receiptCRC is the documented serve receipt rule: CRC-32 (IEEE) over the
// valid prefix of each projected column, in ascending column order.
func receiptCRC(cols storage.ColSet, stripes [][]byte, tuples int64) uint32 {
	crc := uint32(0)
	cols.Each(func(col int) {
		crc = crc32.Update(crc, crc32.IEEETable, stripes[col][:tuples*engine.ColWidth(col)])
	})
	return crc
}

// int64s decodes the first n little-endian words of a stripe.
func int64s(stripe []byte, n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(stripe[i*8:]))
	}
	return out
}

// refQ6 is TPC-H Q6 over plain columns, composed from exec's selection
// vectors.
func refQ6(dates, disc, qty, price []int64) exec.Q6Result {
	p := exec.DefaultQ6()
	sel := exec.SelGE(dates, p.DateLo, nil)
	sel = exec.SelLT(dates, p.DateHi, sel)
	sel = exec.SelBetween(disc, p.DiscLo, p.DiscHi, sel)
	sel = exec.SelLT(qty, p.MaxQty, sel)
	return exec.Q6Result{Revenue: exec.MulSumSel(price, disc, sel), Rows: exec.CountSel(sel, len(dates))}
}

// refQ1 is the SLOW query's grouped aggregate over plain columns: the
// shipdate filter as a selection vector, then one exec.HashGroupSum per
// aggregate over the composed (returnflag, linestatus) key.
func refQ1(dates, qty, price, disc, tax, flag, status []int64) exec.Q1Result {
	n := len(dates)
	key := make([]int64, n)
	discPrice := make([]int64, n)
	charge := make([]int64, n)
	for i := range key {
		key[i] = flag[i]<<8 | status[i]
		discPrice[i] = price[i] * (100 - disc[i]) / 100
		charge[i] = discPrice[i] * (100 + tax[i]) / 100
	}
	sel := exec.SelLT(dates, q1DateMax+1, nil)
	sums := make([]map[int64]*exec.Group, 4)
	for i, v := range [][]int64{qty, price, discPrice, charge} {
		sums[i] = make(map[int64]*exec.Group)
		exec.HashGroupSum(sums[i], key, v, sel)
	}
	res := make(exec.Q1Result, len(sums[0]))
	for k, g := range sums[0] {
		res[[2]byte{byte(k >> 8), byte(k)}] = &exec.Q1Group{
			Flag: byte(k >> 8), Status: byte(k), Count: g.Count,
			SumQty: g.Sum, SumBase: sums[1][k].Sum, SumDisc: sums[2][k].Sum, SumCharge: sums[3][k].Sum,
		}
	}
	return res
}

// sameQ1 reports whether two Q1 results hold the same groups and sums.
func sameQ1(a, b exec.Q1Result) bool {
	if len(a) != len(b) {
		return false
	}
	for k, g := range a {
		h, ok := b[k]
		if !ok || *g != *h {
			return false
		}
	}
	return true
}

// checkScan verifies one engine scan's deliveries: every chunk of want
// delivered exactly once (seen counts deliveries per chunk), each with the
// reference kernel result (bad lists the chunks whose result differed).
func (o *oracle) checkScan(want storage.RangeSet, seen []int, bad []int) error {
	if len(bad) > 0 {
		return fmt.Errorf("chunk %d: kernel result differs from the oracle", bad[0])
	}
	for c, k := range seen {
		switch {
		case want.Contains(c) && k != 1:
			return fmt.Errorf("chunk %d delivered %d times, want once", c, k)
		case !want.Contains(c) && k != 0:
			return fmt.Errorf("chunk %d outside the range delivered %d times", c, k)
		}
	}
	return nil
}
