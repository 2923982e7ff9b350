package main

import (
	"fmt"
	"math/rand"
	"time"

	"hybridolap"
	"hybridolap/internal/table"
)

// backlogLimit marks a live-ingest run invalid: an open-loop writer that
// falls this far behind its schedule measures its own queue, not the
// system.
const backlogLimit = 500 * time.Millisecond

// batchTally is what one acknowledged batch put into the store.
type batchTally struct {
	label string // its unique store_name
	rows  int
	sales float64
}

// rowStream is the live-ingest writer's seeded input: fixed-size batches,
// each with a fresh store_name (so acked batches are countable after
// recovery) and about 1% fresh customer_city strings, so the append
// dictionaries grow. The fresh-string rate keeps a run's dictionaries
// below 65536 codes, the documented limit for grouping by a text column
// (group keys pack 16 bits per column). The batch buffer is reused: the
// store copies rows into columns and keeps no reference to them.
type rowStream struct {
	rng   *rand.Rand
	buf   []table.Row
	batch int // index of the next batch
	fresh int // fresh customer_city strings handed out
	city  []string
	// labels[i] is batch i's store_name and freshCity[j] the j-th fresh
	// customer_city, rendered ahead by reserve.
	labels, freshCity []string
}

func newRowStream(seed int64, rows int) *rowStream {
	w := &rowStream{rng: rand.New(rand.NewSource(seed*104729 + 17)), buf: make([]table.Row, rows)}
	for i := range w.buf {
		w.buf[i] = table.Row{
			Coords:   make([]int, len(dims)),
			Measures: make([]float64, 2),
			Texts:    make([]string, len(textCols)),
		}
	}
	w.city = make([]string, basePool)
	for j := range w.city {
		w.city[j] = fmt.Sprintf("customer_city-%06d", j)
	}
	return w
}

// writer is one phase of the open-loop producer: a batch is due every
// period from the phase start, whatever the store's speed.
type writer struct {
	stream *rowStream
	period time.Duration

	sent, errs   int
	acked        []batchTally
	ackLat       []time.Duration // ack time minus due time
	sendLag      []time.Duration // send time minus due time
	deltaStripes []int           // delta stripes visible after each ack
	invalid      string
	tr           *tracer // traced phase only
}

// reserve renders the strings of the next n batches, so drawing them in a
// timed window allocates nothing. Fresh cities are reserved at twice
// their expected 1%; a batch past the reserve renders its own.
func (w *rowStream) reserve(n int) {
	for len(w.labels) < w.batch+n {
		w.labels = append(w.labels, fmt.Sprintf("store_name-b%06d", len(w.labels)))
	}
	for len(w.freshCity) < w.fresh+n*len(w.buf)/50 {
		w.freshCity = append(w.freshCity, fmt.Sprintf("customer_city-n%07d", len(w.freshCity)))
	}
}

// reserve prepares the writer for n batches: their strings and the
// capacity of the per-batch records.
func (w *writer) reserve(n int) {
	w.stream.reserve(n)
	w.acked = make([]batchTally, 0, n)
	w.ackLat = make([]time.Duration, 0, n)
	w.sendLag = make([]time.Duration, 0, n)
	w.deltaStripes = make([]int, 0, n)
}

// newWriter returns the live workload's writer, nil for static ones.
func (b *bench) newWriter() *writer {
	if !b.w.live {
		return nil
	}
	return &writer{stream: b.rows, period: b.cfg.batchEvery}
}

// next draws the next batch of the stream and its tally. The rows are
// valid until the following call.
func (w *rowStream) next() ([]table.Row, batchTally) {
	var label string
	if w.batch < len(w.labels) {
		label = w.labels[w.batch]
	} else {
		label = fmt.Sprintf("store_name-b%06d", w.batch)
	}
	w.batch++
	t := batchTally{label: label, rows: len(w.buf)}
	for i := range w.buf {
		r := &w.buf[i]
		for d := range dims {
			r.Coords[d] = w.rng.Intn(dims[d].card[len(dims[d].card)-1])
		}
		r.Measures[0], r.Measures[1] = w.rng.Float64()*1000, w.rng.Float64()*1000
		r.Texts[0] = label
		if w.rng.Float64() < 0.01 {
			if w.fresh < len(w.freshCity) {
				r.Texts[1] = w.freshCity[w.fresh]
			} else {
				r.Texts[1] = fmt.Sprintf("customer_city-n%07d", w.fresh)
			}
			w.fresh++
		} else {
			r.Texts[1] = w.city[w.rng.Intn(basePool)]
		}
		t.sales += r.Measures[0]
	}
	return w.buf, t
}

// run sends every batch due in [start, end). A batch is prepared before
// its due time; latency counts from the due time, so a stall delays the
// batches behind it.
func (w *writer) run(db *olap.DB, start, end time.Time) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * w.period)
		if !due.Before(end) {
			return
		}
		rows, tally := w.stream.next()
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		if lag := sent.Sub(due); lag > backlogLimit {
			w.invalid = fmt.Sprintf("generator ran %v behind schedule at batch %d: backlog grew", lag, i)
			return
		}
		var sp int32
		if w.tr != nil {
			sp = w.tr.begin("ingest.ingest", int64(i), -1)
		}
		_, err := db.Ingest(rows)
		acked := time.Now()
		if w.tr != nil {
			w.tr.end(sp)
		}
		w.sent++
		if err != nil {
			w.errs++
			continue
		}
		w.acked = append(w.acked, tally)
		w.sendLag = append(w.sendLag, sent.Sub(due))
		w.ackLat = append(w.ackLat, acked.Sub(due))
		w.deltaStripes = append(w.deltaStripes, db.IngestStats().DeltaStripes)
	}
}
