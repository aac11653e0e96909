package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/bench/kit"
	"repro/internal/formula"
	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/view"
	"repro/internal/wire"
)

// The traced pass. The layers carry no instrumentation of their own yet, so
// they are measured from outside: a sample of the workload's operations is
// replayed at every public boundary in turn, bottom-up, against the same
// database, and each call is recorded as a span naming the boundary above
// it as parent. A layer's self time is then the median over operations of
// its span less its children's spans for the same operation.
//
// Every call into another package's layer boundary is in this file, so a
// change to one of those signatures has one place to follow.

// The sample sizes per operation class: enough for a steady median, small
// enough that four boundaries of the slow classes fit the run.
var ladderSamples = map[string]int{"get": 5000, "put": 600, "viewpage": 200, "search": 100}

// ladderOps lists the ladder's operations with the layer at the bottom of
// each; above it come core, server and wire.failover for all of them.
var ladderOps = []struct{ op, bottom string }{
	{"get", "store"}, {"put", "store"}, {"viewpage", "view"}, {"search", "ft"},
}

// ladderOf says which ladder an operation class of a mix belongs to.
var ladderOf = map[kit.Kind]string{
	kit.Get: "get", kit.Create: "put", kit.Update: "put", kit.ViewPage: "viewpage", kit.Search: "search",
}

// ladder replays one operation class at its four boundaries and a codec
// round on a buffer. Each func runs request i once.
type ladder struct {
	op     string
	n      int
	bottom func(i int) error // store, view or ft
	core   func(i int) error // core.Session
	remote func(i int) error // wire.RemoteDB
	top    func(i int) error // wire.FailoverDB
	codec  func(i int)       // encode, frame, unframe and decode both ways
	// warm, when set, runs unrecorded ahead of the recorded calls, so that
	// the boundary that happens to come first does not pay for loading what
	// the others then find cached.
	warm func(i int) error
}

type tracer struct {
	trace kit.Trace
	t0    time.Time
}

// span runs fn for request req and records it.
func (t *tracer) span(name, parent string, req int, fn func(int) error) error {
	start := time.Since(t.t0)
	err := fn(req)
	t.trace.Add(name, parent, req, int64(start), int64(time.Since(t.t0)))
	return err
}

// run replays the ladder and returns what recording costs: the top
// boundary is also timed unrecorded, and the share by which its recorded
// median exceeds that is the overhead.
//
// Request by request, every boundary runs back to back, so that whatever
// drifts over the pass (the collector, a neighbour on the host, a database
// the puts grow) hits all the boundaries of a request alike and cancels in
// their differences. The get ladder alone runs boundary by boundary: its
// sample is larger than the note cache, so that every pass over it finds
// the cache as cold as the last did, where a request's second boundary
// would always find the note its first one loaded.
func (t *tracer) run(l ladder, bottomLayer string) (overhead float64, err error) {
	bottom, core, server, top := bottomLayer+"."+l.op, "core."+l.op, "server."+l.op, "wire.failover_"+l.op
	var bare, recorded kit.Hist
	steps := []struct {
		name, parent string
		fn           func(int) error
	}{
		{"wire.codec_" + l.op, server, func(i int) error { l.codec(i); return nil }},
		{bottom, core, l.bottom},
		{core, server, l.core},
		// An unrecorded call over the wire, so that the two recorded ones
		// both follow one: whatever follows the in-process call directly
		// runs into the collection of that call's garbage.
		{"", "", l.remote},
		{server, top, l.remote},
		{top, "", func(i int) error {
			t0 := time.Now()
			err := l.top(i)
			recorded.Record(int64(time.Since(t0)))
			return err
		}},
		{"", "", func(i int) error {
			t0 := time.Now()
			err := l.top(i)
			bare.Record(int64(time.Since(t0)))
			return err
		}},
	}
	do := func(step, i int) error {
		st := steps[step]
		if st.name == "" {
			return st.fn(i)
		}
		if err := t.span(st.name, st.parent, i, st.fn); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		return nil
	}
	warm := func(i int) error {
		if l.warm == nil {
			return nil
		}
		return l.warm(i)
	}
	if l.op == "get" {
		for i := 0; i < l.n; i++ {
			if err := warm(i); err != nil {
				return 0, err
			}
		}
		for step := range steps {
			for i := 0; i < l.n; i++ {
				if err := do(step, i); err != nil {
					return 0, err
				}
			}
		}
	} else {
		for i := 0; i < l.n; i++ {
			if err := warm(i); err != nil {
				return 0, err
			}
			for step := range steps {
				if err := do(step, i); err != nil {
					return 0, err
				}
			}
		}
	}
	return (recorded.Quantile(0.5) - bare.Quantile(0.5)) / bare.Quantile(0.5), nil
}

// tracePass runs the ladders for the classes in the workload's mix, writes
// the spans to out/trace-<workload>.json, prints the op x layer matrix and
// reports the self times, then times the layers that can run alone.
func (e *env) tracePass(layer metrics) error {
	inMix := map[string]bool{}
	for _, sh := range e.spec.mix {
		inMix[ladderOf[sh.Kind]] = true
	}
	cfg := e.cfg
	r, err := buildRig(e)
	if err != nil {
		return err
	}
	defer r.close()
	t := &tracer{t0: time.Now()}
	var overheads []float64
	for _, lo := range ladderOps {
		if !inMix[lo.op] {
			continue
		}
		overhead, err := t.run(r.ladders[lo.op], lo.bottom)
		if err != nil {
			return err
		}
		overheads = append(overheads, overhead)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := t.trace.WriteFile(filepath.Join(cfg.outDir, "trace-"+e.spec.name+".json")); err != nil {
		return err
	}
	self := t.trace.SelfTimes()
	for name, st := range self {
		metric := name + "_self_us"
		switch {
		case strings.HasPrefix(name, "wire.codec_"):
			metric = name + "_us"
		case name == "store.put" && e.spec.server.SyncWAL:
			metric = "store.put_sync_self_us"
		}
		layer.set(metric, us(st.MedianNs), st.N)
	}
	layer.set("trace.overhead_share", kit.Median(overheads), len(overheads))
	if puts := r.scratch.Stats(); puts.Notes > 0 {
		layer.set("store.wal_bytes_per_put", float64(puts.WALBytes)/float64(puts.Notes), puts.Notes)
	}
	printMatrix(e.spec.name, self)

	notes := e.notes()
	codecAlone(notes[:min(len(notes), 2000)], layer)
	return indexesAlone(notes, layer)
}

// printMatrix prints the op x layer table of self times.
func printMatrix(workload string, self map[string]kit.SelfStat) {
	fmt.Printf("\n%s: self time per layer, us (median over the sampled operations)\n", workload)
	fmt.Printf("%-16s %10s %10s %10s %10s\n", "layer", "get", "put", "viewpage", "search")
	cell := func(name string) string {
		if st, ok := self[name]; ok {
			return fmt.Sprintf("%10.1f", us(st.MedianNs))
		}
		return fmt.Sprintf("%10s", "-")
	}
	rows := []struct{ label, prefix, sep string }{
		{"wire.failover", "wire.failover", "_"}, {"server", "server", "."}, {"wire.codec", "wire.codec", "_"},
		{"core", "core", "."},
	}
	for _, r := range rows {
		fmt.Printf("%-16s", r.label)
		for _, lo := range ladderOps {
			fmt.Print(" ", cell(r.prefix+r.sep+lo.op))
		}
		fmt.Println()
	}
	fmt.Printf("%-16s", "store/view/ft")
	for _, lo := range ladderOps {
		fmt.Print(" ", cell(lo.bottom+"."+lo.op))
	}
	fmt.Println()
}

// rig is the ladders with what they hold open: a plain (non-failover)
// client session, and a scratch store with the workload's store options
// that the put ladder's bottom boundary writes, never checkpointed so that
// its WAL size is what its puts logged.
type rig struct {
	ladders map[string]ladder
	plain   *wire.Client
	scratch *store.Store
}

func (r *rig) close() {
	r.plain.Close()
	r.scratch.Close()
}

// buildRig binds the four ladders to the live database. Operations come
// from the first client's op list, answers were checked in the measured
// pass, so the ladder only times.
func buildRig(e *env) (*rig, error) {
	c, cfg := e.clients[0], e.cfg
	db := e.home.db
	sess := db.Session(userName)
	plain, err := wire.DialOptions(e.home.addr, userName, userSecret, wire.Options{})
	if err != nil {
		return nil, err
	}
	remote, err := plain.OpenDB(dbPath)
	if err != nil {
		plain.Close()
		return nil, err
	}
	scratch, err := store.Open(filepath.Join(e.dir, "scratch.nsf"), store.Options{
		SyncWAL: e.spec.server.SyncWAL, GroupCommitWindow: e.spec.server.GroupCommitWindow, CheckpointEvery: -1,
	})
	if err != nil {
		plain.Close()
		return nil, err
	}

	// The sample: the keys the first client's list draws, per class.
	sample := func(kind kit.Kind, n int) []uint32 {
		var keys []uint32
		for _, op := range c.ops {
			if op.Kind == kind && len(keys) < n {
				keys = append(keys, op.Key)
			}
		}
		return keys
	}
	size := func(op string) int { return max(1, ladderSamples[op]/cfg.scale) }

	gets := sample(kit.Get, size("get"))
	unid := func(i int) nsf.UNID { return c.own.docs[int(gets[i])%len(c.own.docs)].unid() }
	getNote := c.own.docs[0].note
	get := ladder{op: "get", n: len(gets),
		bottom: func(i int) error { _, err := db.RawGet(unid(i)); return err },
		core:   func(i int) error { _, err := sess.Get(unid(i)); return err },
		remote: func(i int) error { _, err := remote.Get(unid(i)); return err },
		top:    func(i int) error { _, err := c.db.Get(unid(i)); return err },
		codec: func(i int) {
			codecRound(wire.NewEnc(wire.OpGetNote).U32(1).UNID(unid(i)), func(d *wire.Dec) { d.U32(); d.UNID() })
			codecRound(wire.NewResp(wire.OpGetNote, wire.StatusOK).Note(getNote), func(d *wire.Dec) { d.Note() })
		},
		// One pass brings the sample's pages into the pool.
		warm: func(i int) error { _, err := db.RawGet(unid(i)); return err },
	}

	// Every put creates a fresh document, made ahead of the timing.
	fresh := make([]*nsf.Note, 7*size("put"))
	for i := range fresh {
		fresh[i] = c.maker.next()
	}
	next := func() *nsf.Note {
		n := fresh[0]
		fresh = fresh[1:]
		return n
	}
	codecNote := next()
	put := ladder{op: "put", n: size("put"),
		bottom: func(int) error { return scratch.Put(next()) },
		core:   func(int) error { return sess.Create(next()) },
		remote: func(int) error { return remote.Create(next()) },
		top:    func(int) error { return c.db.Create(next()) },
		codec: func(int) {
			codecRound(wire.NewEnc(wire.OpCreateNote).U32(1).Note(codecNote), func(d *wire.Dec) { d.U32(); d.Note() })
			codecRound(wire.NewResp(wire.OpCreateNote, wire.StatusOK).Note(codecNote), func(d *wire.Dec) { d.Note() })
		},
	}

	pages := sample(kit.ViewPage, size("viewpage"))
	start := func(i int) int { return int(pages[i]) % max(1, c.viewRows-pageRows) }
	var vp ladder
	if ix, ok := db.View(sortedView); ok {
		rows, _ := ix.RowsRange(nil, 0, pageRows)
		vp = ladder{op: "viewpage", n: len(pages),
			bottom: func(i int) error { ix.RowsRange(nil, start(i), pageRows); return nil },
			core:   func(i int) error { _, _, err := sess.RowsPage(sortedView, start(i), pageRows); return err },
			remote: func(i int) error { _, err := remote.ViewPage(sortedView, start(i), pageRows); return err },
			top:    func(i int) error { _, err := c.db.ViewPage(sortedView, start(i), pageRows); return err },
			codec: func(i int) {
				codecRound(wire.NewEnc(wire.OpViewRows).U32(1).Str(sortedView).U32(uint32(start(i))).U32(pageRows),
					func(d *wire.Dec) { d.U32(); d.Str(); d.U32(); d.U32() })
				codecRound(encodeViewPage(rows), decodeViewPage)
			},
		}
	}

	qs := sample(kit.Search, size("search"))
	query := func(i int) string { return c.queries[int(qs[i])%len(c.queries)] }
	var search ladder
	if fti := db.FullText(); fti != nil {
		search = ladder{op: "search", n: len(qs),
			bottom: func(i int) error { _, err := fti.Search(query(i)); return err },
			core:   func(i int) error { _, err := sess.SearchJoined(query(i), searchColumns); return err },
			remote: func(i int) error { _, err := remote.SearchPage(query(i), searchColumns, 0, searchLimit); return err },
			top:    func(i int) error { _, err := c.db.SearchPage(query(i), searchColumns, 0, searchLimit); return err },
			codec: func(i int) {
				codecRound(wire.NewEnc(wire.OpSearch).U32(1).Str(query(i)).U32(0).U32(searchLimit).U32(1).Str("Subject"),
					func(d *wire.Dec) {
						d.U32()
						d.Str()
						d.U32()
						d.U32()
						d.U32()
						d.Str()
					})
				codecRound(encodeSearchPage(c.own.docs[:searchLimit]), decodeSearchPage)
			},
			// The join reads every hit's document: the first to join would
			// load them for the rest.
			warm: func(i int) error { _, err := sess.SearchJoined(query(i), searchColumns); return err },
		}
	}
	return &rig{ladders: map[string]ladder{"get": get, "put": put, "viewpage": vp, "search": search},
		plain: plain, scratch: scratch}, nil
}

// codecRound sends one message through what the wire layer does to it with
// no network and no server: encode, frame into a buffer, read the frame
// back, decode.
func codecRound(e *wire.Enc, decode func(*wire.Dec)) {
	var buf bytes.Buffer
	wire.WriteFrame(&buf, e.Bytes())
	e.Release()
	frame, _ := wire.ReadFrame(&buf)
	d := wire.NewDec(frame)
	d.U8() // op
	decode(d)
}

// The page encoders and decoders mirror the server's handlers and the
// client's decoders, which are not exported: same primitives, same order.

func encodeViewPage(rows []view.Row) *wire.Enc {
	e := wire.NewResp(wire.OpViewRows, wire.StatusOK).U32(uint32(len(rows))).U32(0)
	for _, r := range rows {
		e.U8(1).U32(uint32(r.Indent)).UNID(r.Entry.UNID).U32(uint32(len(r.Entry.Values)))
		for i := range r.Entry.Values {
			e.Str(r.Entry.ColumnText(i))
		}
	}
	return e.U8(0).U8(0).U32(uint32(len(rows)))
}

func decodeViewPage(d *wire.Dec) {
	d.U8() // status
	d.U32()
	d.U32()
	for d.U8() == 1 {
		d.U32()
		d.UNID()
		for cols := d.U32(); cols > 0 && d.Err() == nil; cols-- {
			_ = d.Str()
		}
	}
	d.U8()
	d.U32()
}

func encodeSearchPage(hits []*doc) *wire.Enc {
	e := wire.NewResp(wire.OpSearch, wire.StatusOK).U32(uint32(len(hits))).U32(0)
	for _, h := range hits {
		e.U8(1).UNID(h.unid()).U64(0).U8(1).Value(h.note.Get("Subject"))
	}
	return e.U8(0).U8(0).U32(uint32(len(hits)))
}

func decodeSearchPage(d *wire.Dec) {
	d.U8() // status
	d.U32()
	d.U32()
	for d.U8() == 1 {
		d.UNID()
		d.U64()
		if d.U8() == 1 {
			d.Value()
		}
	}
	d.U8()
	d.U32()
}

// codecAlone times the note codec every stored, sent or replicated
// document passes through.
func codecAlone(notes []*nsf.Note, layer metrics) {
	var enc, dec kit.Hist
	for _, n := range notes {
		t0 := time.Now()
		b := nsf.EncodeNote(n)
		t1 := time.Now()
		nsf.DecodeNote(b)
		enc.Record(int64(t1.Sub(t0)))
		dec.Record(int64(time.Since(t1)))
	}
	layer.set("nsf.encode_ns", enc.Quantile(0.5), enc.Count())
	layer.set("nsf.decode_ns", dec.Quantile(0.5), dec.Count())
}

// indexesAlone times the two index maintainers alone at the workload's
// size: a view rebuilt over the corpus and then updated a document at a
// time, and a full-text index fed a document at a time. They are what the
// changefeed's consumers spend per write, and what a restart spends.
func indexesAlone(notes []*nsf.Note, layer metrics) error {
	def, err := view.NewDefinition(sortedView, "SELECT @All",
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true},
		view.Column{Title: "From", ItemName: "From"})
	if err != nil {
		return err
	}
	ctx := &formula.Context{Now: func() nsf.Timestamp { return 0 }}
	ix := view.NewIndex(def)
	t0 := time.Now()
	err = ix.Rebuild(ctx, func(fn func(*nsf.Note) bool) error {
		for _, n := range notes {
			if !fn(n) {
				break
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer.set("view.rebuild_ms", time.Since(t0).Seconds()*1e3, len(notes))

	sample := notes[:min(len(notes), 1000)]
	fti := ft.NewIndex()
	var viewUpdate, ftUpdate kit.Hist
	for _, n := range sample {
		edited := n.Clone()
		edited.SetWithFlags("Subject", nsf.TextValue("z "+n.Text("Subject")), nsf.FlagSummary)
		t0 := time.Now()
		if _, err := ix.Update(edited, ctx); err != nil {
			return err
		}
		t1 := time.Now()
		fti.Update(n)
		viewUpdate.Record(int64(t1.Sub(t0)))
		ftUpdate.Record(int64(time.Since(t1)))
	}
	layer.set("view.update_us", us(viewUpdate.Quantile(0.5)), viewUpdate.Count())
	layer.set("ft.update_us", us(ftUpdate.Quantile(0.5)), ftUpdate.Count())
	return nil
}
