package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/durable"
	"repro/internal/rskt"
	"repro/internal/transport"
)

// shadowPipe replays the live cluster's protocol in-process through the
// core engine, the sketch codecs and a scratch epoch log, fed the same
// packets. The traced run times each of those calls; its answers are
// cross-checked against the live cluster's, so the timings describe the
// same work the cluster did.
type shadowPipe interface {
	// round runs epoch k end to end: epoch close at every point, upload
	// codec, relay and center receive, log append, ST join and apply.
	round(k int64, pkts [][]core.SpreadPacket, parent int)
	query(x int, f uint64) (float64, core.Coverage)
	// getEpoch reads one epoch's cells back from the scratch log.
	getEpoch(e int64) error
	// failure reports the first protocol error the pipeline hit.
	failure() error
	close()
}

type shadow[S core.Sketch[S]] struct {
	w       *Workload
	tr      *tracer
	codec   string // span prefix of the sketch codec
	points  []*core.Point[S]
	relays  []*core.Relay[S]
	center  *core.Center[S]
	recv    func(id int, epoch int64, sk S, meta core.UploadMeta) error
	marshal func(S) ([]byte, error)
	dec     func([]byte) (S, error)
	log     *durable.Log
	logDir  string
	ids     []int // the center's children
	err     error // first protocol error; reported by the caller
}

func newShadow(w *Workload, dir string, tr *tracer) (shadowPipe, error) {
	logDir, err := os.MkdirTemp(dir, "shadowlog-")
	if err != nil {
		return nil, err
	}
	lg, err := durable.OpenLog(durable.LogConfig{Dir: logDir, RetainEpochs: historyRetain})
	if err != nil {
		return nil, err
	}
	if w.Kind == transport.KindSpread {
		params := rskt.Params{W: w.W, M: w.M, Seed: hashSeed}
		s := &shadow[*rskt.Sketch]{w: w, tr: tr, codec: "rskt", log: lg, logDir: logDir,
			marshal: (*rskt.Sketch).MarshalBinaryCompact,
			dec: func(b []byte) (*rskt.Sketch, error) {
				var sk rskt.Sketch
				return &sk, sk.UnmarshalBinary(b)
			},
		}
		byID := map[int]rskt.Params{}
		for x := 0; x < w.Points; x++ {
			pt, err := core.NewSpreadPointShardsOf(x, func() *rskt.Sketch { return rskt.New(params) }, 1)
			if err != nil {
				return nil, err
			}
			s.points = append(s.points, pt.Point)
			byID[x] = params
		}
		ctr, err := core.NewSpreadCenter(w.N, byID)
		if err != nil {
			return nil, err
		}
		s.center, s.recv = ctr.Center, ctr.ReceiveMeta
		return s.init(), nil
	}
	params := countmin.Params{D: w.D, W: w.W, Seed: hashSeed}
	mode := core.SizeModeCumulative
	if w.Delta {
		mode = core.SizeModeDelta
	}
	s := &shadow[*countmin.Sketch]{w: w, tr: tr, codec: "countmin", log: lg, logDir: logDir,
		marshal: (*countmin.Sketch).MarshalBinaryCompact,
		dec: func(b []byte) (*countmin.Sketch, error) {
			var sk countmin.Sketch
			return &sk, sk.UnmarshalBinary(b)
		},
	}
	for x := 0; x < w.Points; x++ {
		pt, err := core.NewSizePointShards(x, params, mode, 1)
		if err != nil {
			return nil, err
		}
		s.points = append(s.points, pt.Point)
	}
	children := map[int]countmin.Params{}
	if w.Relays == 0 {
		for x := 0; x < w.Points; x++ {
			children[x] = params
		}
	} else {
		per := w.leavesPerRelay()
		for r := 0; r < w.Relays; r++ {
			children[r] = params
			leaves := map[int]*countmin.Sketch{}
			for x := r * per; x < (r+1)*per; x++ {
				leaves[x] = countmin.New(params)
			}
			rel, err := core.NewRelay(w.N, leaves, nil, core.EngineConfig[*countmin.Sketch]{
				Design: "size", Mode: core.ModeDelta, Additive: true,
			})
			if err != nil {
				return nil, err
			}
			s.relays = append(s.relays, rel)
		}
	}
	ctr, err := core.NewSizeCenter(w.N, children, mode)
	if err != nil {
		return nil, err
	}
	for r := range s.relays {
		ctr.SetWeight(r, w.leavesPerRelay())
	}
	s.center, s.recv = ctr.Center, ctr.ReceiveMeta
	return s.init(), nil
}

// init applies the topology every live point learns from its Welcome.
func (s *shadow[S]) init() *shadow[S] {
	for _, pt := range s.points {
		pt.SetTopology(s.w.Points, s.w.N)
	}
	n := s.w.Points
	if len(s.relays) > 0 {
		n = len(s.relays)
	}
	for id := 0; id < n; id++ {
		s.ids = append(s.ids, id)
	}
	return s
}

// timed runs fn and records it as a span.
func (s *shadow[S]) timed(name string, parent int, k int64, fn func() error) {
	t := time.Now()
	err := fn()
	s.tr.add(name, parent, k, t, time.Now())
	if err != nil {
		s.setErr(fmt.Errorf("%s epoch %d: %w", name, k, err))
	}
}

// setErr keeps the first protocol error.
func (s *shadow[S]) setErr(err error) {
	if s.err == nil {
		s.err = fmt.Errorf("shadow: %w", err)
	}
}

// wire marshals and decodes a sketch the way it crosses one link.
func (s *shadow[S]) wire(sk S, parent int, k int64) S {
	var blob []byte
	var out S
	s.timed(s.codec+".marshal", parent, k, func() (err error) { blob, err = s.marshal(sk); return })
	s.timed(s.codec+".unmarshal", parent, k, func() (err error) { out, err = s.dec(blob); return })
	return out
}

func (s *shadow[S]) round(k int64, pkts [][]core.SpreadPacket, parent int) {
	for x, pt := range s.points {
		pt.RecordBatch(pkts[x])
	}
	per := s.w.Points
	if len(s.relays) > 0 {
		per = s.w.leavesPerRelay()
	}
	for x, pt := range s.points {
		var up S
		var meta core.UploadMeta
		s.timed("core.point.end_epoch", parent, k, func() error { up, meta = pt.EndEpochMeta(false); return nil })
		sk := s.wire(up, parent, k)
		if len(s.relays) == 0 {
			s.timed("core.center.receive", parent, k, func() error { return s.recv(x, k, sk, meta) })
			continue
		}
		s.timed("core.relay.receive", parent, k, func() error { return s.relays[x/per].Receive(x, k, sk) })
	}
	for r, rel := range s.relays {
		var comb S
		s.timed("core.relay.next", parent, k, func() error {
			e, c, ok := rel.Next()
			if !ok || e != k {
				return fmt.Errorf("relay %d not ready (epoch %d, ok %v)", r, e, ok)
			}
			comb = c
			return nil
		})
		if core.IsNil(comb) {
			continue
		}
		sk := s.wire(comb, parent, k)
		s.timed("core.center.receive", parent, k, func() error { return s.recv(r, k, sk, core.UploadMeta{Epoch: k}) })
	}
	for _, id := range s.ids {
		blob, ok, err := s.center.MarshalUpload(id, k, s.marshal)
		if err == nil && !ok {
			err = fmt.Errorf("center holds no cell for child %d epoch %d", id, k)
		}
		if err != nil {
			s.setErr(err)
			continue
		}
		s.timed("durable.log.append", parent, k, func() error { return s.log.Append(id, k, blob) })
	}
	for _, id := range s.ids {
		var agg S
		s.timed("core.center.aggregate", parent, k, func() (err error) { agg, err = s.center.AggregateFor(id, k+1); return })
		if core.IsNil(agg) {
			continue
		}
		merged, _ := s.center.CoverageFor(k + 1)
		sk := s.wire(agg, parent, k)
		leaves := []int{id}
		if len(s.relays) > 0 {
			leaves = leaves[:0]
			for x := id * per; x < (id+1)*per; x++ {
				leaves = append(leaves, x)
			}
		}
		for _, x := range leaves {
			leafSk := sk
			if len(s.relays) > 0 {
				// The relay re-encodes the push at the leaf's width.
				c, err := sk.CompressTo(s.w.W)
				if err != nil {
					s.setErr(err)
					return
				}
				leafSk = s.wire(c, parent, k)
			}
			s.timed("core.point.apply", parent, k, func() error {
				return s.points[x].ApplyAggregateCovAt(k+1, leafSk, merged)
			})
		}
	}
}

func (s *shadow[S]) query(x int, f uint64) (float64, core.Coverage) {
	return s.points[x].QueryWithCoverage(f)
}

func (s *shadow[S]) getEpoch(e int64) error {
	return s.log.GetEpoch(e, s.ids, func(int, []byte) error { return nil })
}

func (s *shadow[S]) close() {
	_ = s.log.Close()
	_ = os.RemoveAll(s.logDir)
}

func (s *shadow[S]) failure() error { return s.err }
