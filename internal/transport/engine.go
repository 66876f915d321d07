package transport

import (
	"encoding"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/durable"
	"repro/internal/rskt"
	"repro/internal/vhll"
)

// The transport speaks to exactly one point-side and one center-side
// protocol engine, both thin instantiations of the generic epoch engine in
// internal/core behind a byte-level codec. The design (size/spread) and
// the spread design's sketch backend (rSkt2 or vHLL) are picked once at
// construction (newPointEngine / newCenterEngine); every hot path after
// that is design-agnostic. Sketch selection is out-of-band configuration —
// the wire messages carry opaque sketch blobs and never name the backend,
// so both sides of a connection must be configured with the same Sketch
// (a mismatch surfaces as a blob decode error, killing the connection).

// Sketch backend names for PointConfig.Sketch and CenterConfig.Sketch.
// The empty string means the design's default backend.
const (
	// SketchRskt is the paper's rSkt2(HLL) spread sketch (default).
	SketchRskt = "rskt"
	// SketchVhll is the register-sharing vHLL spread sketch, the
	// core-sketch ablation's backend.
	SketchVhll = "vhll"
)

// wireSketch is an epoch sketch as the transport ships it: the core merge
// algebra plus the compact encoding (run-length HLL registers, varint
// CountMin rows) every Upload and Push payload travels in — the one codec
// this protocol speaks (CodecPacked). Decoders still accept the fixed
// encoding, dispatching on the sketch magic.
type wireSketch[S any] interface {
	core.Sketch[S]
	MarshalBinaryCompact() ([]byte, error)
}

// sketchPool recycles decoded sketch scratch on paths that never retain
// the decoded value (merge-only applies at the point, the additive
// receive at the size center). Decoding into a recycled sketch of the
// same dimensions reuses its register arrays, so the per-epoch decode
// path stops allocating once warm. Paths that alias the decoded sketch
// (the spread center's window store) must not use a pool.
type sketchPool[S core.Sketch[S]] struct {
	pool sync.Pool
	dec  func([]byte) (S, error)
}

// get decodes data into a recycled sketch, or a fresh one when the pool
// is empty. Sketches handed out must come back via put after use.
func (p *sketchPool[S]) get(data []byte) (S, error) {
	if v := p.pool.Get(); v != nil {
		sk := v.(S)
		if err := any(sk).(encoding.BinaryUnmarshaler).UnmarshalBinary(data); err != nil {
			var zero S
			return zero, err
		}
		return sk, nil
	}
	return p.dec(data)
}

func (p *sketchPool[S]) put(sk S) { p.pool.Put(sk) }

// pointEngine is the design-erased measurement point the PointClient
// drives. Sketch payloads cross this boundary as their compact binary
// encodings (the wire and checkpoint representation).
type pointEngine interface {
	setTopology(points, n int)
	advanceTo(epoch int64)
	resetWindow()
	epoch() int64
	coverage() core.Coverage
	record(f, e uint64)
	recordBatch(ps []core.SpreadPacket)
	newPipe() IngestPipe
	query(f uint64) float64
	queryCov(f uint64) (float64, core.Coverage)
	// endEpoch rolls the epoch and returns the finished epoch's number,
	// marshaled upload and protocol metadata.
	endEpoch(rebase bool) (int64, []byte, core.UploadMeta, error)
	applyAggregate(forEpoch int64, data []byte, merged int) error
	applyEnhancement(forEpoch int64, data []byte) error
	applyBackfill(forEpoch int64, data []byte, merged int) error
	meta() core.PointMeta
	restoreMeta(m core.PointMeta)
	// cumulative reports whether uploads form a recovery chain at the
	// center (the cumulative size design), which is what makes rebase
	// sequencing and gap tracking meaningful.
	cumulative() bool
	// queryUnionCov answers the T-query over the union of this engine's
	// query state and every peer's — the flat-equivalent answer for a
	// flow-sharded point set. Peers must be engines of the same design and
	// backend (sharded sub-points are config clones, so they always are).
	queryUnionCov(f uint64, peers []pointEngine) (float64, core.Coverage, error)
	saveState(w io.Writer) error
	loadState(r io.Reader) error
}

// IngestPipe is one worker's private run-to-completion ingest pipeline
// into the point (core.Recorder behind the design-erased boundary). Each
// pipe buffers packets locally and touches no shared mutable state on the
// record path, so one pipe per ingest goroutine scales with cores.
// Record, RecordBatch and Flush must only be called by the owning worker;
// the engine's queries and epoch rolls may run concurrently with them.
// Packets are invisible to queries and epoch folds until the pipe's next
// internal batch boundary or Flush; Close flushes and retires the pipe.
type IngestPipe interface {
	Record(f, e uint64)
	RecordBatch(ps []core.SpreadPacket)
	Flush()
	Close()
}

// pointCodec is the design- and backend-specific part of a point engine:
// how sketch blobs decode, and how the TQST1 state file is framed.
type pointCodec[S core.Sketch[S]] struct {
	// dec decodes one sketch blob.
	dec func([]byte) (S, error)
	// stateKind is the TQST1 kind byte ('s' spread, 'z' size).
	stateKind byte
	// hasBByte marks the size framing, which writes a B-presence byte
	// (cumulative mode keeps no B sketch); the spread framing always has
	// all three sketches.
	hasBByte bool
}

// enginePoint is the single point-engine implementation, generic over the
// epoch sketch.
type enginePoint[S wireSketch[S]] struct {
	pt    *core.Point[S]
	codec pointCodec[S]
	// scratch recycles decode buffers across pushes: every apply below
	// merges the decoded sketch and drops it, so the same scratch sketch
	// can absorb push after push without allocating.
	scratch sketchPool[S]
}

// newEnginePoint wires the scratch pool to the codec's decoder.
func newEnginePoint[S wireSketch[S]](pt *core.Point[S], codec pointCodec[S]) *enginePoint[S] {
	e := &enginePoint[S]{pt: pt, codec: codec}
	e.scratch.dec = codec.dec
	return e
}

func (e *enginePoint[S]) setTopology(points, n int)          { e.pt.SetTopology(points, n) }
func (e *enginePoint[S]) advanceTo(epoch int64)              { e.pt.AdvanceTo(epoch) }
func (e *enginePoint[S]) resetWindow()                       { e.pt.ResetWindow() }
func (e *enginePoint[S]) epoch() int64                       { return e.pt.Epoch() }
func (e *enginePoint[S]) coverage() core.Coverage            { return e.pt.Coverage() }
func (e *enginePoint[S]) record(f, el uint64)                { e.pt.Record(f, el) }
func (e *enginePoint[S]) recordBatch(ps []core.SpreadPacket) { e.pt.RecordBatch(ps) }
func (e *enginePoint[S]) newPipe() IngestPipe                { return e.pt.NewRecorder() }
func (e *enginePoint[S]) query(f uint64) float64             { return e.pt.Query(f) }
func (e *enginePoint[S]) queryCov(f uint64) (float64, core.Coverage) {
	return e.pt.QueryWithCoverage(f)
}
func (e *enginePoint[S]) meta() core.PointMeta         { return e.pt.Meta() }
func (e *enginePoint[S]) restoreMeta(m core.PointMeta) { e.pt.RestoreMeta(m) }
func (e *enginePoint[S]) cumulative() bool             { return e.pt.Mode() == core.ModeCumulative }

func (e *enginePoint[S]) queryUnionCov(f uint64, peers []pointEngine) (float64, core.Coverage, error) {
	pts := make([]*core.Point[S], 0, len(peers))
	for _, p := range peers {
		ep, ok := p.(*enginePoint[S])
		if !ok {
			return 0, core.Coverage{}, fmt.Errorf("transport: union across mismatched engines")
		}
		pts = append(pts, ep.pt)
	}
	est, cov := e.pt.QueryUnionWithCoverage(f, pts)
	return est, cov, nil
}

func (e *enginePoint[S]) endEpoch(rebase bool) (int64, []byte, core.UploadMeta, error) {
	epoch := e.pt.Epoch()
	up, meta := e.pt.EndEpochMeta(rebase)
	data, err := up.MarshalBinaryCompact()
	return epoch, data, meta, err
}

func (e *enginePoint[S]) applyAggregate(forEpoch int64, data []byte, merged int) error {
	sk, err := e.scratch.get(data)
	if err != nil {
		return err
	}
	err = e.pt.ApplyAggregateCovAt(forEpoch, sk, merged)
	e.scratch.put(sk)
	return err
}

func (e *enginePoint[S]) applyEnhancement(forEpoch int64, data []byte) error {
	sk, err := e.scratch.get(data)
	if err != nil {
		return err
	}
	err = e.pt.ApplyEnhancementAt(forEpoch, sk)
	e.scratch.put(sk)
	return err
}

func (e *enginePoint[S]) applyBackfill(forEpoch int64, data []byte, merged int) error {
	sk, err := e.scratch.get(data)
	if err != nil {
		return err
	}
	err = e.pt.ApplyBackfillCovAt(forEpoch, sk, merged)
	e.scratch.put(sk)
	return err
}

// decodeRskt / decodeVhll / decodeCountMin are the blob decoders behind
// each codec.
func decodeRskt(data []byte) (*rskt.Sketch, error) {
	var sk rskt.Sketch
	if err := sk.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return &sk, nil
}

func decodeVhll(data []byte) (*vhll.Sketch, error) {
	var sk vhll.Sketch
	if err := sk.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return &sk, nil
}

func decodeCountMin(data []byte) (*countmin.Sketch, error) {
	var sk countmin.Sketch
	if err := sk.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return &sk, nil
}

// newPointEngine builds the point engine selected by the configuration.
func newPointEngine(cfg PointConfig) (pointEngine, error) {
	switch cfg.Kind {
	case KindSpread:
		switch cfg.Sketch {
		case "", SketchRskt:
			pt, err := core.NewSpreadPoint(cfg.Point, rskt.Params{W: cfg.W, M: cfg.M, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			return newEnginePoint(pt.Point, pointCodec[*rskt.Sketch]{
				dec: decodeRskt, stateKind: 's',
			}), nil
		case SketchVhll:
			params := vhll.Params{PhysicalRegisters: cfg.W, VirtualRegisters: cfg.M, Seed: cfg.Seed}
			if _, err := vhll.New(params); err != nil {
				return nil, err
			}
			pt, err := core.NewSpreadPointOf(cfg.Point, func() *vhll.Sketch {
				sk, err := vhll.New(params)
				if err != nil {
					panic(err) // params validated above
				}
				return sk
			})
			if err != nil {
				return nil, err
			}
			return newEnginePoint(pt.Point, pointCodec[*vhll.Sketch]{
				dec: decodeVhll, stateKind: 's',
			}), nil
		default:
			return nil, fmt.Errorf("transport: unknown spread sketch %q", cfg.Sketch)
		}
	case KindSize:
		if cfg.Sketch != "" && cfg.Sketch != SketchRskt {
			return nil, fmt.Errorf("transport: the size design has no alternate sketch backend (got %q)", cfg.Sketch)
		}
		mode := core.SizeModeCumulative
		if cfg.DeltaUploads {
			// Per-epoch delta uploads: required behind an aggregation relay
			// (cumulative sketches cannot be pre-merged), equal to the
			// cumulative mode's recovered deltas on healthy traces.
			mode = core.SizeModeDelta
		}
		pt, err := core.NewSizePoint(cfg.Point, countmin.Params{D: cfg.D, W: cfg.W, Seed: cfg.Seed}, mode)
		if err != nil {
			return nil, err
		}
		return newEnginePoint(pt.Point, pointCodec[*countmin.Sketch]{
			dec: decodeCountMin, stateKind: 'z', hasBByte: true,
		}), nil
	default:
		return nil, fmt.Errorf("transport: unknown kind %q", cfg.Kind)
	}
}

// centerEngine is the design-erased measurement center the CenterServer
// drives. Like pointEngine, sketches cross as binary blobs.
type centerEngine interface {
	maxEpoch() int64
	lastEpoch(point int) int64
	// setWeight declares how many leaf points one upload from the child
	// represents (relay subtrees); totalWeight sums the cluster's leaves.
	setWeight(point, weight int)
	totalWeight() int
	receive(up Upload) error
	// buildPush assembles one point's Push for round forEpoch.
	buildPush(point int, forEpoch int64, enhance bool) (Push, error)
	// reported tells whether the point's upload for the epoch counted
	// toward its round (stored, or — in cumulative mode — consumed by the
	// sequence position even when gap-dropped).
	reported(point int, epoch int64) bool
	exportState(ck *centerCheckpoint) error
	importState(ck *centerCheckpoint) error
	// exportCell marshals the stored single-epoch measurement for (point,
	// epoch) in the canonical compact encoding — the epoch log's feed.
	// ok=false when the center holds no such cell.
	exportCell(point int, epoch int64) ([]byte, bool, error)
	// historyAt / historyRange replay the ST join over stored cells
	// (retrospective T-queries); queryWindowLive answers from the live
	// window — the reference the replay's exactness contract is against.
	historyAt(f uint64, k int64, log *durable.Log) (float64, core.Coverage, error)
	historyRange(f uint64, from, to int64, log *durable.Log) (float64, core.Coverage, error)
	queryWindowLive(f uint64, k int64) (float64, core.Coverage, error)
	// Replay-cache control (see core.ReplayCache): budget attach,
	// epoch-span invalidation (compaction / late appends), cold reset for
	// benchmarks, and counters for /readyz.
	enableReplayCache(budgetBytes int64)
	invalidateReplayEpochs(min, max int64)
	resetReplayCache()
	replayCacheStats() (core.ReplayCacheStats, bool)
}

// logSource adapts the durable epoch log to core.HistorySource: cells
// come back as decoded sketches, absence is the coverage signal. It also
// implements core.EpochSource — the batched read path — decoding through
// a shared scratch pool: the replay never retains the visited sketch, so
// one recycled sketch per worker absorbs an entire pass.
type logSource[S core.Sketch[S]] struct {
	log  *durable.Log
	dec  func([]byte) (S, error)
	pool *sketchPool[S]
}

func (ls logSource[S]) Cell(point int, epoch int64) (S, bool, error) {
	var zero S
	b, ok, err := ls.log.Get(point, epoch)
	if err != nil || !ok {
		return zero, false, err
	}
	sk, err := ls.dec(b)
	if err != nil {
		return zero, false, err
	}
	return sk, true, nil
}

// EpochCells streams one epoch's cells out of the log in a single
// batched pass (durable.Log.GetEpoch): segment-grouped offset-ordered
// reads, CRCs checked in-pass, blobs borrowed, sketches decoded into
// pooled scratch that is reclaimed as soon as visit returns.
func (ls logSource[S]) EpochCells(epoch int64, points []int, visit func(point int, sk S) error) error {
	return ls.log.GetEpoch(epoch, points, func(point int, blob []byte) error {
		sk, err := ls.pool.get(blob)
		if err != nil {
			return err
		}
		err = visit(point, sk)
		ls.pool.put(sk)
		return err
	})
}

// engineCenter is the single center-engine implementation, generic over
// the epoch sketch. The three hooks carry what stays design-specific: the
// upload validation path and the gob-frozen checkpoint state shapes.
type engineCenter[S wireSketch[S]] struct {
	ctr *core.Center[S]
	dec func([]byte) (S, error)
	// recv ingests one decoded upload (the design wrapper's ReceiveMeta,
	// which for size also checks the sketch parameters).
	recv func(point int, epoch int64, sk S, meta core.UploadMeta) error
	// cumulative mirrors pointEngine.cumulative.
	cum bool
	// scratch, when non-nil, recycles upload decode buffers. Only the
	// additive size design may pool: its receive path clones the upload
	// into a recovered delta and drops it, while the spread window store
	// aliases the decoded sketch outright (core.Center.ReceiveMeta stores
	// it without cloning), so pooling there would corrupt the window.
	scratch *sketchPool[S]
	// save/load move the window store into/out of the checkpoint's
	// design-specific field.
	save func(ck *centerCheckpoint) error
	load func(ck *centerCheckpoint) error
	// histOnce/hist lazily build the shared decode-scratch pool for the
	// batched history read path (logSource.EpochCells).
	histOnce sync.Once
	hist     *sketchPool[S]
}

func (e *engineCenter[S]) histPool() *sketchPool[S] {
	e.histOnce.Do(func() { e.hist = &sketchPool[S]{dec: e.dec} })
	return e.hist
}

func (e *engineCenter[S]) maxEpoch() int64                        { return e.ctr.MaxEpoch() }
func (e *engineCenter[S]) lastEpoch(point int) int64              { return e.ctr.LastEpoch(point) }
func (e *engineCenter[S]) setWeight(point, weight int)            { e.ctr.SetWeight(point, weight) }
func (e *engineCenter[S]) totalWeight() int                       { return e.ctr.TotalWeight() }
func (e *engineCenter[S]) exportState(ck *centerCheckpoint) error { return e.save(ck) }
func (e *engineCenter[S]) importState(ck *centerCheckpoint) error { return e.load(ck) }

func (e *engineCenter[S]) receive(up Upload) error {
	var sk S
	var err error
	if e.scratch != nil {
		sk, err = e.scratch.get(up.Sketch)
	} else {
		sk, err = e.dec(up.Sketch)
	}
	if err != nil {
		return fmt.Errorf("point %d epoch %d: %w", up.Point, up.Epoch, err)
	}
	err = e.recv(up.Point, up.Epoch, sk, core.UploadMeta{
		Epoch:      up.Epoch,
		AggApplied: up.AggApplied,
		EnhApplied: up.EnhApplied,
		Rebase:     up.Rebase,
	})
	if e.scratch != nil {
		e.scratch.put(sk)
	}
	return err
}

func (e *engineCenter[S]) buildPush(point int, forEpoch int64, enhance bool) (Push, error) {
	push := Push{ForEpoch: forEpoch}
	agg, err := e.ctr.AggregateFor(point, forEpoch)
	if err != nil {
		return push, err
	}
	if !core.IsNil(agg) {
		if push.Aggregate, err = agg.MarshalBinaryCompact(); err != nil {
			return push, err
		}
	}
	if enhance {
		enh, err := e.ctr.EnhancementFor(point, forEpoch)
		if err != nil {
			return push, err
		}
		if !core.IsNil(enh) {
			if push.Enhancement, err = enh.MarshalBinaryCompact(); err != nil {
				return push, err
			}
		}
	}
	push.CovMerged, push.CovExpected = e.ctr.CoverageFor(forEpoch)
	return push, nil
}

func (e *engineCenter[S]) exportCell(point int, epoch int64) ([]byte, bool, error) {
	return e.ctr.MarshalUpload(point, epoch, S.MarshalBinaryCompact)
}

func (e *engineCenter[S]) historyAt(f uint64, k int64, log *durable.Log) (float64, core.Coverage, error) {
	return e.ctr.QueryAtFrom(f, k, logSource[S]{log: log, dec: e.dec, pool: e.histPool()})
}

func (e *engineCenter[S]) historyRange(f uint64, from, to int64, log *durable.Log) (float64, core.Coverage, error) {
	return e.ctr.QueryRangeFrom(f, from, to, logSource[S]{log: log, dec: e.dec, pool: e.histPool()})
}

func (e *engineCenter[S]) enableReplayCache(budgetBytes int64) { e.ctr.EnableReplayCache(budgetBytes) }
func (e *engineCenter[S]) invalidateReplayEpochs(min, max int64) {
	e.ctr.InvalidateReplayEpochs(min, max)
}
func (e *engineCenter[S]) resetReplayCache() { e.ctr.ResetReplayCache() }
func (e *engineCenter[S]) replayCacheStats() (core.ReplayCacheStats, bool) {
	return e.ctr.ReplayCacheStats()
}

func (e *engineCenter[S]) queryWindowLive(f uint64, k int64) (float64, core.Coverage, error) {
	return e.ctr.QueryWindowLive(f, k)
}

func (e *engineCenter[S]) reported(point int, epoch int64) bool {
	if e.ctr.HasUpload(point, epoch) {
		return true
	}
	// A gap-dropped cumulative upload leaves no delta but advances the
	// point's sequence position; it still counted toward the round.
	return e.cum && e.ctr.LastEpoch(point) >= epoch
}

// newCenterEngine builds the center engine selected by the configuration.
func newCenterEngine(cfg CenterConfig) (centerEngine, error) {
	switch cfg.Kind {
	case KindSpread:
		switch cfg.Sketch {
		case "", SketchRskt:
			params := make(map[int]rskt.Params, len(cfg.Widths))
			for id, w := range cfg.Widths {
				params[id] = rskt.Params{W: w, M: cfg.M, Seed: cfg.Seed}
			}
			ctr, err := core.NewSpreadCenter(cfg.WindowN, params)
			if err != nil {
				return nil, err
			}
			return &engineCenter[*rskt.Sketch]{
				ctr:  ctr.Center,
				dec:  decodeRskt,
				recv: ctr.ReceiveMeta,
				save: func(ck *centerCheckpoint) error {
					// Compact blobs in the checkpoint: the import path
					// dispatches on the sketch magic, so checkpoints written
					// by older (fixed-encoding) binaries keep restoring.
					st, err := ctr.ExportState(func(sk *rskt.Sketch) ([]byte, error) { return sk.MarshalBinaryCompact() })
					if err != nil {
						return err
					}
					ck.Spread = st
					return nil
				},
				load: func(ck *centerCheckpoint) error { return ctr.ImportState(ck.Spread, decodeRskt) },
			}, nil
		case SketchVhll:
			protos := make(map[int]*vhll.Sketch, len(cfg.Widths))
			for id, w := range cfg.Widths {
				proto, err := vhll.New(vhll.Params{PhysicalRegisters: w, VirtualRegisters: cfg.M, Seed: cfg.Seed})
				if err != nil {
					return nil, err
				}
				protos[id] = proto
			}
			ctr, err := core.NewSpreadCenterOf(cfg.WindowN, protos)
			if err != nil {
				return nil, err
			}
			return &engineCenter[*vhll.Sketch]{
				ctr:  ctr.Center,
				dec:  decodeVhll,
				recv: ctr.ReceiveMeta,
				save: func(ck *centerCheckpoint) error {
					st, err := ctr.ExportState(func(sk *vhll.Sketch) ([]byte, error) { return sk.MarshalBinaryCompact() })
					if err != nil {
						return err
					}
					ck.Spread = st
					return nil
				},
				load: func(ck *centerCheckpoint) error { return ctr.ImportState(ck.Spread, decodeVhll) },
			}, nil
		default:
			return nil, fmt.Errorf("transport: unknown spread sketch %q", cfg.Sketch)
		}
	case KindSize:
		if cfg.Sketch != "" && cfg.Sketch != SketchRskt {
			return nil, fmt.Errorf("transport: the size design has no alternate sketch backend (got %q)", cfg.Sketch)
		}
		params := make(map[int]countmin.Params, len(cfg.Widths))
		for id, w := range cfg.Widths {
			params[id] = countmin.Params{D: cfg.D, W: w, Seed: cfg.Seed}
		}
		mode := core.SizeModeCumulative
		if cfg.DeltaUploads {
			mode = core.SizeModeDelta
		}
		ctr, err := core.NewSizeCenter(cfg.WindowN, params, mode)
		if err != nil {
			return nil, err
		}
		return &engineCenter[*countmin.Sketch]{
			ctr:     ctr.Center,
			dec:     decodeCountMin,
			recv:    ctr.ReceiveMeta,
			cum:     mode == core.SizeModeCumulative,
			scratch: &sketchPool[*countmin.Sketch]{dec: decodeCountMin},
			save: func(ck *centerCheckpoint) error {
				st, err := ctr.ExportState()
				if err != nil {
					return err
				}
				ck.Size = st
				return nil
			},
			load: func(ck *centerCheckpoint) error { return ctr.ImportState(ck.Size) },
		}, nil
	default:
		return nil, fmt.Errorf("transport: unknown kind %q", cfg.Kind)
	}
}
