package main

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// waitTimeout bounds every wait for a push; a round that needs longer has
// failed.
const waitTimeout = 20 * time.Second

// wireCount tallies the bytes crossing round links. Every round link has
// exactly one dialing side (a point, or a relay's upstream hop), and the
// benchmark wraps that side through PointConfig.Dial and
// RelayConfig.UpstreamDial, so each link is counted once: writes are
// uploads, reads are pushes.
type wireCount struct {
	up, push atomic.Int64
}

type countConn struct {
	net.Conn
	wc *wireCount
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.wc.push.Add(int64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.wc.up.Add(int64(n))
	return n, err
}

func (wc *wireCount) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return countConn{Conn: conn, wc: wc}, nil
}

// cluster is one live loopback deployment of a workload.
type cluster struct {
	w       *Workload
	center  *transport.CenterServer
	relays  []*transport.RelayServer
	points  []*transport.PointClient
	qsrv    []*transport.QueryServer
	qcli    []*transport.QueryClient
	qpoints []int // point id behind each query client
	// hist carries the historical queries, the checker's after the run.
	hist     *transport.QueryClient
	wire     wireCount
	storeDir string
	// closing silences the servers' logs during teardown, where every
	// closed peer connection is reported.
	closing atomic.Bool
}

// queryServers is how many points serve the live query RPC.
const queryServers = 4

// startCluster brings up the center, the relays and the points on
// loopback TCP, with a fresh epoch-log store under dir.
func startCluster(w *Workload, dir string, logf func(string, ...any)) (_ *cluster, err error) {
	c := &cluster{w: w}
	serverLog := logf
	logf = func(format string, args ...any) {
		if !c.closing.Load() {
			serverLog(format, args...)
		}
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if c.storeDir, err = os.MkdirTemp(dir, "store-"); err != nil {
		return nil, err
	}
	children, weights := map[int]int{}, map[int]int{}
	if w.Relays == 0 {
		for x := 0; x < w.Points; x++ {
			children[x] = w.W
		}
	} else {
		for r := 0; r < w.Relays; r++ {
			children[r] = w.W
			weights[r] = w.leavesPerRelay()
		}
	}
	c.center, err = transport.ServeCenter(transport.CenterConfig{
		Addr: "127.0.0.1:0", Kind: w.Kind, WindowN: w.N,
		Widths: children, Weights: weights, DeltaUploads: w.Delta,
		M: w.M, D: w.D, Seed: hashSeed,
		StoreDir: c.storeDir, RetainEpochs: historyRetain,
		HistoryAddr: "127.0.0.1:0",
		Logf:        logf,
	})
	if err != nil {
		return nil, fmt.Errorf("start center: %w", err)
	}
	parentOf := func(x int) string { return c.center.Addr().String() }
	if w.Relays > 0 {
		per := w.leavesPerRelay()
		for r := 0; r < w.Relays; r++ {
			leaves := map[int]int{}
			for x := r * per; x < (r+1)*per; x++ {
				leaves[x] = w.W
			}
			rs, err := transport.ServeRelay(transport.RelayConfig{
				Addr:         "127.0.0.1:0",
				UpstreamAddr: c.center.Addr().String(), UpstreamDial: c.wire.dial,
				Relay: r, Kind: w.Kind, WindowN: w.N,
				Widths: leaves, M: w.M, D: w.D, Seed: hashSeed,
				Logf: logf,
			})
			if err != nil {
				return nil, fmt.Errorf("start relay %d: %w", r, err)
			}
			c.relays = append(c.relays, rs)
		}
		if !c.center.WaitConnectedFor(w.Relays, waitTimeout) {
			return nil, fmt.Errorf("relays did not connect upstream")
		}
		parentOf = func(x int) string { return c.relays[x/per].Addr().String() }
	}
	for x := 0; x < w.Points; x++ {
		pc, err := transport.DialPoint(transport.PointConfig{
			Addr: parentOf(x), Point: x, Kind: w.Kind,
			W: w.W, M: w.M, D: w.D, Seed: hashSeed,
			Dial: c.wire.dial, DeltaUploads: w.Delta,
		})
		if err != nil {
			return nil, fmt.Errorf("dial point %d: %w", x, err)
		}
		c.points = append(c.points, pc)
	}
	for i := 0; i < queryServers && i < w.Points; i++ {
		x := i * w.Points / queryServers
		pc := c.points[x]
		// Wired as tqpoint -query-addr wires it: every answer is read from
		// the point's local memory together with its window coverage.
		qs, err := transport.ServeQueriesCov("127.0.0.1:0", func(f uint64) (float64, core.Coverage) {
			if w.Kind == transport.KindSpread {
				v, cov, err := pc.QuerySpreadWithCoverage(f)
				if err != nil {
					return 0, core.Coverage{}
				}
				return v, cov
			}
			v, cov, err := pc.QuerySizeWithCoverage(f)
			if err != nil {
				return 0, core.Coverage{}
			}
			return float64(v), cov
		})
		if err != nil {
			return nil, err
		}
		c.qsrv = append(c.qsrv, qs)
		qc, err := transport.DialQuery(qs.Addr().String())
		if err != nil {
			return nil, err
		}
		c.qcli = append(c.qcli, qc)
		c.qpoints = append(c.qpoints, x)
	}
	if c.hist, err = transport.DialQuery(c.center.HistoryQueryAddr().String()); err != nil {
		return nil, err
	}
	return c, nil
}

// close tears the cluster down leaf first and removes its store.
func (c *cluster) close() {
	c.closing.Store(true)
	if c.hist != nil {
		_ = c.hist.Close()
	}
	for _, qc := range c.qcli {
		_ = qc.Close()
	}
	for _, qs := range c.qsrv {
		_ = qs.Close()
	}
	for _, pc := range c.points {
		_ = pc.Close()
	}
	for _, rs := range c.relays {
		_ = rs.Close()
	}
	if c.center != nil {
		_ = c.center.Close()
	}
	if c.storeDir != "" {
		_ = os.RemoveAll(c.storeDir)
	}
}
