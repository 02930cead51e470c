package workload

import (
	"oversub/internal/futex"
	"oversub/internal/locks"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// MemcachedConfig describes a memcached experiment (Figure 12).
type MemcachedConfig struct {
	Workers  int // worker threads (epoll event loops)
	Cores    int
	VB       bool
	Requests int     // total requests the client issues
	Conns    int     // concurrent closed-loop client connections
	GetRatio float64 // fraction of GETs (paper: 10:1 GET/SET)
	KeySize  int     // bytes (paper: 128)
	ValSize  int     // bytes (paper: 2048)
	// LockShards is the hash-table lock granularity (default 4).
	LockShards int
	// Policy selects the scheduling policy ("" = cfs). It participates in
	// result-cache fingerprints.
	Policy string
	Seed   uint64
	// Tracer, when non-nil, receives every scheduling event of the run.
	// It is excluded from result-cache fingerprints (json:"-").
	Tracer sched.Tracer `json:"-"`
	// Sampler, when non-nil, snapshots scheduler state at its sim-time
	// interval. Observation-only; excluded from cache fingerprints.
	Sampler sched.Sampler `json:"-"`
}

// MemcachedResult reports the client-observed service metrics.
type MemcachedResult struct {
	ThroughputOpsSec float64
	Mean             sim.Duration
	P95              sim.Duration
	P99              sim.Duration
	Served           int
	Metrics          sched.Metrics
	// ExecTime is the simulated span of the run and Events the engine's
	// executed-event count (bench-harness denominators).
	ExecTime sim.Duration
	Events   uint64
}

// mcRequest is one in-flight client request: the service-layer Request
// plus the client backpointer the closure-free trampolines need. The
// closed loop keeps exactly one request in flight per connection, so each
// connection owns a single record for the whole run.
type mcRequest struct {
	Request
	cl *mcClient
}

// mcClient is the mutilate-style closed-loop client: the per-connection
// request records plus the state the closure-free scheduling trampolines
// below need.
type mcClient struct {
	eng      *sim.Engine
	rng      *sim.Rand
	svc      *Service
	reqs     []*mcRequest
	rtt      sim.Duration
	getRatio float64
	getWork  sim.Duration
	setWork  sim.Duration
	issued   int
	max      int
}

func (cl *mcClient) issue(conn int) {
	if cl.issued >= cl.max {
		return
	}
	cl.issued++
	req := cl.reqs[conn]
	req.Work = cl.setWork
	if cl.rng.Float64() < cl.getRatio {
		req.Work = cl.getWork
	}
	// Request hits the NIC after half an RTT.
	cl.eng.AfterCall(sim.Duration(cl.rng.Jitter(cl.rtt/2, 0.2)), mcArrive, req, 0, 0)
}

func mcArrive(arg any, _, _ uint64) {
	req := arg.(*mcRequest)
	req.cl.svc.Post(&req.Request)
}

func mcReissue(arg any, conn, _ uint64) {
	arg.(*mcClient).issue(int(conn))
}

// Memcached simulates the §4.2 cloud workload: a memcached server whose
// worker threads block in epoll_wait for connection events and serialize
// hash-table access through futex-based mutexes, stressed by a
// mutilate-style closed-loop client. Under vanilla oversubscription the
// sleep/wakeup path inflates tail latency ~8x; virtual blocking in epoll
// and futex recovers it. The server side is a workload.Service — the same
// abstraction cluster tenants run under open-loop load.
func Memcached(cfg MemcachedConfig) MemcachedResult {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 20000
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 64
	}
	if cfg.GetRatio <= 0 {
		cfg.GetRatio = 10.0 / 11.0
	}
	if cfg.KeySize <= 0 {
		cfg.KeySize = 128
	}
	if cfg.ValSize <= 0 {
		cfg.ValSize = 2048
	}

	k := newKernel(cfg.Cores, 1, sched.Features{VB: cfg.VB}, cfg.Seed, cfg.Policy)
	defer k.Engine().Release()
	if cfg.Tracer != nil {
		k.SetTracer(cfg.Tracer)
	}
	if cfg.Sampler != nil {
		k.SetSampler(cfg.Sampler)
	}
	eng := k.Engine()
	tbl := futex.NewTable(k, 0)

	// The item-lock table: memcached shards its hash table locks.
	nShards := cfg.LockShards
	if nShards <= 0 {
		nShards = 4
	}
	shards := make([]locks.Locker, nShards)
	for i := range shards {
		shards[i] = locks.NewMutex(tbl)
	}

	rng := eng.Rand().Split()

	// Service time components (single-request path, calibrated to a
	// ~10us/request in-memory cache on a 2.1 GHz core).
	parse := 3 * sim.Microsecond
	hashLookup := 1500 * sim.Nanosecond
	getCopy := sim.Duration(cfg.ValSize/4) * sim.Nanosecond // value transfer
	setStore := sim.Duration(cfg.ValSize/3) * sim.Nanosecond
	netSend := 3 * sim.Microsecond
	rtt := 25 * sim.Microsecond // client-server network round trip

	cl := &mcClient{
		eng:      eng,
		rng:      rng,
		rtt:      rtt,
		getRatio: cfg.GetRatio,
		getWork:  getCopy,
		setWork:  setStore,
		max:      cfg.Requests,
		reqs:     make([]*mcRequest, cfg.Conns),
	}
	for c := range cl.reqs {
		cl.reqs[c] = &mcRequest{Request: Request{Lane: c}, cl: cl}
	}

	var svc *Service
	svc = NewService(k, ServiceConfig{
		Name:    "worker",
		Workers: cfg.Workers,
		Shards:  shards,
		Parse:   parse,
		Lookup:  hashLookup,
		Send:    netSend,
		RNG:     rng, // shared with the client: shard draws interleave with issue draws
		Stop:    func() bool { return int(svc.Done()) >= cfg.Requests },
		OnDone: func(req *Request, _ sim.Duration) {
			if int(svc.Done()) == cfg.Requests {
				return
			}
			// Closed loop: the connection issues its next request after
			// the response travels back.
			eng.AfterCall(sim.Duration(rng.Jitter(rtt/2, 0.2)), mcReissue, cl, uint64(req.Lane), 0)
		},
	})
	cl.svc = svc

	start := eng.Now()
	for c := 0; c < cfg.Conns; c++ {
		cl.issue(c)
	}
	if err := k.RunToCompletion(sim.Time(600 * sim.Second)); err != nil {
		panic(err)
	}
	elapsed := eng.Now().Sub(start)

	lat := svc.Latency()
	res := MemcachedResult{
		Served:   int(svc.Done()),
		Mean:     lat.Mean(),
		P95:      lat.Percentile(95),
		P99:      lat.Percentile(99),
		Metrics:  k.Metrics,
		ExecTime: elapsed,
		Events:   eng.Executed(),
	}
	if elapsed > 0 {
		res.ThroughputOpsSec = float64(res.Served) / elapsed.Seconds()
	}
	return res
}
