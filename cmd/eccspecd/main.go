// Command eccspecd serves fleet simulations over HTTP: a long-running
// daemon that accepts fleet jobs (many chip specimens under one
// workload), fans them out across a worker pool, and reports progress,
// aggregated statistics, per-tick telemetry, and Prometheus metrics.
//
// Usage:
//
//	eccspecd [-addr host:port] [-workers N] [-queue N] [-drain-timeout D]
//	         [-data-dir DIR] [-checkpoint-interval N]
//	         [-retention D] [-max-jobs N] [-chaos-plan FILE]
//	         [-rate-limit R] [-rate-burst N]
//	         [-coordinator | -join URL] [-worker-id ID] [-public-url URL]
//	         [-worker-ttl D] [-worker-wait D]
//	         [-quarantine-after N] [-probe-delay D]
//	         [-stall-timeout D] [-version]
//
// With -data-dir, the daemon journals every accepted job, per-chip
// result, and periodic simulator checkpoint to DIR/journal.jsonl with
// fsync at commit points. After a crash or kill, restarting on the
// same directory replays the journal: completed fleets serve their
// recorded results, and unfinished fleets resume from each chip's last
// checkpoint — producing final results byte-identical to an
// uninterrupted run. -retention and -max-jobs bound memory by evicting
// old completed jobs.
//
// The daemon degrades rather than dies when the journal stops taking
// writes: if the data dir cannot be opened for writing it is recovered
// read-only, and whenever a commit fails past the store's bounded
// retries the daemon keeps serving recorded results while answering new
// submissions with 503 + Retry-After until writes succeed again
// (watch eccspecd_degraded in /metrics). -chaos-plan arms a
// deterministic fault-injection plan (see internal/faultinject) against
// every run — simulated hardware faults, journal I/O faults, and
// network faults (partitions, slow links, torn or duplicated cluster
// exec streams) alike — for resilience testing. Network faults ride
// the daemon's own RPC clients and listener, so a coordinator or
// worker under a net plan misbehaves exactly where a real network
// would.
//
// Cluster mode scales a fleet past one box. A -coordinator daemon
// accepts the same /v1/fleets API but shards each job's chips across
// the worker daemons registered with it, stealing work from loaded
// workers for idle ones and migrating in-flight chips (with their
// freshest checkpoints) off dead or degraded workers — merged results
// stay byte-identical to a single-node run. A -join URL daemon is a
// worker: it registers with the coordinator, heartbeats its health five
// times per coordinator -worker-ttl (the registration answer carries
// it), and executes dispatched chip ranges, each as many chips as its
// -workers pool runs at once. With -data-dir, a coordinator also
// journals jobs and chip placement, so restarting it resumes the job as
// its workers re-register.
//
// Admission control keeps the daemon answering under load. Submissions
// enter a bounded priority queue (-queue deep; the request's "priority"
// field, 0..9, orders admissions, FIFO within a class) and a full queue
// sheds with 429 + Retry-After and X-Queue-Depth/X-Queue-Capacity
// headers. -rate-limit applies a per-client token bucket (keyed on the
// Authorization or X-API-Key header, else the remote address) across
// the /v1/fleets endpoints. Fleet listings and per-chip results accept
// limit/offset pagination, and completed /results and /trace responses
// carry ETags, answering If-None-Match with a bodyless 304.
//
// Endpoints:
//
//	POST   /v1/fleets                       submit a fleet job
//	GET    /v1/fleets                       list jobs (limit/offset)
//	GET    /v1/fleets/{id}                  job status and progress
//	DELETE /v1/fleets/{id}                  cancel a queued/running job, or delete a finished one
//	GET    /v1/fleets/{id}/results          aggregated + per-chip results (limit/offset, ETag)
//	GET    /v1/fleets/{id}/trace            per-tick telemetry as CSV (streamed, ETag)
//	GET  /metrics                           Prometheus text format
//	GET  /healthz                           liveness (status, version, role, cluster)
//	POST /v1/cluster/register               (coordinator) worker registration
//	POST /v1/cluster/heartbeat              (coordinator) worker liveness
//	GET  /v1/cluster/members                (coordinator) membership listing
//	GET  /v1/cluster/jobs/{id}/placement    (coordinator) seed -> worker map
//	POST /v1/cluster/exec                   (worker) execute a chip range
//
// On SIGINT/SIGTERM the daemon stops accepting jobs, drains everything
// already accepted (up to -drain-timeout, then cancels), and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eccspec/internal/cluster"
	"eccspec/internal/faultinject"
	"eccspec/internal/fleet"
	"eccspec/internal/store"
	"eccspec/internal/version"
)

// options carries every flag; run consumes it whole so the flag list
// can grow without the call signature keeping pace. Flags that tune the
// server bind straight to its config.
type options struct {
	server       serverConfig
	addr         string
	workers      int
	drainTimeout time.Duration
	dataDir      string
	chaosPlan    string

	coordinator     bool
	join            string
	workerID        string
	publicURL       string
	workerTTL       time.Duration
	workerWait      time.Duration
	quarantineAfter int
	probeDelay      time.Duration
	stallTimeout    time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8347", "listen address")
	flag.IntVar(&o.workers, "workers", 0, "concurrent chip simulations (0 = GOMAXPROCS)")
	flag.IntVar(&o.server.queueDepth, "queue", 16, "max accepted-but-unstarted fleet jobs")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Minute,
		"how long shutdown waits for in-flight jobs before cancelling them")
	flag.StringVar(&o.dataDir, "data-dir", "",
		"directory for the crash-safe job journal (empty = in-memory only)")
	flag.IntVar(&o.server.checkpointEvery, "checkpoint-interval", 1000,
		"ticks between per-chip checkpoints when -data-dir is set (0 disables)")
	flag.DurationVar(&o.server.retention, "retention", 0,
		"evict completed jobs this long after they finish (0 = keep forever)")
	flag.IntVar(&o.server.maxJobs, "max-jobs", 0,
		"max completed jobs retained, oldest evicted first (0 = unlimited)")
	flag.StringVar(&o.chaosPlan, "chaos-plan", "",
		"JSON fault-injection plan applied to every run (see internal/faultinject)")
	flag.Float64Var(&o.server.rateLimit, "rate-limit", 0,
		"per-client request rate over /v1/fleets endpoints in req/s (0 = unlimited)")
	flag.IntVar(&o.server.rateBurst, "rate-burst", 0,
		"per-client burst on top of -rate-limit (0 = derived from the rate)")
	flag.BoolVar(&o.coordinator, "coordinator", false,
		"run as a cluster coordinator: shard fleets across joined workers")
	flag.StringVar(&o.join, "join", "",
		"coordinator URL to join as a worker (e.g. http://coord:8347)")
	flag.StringVar(&o.workerID, "worker-id", "",
		"this worker's cluster identity (default hostname-pid)")
	flag.StringVar(&o.publicURL, "public-url", "",
		"base URL the coordinator dials this worker back on (default http://<listen addr>)")
	flag.DurationVar(&o.workerTTL, "worker-ttl", cluster.DefaultTTL,
		"coordinator declares a worker dead after this long without a heartbeat (workers beat every fifth of it)")
	flag.DurationVar(&o.workerWait, "worker-wait", 30*time.Second,
		"how long a coordinator job waits for a healthy worker before failing")
	flag.IntVar(&o.quarantineAfter, "quarantine-after", cluster.DefaultQuarantineAfter,
		"consecutive dispatch failures before a worker is quarantined")
	flag.DurationVar(&o.probeDelay, "probe-delay", cluster.DefaultProbeDelay,
		"wait before a quarantined worker gets a half-open trial dispatch (doubles per failed trial)")
	flag.DurationVar(&o.stallTimeout, "stall-timeout", time.Minute,
		"cancel and re-dispatch an exec stream silent for this long")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("eccspecd %s\n", version.String())
		return
	}
	if err := run(o); err != nil {
		log.Fatalf("eccspecd: %v", err)
	}
}

func run(o options) error {
	if o.coordinator && o.join != "" {
		return fmt.Errorf("-coordinator and -join are mutually exclusive")
	}
	engine := fleet.New(fleet.Config{Workers: o.workers})

	cfg := o.server
	var storeOpts store.Options
	var injector *faultinject.Injector
	var rpcRetry store.RetryPolicy
	if o.chaosPlan != "" {
		plan, err := faultinject.LoadPlan(o.chaosPlan)
		if err != nil {
			return err
		}
		in, err := faultinject.New(plan)
		if err != nil {
			return err
		}
		injector = in
		cfg.injector = in
		storeOpts.WriteHook = in.StoreHook()
		storeOpts.Retry.JitterSeed = plan.Seed
		rpcRetry.JitterSeed = plan.Seed
		log.Printf("eccspecd: chaos plan %s armed (%d faults, seed %d)",
			o.chaosPlan, len(plan.Faults), plan.Seed)
	}
	if o.dataDir != "" {
		st, err := store.Open(o.dataDir, storeOpts)
		if err != nil {
			// A data dir we cannot write (permissions, full or failing
			// disk) must not keep recorded results hostage: fall back to
			// read-only recovery and serve them in degraded mode.
			ro, roErr := store.OpenReadOnly(o.dataDir)
			if roErr != nil {
				return err
			}
			log.Printf("eccspecd: %v; recovered journal read-only", err)
			st = ro
		}
		defer st.Close()
		cfg.store = st
		log.Printf("eccspecd: journaling to %s (checkpoint every %d ticks)", o.dataDir, cfg.checkpointEvery)
	}

	// Every cluster RPC — coordinator dispatch and worker
	// register/heartbeat alike — rides the bounded transport, wrapped
	// by the chaos injector when a plan carries network faults (the
	// wrapper is the identity otherwise).
	var rpcTransport http.RoundTripper = cluster.NewTransport()
	if injector != nil {
		rpcTransport = injector.Transport(rpcTransport)
	}

	// Pick the runner: jobs simulate on the local worker pool, unless
	// this daemon coordinates a cluster — then they shard across it.
	var jobRunner runner = engine
	if o.coordinator {
		membership := cluster.NewMembership(o.workerTTL)
		membership.SetQuarantinePolicy(o.quarantineAfter, o.probeDelay)
		coord := cluster.New(cluster.Config{
			Membership:   membership,
			WorkerWait:   o.workerWait,
			StallTimeout: o.stallTimeout,
			Retry:        rpcRetry,
			Transport:    rpcTransport,
		})
		cfg.coordinator = coord
		jobRunner = coord
	}
	if o.join != "" {
		cfg.executor = &cluster.Executor{Engine: engine}
		cfg.coordinatorURL = o.join
	}
	s := newServer(jobRunner, cfg)

	// Install the signal handler before announcing the address: tooling
	// (and tests) treat the "listening on" line as ready-to-signal, so a
	// SIGTERM must never hit the default kill action after it prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if injector != nil {
		// Listener-side partition faults (target "accept") close matched
		// inbound connections at accept time; the wrapper is the
		// identity when the plan has none.
		ln = injector.Listener(ln)
	}
	switch {
	case o.coordinator:
		log.Printf("eccspecd: %s coordinator listening on %s", version.String(), ln.Addr())
	case o.join != "":
		log.Printf("eccspecd: %s worker listening on %s (%d sim workers, coordinator %s)",
			version.String(), ln.Addr(), engine.Workers(), o.join)
	default:
		log.Printf("eccspecd: %s listening on %s (%d sim workers)", version.String(), ln.Addr(), engine.Workers())
	}

	// Slow-client protection: a stalled or malicious peer must not pin
	// connections (and eventually file descriptors) forever. Writes get
	// the most room — result payloads for large fleets take a while on
	// slow links. A cluster worker gets no write timeout at all: its
	// exec streams legitimately stay open for as long as a batch
	// simulates, and cutting one mid-batch would force a pointless
	// migration.
	writeTimeout := 5 * time.Minute
	if o.join != "" {
		writeTimeout = 0
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// A worker announces itself to its coordinator once the listener is
	// up, then heartbeats until shutdown.
	if o.join != "" {
		id := o.workerID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "worker"
			}
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		pub := o.publicURL
		if pub == "" {
			pub = "http://" + ln.Addr().String()
		}
		go cluster.RunMember(ctx, cluster.MemberConfig{
			Coordinator: o.join,
			Degraded:    s.health,
			Client:      &http.Client{Timeout: 10 * time.Second, Transport: rpcTransport},
			Info: cluster.RegisterRequest{
				ID:      id,
				URL:     pub,
				Slots:   engine.Workers(),
				Version: version.String(),
			},
		})
	}

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process outright

	log.Printf("eccspecd: shutdown signal; draining in-flight jobs (timeout %v)", o.drainTimeout)
	s.beginDrain()
	select {
	case <-s.drained():
		log.Printf("eccspecd: drained cleanly")
	case <-time.After(o.drainTimeout):
		log.Printf("eccspecd: drain timeout; cancelling in-flight jobs")
		s.cancelJobs()
		<-s.drained()
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return nil
}
