package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// metrics holds the daemon's monotonic counters. Queue-state gauges
// are read off the job table at scrape time; only the counters that
// must survive job deletion live here.
type metrics struct {
	start          time.Time
	jobsSubmitted  atomic.Int64
	jobsDone       atomic.Int64
	jobsFailed     atomic.Int64
	jobsEvicted    atomic.Int64
	jobsShed       atomic.Int64
	jobsCanceled   atomic.Int64
	rateLimited    atomic.Int64
	notModified    atomic.Int64
	resultEncodes  atomic.Int64
	chipsSimulated atomic.Int64
	chipsFailed    atomic.Int64
	simTicks       atomic.Int64
}

func newMetrics() *metrics { return &metrics{start: time.Now()} }

// clusterScrape is the coordinator's scheduling state sampled at scrape
// time; nil when the daemon is not a coordinator.
type clusterScrape struct {
	workersHealthy     int
	workersDegraded    int
	workersQuarantined int
	workersDead        int
	dispatches         int64
	chipsDone          int64
	remoteTicks        int64
	chipsStolen        int64
	chipsMigrated      int64
	retries            int64
	streamsStalled     int64
	dupEvents          int64
	quarantines        int64
}

// scrape carries the state sampled off the live server at scrape time,
// as opposed to the monotonic counters the metrics struct owns.
type scrape struct {
	queued, running      int
	queueDepth, queueCap int
	degraded             bool
	storeRetries         int64
	cluster              *clusterScrape
}

// write renders the Prometheus text exposition format (version 0.0.4).
// sc holds the gauges sampled at scrape time: job-table counts, the
// admission queue's depth/capacity, journal health, and (on a
// coordinator) the cluster section.
func (m *metrics) write(w io.Writer, sc scrape) {
	queued, running := sc.queued, sc.running
	degraded, storeRetries, cl := sc.degraded, sc.storeRetries, sc.cluster
	up := time.Since(m.start).Seconds()
	ticks := m.simTicks.Load()
	rate := 0.0
	if up > 0 {
		rate = float64(ticks) / up
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("eccspecd_jobs_queued", "Fleet jobs waiting for the runner.", float64(queued))
	gauge("eccspecd_jobs_running", "Fleet jobs currently simulating.", float64(running))
	gauge("eccspecd_queue_depth", "Jobs currently held in the bounded admission queue.", float64(sc.queueDepth))
	gauge("eccspecd_queue_capacity", "Admission queue bound; submissions past it are shed with 429.", float64(sc.queueCap))
	counter("eccspecd_jobs_submitted_total", "Fleet jobs accepted since start.", m.jobsSubmitted.Load())
	counter("eccspecd_jobs_done_total", "Fleet jobs completed successfully.", m.jobsDone.Load())
	counter("eccspecd_jobs_failed_total", "Fleet jobs that failed or were cancelled.", m.jobsFailed.Load())
	counter("eccspecd_jobs_evicted_total", "Completed fleet jobs evicted by the retention policy.", m.jobsEvicted.Load())
	counter("eccspecd_jobs_shed_total", "Submissions refused with 429 because the admission queue was full.", m.jobsShed.Load())
	counter("eccspecd_jobs_canceled_total", "Jobs canceled by client DELETE.", m.jobsCanceled.Load())
	counter("eccspecd_rate_limited_total", "Requests refused with 429 by the per-client rate limit.", m.rateLimited.Load())
	counter("eccspecd_http_not_modified_total", "Conditional GETs answered 304 without re-serializing results.", m.notModified.Load())
	counter("eccspecd_result_encodes_total", "Full serializations of a /results response body.", m.resultEncodes.Load())
	counter("eccspecd_chips_simulated_total", "Chip simulations completed.", m.chipsSimulated.Load())
	counter("eccspecd_chips_failed_total", "Chip simulations that ended in an error (including recovered worker panics).", m.chipsFailed.Load())
	counter("eccspecd_store_retries_total", "Journal commit points that needed the bounded-retry path.", storeRetries)
	degradedV := 0.0
	if degraded {
		degradedV = 1
	}
	gauge("eccspecd_degraded", "1 while the journal is unwritable and new fleets get 503s.", degradedV)
	counter("eccspecd_sim_ticks_total", "Control ticks simulated across all fleets.", ticks)
	gauge("eccspecd_sim_ticks_per_second", "Lifetime average simulation throughput.", rate)
	gauge("eccspecd_uptime_seconds", "Seconds since the daemon started.", up)
	if cl != nil {
		gauge("eccspecd_cluster_workers_healthy", "Registered workers accepting work.", float64(cl.workersHealthy))
		gauge("eccspecd_cluster_workers_degraded", "Registered workers reporting degraded; no new work.", float64(cl.workersDegraded))
		gauge("eccspecd_cluster_workers_quarantined", "Workers tripped by the dispatch circuit breaker, awaiting a half-open probe.", float64(cl.workersQuarantined))
		gauge("eccspecd_cluster_workers_dead", "Registered workers past the heartbeat TTL or failed mid-batch.", float64(cl.workersDead))
		counter("eccspecd_cluster_dispatches_total", "Chip batches dispatched to workers.", cl.dispatches)
		counter("eccspecd_cluster_chips_done_total", "Chips completed on remote workers.", cl.chipsDone)
		counter("eccspecd_cluster_remote_ticks_total", "Control ticks simulated on remote workers.", cl.remoteTicks)
		counter("eccspecd_cluster_chips_stolen_total", "Chips moved from a loaded worker's queue to an idle one.", cl.chipsStolen)
		counter("eccspecd_cluster_chips_migrated_total", "In-flight chips re-queued off a dead, degraded, or failed-dispatch worker.", cl.chipsMigrated)
		counter("eccspecd_cluster_dispatch_retries_total", "Dispatch re-attempts scheduled by the backoff loop after a failure.", cl.retries)
		counter("eccspecd_cluster_streams_stalled_total", "Exec streams the stall watchdog canceled for silence.", cl.streamsStalled)
		counter("eccspecd_cluster_dup_events_total", "Stream events dropped by sequence-number dedupe.", cl.dupEvents)
		counter("eccspecd_cluster_quarantines_total", "Workers quarantined by the dispatch circuit breaker since start.", cl.quarantines)
	}
}
