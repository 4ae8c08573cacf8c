package main

// Pins the /metrics exposition: every series' name, # HELP and # TYPE
// line and their order, for a plain daemon and for a coordinator. The
// sample values are masked, so the test holds whatever the counters
// read and fails only when a series is renamed, re-documented,
// re-typed, reordered, added or dropped.

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eccspec/internal/cluster"
	"eccspec/internal/golden"
)

// maskMetricValues replaces the value on every sample line with "<v>",
// keeping comment lines verbatim.
func maskMetricValues(page string) string {
	var b strings.Builder
	for _, ln := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		if !strings.HasPrefix(ln, "#") {
			name, _, _ := strings.Cut(ln, " ")
			ln = name + " <v>"
		}
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	return b.String()
}

const wantPlainMetrics = `# HELP eccspecd_jobs_queued Fleet jobs waiting for the runner.
# TYPE eccspecd_jobs_queued gauge
eccspecd_jobs_queued <v>
# HELP eccspecd_jobs_running Fleet jobs currently simulating.
# TYPE eccspecd_jobs_running gauge
eccspecd_jobs_running <v>
# HELP eccspecd_queue_depth Jobs currently held in the bounded admission queue.
# TYPE eccspecd_queue_depth gauge
eccspecd_queue_depth <v>
# HELP eccspecd_queue_capacity Admission queue bound; submissions past it are shed with 429.
# TYPE eccspecd_queue_capacity gauge
eccspecd_queue_capacity <v>
# HELP eccspecd_jobs_submitted_total Fleet jobs accepted since start.
# TYPE eccspecd_jobs_submitted_total counter
eccspecd_jobs_submitted_total <v>
# HELP eccspecd_jobs_done_total Fleet jobs completed successfully.
# TYPE eccspecd_jobs_done_total counter
eccspecd_jobs_done_total <v>
# HELP eccspecd_jobs_failed_total Fleet jobs that failed or were cancelled.
# TYPE eccspecd_jobs_failed_total counter
eccspecd_jobs_failed_total <v>
# HELP eccspecd_jobs_evicted_total Completed fleet jobs evicted by the retention policy.
# TYPE eccspecd_jobs_evicted_total counter
eccspecd_jobs_evicted_total <v>
# HELP eccspecd_jobs_shed_total Submissions refused with 429 because the admission queue was full.
# TYPE eccspecd_jobs_shed_total counter
eccspecd_jobs_shed_total <v>
# HELP eccspecd_jobs_canceled_total Jobs canceled by client DELETE.
# TYPE eccspecd_jobs_canceled_total counter
eccspecd_jobs_canceled_total <v>
# HELP eccspecd_rate_limited_total Requests refused with 429 by the per-client rate limit.
# TYPE eccspecd_rate_limited_total counter
eccspecd_rate_limited_total <v>
# HELP eccspecd_http_not_modified_total Conditional GETs answered 304 without re-serializing results.
# TYPE eccspecd_http_not_modified_total counter
eccspecd_http_not_modified_total <v>
# HELP eccspecd_result_encodes_total Full serializations of a /results response body.
# TYPE eccspecd_result_encodes_total counter
eccspecd_result_encodes_total <v>
# HELP eccspecd_chips_simulated_total Chip simulations completed.
# TYPE eccspecd_chips_simulated_total counter
eccspecd_chips_simulated_total <v>
# HELP eccspecd_chips_failed_total Chip simulations that ended in an error (including recovered worker panics).
# TYPE eccspecd_chips_failed_total counter
eccspecd_chips_failed_total <v>
# HELP eccspecd_store_retries_total Journal commit points that needed the bounded-retry path.
# TYPE eccspecd_store_retries_total counter
eccspecd_store_retries_total <v>
# HELP eccspecd_degraded 1 while the journal is unwritable and new fleets get 503s.
# TYPE eccspecd_degraded gauge
eccspecd_degraded <v>
# HELP eccspecd_sim_ticks_total Control ticks simulated across all fleets.
# TYPE eccspecd_sim_ticks_total counter
eccspecd_sim_ticks_total <v>
# HELP eccspecd_sim_ticks_per_second Lifetime average simulation throughput.
# TYPE eccspecd_sim_ticks_per_second gauge
eccspecd_sim_ticks_per_second <v>
# HELP eccspecd_uptime_seconds Seconds since the daemon started.
# TYPE eccspecd_uptime_seconds gauge
eccspecd_uptime_seconds <v>
`

const wantClusterMetrics = `# HELP eccspecd_cluster_workers_healthy Registered workers accepting work.
# TYPE eccspecd_cluster_workers_healthy gauge
eccspecd_cluster_workers_healthy <v>
# HELP eccspecd_cluster_workers_degraded Registered workers reporting degraded; no new work.
# TYPE eccspecd_cluster_workers_degraded gauge
eccspecd_cluster_workers_degraded <v>
# HELP eccspecd_cluster_workers_quarantined Workers tripped by the dispatch circuit breaker, awaiting a half-open probe.
# TYPE eccspecd_cluster_workers_quarantined gauge
eccspecd_cluster_workers_quarantined <v>
# HELP eccspecd_cluster_workers_dead Registered workers past the heartbeat TTL or failed mid-batch.
# TYPE eccspecd_cluster_workers_dead gauge
eccspecd_cluster_workers_dead <v>
# HELP eccspecd_cluster_dispatches_total Chip batches dispatched to workers.
# TYPE eccspecd_cluster_dispatches_total counter
eccspecd_cluster_dispatches_total <v>
# HELP eccspecd_cluster_chips_done_total Chips completed on remote workers.
# TYPE eccspecd_cluster_chips_done_total counter
eccspecd_cluster_chips_done_total <v>
# HELP eccspecd_cluster_remote_ticks_total Control ticks simulated on remote workers.
# TYPE eccspecd_cluster_remote_ticks_total counter
eccspecd_cluster_remote_ticks_total <v>
# HELP eccspecd_cluster_chips_stolen_total Chips moved from a loaded worker's queue to an idle one.
# TYPE eccspecd_cluster_chips_stolen_total counter
eccspecd_cluster_chips_stolen_total <v>
# HELP eccspecd_cluster_chips_migrated_total In-flight chips re-queued off a dead, degraded, or failed-dispatch worker.
# TYPE eccspecd_cluster_chips_migrated_total counter
eccspecd_cluster_chips_migrated_total <v>
# HELP eccspecd_cluster_dispatch_retries_total Dispatch re-attempts scheduled by the backoff loop after a failure.
# TYPE eccspecd_cluster_dispatch_retries_total counter
eccspecd_cluster_dispatch_retries_total <v>
# HELP eccspecd_cluster_streams_stalled_total Exec streams the stall watchdog canceled for silence.
# TYPE eccspecd_cluster_streams_stalled_total counter
eccspecd_cluster_streams_stalled_total <v>
# HELP eccspecd_cluster_dup_events_total Stream events dropped by sequence-number dedupe.
# TYPE eccspecd_cluster_dup_events_total counter
eccspecd_cluster_dup_events_total <v>
# HELP eccspecd_cluster_quarantines_total Workers quarantined by the dispatch circuit breaker since start.
# TYPE eccspecd_cluster_quarantines_total counter
eccspecd_cluster_quarantines_total <v>
`

// TestMetricsExpositionPinned scrapes a plain daemon and a coordinator
// and compares the masked pages line for line with the pinned series.
func TestMetricsExpositionPinned(t *testing.T) {
	_, plain := newStubServer(t, &stubRunner{}, serverConfig{queueDepth: 4})

	coord := cluster.New(cluster.Config{Membership: cluster.NewMembership(time.Second)})
	cs := newServer(coord, serverConfig{queueDepth: 4, coordinator: coord})
	ct := httptest.NewServer(cs.Handler())
	t.Cleanup(ct.Close)

	for _, c := range []struct {
		name, url, want string
	}{
		{"plain", plain.URL, wantPlainMetrics},
		{"coordinator", ct.URL, wantPlainMetrics + wantClusterMetrics},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := maskMetricValues(metricsText(t, c.url))
			if d := golden.Diff([]byte(got), []byte(c.want)); d != "" {
				t.Fatalf("masked /metrics page diverged from the pinned series\n%s", d)
			}
		})
	}
}
