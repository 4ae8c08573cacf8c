package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eccspec/internal/control"
	"eccspec/internal/fleet"
	"eccspec/internal/store"
)

// service: a real eccspecd daemon with a data directory, restarted over
// a journal of seeded completed jobs, under one closed-loop client. Each
// cycle submits a 2-4 chip job, polls it to completion, downloads
// /results and /trace, revalidates /results with If-None-Match, lists
// the fleets and fetches one historical job. Journal commits and
// checkpoints run beside result encoding, CSV trace streaming and ETag
// revalidation.
//
// Jobs run the guardband policy for the reason soak does: the paper's
// policy loses a seed-dependent share of chips within these windows.
const (
	servicePolicy   = "guardband"
	serviceHistory  = 45 // completed jobs journaled at set-up
	serviceSetups   = 3  // daemon starts timed before the run; one more after each cycle
	servicePoll     = 10 * time.Millisecond
	serviceDeadline = 120 * time.Second // per job, from submit
	// serviceCheckChips chips per untraced run (4 traced) are re-driven
	// in-process and compared with /results and /trace.
	serviceCheckChips       = 2
	serviceTracedCheckChips = 4
	// serviceTraceFetches is how many times each trace_every 1 job's
	// trace is downloaded: every GET re-renders it, and the median of
	// repeats spread through the run varies less than one download.
	serviceTraceFetches = 5
)

// The job mix: every round submits one job per (trace_every, chips)
// pair, in a seeded order, each on a seeded Table II workload. The
// window is fixed: a traced chip's journal cost grows with the square
// of its window, so varying it would swamp the per-job numbers.
var (
	serviceTraceEvery = []int{1, 10, 0}
	serviceChips      = []int{2, 3, 4}
)

const serviceSeconds = 5.0

// mixPair maps k in [0, 9) to its (trace_every, chips) pair.
func mixPair(k int) (every, chips int) {
	return serviceTraceEvery[k/len(serviceChips)], serviceChips[k%len(serviceChips)]
}

// serviceJob is one submission of the job mix.
type serviceJob struct {
	Seeds      []uint64 `json:"seeds"`
	Workload   string   `json:"workload"`
	Policy     string   `json:"policy"`
	Seconds    float64  `json:"seconds"`
	TraceEvery int      `json:"trace_every,omitempty"`
}

// serviceRound generates one round of the job mix.
func serviceRound(in *inputs, names []string, round int) []serviceJob {
	n := len(serviceTraceEvery) * len(serviceChips)
	jobs := make([]serviceJob, 0, n)
	for _, k := range in.perm(n) {
		every, chips := mixPair(k)
		jobs = append(jobs, serviceJob{
			Seeds:      in.chipSeeds(chips),
			Workload:   names[(round*n+len(jobs))%len(names)],
			Policy:     servicePolicy,
			Seconds:    serviceSeconds,
			TraceEvery: every,
		})
	}
	return jobs
}

// historyJob is one completed job journaled at set-up, as written.
type historyJob struct {
	ID    uint64
	Chips []store.ChipRecord
}

// writeHistory journals seeded completed jobs through internal/store:
// 2-4 chip jobs on a seeded Table II cycle, untraced. Traces would make
// the daemon's start mostly JSON decoding of trace rows, whose time
// swung by half within minutes on the shared host where untraced
// records moved by a sixth. The journal is synced to disk so that its
// write-back does not overlap the timed daemon starts.
func writeHistory(dir string, seed uint64) ([]historyJob, error) {
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	in := newInputs(seed, "service-history")
	names := in.tableII()
	var hist []historyJob
	for i := 0; i < serviceHistory; i++ {
		id := uint64(i + 1)
		seeds := in.chipSeeds(serviceChips[i%len(serviceChips)])
		spec := fleet.Job{Seeds: seeds, Workload: names[i%len(names)], Policy: servicePolicy, Seconds: serviceSeconds}
		if err := st.AddJob(id, spec); err != nil {
			st.Close()
			return nil, err
		}
		h := historyJob{ID: id}
		for _, s := range seeds {
			rec := syntheticChip(in, s, windowTicks(spec.Seconds))
			if err := st.RecordChip(id, rec); err != nil {
				st.Close()
				return nil, err
			}
			h.Chips = append(h.Chips, rec)
		}
		if err := st.MarkJobDone(id, 1_700_000_000+int64(i)*60); err != nil {
			st.Close()
			return nil, err
		}
		hist = append(hist, h)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return hist, syncFile(filepath.Join(dir, store.JournalName))
}

// syntheticChip draws a plausible completed chip: four domains parked
// on the 5 mV grid below the 800 mV nominal.
func syntheticChip(in *inputs, seed uint64, ticks int) store.ChipRecord {
	rec := store.ChipRecord{Seed: seed, NominalV: 0.8, UncoreVdd: 0.8, Ticks: ticks,
		AvgPowerW: 20 + float64(in.intn(2000))/100}
	red := 0.0
	for d := 0; d < 4; d++ {
		v := float64(130+in.intn(20)) * railStepV
		rec.DomainVdd = append(rec.DomainVdd, v)
		red += (1 - v/0.8) / 4
	}
	rec.AvgReduction = red
	return rec
}

// daemon is one running eccspecd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan error
}

// startDaemon starts eccspecd over dataDir and waits until /healthz
// answers 200.
func startDaemon(bin, dataDir string, client *http.Client) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-workers", strconv.Itoa(runtime.NumCPU()))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start eccspecd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			ln := sc.Text()
			d.stderr.WriteString(ln + "\n")
			if _, rest, ok := strings.Cut(ln, " listening on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.done:
		return nil, fmt.Errorf("eccspecd exited before listening: %v\n%s", err, d.stderr.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("eccspecd did not report its listen address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("eccspecd /healthz not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean exit with code 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("eccspecd exited uncleanly on SIGTERM: %v\n%s", err, d.stderr.String())
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("eccspecd did not exit within 60s of SIGTERM")
	}
}

// kill ends the daemon and waits for it; for error paths.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// call is one timed HTTP request.
func call(client *http.Client, method, url string, body []byte, hdr map[string]string) (status int, respBody []byte, h http.Header, secs float64, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, 0, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	respBody, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, respBody, resp.Header, since(t0), err
}

// samples collects the client-side timings, in seconds.
type samples struct {
	turnaround, submit, status, results, trace, revalidate, list, history, queueWait, run []float64
	traceBytes                                                                            []float64
}

// resultsBody is the part of /results the checks read.
type resultsBody struct {
	Status  string       `json:"status"`
	PerChip []resultChip `json:"per_chip"`
}

// resultChip is one /results per_chip entry.
type resultChip struct {
	Seed         uint64    `json:"seed"`
	Error        string    `json:"error"`
	AvgReduction float64   `json:"avg_reduction"`
	DomainVdd    []float64 `json:"domain_vdd"`
	UncoreVdd    float64   `json:"uncore_vdd"`
	AvgPowerW    float64   `json:"avg_power_w"`
	Ticks        int       `json:"ticks"`
}

func (r resultsBody) outcomes() map[uint64]chipOutcome {
	out := make(map[uint64]chipOutcome)
	for _, c := range r.PerChip {
		out[c.Seed] = chipOutcome{Seed: c.Seed, AvgReduction: c.AvgReduction, DomainVdd: c.DomainVdd,
			UncoreVdd: c.UncoreVdd, AvgPowerW: c.AvgPowerW, Ticks: c.Ticks}
	}
	return out
}

// checkChips holds a done job's /results to one entry per submitted
// seed, each without an error and run for the job's whole window. It
// returns how many seeds failed that and the first failure.
func checkChips(id string, r resultsBody, seeds []uint64, ticks int) (failed int, err error) {
	bySeed := make(map[uint64][]resultChip, len(r.PerChip))
	for _, c := range r.PerChip {
		bySeed[c.Seed] = append(bySeed[c.Seed], c)
	}
	for _, seed := range seeds {
		var e error
		switch cs := bySeed[seed]; {
		case len(cs) != 1:
			e = fmt.Errorf("chip %d reported %d times", seed, len(cs))
		case cs[0].Error != "":
			e = fmt.Errorf("chip %d failed: %s", seed, cs[0].Error)
		case cs[0].Ticks != ticks:
			e = fmt.Errorf("chip %d ran %d ticks, want the window's %d", seed, cs[0].Ticks, ticks)
		}
		if e != nil {
			failed++
			if err == nil {
				err = e
			}
		}
	}
	if err == nil && len(r.PerChip) != len(seeds) {
		err = fmt.Errorf("%d chips reported for %d seeds", len(r.PerChip), len(seeds))
	}
	if err != nil {
		err = fmt.Errorf("results of %s: %w", id, err)
	}
	return failed, err
}

// wantTraceRows is the /trace row count per seed of a job: one row per
// trace_every ticks of the job's window.
func wantTraceRows(seeds []uint64, ticks, every int) map[uint64]int {
	want := make(map[uint64]int, len(seeds))
	for _, seed := range seeds {
		want[seed] = ticks / every
	}
	return want
}

// finishedJob is what a cycle learned about one completed job.
type finishedJob struct {
	ID     string
	Spec   serviceJob
	Chips  map[uint64]chipOutcome
	Traces map[uint64][][]float64
	// Failed counts the job's seeds that did not finish their window.
	Failed int
}

// cycle runs one closed-loop client cycle for job j.
func cycle(client *http.Client, base string, j serviceJob, hist []historyJob, histIdx int, s *samples) (*finishedJob, error) {
	body, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	code, resp, _, secs, err := call(client, "POST", base+"/v1/fleets", body, nil)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("submit returned %d: %s", code, resp)
	}
	s.submit = append(s.submit, secs)
	var st struct {
		ID       string  `json:"id"`
		Status   string  `json:"status"`
		ElapsedS float64 `json:"elapsed_s"`
		Error    string  `json:"error"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return nil, fmt.Errorf("submit response: %w", err)
	}
	id := st.ID
	for st.Status != "done" {
		switch st.Status {
		case "queued", "running":
		default:
			return nil, fmt.Errorf("job %s ended %q: %s", id, st.Status, st.Error)
		}
		if time.Since(start) > serviceDeadline {
			return nil, fmt.Errorf("job %s not done within %v", id, serviceDeadline)
		}
		time.Sleep(servicePoll)
		code, resp, _, secs, err = call(client, "GET", base+"/v1/fleets/"+id, nil, nil)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("status of %s: %d %v", id, code, err)
		}
		s.status = append(s.status, secs)
		if err := json.Unmarshal(resp, &st); err != nil {
			return nil, fmt.Errorf("status of %s: %w", id, err)
		}
	}
	fetchStart := time.Now()
	code, resp, hdr, secs, err := call(client, "GET", base+"/v1/fleets/"+id+"/results", nil, nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("results of %s: %d %v", id, code, err)
	}
	s.results = append(s.results, secs)
	var res resultsBody
	if err := json.Unmarshal(resp, &res); err != nil {
		return nil, fmt.Errorf("results of %s: %w", id, err)
	}
	ticks := windowTicks(j.Seconds)
	fj := &finishedJob{ID: id, Spec: j, Chips: res.outcomes()}
	fj.Failed, err = checkChips(id, res, j.Seeds, ticks)
	if err != nil {
		return fj, err
	}
	if j.TraceEvery > 0 {
		code, resp, _, secs, err = call(client, "GET", base+"/v1/fleets/"+id+"/trace", nil, nil)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("trace of %s: %d %v", id, code, err)
		}
		if j.TraceEvery == 1 {
			s.trace = append(s.trace, secs)
			s.traceBytes = append(s.traceBytes, float64(len(resp)))
		}
		if fj.Traces, err = parseTraceCSV(resp, wantTraceRows(j.Seeds, ticks, j.TraceEvery)); err != nil {
			return fj, fmt.Errorf("trace of %s: %w", id, err)
		}
	}
	end := time.Now()
	turnaround := end.Sub(start).Seconds()
	s.turnaround = append(s.turnaround, turnaround)
	s.run = append(s.run, st.ElapsedS)
	s.queueWait = append(s.queueWait, turnaround-st.ElapsedS-end.Sub(fetchStart).Seconds())
	if j.TraceEvery == 1 {
		// Every GET re-renders the completed trace; the first download
		// ended the turnaround, the repeats steady the median.
		for k := 1; k < serviceTraceFetches; k++ {
			code, _, _, secs, err = call(client, "GET", base+"/v1/fleets/"+id+"/trace", nil, nil)
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("trace of %s: %d %v", id, code, err)
			}
			s.trace = append(s.trace, secs)
		}
	}

	// Completed results are immutable: the conditional re-GET must be
	// answered 304 with the same tag.
	etag := hdr.Get("ETag")
	code, _, hdr, secs, err = call(client, "GET", base+"/v1/fleets/"+id+"/results", nil, map[string]string{"If-None-Match": etag})
	if err != nil {
		return nil, fmt.Errorf("revalidate %s: %w", id, err)
	}
	s.revalidate = append(s.revalidate, secs)
	if err := checkRevalidate("results of "+id, code, etag, hdr.Get("ETag")); err != nil {
		return fj, err
	}

	code, _, _, secs, err = call(client, "GET", base+"/v1/fleets", nil, nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("list: %d %v", code, err)
	}
	s.list = append(s.list, secs)

	h := hist[histIdx]
	code, resp, _, secs, err = call(client, "GET", fmt.Sprintf("%s/v1/fleets/f-%d/results", base, h.ID), nil, nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("historical f-%d: %d %v", h.ID, code, err)
	}
	s.history = append(s.history, secs)
	var hres resultsBody
	if err := json.Unmarshal(resp, &hres); err != nil {
		return nil, fmt.Errorf("historical f-%d: %w", h.ID, err)
	}
	return fj, checkHistory(h, hres)
}

// checkHistory requires a historical job to read back the records
// written at set-up.
func checkHistory(h historyJob, got resultsBody) error {
	if got.Status != "done" || len(got.PerChip) != len(h.Chips) {
		return fmt.Errorf("historical f-%d: status %q with %d chips, want done with %d", h.ID, got.Status, len(got.PerChip), len(h.Chips))
	}
	chips := got.outcomes()
	for _, rec := range h.Chips {
		want := chipOutcome{Seed: rec.Seed, AvgReduction: rec.AvgReduction, DomainVdd: rec.DomainVdd,
			UncoreVdd: rec.UncoreVdd, AvgPowerW: rec.AvgPowerW, Ticks: rec.Ticks}
		if err := checkSameOutcome(chips[rec.Seed], want); err != nil {
			return fmt.Errorf("historical f-%d: %w", h.ID, err)
		}
	}
	return nil
}

// scrapeMetrics reads the daemon's Prometheus counters.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	code, body, _, _, err := call(client, "GET", base+"/metrics", nil, nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %d %v", code, err)
	}
	m := make(map[string]float64)
	for _, ln := range strings.Split(string(body), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		if name, v, ok := strings.Cut(ln, " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				m[name] = f
			}
		}
	}
	return m, nil
}

func runService(cfg config) (*outcome, error) {
	if cfg.Daemon == "" {
		return nil, errors.New("service needs the eccspecd binary (-daemon)")
	}
	out := newOutcome()
	work, err := os.MkdirTemp(cfg.BuildDir, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dataDir := filepath.Join(work, "data")
	hist, err := writeHistory(dataDir, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("journal set-up: %w", err)
	}
	setupJournal := filepath.Join(work, "setup-journal.jsonl")
	if err := copyFile(filepath.Join(dataDir, store.JournalName), setupJournal); err != nil {
		return nil, err
	}

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU()}}
	var (
		d     *daemon
		clock setupClock
	)
	startTimed := func(dir string) (*daemon, error) {
		var dm *daemon
		err := clock.time(1, func() (err error) {
			dm, err = startDaemon(cfg.Daemon, dir, client)
			return err
		})
		return dm, err
	}
	// Between cycles a spare daemon starts over its own copy of the
	// set-up journal and is stopped again.
	spareDir := filepath.Join(work, "spare")
	if err := copyFile(setupJournal, filepath.Join(spareDir, store.JournalName)); err != nil {
		return nil, err
	}
	spareStart := func() error {
		spare, err := startTimed(spareDir)
		if err != nil {
			return err
		}
		out.problem(spare.stop())
		return nil
	}
	// Collect the journal writer's garbage now rather than beside the
	// timed starts.
	runtime.GC()
	for i := 0; i < serviceSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		if d, err = startTimed(dataDir); err != nil {
			return nil, err
		}
	}
	running := true
	defer func() {
		if running {
			d.kill()
		}
	}()

	journalPath := filepath.Join(dataDir, store.JournalName)
	j0, err := fileSize(journalPath)
	if err != nil {
		return nil, err
	}
	m0, err := scrapeMetrics(client, d.base)
	if err != nil {
		return nil, err
	}
	in := newInputs(cfg.Seed, "service")
	names := in.tableII()
	pick := newInputs(cfg.Seed, "service-check")
	var (
		s        samples
		finished []*finishedJob
		chips    int
		// perChipMB is the journal growth per chip, by trace_every.
		perChipMB = make(map[int][]float64)
		last      = j0
	)
	start := time.Now()
	for round := 0; round == 0 || since(start) < cfg.Seconds; round++ {
		for _, j := range serviceRound(in, names, round) {
			out.Attempted += len(j.Seeds)
			fj, err := cycle(client, d.base, j, hist, pick.intn(len(hist)), &s)
			out.problem(err)
			if fj == nil {
				out.Failed += len(j.Seeds)
				continue
			}
			out.Failed += fj.Failed
			finished = append(finished, fj)
			chips += len(j.Seeds) - fj.Failed
			size, err := fileSize(journalPath)
			if err != nil {
				return nil, err
			}
			perChipMB[j.TraceEvery] = append(perChipMB[j.TraceEvery], float64(size-last)/float64(len(j.Seeds))/1e6)
			last = size
			if err := clock.again(spareStart); err != nil {
				return nil, err
			}
		}
	}
	wall := since(start) - clock.inLoop.Seconds()
	out.setup(&clock)
	m1, err := scrapeMetrics(client, d.base)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	running = false
	out.problem(d.stop())
	j1, err := fileSize(journalPath)
	if err != nil {
		return nil, err
	}

	delta := func(name string) float64 { return m1[name] - m0[name] }
	out.set("chips_per_min", float64(chips)/wall*60, chips)
	out.set("sim_ticks_per_s", delta("eccspecd_sim_ticks_total")/sum(s.run), len(s.run))
	out.timing("job_turnaround_s_p50", s.turnaround, 1)
	out.timing("trace.fetch_ms_p50", s.trace, 1e3)
	out.set("journal_mb_per_job", float64(j1-j0)/float64(len(finished))/1e6, len(finished))
	out.set("peak_rss_mb", rss, 0)

	out.timing("eccspecd.submit_ms_p50", s.submit, 1e3)
	out.timing("eccspecd.queue_wait_s_p50", s.queueWait, 1)
	out.timing("eccspecd.run_s_p50", s.run, 1)
	out.timing("eccspecd.results_ms_p50", s.results, 1e3)
	out.timing("eccspecd.revalidate_ms_p50", s.revalidate, 1e3)
	out.timing("eccspecd.list_ms_p50", s.list, 1e3)
	st := summarize(s.status)
	out.set("eccspecd.status_ms_p50", st.Median*1e3, st.N)
	// The p99 needs 1000 polls; with fewer it reads 0 (n=0).
	if p99, ok := percentile(s.status, 990); ok {
		out.set("eccspecd.status_ms_p99", p99*1e3, st.N)
	}
	out.set("eccspecd.status_samples", float64(st.N), st.N)
	out.note("status polls: %d samples, p50 %.3f ms, p%g %.3f ms", st.N, st.Median*1e3, st.TailP, st.Tail*1e3)
	out.set("eccspecd.trace_kb", summarize(s.traceBytes).Median/1024, len(s.traceBytes))
	out.set("eccspecd.result_encodes", delta("eccspecd_result_encodes_total"), 0)
	out.set("eccspecd.not_modified", delta("eccspecd_http_not_modified_total"), 0)
	out.note("daemon: %d jobs, %d chips in %.2f s; journal grew %.2f MB", len(finished), chips, wall, float64(j1-j0)/1e6)
	for _, every := range serviceTraceEvery {
		out.note("journal growth per chip at trace_every %d: median %.3f MB", every, summarize(perChipMB[every]).Median)
	}

	// Each /results chip, and its /trace rows, must equal the
	// in-process result for the same seed, workload and window.
	n := serviceCheckChips
	if cfg.Traced {
		n = serviceTracedCheckChips
	}
	for i := 0; i < n && len(finished) > 0; i++ {
		fj := finished[pick.intn(len(finished))]
		seed := fj.Spec.Seeds[pick.intn(len(fj.Spec.Seeds))]
		rd, err := redrive(chipSpec{Seed: seed, Workload: fj.Spec.Workload, Policy: fj.Spec.Policy,
			Seconds: fj.Spec.Seconds, TraceEvery: fj.Spec.TraceEvery}, nil)
		if err != nil {
			return nil, err
		}
		got := fj.Chips[seed]
		got.TraceRows = fj.Traces[seed]
		if fj.Spec.TraceEvery == 0 {
			rd.Out.TraceRows = nil
		}
		out.problem(checkSameOutcome(got, rd.Out))
		out.problem(checkOnsets(seed, rd.OnsetV, rd.Nominal, control.DefaultConfig().CalibFloorV))
		out.problem(checkHealth(seed, rd.Health))
	}

	if cfg.Traced {
		if err := storeLayerMetrics(out, work, setupJournal, journalPath, j0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// journalLine mirrors the store's journal records closely enough to
// replay a job's call pattern.
type journalLine struct {
	T             string            `json:"t"`
	Job           uint64            `json:"job"`
	Spec          *fleet.Job        `json:"spec"`
	Chip          *store.ChipRecord `json:"chip"`
	Seed          uint64            `json:"seed"`
	Ticks         int               `json:"ticks"`
	Blob          []byte            `json:"blob"`
	CompletedUnix int64             `json:"completed_unix"`
}

// storeLayerMetrics times store.Open over the set-up journal, then
// replays every job the run journaled (AddJob, RecordCheckpoint with the
// job's real blobs, RecordChip, MarkJobDone) through a fresh store.
func storeLayerMetrics(out *outcome, work, setupJournal, journalPath string, from int64) error {
	const recoveries = 15
	var recover []float64
	for i := 0; i < recoveries; i++ {
		dir := filepath.Join(work, fmt.Sprintf("recover-%d", i))
		if err := copyFile(setupJournal, filepath.Join(dir, store.JournalName)); err != nil {
			return err
		}
		t0 := time.Now()
		st, err := store.Open(dir, store.Options{})
		recover = append(recover, since(t0))
		if err != nil {
			return err
		}
		st.Close()
	}
	out.timing("store.recover_ms", recover, 1e3)

	f, err := os.Open(journalPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(work, "replay"), store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	var commit, ckpt, ckptBytes []float64
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		ln, err := r.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		var rec journalLine
		if err := json.Unmarshal(ln, &rec); err != nil {
			return fmt.Errorf("journal line: %w", err)
		}
		t0 := time.Now()
		switch rec.T {
		case "job":
			err = st.AddJob(rec.Job, *rec.Spec)
			commit = append(commit, since(t0))
		case "ckpt":
			err = st.RecordCheckpoint(rec.Job, rec.Seed, rec.Ticks, rec.Blob)
			ckpt = append(ckpt, since(t0))
			ckptBytes = append(ckptBytes, float64(len(rec.Blob)))
		case "chip":
			err = st.RecordChip(rec.Job, *rec.Chip)
			commit = append(commit, since(t0))
		case "done":
			err = st.MarkJobDone(rec.Job, rec.CompletedUnix)
			commit = append(commit, since(t0))
		}
		if err != nil {
			return fmt.Errorf("replay %s record of job %d: %w", rec.T, rec.Job, err)
		}
	}
	out.timing("store.commit_ms", commit, 1e3)
	out.timing("store.ckpt_append_ms", ckpt, 1e3)
	if len(ckptBytes) > 0 {
		out.set("store.ckpt_kb", sum(ckptBytes)/float64(len(ckptBytes))/1024, len(ckptBytes))
	}
	return nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// syncFile flushes a written file to disk.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
