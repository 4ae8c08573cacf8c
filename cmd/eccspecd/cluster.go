package main

// Cluster HTTP handlers: the coordinator's registry endpoints
// (register / heartbeat / members / placement) and the worker's
// execution endpoint. Mounted by newServer only for the matching role.

import (
	"encoding/json"
	"log"
	"net/http"

	"eccspec/internal/cluster"
)

// maxClusterBodyBytes bounds a registry request body; registrations and
// heartbeats are a few hundred bytes.
const maxClusterBodyBytes = 64 << 10

// handleClusterRegister admits a worker into the membership (or
// revives/updates one that already registered) and tells it the TTL it
// must heartbeat within.
func (s *server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req cluster.RegisterRequest
	body := http.MaxBytesReader(w, r.Body, maxClusterBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	if req.ID == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, "register needs id and url")
		return
	}
	m := s.cfg.coordinator.Membership()
	if m.Join(req) {
		log.Printf("eccspecd: cluster worker %s joined from %s (%d slots)", req.ID, req.URL, req.Slots)
	}
	writeJSON(w, http.StatusOK, cluster.RegisterResponse{TTLSeconds: m.TTL().Seconds()})
}

// handleClusterHeartbeat refreshes a worker's liveness. An unknown ID
// answers 404, which tells the worker to re-register — that is how
// workers find their way back after a coordinator restart.
func (s *server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	body := http.MaxBytesReader(w, r.Body, maxClusterBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad heartbeat body: %v", err)
		return
	}
	if !s.cfg.coordinator.Membership().Heartbeat(req) {
		writeError(w, http.StatusNotFound, "unknown worker %q; re-register", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleClusterMembers lists the membership, expiry applied, with live
// in-flight counts.
func (s *server) handleClusterMembers(w http.ResponseWriter, r *http.Request) {
	c := s.cfg.coordinator
	now := s.cfg.now()
	members := c.Membership().Snapshot()
	out := make([]cluster.MemberView, 0, len(members))
	for _, m := range members {
		v := cluster.MemberView{
			ID:            m.ID,
			URL:           m.URL,
			State:         m.State,
			Reason:        m.Reason,
			Slots:         m.Slots,
			Version:       m.Version,
			AgeSeconds:    now.Sub(m.Registered).Seconds(),
			LastBeatAgoS:  now.Sub(m.LastBeat).Seconds(),
			ChipsDone:     m.ChipsDone,
			ChipsInFlight: c.InFlightOn(m.ID),
			ConsecFails:   m.ConsecFails,
		}
		if m.State == cluster.StateQuarantined && m.ProbeAt.After(now) {
			v.ProbeInSeconds = m.ProbeAt.Sub(now).Seconds()
		}
		out = append(out, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"workers": out})
}

// handleClusterPlacement reports which worker each of a job's seeds was
// last assigned to. The journaled assignments (which survive coordinator
// restarts and job completion) are the base; for the currently running
// job the coordinator's live map is overlaid, so a store-less
// coordinator still answers for in-flight work.
func (s *server) handleClusterPlacement(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	status := j.Status
	s.mu.Unlock()

	placement := make(map[uint64]string)
	if st := s.cfg.store; st != nil {
		if rec, ok := st.Job(j.Num); ok {
			for seed, worker := range rec.Assignments {
				placement[seed] = worker
			}
		}
	}
	if status == statusRunning {
		for seed, worker := range s.cfg.coordinator.Placement() {
			placement[seed] = worker
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        j.ID,
		"status":    status,
		"placement": placement,
	})
}

// handleClusterExec runs a dispatched chip range, streaming events back
// to the coordinator. A draining worker refuses new batches so shutdown
// is not held open by arbitrarily long tasks; the coordinator migrates
// the refused chips elsewhere.
func (s *server) handleClusterExec(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "worker is draining; not accepting new batches")
		return
	}
	s.cfg.executor.HandleExec(w, r)
}
