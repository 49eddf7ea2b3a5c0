package server

// Composite health scoring: /healthz and the influtrackd_health_score
// gauge roll per-component readiness into one number in [0,1] so load
// balancers (and the loadgen's SLO gate) can act on a single threshold
// while operators read the component breakdown to see *which* budget is
// being spent.
//
// Each component scores 1 when fully healthy and degrades toward 0;
// the composite is the minimum — one exhausted budget means the
// instance is unhealthy no matter how good the rest look.

// healthComponentOrder fixes the rendering order of the component
// breakdown (maps iterate randomly; metrics and JSON should not).
var healthComponentOrder = []string{
	"wal", "queue_headroom", "audit_floor", "replay_debt", "degraded_streams",
}

// healthComponents computes the composite score and its breakdown:
//
//	wal              fraction of streams with a log not degraded
//	queue_headroom   worst-stream 1 − queue_depth/queue_capacity
//	audit_floor      worst audited quality_ratio over AuditFloor, capped
//	                 at 1 (1 when no floor is configured)
//	replay_debt      worst-stream 1 − backlog/(QueueDepth×MaxChunk),
//	                 where backlog is acknowledged records not yet
//	                 settled (ingested − processed − dropped − failed −
//	                 superseded)
//	degraded_streams fraction of all streams serving healthy
func (s *Server) healthComponents() (float64, map[string]float64) {
	s.mu.RLock()
	workers := make([]*worker, 0, len(s.streams))
	for _, w := range s.streams {
		workers = append(workers, w)
	}
	s.mu.RUnlock()

	c := map[string]float64{
		"wal": 1, "queue_headroom": 1, "audit_floor": 1,
		"replay_debt": 1, "degraded_streams": 1,
	}
	walStreams, walDegraded, degraded := 0, 0, 0
	debtCap := float64(s.cfg.QueueDepth) * float64(s.cfg.MaxChunk)
	for _, w := range workers {
		if w.degraded.Load() {
			degraded++
		}
		if w.wlog != nil {
			walStreams++
			if w.degraded.Load() {
				walDegraded++
			}
		}
		if capQ := cap(w.queue); capQ > 0 {
			headroom := 1 - float64(w.queueDepth())/float64(capQ)
			if headroom < 0 {
				headroom = 0
			}
			if headroom < c["queue_headroom"] {
				c["queue_headroom"] = headroom
			}
		}
		if floor := s.cfg.AuditFloor; floor > 0 {
			if rep := w.auditRep.Load(); rep != nil {
				v := rep.QualityRatio / floor
				if v > 1 {
					v = 1
				}
				if v < 0 {
					v = 0
				}
				if v < c["audit_floor"] {
					c["audit_floor"] = v
				}
			}
		}
		if debtCap > 0 {
			settled := w.m.processed.Load() + w.m.staleDrop.Load() +
				w.m.failed.Load() + w.m.superseded.Load()
			ingested := w.m.ingested.Load()
			var backlog uint64
			if ingested > settled {
				backlog = ingested - settled
			}
			score := 1 - float64(backlog)/debtCap
			if score < 0 {
				score = 0
			}
			if score < c["replay_debt"] {
				c["replay_debt"] = score
			}
		}
	}
	if walStreams > 0 {
		c["wal"] = 1 - float64(walDegraded)/float64(walStreams)
	}
	if n := len(workers); n > 0 {
		c["degraded_streams"] = 1 - float64(degraded)/float64(n)
	}
	score := 1.0
	for _, v := range c {
		if v < score {
			score = v
		}
	}
	return score, c
}
