package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// handleMetrics renders the observability surface as hand-rolled
// Prometheus-style text: serving-tier request accounting, fleet
// counters, per-worker interpreter/chain/TLB counters (published by
// each request after it serves, so no machine a request holds is read
// here), and the latency quantiles.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder

	c := s.CountersSnapshot()
	fmt.Fprintf(&b, "# serving tier\n")
	fmt.Fprintf(&b, "palladium_serve_admitted_total %d\n", c.Admitted)
	fmt.Fprintf(&b, "palladium_serve_rejected_total %d\n", c.Rejected)
	fmt.Fprintf(&b, "palladium_serve_completed_total %d\n", c.Completed)
	fmt.Fprintf(&b, "palladium_serve_failed_total %d\n", c.Failed)
	fmt.Fprintf(&b, "palladium_serve_scaleups_total %d\n", c.ScaleUps)
	fmt.Fprintf(&b, "palladium_serve_scaledowns_total %d\n", c.ScaleDowns)
	fmt.Fprintf(&b, "palladium_serve_inflight %d\n", s.pool.Inflight())
	fmt.Fprintf(&b, "palladium_serve_queue_bound %d\n", s.pool.Bound())
	fmt.Fprintf(&b, "palladium_serve_workers %d\n", s.pool.Workers())
	fmt.Fprintf(&b, "palladium_serve_workers_retired %d\n", s.pool.TotalWorkers()-s.pool.Workers())
	fmt.Fprintf(&b, "palladium_serve_max_workers %d\n", s.maxWorkers)

	if cs, ok := s.CloneStats(); ok {
		fmt.Fprintf(&b, "# clone pool (clone-per-request mode)\n")
		fmt.Fprintf(&b, "palladium_clone_warm_depth %d\n", cs.WarmDepth)
		fmt.Fprintf(&b, "palladium_clone_target_depth %d\n", cs.TargetDepth)
		fmt.Fprintf(&b, "palladium_clone_forks_total %d\n", cs.Forks)
		fmt.Fprintf(&b, "palladium_clone_cold_steals_total %d\n", cs.ColdSteals)
		fmt.Fprintf(&b, "palladium_clone_discards_total %d\n", cs.Discards)
		fmt.Fprintf(&b, "palladium_clone_resets_total %d\n", cs.Resets)
	}

	st := s.pool.Stats()
	fmt.Fprintf(&b, "# fleet (totals since boot)\n")
	fmt.Fprintf(&b, "palladium_fleet_requests_total %d\n", st.Requests)
	fmt.Fprintf(&b, "palladium_fleet_errors_total %d\n", st.Errors)
	fmt.Fprintf(&b, "palladium_fleet_queue_high_water %d\n", st.QueueHighWater)
	fmt.Fprintf(&b, "palladium_fleet_sim_cycles_total %.0f\n", st.SimCycles)
	fmt.Fprintf(&b, "palladium_fleet_busy_seconds_total %.6f\n", st.Busy.Seconds())
	for _, ws := range st.Workers {
		fmt.Fprintf(&b, "palladium_fleet_worker_requests_total{worker=\"%d\"} %d\n", ws.Worker, ws.Requests)
		fmt.Fprintf(&b, "palladium_fleet_worker_sim_cycles_total{worker=\"%d\"} %.0f\n", ws.Worker, ws.SimCycles)
	}

	// Interpreter counters summed over what the workers publish.
	var ic interpCounters
	s.wmu.RLock()
	wstats := append([]*workerCounters(nil), s.wstats...)
	s.wmu.RUnlock()
	for _, wc := range wstats {
		ic.addSince(wc.load(), interpCounters{})
	}
	fmt.Fprintf(&b, "# interpreter (summed per-worker counters)\n")
	for i, name := range interpMetrics {
		fmt.Fprintf(&b, "%s %d\n", name, ic[i])
	}

	fmt.Fprintf(&b, "# latency (microseconds)\n")
	writeHist(&b, "palladium_serve_sim_latency_us", s.simHist)
	writeHist(&b, "palladium_serve_wall_latency_us", s.wallHist)

	fmt.Fprintf(&b, "# models\n")
	names := make([]string, 0, len(modelNames))
	for n := range modelNames {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "# available: %s (default %s)\n", strings.Join(names, " "), s.cfg.DefaultModel)

	fmt.Fprint(w, b.String())
}

func writeHist(b *strings.Builder, name string, h *Hist) {
	p50, p99, p999 := h.Quantiles()
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
	fmt.Fprintf(b, "%s_mean %.3f\n", name, h.Mean())
	fmt.Fprintf(b, "%s{quantile=\"0.5\"} %d\n", name, p50)
	fmt.Fprintf(b, "%s{quantile=\"0.99\"} %d\n", name, p99)
	fmt.Fprintf(b, "%s{quantile=\"0.999\"} %d\n", name, p999)
	fmt.Fprintf(b, "%s_max %d\n", name, h.Max())
}
