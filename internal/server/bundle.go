package server

// Diagnostics bundle: a single tar.gz that captures everything an
// operator needs to debug an incident after the fact — the flight
// recorder dump, a /metrics snapshot, the composite health breakdown,
// per-stream deep state (info, cached engine stats, cached quality
// audit, recent traces), goroutine and heap profiles, the redacted
// serving config, and the WAL directory listing.
//
// Collection is deliberately non-blocking: every per-stream member
// reads atomically-cached state (engineStats, auditRep, the snapshot)
// rather than scheduling work on the worker goroutine, so a wedged or
// stalled worker — exactly the situation a bundle is pulled for —
// cannot block the bundle. Members that fail to collect are reported
// in errors.txt instead of failing the whole archive.

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"tdnstream/internal/obs"
)

// BundleOptions parameterizes one diagnostics-bundle collection.
type BundleOptions struct {
	// CPUProfile, when > 0, samples a CPU profile for this long and adds
	// it as profiles/cpu.pprof. Capped at 30s. The bundle request blocks
	// for the duration.
	CPUProfile time.Duration
	// Reason labels the bundle in meta.json: "request" for an operator
	// pull, "panic"/"sigquit" for postmortems.
	Reason string
}

const maxCPUProfile = 30 * time.Second

// redactedToken is what secret-bearing config fields are replaced with
// in the bundle's config.json. The bundle is built to be shared
// (attached to tickets, handed to another team), so tokens must be
// unrepresentable in it.
const redactedToken = "[redacted]"

// WriteBundle streams a diagnostics bundle as gzipped tar to w.
func (s *Server) WriteBundle(w io.Writer, opts BundleOptions) error {
	if opts.Reason == "" {
		opts.Reason = "request"
	}
	if opts.CPUProfile > maxCPUProfile {
		opts.CPUProfile = maxCPUProfile
	}

	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	now := time.Now()
	var collectErrs []string
	add := func(name string, data []byte) {
		hdr := &tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)), ModTime: now,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			collectErrs = append(collectErrs, fmt.Sprintf("%s: %v", name, err))
			return
		}
		if _, err := tw.Write(data); err != nil {
			collectErrs = append(collectErrs, fmt.Sprintf("%s: %v", name, err))
		}
	}
	addJSON := func(name string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			collectErrs = append(collectErrs, fmt.Sprintf("%s: %v", name, err))
			return
		}
		add(name, append(data, '\n'))
	}

	// meta.json — what this bundle is and where it came from.
	info := obs.Build()
	addJSON("meta.json", map[string]any{
		"reason":     opts.Reason,
		"created":    now.UTC().Format(time.RFC3339Nano),
		"pid":        os.Getpid(),
		"go":         runtime.Version(),
		"goroutines": runtime.NumGoroutine(),
		"build": map[string]string{
			"version": info.Version, "revision": info.Revision,
			"go": info.GoVersion, "os": info.OS, "arch": info.Arch,
		},
		"uptime_seconds": time.Since(s.start).Seconds(),
	})

	// flight.json — the black-box ring, oldest first.
	if f := s.cfg.Flight; f != nil {
		var buf bytes.Buffer
		if err := f.WriteJSON(&buf); err != nil {
			collectErrs = append(collectErrs, fmt.Sprintf("flight.json: %v", err))
		} else {
			add("flight.json", buf.Bytes())
		}
	}

	// metrics.prom — the same text the /metrics endpoint serves.
	{
		var buf bytes.Buffer
		s.writeMetrics(&buf)
		add("metrics.prom", buf.Bytes())
	}

	// health.json — composite score plus component breakdown, in the
	// fixed component order so diffs between bundles line up.
	{
		score, components := s.healthComponents()
		ordered := make([]map[string]any, 0, len(healthComponentOrder))
		for _, name := range healthComponentOrder {
			ordered = append(ordered, map[string]any{"component": name, "score": components[name]})
		}
		addJSON("health.json", map[string]any{"score": score, "components": ordered})
	}

	// config.json — the serving config with secrets redacted.
	addJSON("config.json", s.redactedConfig())

	// Per-stream deep state, all from atomically-cached values.
	for _, name := range s.StreamNames() {
		wk, ok := s.stream(name)
		if !ok {
			continue
		}
		dir := "streams/" + name + "/"
		addJSON(dir+"info.json", s.infoFor(wk))
		if es := wk.engineStats.Load(); es != nil {
			addJSON(dir+"stats.json", es)
		}
		if rep := wk.auditRep.Load(); rep != nil {
			addJSON(dir+"quality.json", rep)
		}
		if wk.rec != nil {
			addJSON(dir+"traces.json", traceDump(wk, 25))
		}
	}

	// Profiles. Goroutine dump is debug=1 text (readable in the tar
	// without tooling); heap is the binary pprof protobuf.
	{
		var buf bytes.Buffer
		if p := pprof.Lookup("goroutine"); p != nil {
			if err := p.WriteTo(&buf, 1); err != nil {
				collectErrs = append(collectErrs, fmt.Sprintf("profiles/goroutine.txt: %v", err))
			} else {
				add("profiles/goroutine.txt", buf.Bytes())
			}
		}
	}
	{
		var buf bytes.Buffer
		if p := pprof.Lookup("heap"); p != nil {
			if err := p.WriteTo(&buf, 0); err != nil {
				collectErrs = append(collectErrs, fmt.Sprintf("profiles/heap.pprof: %v", err))
			} else {
				add("profiles/heap.pprof", buf.Bytes())
			}
		}
	}
	if opts.CPUProfile > 0 {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			// Likely a concurrent profiler; report, don't fail the bundle.
			collectErrs = append(collectErrs, fmt.Sprintf("profiles/cpu.pprof: %v", err))
		} else {
			time.Sleep(opts.CPUProfile)
			pprof.StopCPUProfile()
			add("profiles/cpu.pprof", buf.Bytes())
		}
	}

	// Durability directory listing: enough to see segment counts, sizes
	// and mtimes without shipping the data itself.
	if s.cfg.WALDir != "" {
		add("wal/files.txt", s.listDir(s.cfg.WALDir, &collectErrs))
	}

	if len(collectErrs) > 0 {
		var buf bytes.Buffer
		for _, e := range collectErrs {
			fmt.Fprintln(&buf, e)
		}
		add("errors.txt", buf.Bytes())
	}

	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// listDir renders a one-file-per-line listing (path, size, mtime) of
// dir and one level of subdirectories — the WAL keeps per-stream
// segment files in WALDir/<stream>/. Reads go through the configured
// filesystem seam so fault-injection tests see the same traffic.
func (s *Server) listDir(dir string, collectErrs *[]string) []byte {
	var buf bytes.Buffer
	fsys := s.cfg.fs()
	var walk func(d, prefix string, depth int)
	walk = func(d, prefix string, depth int) {
		entries, err := fsys.ReadDir(d)
		if err != nil {
			*collectErrs = append(*collectErrs, fmt.Sprintf("list %s: %v", d, err))
			return
		}
		for _, e := range entries {
			if e.IsDir() {
				if depth < 2 {
					walk(filepath.Join(d, e.Name()), prefix+e.Name()+"/", depth+1)
				}
				continue
			}
			var size int64
			mtime := ""
			if fi, err := e.Info(); err == nil {
				size = fi.Size()
				mtime = fi.ModTime().UTC().Format(time.RFC3339)
			}
			fmt.Fprintf(&buf, "%s%s\t%d\t%s\n", prefix, e.Name(), size, mtime)
		}
	}
	walk(dir, "", 0)
	return buf.Bytes()
}

// redactedConfig renders the serving config for the bundle: scalar
// knobs verbatim, stream specs with tokens replaced by a placeholder.
func (s *Server) redactedConfig() map[string]any {
	c := s.cfg
	streams := []map[string]any{}
	for _, name := range s.StreamNames() {
		wk, ok := s.stream(name)
		if !ok {
			continue
		}
		spec := wk.state.Load().spec
		entry := map[string]any{
			"name":      spec.Name,
			"tracker":   spec.Tracker,
			"lifetime":  spec.Lifetime,
			"time_mode": spec.timeMode(),
			"wal":       spec.WAL,
		}
		if wk.token != "" {
			entry["token"] = redactedToken
		}
		streams = append(streams, entry)
	}
	return map[string]any{
		"queue_depth":           c.QueueDepth,
		"max_chunk":             c.MaxChunk,
		"max_body_bytes":        c.MaxBodyBytes,
		"snapshot_every":        c.SnapshotEvery,
		"wal_dir":               c.WALDir,
		"wal_fsync":             c.WALFsync,
		"wal_fsync_interval":    c.WALFsyncInterval.String(),
		"wal_segment_bytes":     c.WALSegmentBytes,
		"repair_backoff":        c.RepairBackoff.String(),
		"repair_backoff_max":    c.RepairBackoffMax.String(),
		"tracing_disabled":      c.DisableTracing,
		"trace_ring":            c.TraceRing,
		"slow_trace":            c.SlowTrace.String(),
		"mem_watermark_bytes":   c.MemoryWatermarkBytes,
		"engine_stats_disabled": c.DisableEngineStats,
		"audit_interval":        c.AuditInterval.String(),
		"audit_every":           c.AuditEvery,
		"audit_budget":          c.AuditBudget,
		"audit_floor":           c.AuditFloor,
		"audit_disabled":        c.DisableAudit,
		"stall_factor":          c.StallFactor,
		"stall_check_interval":  c.StallCheckInterval.String(),
		"stall_min":             c.StallMin.String(),
		"notify_explain_gains":  c.NotifyExplainGains,
		"fault_injection":       c.Fault != nil,
		"flight_recorder":       c.Flight != nil,
		"build_labels":          c.BuildLabels,
		"streams":               streams,
	}
}

// BundleHandler serves GET /v1/admin/debug/bundle: the diagnostics
// bundle as a tar.gz download. ?cpu=15s adds a CPU profile sampled for
// that long (capped at 30s; the response blocks while sampling).
//
// The handler carries no auth of its own — like the pprof endpoints it
// must only be mounted on the operator-facing debug listener
// (-debug-addr), never on the public API mux: the bundle contains
// goroutine dumps and directory listings that are none of a tenant's
// business (stream tokens, by contrast, are redacted).
func (s *Server) BundleHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opts := BundleOptions{Reason: "request"}
		if q := r.URL.Query().Get("cpu"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d < 0 {
				writeError(w, http.StatusBadRequest, "bad cpu %q (want a duration like 15s)", q)
				return
			}
			opts.CPUProfile = d
		}
		w.Header().Set("Content-Type", "application/gzip")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=influtrackd-bundle-%d.tar.gz", time.Now().Unix()))
		if err := s.WriteBundle(w, opts); err != nil {
			// Headers are gone; all we can do is log.
			s.cfg.logger().Warn("diagnostics bundle write failed", "error", err)
		}
	})
}

// WritePostmortem writes a diagnostics bundle to
// dir/postmortem-<reason>-<unixnano>.tar.gz, creating dir if needed,
// and returns the path. It goes through the real OS, not the fault
// seam: a postmortem pulled during a fault drill must not itself be
// sabotaged by the injector.
func (s *Server) WritePostmortem(dir, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("postmortem: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("postmortem-%s-%d.tar.gz", reason, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("postmortem: %w", err)
	}
	werr := s.WriteBundle(f, BundleOptions{Reason: reason})
	cerr := f.Close()
	if werr != nil {
		return path, fmt.Errorf("postmortem: %w", werr)
	}
	if cerr != nil {
		return path, fmt.Errorf("postmortem: %w", cerr)
	}
	return path, nil
}
