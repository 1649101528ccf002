package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/wrangle"
	"repro/wrangle/synth"
)

// runServe turns the CLI into a small serving tier over the session's
// versioned snapshot store: HTTP readers answer from the latest committed
// view (lock-free — they never wait on the session) and /watch pushes
// per-version deltas over the change feed, while a background loop churns
// the synthetic world and refreshes sources, committing a new version per
// reaction. SIGINT/SIGTERM drains watch subscribers and in-flight
// requests, stops the refresher and exits cleanly.
func runServe(s *wrangle.Session, u *synth.Universe, addr string, every time.Duration, churn float64, withPprof bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("\nserving on http://%s (refresh every %s, churn %.2f) — Ctrl-C to stop\n",
		ln.Addr(), every, churn)
	fmt.Printf("endpoints: %s (readers accept ?version=N; /watch accepts ?from=N)\n",
		strings.Join(endpoints, " "))

	st := newServeState(s)
	st.pprof = withPprof
	if withPprof {
		fmt.Printf("pprof:     http://%s/debug/pprof/\n", ln.Addr())
	}

	// The background write loop: evolve the synthetic world and refresh
	// one source per tick (round-robin), so readers watch versions advance
	// while each reaction stays cheap.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		tick := 0
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			u.World.Evolve(churn)
			ids := s.SelectedSources()
			if len(ids) == 0 {
				continue
			}
			id := ids[tick%len(ids)]
			tick++
			if _, err := s.Refresh(ctx, id); err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "wrangle: background refresh:", err)
			}
		}
	}()

	server := &http.Server{Handler: st.handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	select {
	case err := <-serveErr:
		stop()
		close(st.drain)
		wg.Wait()
		return err
	case <-ctx.Done():
	}
	fmt.Println("\nshutting down…")
	// Drain first: open /watch streams write a closing comment and
	// return, so Shutdown is not pinned by long-lived subscribers.
	close(st.drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = server.Shutdown(shutdownCtx)
	wg.Wait()
	if v, verr := s.View(); verr == nil {
		fmt.Printf("served up to version %d (%d entities, %d watchers drained)\n",
			v.Version(), v.Table().Len(), s.Watchers())
	}
	return err
}

// defaultHeartbeat is how often an idle /watch stream emits a comment
// frame so proxies and clients can tell a quiet feed from a dead one.
const defaultHeartbeat = 10 * time.Second

// endpoints is the API surface, advertised on startup and in 404 bodies.
var endpoints = []string{
	"/version", "/table", "/report", "/stats", "/sources",
	"/watch", "/healthz", "/metrics",
}

// serveState is the HTTP tier's shared state, factored out of runServe so
// tests can drive the exact production handler through httptest without a
// listener, signals or the background refresher.
type serveState struct {
	s     *wrangle.Session
	start time.Time
	// drain is closed on shutdown: every /watch stream writes a closing
	// comment and returns, so Shutdown is not held hostage by open
	// long-poll connections.
	drain     chan struct{}
	heartbeat time.Duration
	// pprof mounts net/http/pprof under /debug/pprof/ — opt-in via the
	// -pprof flag because the profile endpoints expose internals and can
	// burn CPU on demand.
	pprof bool

	// HTTP-layer watch fan-out telemetry, resolved once from the session
	// registry (nil handles when telemetry is off — all writes no-op).
	watchFrames  *wrangle.Counter
	watchBytes   *wrangle.Counter
	watchLatency *wrangle.Histogram
}

func newServeState(s *wrangle.Session) *serveState {
	st := &serveState{s: s, start: time.Now(), drain: make(chan struct{}), heartbeat: defaultHeartbeat}
	reg := s.Metrics()
	st.watchFrames = reg.Counter("wrangle_watch_frames_total")
	st.watchBytes = reg.Counter("wrangle_watch_frame_bytes_total")
	st.watchLatency = reg.Histogram("wrangle_watch_delivery_seconds", wrangle.DurationBuckets())
	reg.Help("wrangle_watch_frames_total", "SSE frames written to /watch streams.")
	reg.Help("wrangle_watch_frame_bytes_total", "Bytes of SSE frames written to /watch streams.")
	reg.Help("wrangle_watch_delivery_seconds", "Publish-to-SSE-write latency per delivered frame.")
	return st
}

// handler builds the serving mux over the session's snapshot store. All
// read endpoints answer from committed versions, lock-free; /watch is the
// push path over the same store's change feed.
func (st *serveState) handler() http.Handler {
	s := st.s
	mux := http.NewServeMux()
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		v, ok := viewFor(s, w, r)
		if !ok {
			return
		}
		writeJSON(w, v, map[string]any{
			"version":     v.Version(),
			"step":        v.Step(),
			"origin":      v.Origin(),
			"publishedAt": v.PublishedAt(),
			"entities":    v.Table().Len(),
			"retained":    v.Versions(),
		})
	})
	mux.HandleFunc("GET /table", func(w http.ResponseWriter, r *http.Request) {
		v, ok := viewFor(s, w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Wrangle-Version", strconv.FormatUint(v.Version(), 10))
		if err := wrangle.WriteJSON(w, v.Table()); err != nil {
			// Headers are gone; all we can do is log.
			fmt.Fprintln(os.Stderr, "wrangle: write table:", err)
		}
	})
	mux.HandleFunc("GET /report", func(w http.ResponseWriter, r *http.Request) {
		v, ok := viewFor(s, w, r)
		if !ok {
			return
		}
		rep := v.Report()
		writeJSON(w, v, map[string]any{
			"title":   rep.Title,
			"summary": rep.Summarise(),
			"lines":   rep.Lines,
		})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		v, ok := viewFor(s, w, r)
		if !ok {
			return
		}
		writeJSON(w, v, map[string]any{
			"origin":      v.Origin(),
			"run":         v.Stats(),
			"runStages":   stagesMS(v.Stats().Stages),
			"react":       v.React(),
			"reactStages": stagesMS(v.React().Stages),
		})
	})
	mux.HandleFunc("GET /sources", func(w http.ResponseWriter, r *http.Request) {
		v, ok := viewFor(s, w, r)
		if !ok {
			return
		}
		writeJSON(w, v, map[string]any{
			"selected": v.Selected(),
			"trust":    v.Trust(),
			"sources":  v.Sources(),
		})
	})
	mux.HandleFunc("GET /healthz", st.handleHealthz)
	mux.HandleFunc("GET /watch", st.handleWatch)
	mux.HandleFunc("GET /metrics", st.handleMetrics)
	if st.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Everything else is an unknown path: a JSON 404 that tells the
	// caller what does exist, instead of the default plain-text page.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]any{
			"error":     fmt.Sprintf("unknown path %q", r.URL.Path),
			"endpoints": endpoints,
		})
	})
	return mux
}

// handleHealthz is the liveness probe: always 200 once the server is up,
// reporting the latest committed version, the retention window, watcher
// count and how long the tier has been serving. Version 0 means nothing
// is published yet. Durable sessions additionally report their log —
// directory, size, last checkpointed version — so an operator can see at
// a glance how much a restart would replay.
func (st *serveState) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"uptimeSeconds":  time.Since(st.start).Seconds(),
		"watchers":       st.s.Watchers(),
		"version":        uint64(0),
		"retainVersions": st.s.RetainedVersions(),
	}
	if v, err := st.s.View(); err == nil {
		body["version"] = v.Version()
		body["publishedAt"] = v.PublishedAt()
		body["retained"] = v.Versions()
	}
	if ds, ok := st.s.Durability(); ok {
		body["durable"] = map[string]any{
			"dir":               ds.Dir,
			"logBytes":          ds.Bytes,
			"lastCheckpointSeq": ds.LastCheckpointSeq,
			"loggedVersions":    ds.RetainedVersions,
		}
	}
	if reg := st.s.Metrics(); reg != nil {
		// The counter/gauge summary: reactions by origin, source
		// failures and task panics, serve read and watch traffic, and
		// the trust-fixpoint component shape (wrangle_trust_components,
		// wrangle_trust_components_reused_total) — the at-a-glance
		// numbers; histograms stay on /metrics.
		body["telemetry"] = reg.Summary()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// handleMetrics renders the session registry as Prometheus text
// exposition format. Output ordering is deterministic (families and
// series sorted by name), so consecutive scrapes differ only in values.
func (st *serveState) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := st.s.Metrics()
	if reg == nil {
		jsonError(w, http.StatusNotFound, "telemetry disabled: session built without WithMetrics")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := reg.WritePrometheus(w); err != nil {
		fmt.Fprintln(os.Stderr, "wrangle: write metrics:", err)
	}
}

// watchFrame is the JSON payload of one /watch SSE event: the version
// header plus the delta — only the changed records' rows are inlined
// (shared pages are elided entirely), so frame size scales with what the
// reaction touched, not with the table. A full frame (first publication,
// or a version that emptied the table) carries every row.
type watchFrame struct {
	Version       uint64         `json:"version"`
	Step          uint64         `json:"step"`
	Origin        wrangle.Origin `json:"origin"`
	PublishedAt   time.Time      `json:"publishedAt"`
	Full          bool           `json:"full"`
	ChangedShards []int          `json:"changedShards,omitempty"`
	ChangedPages  int            `json:"changedPages"`
	SharedPages   int            `json:"sharedPages"`
	// Rows maps each changed record's entity id to its new row (every
	// row when Full). Deleted records appear in RemovedRecords instead.
	Rows           map[string]map[string]any `json:"rows,omitempty"`
	RemovedRecords []string                  `json:"removedRecords,omitempty"`
	// Evicted marks the stream's final frame: the subscriber fell behind
	// the server-side buffer. Reconnect with ?from=<last seen version>.
	Evicted bool `json:"evicted,omitempty"`
}

// handleWatch streams the session's change feed as Server-Sent Events:
// one "change" event per committed version (id = version), ": ping"
// comments as heartbeats, and a final "evicted" event if the client
// cannot keep up. ?from=N resumes after the last version the client saw;
// a resume point already compacted out of the retention window is 410
// Gone — re-bootstrap from /table — and a resume point ahead of the
// latest version opens a stream that waits for version from+1. Without
// ?from the stream opens with the current version as its first frame.
func (st *serveState) handleWatch(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		jsonError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	var from uint64
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad from version: "+q)
			return
		}
		from = n
	} else if v, err := st.s.View(); err == nil {
		// Default: replay just the latest version, so every new stream
		// opens with a frame that anchors the client's state.
		from = v.Version() - 1
	}
	ch, cancel, err := st.s.Watch(r.Context(), from)
	if err != nil {
		switch {
		case errors.Is(err, wrangle.ErrCompacted):
			jsonError(w, http.StatusGone, err.Error())
		default:
			jsonError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	hb := time.NewTicker(st.heartbeat)
	defer hb.Stop()
	for {
		select {
		case c, open := <-ch:
			if !open {
				return
			}
			n, err := writeSSE(w, c)
			if err != nil {
				return
			}
			// Count before Flush: once the frame reaches the client, a
			// reader may scrape the counters, and they must already
			// include the frame it holds.
			st.watchFrames.Inc()
			st.watchBytes.Add(int64(n))
			st.watchLatency.Observe(time.Since(c.View.PublishedAt()).Seconds())
			fl.Flush()
			if c.Evicted {
				return
			}
		case <-hb.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-st.drain:
			io.WriteString(w, ": shutting down\n\n")
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one change as an SSE event. The event id is the
// version, so EventSource clients get Last-Event-ID resume for free
// (reconnect with ?from=<id>).
func writeSSE(w io.Writer, c wrangle.Change) (int, error) {
	cs := c.Changes
	frame := watchFrame{
		Version:        c.Version(),
		Step:           c.View.Step(),
		Origin:         c.View.Origin(),
		PublishedAt:    c.View.PublishedAt(),
		Full:           cs.Full,
		ChangedShards:  cs.ChangedShards,
		ChangedPages:   cs.ChangedPages,
		SharedPages:    cs.SharedPages,
		RemovedRecords: cs.RemovedRecords,
		Evicted:        c.Evicted,
	}
	event := "change"
	switch {
	case c.Evicted:
		// Metadata only: the client missed this version's delta and must
		// resume (or re-bootstrap); inlining rows would be misleading.
		event = "evicted"
	case cs.Full:
		frame.Rows = allRows(c.View)
	default:
		frame.Rows = changedRows(c.View, cs.ChangedRecords)
	}
	data, err := json.Marshal(frame)
	if err != nil {
		return 0, err
	}
	return fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", c.Version(), event, data)
}

// allRows serialises every row of the pinned version, keyed by entity id.
func allRows(v *wrangle.View) map[string]map[string]any {
	t, ents := v.Table(), v.Entities()
	out := make(map[string]map[string]any, t.Len())
	for i := 0; i < t.Len(); i++ {
		key := strconv.Itoa(i)
		if i < len(ents) {
			key = ents[i]
		}
		out[key] = rowJSON(t, i)
	}
	return out
}

// changedRows serialises only the named records, resolved to rows via the
// version's sorted entity index — O(changed × log n), independent of how
// many rows the table holds.
func changedRows(v *wrangle.View, changed []string) map[string]map[string]any {
	t, ents := v.Table(), v.Entities()
	out := make(map[string]map[string]any, len(changed))
	for _, e := range changed {
		i := sort.SearchStrings(ents, e)
		if i < len(ents) && ents[i] == e {
			out[e] = rowJSON(t, i)
		}
	}
	return out
}

// rowJSON renders one row as a flat JSON object (dataset.WriteJSON's
// per-row shape: null cells elided, kinds mapped to native JSON types).
func rowJSON(t *wrangle.Table, i int) map[string]any {
	names := t.Schema().Names()
	o := make(map[string]any, len(names))
	for j, val := range t.Row(i) {
		if val.IsNull() {
			continue
		}
		switch val.Kind() {
		case wrangle.KindInt:
			o[names[j]] = val.IntVal()
		case wrangle.KindFloat:
			o[names[j]] = val.FloatVal()
		case wrangle.KindBool:
			o[names[j]] = val.BoolVal()
		default:
			o[names[j]] = val.String()
		}
	}
	return o
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": msg})
}

// viewFor resolves the request's view: the latest committed version, or
// the pinned one named by ?version=N. It writes the HTTP error itself and
// reports ok=false when there is nothing to serve. A version already
// compacted out of the retention window is 410 Gone (like /watch resume),
// a version never published is 404.
func viewFor(s *wrangle.Session, w http.ResponseWriter, r *http.Request) (*wrangle.View, bool) {
	v, err := s.View()
	if err != nil {
		jsonError(w, http.StatusServiceUnavailable, err.Error())
		return nil, false
	}
	if q := r.URL.Query().Get("version"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad version: "+q)
			return nil, false
		}
		if v, err = v.At(n); err != nil {
			status := http.StatusNotFound
			if errors.Is(err, wrangle.ErrCompacted) {
				status = http.StatusGone
			}
			jsonError(w, status, err.Error())
			return nil, false
		}
	}
	return v, true
}

// writeJSON renders a response stamped with the view's version header.
func writeJSON(w http.ResponseWriter, v *wrangle.View, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Wrangle-Version", strconv.FormatUint(v.Version(), 10))
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(body); err != nil {
		fmt.Fprintln(os.Stderr, "wrangle: write response:", err)
	}
}

// stagesMS renders a stage-timing map in milliseconds for readability
// (raw time.Duration marshals as opaque nanoseconds).
func stagesMS(stages map[string]time.Duration) map[string]float64 {
	if len(stages) == 0 {
		return nil
	}
	out := make(map[string]float64, len(stages))
	for k, d := range stages {
		out[k] = float64(d.Microseconds()) / 1000
	}
	return out
}
