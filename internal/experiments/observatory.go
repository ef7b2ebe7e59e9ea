package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"psk/internal/dataset"
	"psk/internal/obs"
	"psk/internal/search"
	"psk/internal/table"
)

// E20: the observatory study — what live visibility costs and what a
// scraper sees. The same Adult search runs three ways (bare, recorder
// attached, full observatory: recorder + sampler + HTTP server),
// pinning that the found node never changes and measuring each layer's
// wall-time overhead. A fixed live window then loops the search
// back-to-back under a running sampler and one real HTTP scrape of
// every endpoint, checking the /progress time series is monotone in
// cumulative nodes and the frozen final /metrics matches the report
// byte for byte. A cadence sweep over the same window shows requested
// vs achieved sampling intervals — on a loaded single-CPU box the
// scheduler floors the achievable cadence, and the sweep makes that
// floor visible instead of pretending the requested rate was met.

// liveWindow is how long the looped-search phases keep the search hot.
const liveWindow = 250 * time.Millisecond

// ObservatoryMode is one instrumentation level's measured run.
type ObservatoryMode struct {
	// Mode names the level: "off", "recorder", "observatory".
	Mode string
	// Node is the minimal node found (must agree across modes).
	Node string
	// NodesEvaluated is the search's node count (must agree too).
	NodesEvaluated int
	// WallNs is the fastest of the repetitions — the low-noise estimate
	// a micro-scale overhead comparison wants.
	WallNs int64
	// OverheadPct is WallNs relative to the "off" mode (0 for "off").
	OverheadPct float64
}

// ObservatoryLive is the looped-search live-scrape phase.
type ObservatoryLive struct {
	// WindowNs is the wall time the loop ran; Searches how many full
	// searches completed inside it.
	WindowNs int64
	Searches int
	// Samples is the time-series length the sampler accumulated.
	Samples int
	// Monotonic reports that cumulative node counts never decreased
	// across consecutive samples — the live-snapshot guarantee.
	Monotonic bool
	// FinalNodes is the last sample's cumulative node count.
	FinalNodes int64
	// ScrapeState is the /healthz state observed mid-window and
	// ScrapeSamples the /progress sample count at scrape time;
	// ScrapeFinalOK reports that the post-Finalize /metrics scrape
	// matched the frozen report byte for byte.
	ScrapeState   string
	ScrapeSamples int
	ScrapeFinalOK bool
}

// ObservatoryRate is one sampling-interval setting's yield over the
// same looped window.
type ObservatoryRate struct {
	// Interval is the requested sampler cadence.
	Interval time.Duration
	// Taken counts samples ever taken; Retained is the ring's window
	// (Taken > Retained shows the wraparound working).
	Taken, Retained int
	// AchievedNs is the mean observed spacing (window / taken) — the
	// cadence the scheduler actually delivered.
	AchievedNs int64
	// FinalNodes is the cumulative node count in the last retained
	// sample.
	FinalNodes int64
}

// ObservatoryResult is the E20 study.
type ObservatoryResult struct {
	Size, K, P int
	// Reps is how many times each mode ran (fastest wall time kept).
	Reps  int
	Modes []ObservatoryMode
	Live  ObservatoryLive
	Rates []ObservatoryRate
	// Identical reports that every mode found the same node with the
	// same node count — attaching the observatory changed no result.
	Identical bool
}

// RunObservatory measures the observability layers' overhead on the
// Adult Samarati search, exercises the live endpoints over real HTTP,
// and sweeps the sampler cadence.
func RunObservatory(n, k, p int, source *table.Table, seed int64) (ObservatoryResult, error) {
	src := source
	if src == nil {
		var err error
		src, err = dataset.Generate(30000, 2006)
		if err != nil {
			return ObservatoryResult{}, err
		}
	}
	im, err := src.Sample(n, seed)
	if err != nil {
		return ObservatoryResult{}, err
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		return ObservatoryResult{}, err
	}
	base := search.Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             k,
		P:             p,
		MaxSuppress:   n / 100,
		UseConditions: true,
	}
	prefixes := dataset.LatticePrefixes()
	run := func(cfg search.Config) (string, int, error) {
		r, err := search.Run(im, cfg, search.StrategySamarati)
		if err != nil {
			return "", 0, err
		}
		node := "-"
		if r.Found {
			node = r.Node.Label(prefixes)
		}
		return node, r.Stats.NodesEvaluated, nil
	}

	const reps = 5
	res := ObservatoryResult{Size: n, K: k, P: p, Reps: reps}

	// Overhead modes: one search per rep, fastest wall kept. The
	// observatory mode attaches the full stack (recorder, 1ms sampler,
	// live HTTP server) but nothing scrapes it — the cost of having the
	// endpoints up, separated from the cost of using them.
	measure := func(mode string, attach func(*search.Config) func()) (ObservatoryMode, error) {
		m := ObservatoryMode{Mode: mode}
		for i := 0; i < reps; i++ {
			cfg := base
			detach := attach(&cfg)
			t0 := time.Now()
			node, nodes, err := run(cfg)
			wall := time.Since(t0).Nanoseconds()
			if detach != nil {
				detach()
			}
			if err != nil {
				return m, err
			}
			m.Node, m.NodesEvaluated = node, nodes
			if m.WallNs == 0 || wall < m.WallNs {
				m.WallNs = wall
			}
		}
		return m, nil
	}
	off, err := measure("off", func(*search.Config) func() { return nil })
	if err != nil {
		return ObservatoryResult{}, err
	}
	recm, err := measure("recorder", func(cfg *search.Config) func() {
		cfg.Recorder = obs.NewRecorder()
		return nil
	})
	if err != nil {
		return ObservatoryResult{}, err
	}
	var srvErr error
	obsm, err := measure("observatory", func(cfg *search.Config) func() {
		rec := obs.NewRecorder()
		cfg.Recorder = rec
		sampler := obs.NewSampler(rec, time.Millisecond, 512)
		sampler.Start()
		srv, err := obs.NewServer("127.0.0.1:0", rec, sampler)
		if err != nil {
			srvErr = err
			sampler.Stop()
			return nil
		}
		return func() { sampler.Stop(); srv.Close() }
	})
	if err == nil {
		err = srvErr
	}
	if err != nil {
		return ObservatoryResult{}, err
	}
	res.Modes = []ObservatoryMode{off, recm, obsm}
	for i := range res.Modes {
		m := &res.Modes[i]
		if off.WallNs > 0 && m.Mode != "off" {
			m.OverheadPct = 100 * (float64(m.WallNs)/float64(off.WallNs) - 1)
		}
	}
	res.Identical = off.Node == recm.Node && off.Node == obsm.Node &&
		off.NodesEvaluated == recm.NodesEvaluated &&
		off.NodesEvaluated == obsm.NodesEvaluated

	// Live window: loop the search under one recorder + 10ms sampler +
	// server for liveWindow, scraping the endpoints mid-flight.
	live, err := runLiveWindow(base, run)
	if err != nil {
		return ObservatoryResult{}, err
	}
	res.Live = live

	// Cadence sweep: same looped window per interval, small ring so the
	// fastest cadence demonstrates wraparound (taken > retained).
	for _, iv := range []time.Duration{
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	} {
		rec := obs.NewRecorder()
		cfg := base
		cfg.Recorder = rec
		sampler := obs.NewSampler(rec, iv, 8)
		sampler.Start()
		t0 := time.Now()
		for time.Since(t0) < liveWindow {
			if _, _, err := run(cfg); err != nil {
				sampler.Stop()
				return ObservatoryResult{}, err
			}
		}
		window := time.Since(t0).Nanoseconds()
		sampler.Stop()
		samples := sampler.Samples()
		rate := ObservatoryRate{
			Interval: iv,
			Taken:    sampler.Total(),
			Retained: len(samples),
		}
		if rate.Taken > 0 {
			rate.AchievedNs = window / int64(rate.Taken)
		}
		if len(samples) > 0 {
			rate.FinalNodes = samples[len(samples)-1].Nodes
		}
		res.Rates = append(res.Rates, rate)
	}
	return res, nil
}

// runLiveWindow loops the search under the full observatory for
// liveWindow, scrapes /healthz and /progress over real HTTP mid-window,
// and after freezing the final report verifies the /metrics scrape
// matches it byte for byte.
func runLiveWindow(base search.Config, run func(search.Config) (string, int, error)) (ObservatoryLive, error) {
	var live ObservatoryLive
	rec := obs.NewRecorder()
	cfg := base
	cfg.Recorder = rec
	sampler := obs.NewSampler(rec, 10*time.Millisecond, 512)
	sampler.Start()
	defer sampler.Stop()
	srv, err := obs.NewServer("127.0.0.1:0", rec, sampler)
	if err != nil {
		return live, err
	}
	defer srv.Close()

	get := func(path string) ([]byte, error) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("observatory: GET %s: %s", path, resp.Status)
		}
		return io.ReadAll(resp.Body)
	}

	t0 := time.Now()
	for time.Since(t0) < liveWindow {
		if _, _, err := run(cfg); err != nil {
			return live, err
		}
		live.Searches++
		if live.ScrapeState == "" {
			// One honest mid-window scrape: the server must answer while
			// the loop is still hot.
			var health struct {
				State string `json:"state"`
			}
			b, err := get("/healthz")
			if err != nil {
				return live, err
			}
			if err := json.Unmarshal(b, &health); err != nil {
				return live, err
			}
			live.ScrapeState = health.State
			var prog struct {
				SamplesTaken int `json:"samples_taken"`
			}
			if b, err = get("/progress"); err != nil {
				return live, err
			}
			if err := json.Unmarshal(b, &prog); err != nil {
				return live, err
			}
			live.ScrapeSamples = prog.SamplesTaken
		}
	}
	live.WindowNs = time.Since(t0).Nanoseconds()

	sampler.Poll() // one final sample at the completed totals
	samples := sampler.Samples()
	live.Samples = len(samples)
	live.Monotonic = true
	var prev int64 = -1
	for _, s := range samples {
		if s.Nodes < prev {
			live.Monotonic = false
		}
		prev = s.Nodes
	}
	if len(samples) > 0 {
		live.FinalNodes = samples[len(samples)-1].Nodes
	}

	// Freeze the final report and confirm a scrape returns its exact
	// bytes (the guarantee the CLI's -obs-linger exposes to pollers).
	rep := rec.Snapshot()
	srv.Finalize(rep)
	want, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return live, err
	}
	got, err := get("/metrics")
	if err != nil {
		return live, err
	}
	// The server's encoder appends a trailing newline MarshalIndent
	// doesn't; normalize before comparing.
	live.ScrapeFinalOK = string(got) == string(want)+"\n"
	return live, nil
}

// Format renders the overhead table, the live-window verdicts and the
// cadence sweep.
func (r ObservatoryResult) Format() string {
	rows := make([][]string, len(r.Modes))
	for i, m := range r.Modes {
		overhead := "-"
		if m.Mode != "off" {
			overhead = fmt.Sprintf("%+.1f%%", m.OverheadPct)
		}
		rows[i] = []string{
			m.Mode, m.Node, fmt.Sprint(m.NodesEvaluated),
			fmt.Sprintf("%.2f", float64(m.WallNs)/1e6), overhead,
		}
	}
	out := fmt.Sprintf("Live observatory on Adult n=%d (%d-sensitive %d-anonymity, best of %d, E20):\n%s",
		r.Size, r.P, r.K, r.Reps,
		renderTable([]string{"Mode", "node", "evaluated", "wall ms", "overhead"}, rows))
	verdict := "IDENTICAL"
	if !r.Identical {
		verdict = "DIVERGED"
	}
	out += fmt.Sprintf("results across modes: %s\n", verdict)

	mono := "MONOTONE"
	if !r.Live.Monotonic {
		mono = "NON-MONOTONE"
	}
	finalScrape := "MATCH"
	if !r.Live.ScrapeFinalOK {
		finalScrape = "MISMATCH"
	}
	out += fmt.Sprintf("\nLive window (%.0fms, %d searches, %d samples, %s, final nodes %d):\n",
		float64(r.Live.WindowNs)/1e6, r.Live.Searches, r.Live.Samples, mono, r.Live.FinalNodes)
	out += fmt.Sprintf("  mid-window scrape: /healthz state=%q, /progress samples=%d\n",
		r.Live.ScrapeState, r.Live.ScrapeSamples)
	out += fmt.Sprintf("  final /metrics vs frozen report: %s\n", finalScrape)

	rates := make([][]string, len(r.Rates))
	for i, rt := range r.Rates {
		rates[i] = []string{
			rt.Interval.String(), fmt.Sprint(rt.Taken), fmt.Sprint(rt.Retained),
			fmt.Sprintf("%.1fms", float64(rt.AchievedNs)/1e6),
			fmt.Sprint(rt.FinalNodes),
		}
	}
	out += "\nSampler cadence sweep (ring capacity 8, same window):\n" +
		renderTable([]string{"Interval", "taken", "retained", "achieved", "final nodes"}, rates)
	return out
}
