package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/serve"
	"repro/internal/stepsim"
	"repro/internal/workload"
)

// sweepd-durable: serve.New with a fresh journal directory, one in-process
// worker and two engine goroutines per sweep, behind an in-process
// httptest server. One client runs a closed loop over one connection: it
// submits a new seeded 8×8 slotted three-point job, streams its SSE
// events until the done frame, fetches the job document, then resubmits
// one earlier completed spec, which the result cache answers.
const (
	sweepdN          = 8
	sweepdSimWorkers = 2
	// A setup_s sample averages sweepdSetupBatch constructions; a run takes
	// sweepdSetupSamples samples before its jobs and as many after.
	sweepdSetupBatch   = 10
	sweepdSetupSamples = 3
	sweepdHorizon      = 400
	sweepdReplicas     = 2
	// sweepdDigestJobs is how many jobs every run completes, however short
	// its budget, and what the determinism digest covers.
	sweepdDigestJobs = 16
)

// sweepdMinJobs leaves ten samples beyond each latency's p90.
var sweepdMinJobs = minSamples(90, 10)

// sweepdJobs is how many jobs a run submits: sweepdMinJobs, or as many as
// the budget holds at about 0.3 s a job if that is more. The count is
// fixed rather than timed because submit latency grows with the journal.
func sweepdJobs(budget time.Duration) int {
	return max(sweepdMinJobs, int(budget/(300*time.Millisecond)))
}

var sweepdLoads = []float64{0.3, 0.6, 0.8}

// sweepdSpec is job k's scenario: a new seed per job, so every submission
// misses the cache, and warm-start on every other job, so checkpoints are
// written.
func sweepdSpec(seed uint64, k int) workload.Scenario {
	return workload.Scenario{
		Name:        fmt.Sprintf("perfbench-%d", k),
		Topology:    workload.TopologySpec{Kind: "array", N: sweepdN},
		Pattern:     workload.PatternSpec{Kind: "uniform"},
		Loads:       sweepdLoads,
		Horizon:     sweepdHorizon,
		Warmup:      sweepdHorizon / 4,
		Replicas:    sweepdReplicas,
		Seed:        inputSeed(seed, k),
		WarmStart:   k%2 == 1,
		RewarmSlots: sweepdHorizon / 8,
	}
}

// frame is one SSE event and when the client received it.
type frame struct {
	typ  string
	data []byte
	at   time.Time
}

// job is one completed cache-miss round trip.
type job struct {
	k      int
	traced bool
	sent   time.Time // POST written
	acked  time.Time // 202 decoded
	frames []frame
	doc    []byte // the result document, as GET returned it
}

type sweepdClient struct {
	http *http.Client
	base string
}

func runSweepdDurable(ctx context.Context, b *bench) error {
	tmpRoot := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	// A set-up sample averages a batch of throwaway servers, each on a
	// fresh journal directory and closed untimed.
	setup := func() (time.Duration, error) {
		env, d, err := startServer(tmpRoot)
		if err == nil {
			env.close()
		}
		return d, err
	}
	// An untimed first construction keeps the process's cold start out of
	// the samples.
	if _, err := setup(); err != nil {
		return err
	}
	if err := sampleSetups(b, setup); err != nil {
		return err
	}
	env, _, err := startServer(tmpRoot)
	if err != nil {
		return err
	}
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	c := &sweepdClient{http: &http.Client{Transport: transport}, base: env.ts.URL}
	err = c.loop(ctx, b)
	transport.CloseIdleConnections()
	env.close()
	if err != nil {
		return err
	}
	// More samples once the loop's server is closed and the process idle,
	// so the median does not hinge on the machine's state at start-up.
	return sampleSetups(b, setup)
}

func sampleSetups(b *bench, setup func() (time.Duration, error)) error {
	for range sweepdSetupSamples {
		if err := b.sampleSetup(sweepdSetupBatch, setup); err != nil {
			return err
		}
	}
	return nil
}

// server is one sweep service behind an in-process HTTP server.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
	dir string
}

// startServer builds a durable server with one in-process worker on a
// fresh journal directory under root, and returns how long serve.New and
// the HTTP listener took.
func startServer(root string) (server, time.Duration, error) {
	dir, err := os.MkdirTemp(root, "sweepd-")
	if err != nil {
		return server{}, 0, err
	}
	t0 := time.Now()
	srv, err := serve.New(serve.Config{JournalDir: dir, Workers: 1, SimWorkers: sweepdSimWorkers})
	if err != nil {
		os.RemoveAll(dir)
		return server{}, 0, err
	}
	ts := httptest.NewServer(srv)
	return server{srv, ts, dir}, time.Since(t0), nil
}

func (s server) close() {
	s.ts.Close()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

func (c *sweepdClient) loop(ctx context.Context, b *bench) error {
	var (
		submitMs, doneMs, hitMs []float64
		tracedDone, plainDone   []float64
		firstPt, gaps, doneGaps []float64
		jobs                    []job
		replicas                []float64
		packets                 float64
		busy                    time.Duration
		dg                      = newDigest()
	)
	for k := range sweepdJobs(b.budget) {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		var tr *tracer
		if b.traced() && (k/2)%2 == 1 {
			// Half the jobs are traced and the other half measure tracing's
			// cost; pairing them keeps warm and cold jobs on both sides.
			tr = b.tr
		}
		j, ok := c.miss(ctx, b, tr, k)
		if ok {
			jobs = append(jobs, j)
			done := j.frames[len(j.frames)-1].at
			submitMs = append(submitMs, millis(j.acked.Sub(j.sent)))
			doneMs = append(doneMs, millis(done.Sub(j.sent)))
			if j.traced {
				tracedDone = append(tracedDone, millis(done.Sub(j.sent)))
			} else {
				plainDone = append(plainDone, millis(done.Sub(j.sent)))
			}
			prev := j.acked
			for i, f := range j.frames {
				switch {
				case i == 0:
					firstPt = append(firstPt, millis(f.at.Sub(prev)))
				case f.typ == "done":
					doneGaps = append(doneGaps, millis(f.at.Sub(prev)))
				default:
					gaps = append(gaps, millis(f.at.Sub(prev)))
				}
				prev = f.at
			}
			busy += done.Sub(j.sent)
			offered, reps := docTotals(j.doc)
			packets += offered
			replicas = append(replicas, float64(reps))
			if k < sweepdDigestJobs {
				dg.bytes(j.doc)
			}
		}
		if len(jobs) > 0 {
			// Resubmit an earlier completed spec: a cache hit whose result
			// must be byte-identical to that job's document.
			prior := jobs[inputSeed(^b.seed, k)%uint64(len(jobs))]
			hit, ok := c.hit(ctx, b, tr, prior)
			if ok {
				hitMs = append(hitMs, hit)
			}
		}
	}
	b.digest = dg.hex()
	b.set("submit_ms_p50", median(submitMs), len(submitMs))
	b.set("submit_ms_p90", percentile(submitMs, 90), len(submitMs))
	b.set("done_ms_p50", median(doneMs), len(doneMs))
	b.set("done_ms_p90", percentile(doneMs, 90), len(doneMs))
	b.set("hit_ms_p50", median(hitMs), len(hitMs))
	b.set("hit_ms_p90", percentile(hitMs, 90), len(hitMs))
	b.set("time_to_ci_s", median(doneMs)/1000, len(doneMs))
	b.set("packets_per_s", packets/busy.Seconds(), len(doneMs))
	b.set("sweep.replicas_used", median(replicas), len(replicas))
	if !b.traced() {
		return nil
	}
	b.set("serve.first_point_ms", median(firstPt), len(firstPt))
	b.set("serve.point_gap_ms", median(gaps), len(gaps))
	b.set("serve.done_gap_ms", median(doneGaps), len(doneGaps))
	b.set("trace.overhead_ratio", median(tracedDone)/median(plainDone), len(tracedDone))

	hid := b.tr.begin(spanRequest+".GET /healthz", "healthz", 0)
	t0 := time.Now()
	status, _, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	healthz := time.Since(t0)
	b.tr.end(hid)
	b.tally.check(err == nil && status == http.StatusOK, "GET /healthz: status %d, %v", status, err)
	b.set("serve.healthz_ms", millis(healthz), 1)
	return c.replay(ctx, b, jobs, median(doneMs))
}

// miss submits job k and follows it to its done frame.
func (c *sweepdClient) miss(ctx context.Context, b *bench, tr *tracer, k int) (job, bool) {
	req := fmt.Sprintf("job-%d", k)
	j := job{k: k, traced: tr != nil}
	body, err := json.Marshal(struct {
		Scenario workload.Scenario `json:"scenario"`
		Engine   string            `json:"engine"`
	}{sweepdSpec(b.seed, k), serve.EngineSlotted})
	if err != nil {
		b.tally.check(false, "%s: encoding spec: %v", req, err)
		return j, false
	}
	op := tr.begin(spanOp, req, 0)
	defer tr.end(op)
	j.sent = time.Now()
	id := tr.begin(spanRequest+".POST /v1/sweeps", req, op)
	status, raw, err := c.do(ctx, http.MethodPost, "/v1/sweeps", body)
	j.acked = time.Now()
	tr.end(id)
	var sub serve.SubmitResponse
	if err == nil {
		err = json.Unmarshal(raw, &sub)
	}
	if !b.tally.check(err == nil && status == http.StatusAccepted && !sub.Cached && sub.ID != "",
		"%s: submit: status %d, cached %v, %v", req, status, sub.Cached, err) {
		return j, false
	}

	id = tr.begin(spanRequest+".GET events", req, op)
	j.frames, err = c.events(ctx, sub.ID)
	tr.end(id)
	points := 0
	ok := err == nil && len(j.frames) > 0
	for i, f := range j.frames {
		switch {
		case f.typ == "point" && i == points:
			var pd serve.PointDoc
			ok = ok && json.Unmarshal(f.data, &pd) == nil && pd.Index == i
			points++
		case f.typ == "done" && i == len(j.frames)-1:
		default:
			ok = false // an error frame, a repeated point or a frame after done
		}
	}
	ok = ok && points == len(sweepdLoads) && j.frames[len(j.frames)-1].typ == "done"
	if !b.tally.check(ok, "%s: stream: want each of %d points once then done, got %s (%v)", req, len(sweepdLoads), frameTypes(j.frames), err) {
		return j, false
	}

	id = tr.begin(spanRequest+".GET /v1/sweeps/{id}", req, op)
	status, raw, err = c.do(ctx, http.MethodGet, "/v1/sweeps/"+sub.ID, nil)
	tr.end(id)
	var doc struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err == nil {
		err = json.Unmarshal(raw, &doc)
	}
	var res struct {
		Points []json.RawMessage `json:"points"`
	}
	if err == nil {
		err = json.Unmarshal(doc.Result, &res)
	}
	ok = err == nil && status == http.StatusOK && doc.Status == serve.StatusDone && len(res.Points) == points
	for i := 0; ok && i < points; i++ {
		ok = bytes.Equal(res.Points[i], j.frames[i].data)
	}
	if !b.tally.check(ok, "%s: job document: status %d %q, points must equal the streamed frames (%v)", req, status, doc.Status, err) {
		return j, false
	}
	j.doc = doc.Result
	return j, true
}

// hit resubmits a completed job's spec and checks the cached answer.
func (c *sweepdClient) hit(ctx context.Context, b *bench, tr *tracer, prior job) (float64, bool) {
	req := fmt.Sprintf("hit-job-%d", prior.k)
	body, _ := json.Marshal(struct {
		Scenario workload.Scenario `json:"scenario"`
		Engine   string            `json:"engine"`
	}{sweepdSpec(b.seed, prior.k), serve.EngineSlotted})
	id := tr.begin(spanRequest+".POST /v1/sweeps (hit)", req, 0)
	t0 := time.Now()
	status, raw, err := c.do(ctx, http.MethodPost, "/v1/sweeps", body)
	ms := millis(time.Since(t0))
	tr.end(id)
	var sub serve.SubmitResponse
	if err == nil {
		err = json.Unmarshal(raw, &sub)
	}
	ok := b.tally.check(err == nil && status == http.StatusOK && sub.Cached && bytes.Equal(sub.Result, prior.doc),
		"%s: resubmit: status %d, cached %v, result byte-identical %v (%v)", req, status, sub.Cached, bytes.Equal(sub.Result, prior.doc), err)
	return ms, ok
}

// do sends one request and reads the whole response body.
func (c *sweepdClient) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// events reads a job's SSE stream until the server closes it after the
// terminal frame.
func (c *sweepdClient) events(ctx context.Context, id string) ([]frame, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var frames []frame
	err = readSSE(resp.Body, func(typ string, data []byte) {
		frames = append(frames, frame{typ: typ, data: data, at: time.Now()})
	})
	return frames, err
}

// readSSE parses a text/event-stream, calling onFrame for every event that
// carries an event type or data. Frames with neither, such as the leading
// retry hint, are skipped.
func readSSE(r io.Reader, onFrame func(typ string, data []byte)) error {
	br := bufio.NewReader(r)
	var (
		typ  string
		data []byte
	)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			line = bytes.TrimRight(line, "\r\n")
			field, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.TrimPrefix(value, []byte(" "))
			switch {
			case len(line) == 0:
				if typ != "" || data != nil {
					onFrame(typ, data)
				}
				typ, data = "", nil
			case string(field) == "event":
				typ = string(value)
			case string(field) == "data":
				if data != nil {
					data = append(data, '\n')
				}
				data = append(data, value...)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func frameTypes(frames []frame) string {
	var s []byte
	for i, f := range frames {
		if i > 0 {
			s = append(s, ',')
		}
		s = append(s, f.typ...)
	}
	return "[" + string(s) + "]"
}

// docTotals reads a job's result document for the packets its engines
// were offered in their measured slots — per point, λ × sources × slots ×
// replicas; the document carries no delivered count — and the replicas it
// used.
func docTotals(doc []byte) (packets float64, replicas int) {
	var res struct {
		Points []serve.PointDoc `json:"points"`
	}
	if json.Unmarshal(doc, &res) != nil {
		return 0, 0
	}
	for _, p := range res.Points {
		packets += p.NodeRate * sweepdN * sweepdN * sweepdHorizon * float64(p.Replicas)
		replicas += p.Replicas
	}
	return packets, replicas
}

// replay runs every traced job's points directly through
// stepsim.RunCellAdaptive, outside the server, and requires each point
// document to match the streamed frame byte for byte. The per-job sum is
// the engine time the server's done latency is compared against.
func (c *sweepdClient) replay(ctx context.Context, b *bench, jobs []job, doneP50 float64) error {
	var engineMs, binds, snapBytes, snapEncode, pointS []float64
	for _, j := range jobs {
		if !j.traced {
			continue
		}
		req := fmt.Sprintf("job-%d", j.k)
		sc := sweepdSpec(b.seed, j.k)
		id := b.tr.begin(spanBind, req, 0)
		bound, err := sc.Bind()
		binds = append(binds, b.tr.end(id).Seconds())
		var cfgs []stepsim.Config
		if err == nil {
			cfgs, err = bound.SlottedConfigs()
		}
		if !b.tally.check(err == nil, "%s replay: %v", req, err) {
			continue
		}
		opts := bound.SlottedSweepOpts(sweepdSimWorkers)
		var (
			prev   []*stepsim.Snapshot
			engine time.Duration
		)
		for i, cfg := range cfgs {
			pid := b.tr.begin(spanReplay+".stepsim.RunCellAdaptive", req, 0)
			rs, snaps, err := stepsim.RunCellAdaptive(ctx, cfg, opts, prev, sc.WarmStart)
			d := b.tr.end(pid)
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			engine += d
			pointS = append(pointS, d.Seconds())
			var raw []byte
			if err == nil {
				raw, err = json.Marshal(serve.PointDoc{
					Index: i, Load: bound.Points[i].Load, NodeRate: bound.Points[i].NodeRate,
					MeanDelay: rs.MeanDelay, DelayCI: rs.DelayCI, MeanN: rs.MeanN, Replicas: rs.ReplicasUsed,
				})
			}
			b.tally.check(err == nil && bytes.Equal(raw, j.frames[i].data),
				"%s replay point %d: %s differs from the streamed %s (%v)", req, i, raw, j.frames[i].data, err)
			if sc.WarmStart {
				for _, sn := range snaps {
					eid := b.tr.begin(spanEncode, req, pid)
					t0 := time.Now()
					data, err := sn.MarshalBinary()
					enc := time.Since(t0)
					b.tr.end(eid)
					if b.tally.check(err == nil, "%s: encoding snapshot: %v", req, err) {
						snapBytes = append(snapBytes, float64(len(data)))
						snapEncode = append(snapEncode, enc.Seconds())
					}
				}
				prev = snaps
			}
		}
		engineMs = append(engineMs, millis(engine))
	}
	b.set("workload.bind_s", median(binds), len(binds))
	b.set("sweep.point_s", median(pointS), len(pointS))
	b.set("sweep.snapshot_bytes", median(snapBytes), len(snapBytes))
	b.set("sweep.snapshot_encode_s", median(snapEncode), len(snapEncode))
	b.set("serve.engine_ms", median(engineMs), len(engineMs))
	b.set("serve.overhead_ms", doneP50-median(engineMs), len(engineMs))
	return nil
}
