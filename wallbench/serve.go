package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/passes"
	"repro/internal/serve"
	"repro/internal/workload"
)

// defaultRepeatEvery makes every 4th stream request an exact repeat (a
// 25% share); the rest are single-literal edits. The share is an
// assumption, not a measurement of real traffic; README.md reports how
// the req_* metrics move at other shares (--repeat-every).
const defaultRepeatEvery = 4

// clients is how many closed-loop clients send requests: half the
// cores, at least one. The server's lanes, its GC and the HTTP stack use
// the rest. With one client per core on a 2-core host the run measured
// the scheduler: spreads across seeds of 0.17 to 0.26 against 0.04 to
// 0.12 with one client.
var clients = max(1, nproc/2)

// repeatWindow is how far back a repeat reaches: it re-sends the request
// made lo to hi requests earlier. lo is at least twice the client count,
// so between a request and its repeat the other clients must finish at
// least one compile of their own. By then the original has reached the
// server and is complete or in flight, and either way the cache answers
// the repeat.
func repeatWindow() (lo, hi int) {
	lo = max(8, 2*clients)
	return lo, 4 * lo
}

// cacheCapacity bounds the service cache at fill + hi + clients entries:
// the cache fill, every request a repeat can reach back to, and the
// requests still in flight, so no repeat finds its entry evicted. This
// departs from the server's default of cache.DefaultCapacity (1024)
// entries. A run adds about 300 entries, so a 1024-entry cache would
// never reach its steady state within a run, and the heap would grow
// with the number of requests a run got through. Filling 1024 entries
// in set-up instead would cost over 60 s per set-up.
func cacheCapacity(fill int) int {
	_, hi := repeatWindow()
	return fill + hi + clients
}

// service is an in-process compile server behind a loopback listener.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	log    *bytes.Buffer // access log; the server serializes writes
}

func startService(fill int, accessLog bool) (*service, error) {
	cfg := serve.Config{
		Lanes:         nproc,
		UnitJobs:      1,
		CacheCapacity: cacheCapacity(fill),
		BaseFiles:     workload.Files(),
	}
	sv := &service{served: make(chan error, 1)}
	if accessLog {
		sv.log = &bytes.Buffer{}
		cfg.AccessLog = sv.log
	}
	sv.srv = serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv.url = "http://" + ln.Addr().String() + "/compile"
	sv.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
	sv.hs = &http.Server{Handler: sv.srv.Mux()}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	return sv, nil
}

// close shuts the listener down and waits for the serving goroutine.
func (sv *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sv.client.CloseIdleConnections()
	err := sv.hs.Shutdown(ctx)
	if serr := <-sv.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// streamReq is one request of the seeded stream.
type streamReq struct {
	base   int  // index of the base unit it repeats or edits
	repeat bool // an exact repeat of a cached unit (expected hit)
	req    serve.CompileRequest
}

// stream is the seeded request stream. Edits visit the base units in
// seeded permutations, one full pass before the next, so every seed
// serves the same mix of unit sizes and only the order and the edited
// literals change. It hands requests out in a fixed order, so the stream
// depends only on the seed, whatever the clients' timing.
type stream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	every   int // every every-th request is a repeat
	lo, hi  int // repeat distance, from repeatWindow
	base    []unit
	lits    [][]literal
	bumps   map[[2]int]int // edits so far per (unit, literal)
	repeats []int          // the current pass over the base units for early repeats
	edits   []int          // and for edits
	out     []streamReq    // requests handed out
}

func newStream(base []unit, seed int64, every int) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), every: every, base: base, bumps: map[[2]int]int{}}
	s.lo, s.hi = repeatWindow()
	for _, u := range base {
		s.lits = append(s.lits, bodyLiterals(u.Source))
	}
	return s
}

func baseRequest(u unit) serve.CompileRequest {
	return serve.CompileRequest{Name: u.Name + ".c", Source: u.Source}
}

// next returns the stream's next request.
func (s *stream) next() streamReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	var r streamReq
	switch back := s.lo + s.rng.Intn(s.hi-s.lo+1); {
	case (len(s.out)+1)%s.every != 0:
		r = s.edit(s.draw(&s.edits))
	case back <= len(s.out):
		r = s.out[len(s.out)-back]
		r.repeat = true
	default: // too early in the stream: repeat a unit of the cache fill
		b := s.draw(&s.repeats)
		r = streamReq{base: b, repeat: true, req: baseRequest(s.base[b])}
	}
	s.out = append(s.out, r)
	return r
}

// prefix returns the first n requests handed out (fewer if the stream
// has not got that far).
func (s *stream) prefix(n int) []streamReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]streamReq(nil), s.out[:min(n, len(s.out))]...)
}

// draw takes the next base unit from a pass, starting a fresh seeded
// permutation when the pass is used up.
func (s *stream) draw(pass *[]int) int {
	if len(*pass) == 0 {
		*pass = s.rng.Perm(len(s.base))
	}
	b := (*pass)[0]
	*pass = (*pass)[1:]
	return b
}

// edit raises one random body literal of base unit b by one more than
// the last edit of that literal did, so every edit is a new source and
// the changes stay small.
func (s *stream) edit(b int) streamReq {
	j := s.rng.Intn(len(s.lits[b]))
	s.bumps[[2]int{b, j}]++
	u, l := s.base[b], s.lits[b][j]
	old, _ := strconv.Atoi(u.Source[l.start:l.end])
	src := u.Source[:l.start] + strconv.Itoa(old+s.bumps[[2]int{b, j}]) + u.Source[l.end:]
	return streamReq{base: b, req: serve.CompileRequest{Name: u.Name + ".c", Source: src}}
}

// reply is what the benchmark keeps of one response.
type reply struct {
	lat      time.Duration
	hit      bool
	key      string
	digest   string // SHA-256 of the compacted artifacts
	size     int
	funcKeys []passes.FuncKey
	ir       string
	err      error
}

// artifactsDigest compacts the artifacts JSON (the HTTP layer indents
// it) and hashes it, so HTTP and in-process answers compare equal.
func artifactsDigest(raw []byte) (string, int, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Len(), nil
}

// decodeReply fills a reply from a CompileResponse; keep asks for the
// artifacts' IR and function keys as well.
func decodeReply(resp serve.CompileResponse, keep bool) reply {
	rp := reply{hit: resp.CacheHit, key: resp.Key}
	if resp.Error != "" {
		rp.err = fmt.Errorf("%s: compile error: %s", resp.Name, resp.Error)
		return rp
	}
	rp.digest, rp.size, rp.err = artifactsDigest(resp.Artifacts)
	if rp.err == nil && keep {
		var art struct {
			IR       string           `json:"ir"`
			FuncKeys []passes.FuncKey `json:"funcKeys"`
		}
		rp.err = json.Unmarshal(resp.Artifacts, &art)
		rp.ir, rp.funcKeys = art.IR, art.FuncKeys
	}
	return rp
}

// post sends one request over HTTP; anything but 200 is an error.
func (sv *service) post(req serve.CompileRequest, keep bool) reply {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{err: err}
	}
	t0 := time.Now()
	resp, err := sv.client.Post(sv.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(t0)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return reply{err: err, lat: lat}
	}
	if resp.StatusCode != http.StatusOK {
		return reply{err: fmt.Errorf("%s: HTTP %d: %s", req.Name, resp.StatusCode, bytes.TrimSpace(raw)), lat: lat}
	}
	var cr serve.CompileResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return reply{err: err, lat: lat}
	}
	rp := decodeReply(cr, keep)
	rp.lat = lat
	return rp
}

// closedLoop runs `clients` clients, each sending its next request only
// after the previous reply, until reqs reports false. It returns the
// requests and their replies in completion order, and the elapsed wall
// time.
func closedLoop(reqs func() (streamReq, bool), send func(streamReq) reply) ([]streamReq, []reply, time.Duration) {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		sent    []streamReq
		replies []reply
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sr, ok := reqs()
				if !ok {
					return
				}
				rp := send(sr)
				mu.Lock()
				sent = append(sent, sr)
				replies = append(replies, rp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return sent, replies, time.Since(start)
}

// fixed hands get(0), …, get(n-1) out to closedLoop's clients in order.
func fixed(n int, get func(int) streamReq) func() (streamReq, bool) {
	var mu sync.Mutex
	next := 0
	return func() (streamReq, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == n {
			return streamReq{}, false
		}
		next++
		return get(next - 1), true
	}
}

// serveInputs is the set-up product of serve-replay.
type serveInputs struct {
	base    []unit
	refs    refSet
	svc     *service
	fill    []reply // the cache fill's replies, one per base unit
	streamS *stream
}

// setupServe builds the base corpus (the seed's SPEC units plus the
// kernels), starts a server and fills its cache with every base unit.
func setupServe(e *env, accessLog bool) (*serveInputs, error) {
	in := &serveInputs{base: append(specCorpus(corpusSeed(e.seed)), kernelCorpus()...)}
	var err error
	if in.refs, err = loadRefs(e.refDirs...); err != nil {
		return nil, err
	}
	if in.svc, err = startService(len(in.base), accessLog); err != nil {
		return nil, err
	}
	in.streamS = newStream(in.base, e.seed, e.repeatEvery)
	in.fill = fillCache(in.base, func(u unit) reply { return in.svc.post(baseRequest(u), true) })
	return in, nil
}

// fillCache sends every base unit once from the closed loop.
func fillCache(base []unit, send func(unit) reply) []reply {
	out := make([]reply, len(base))
	closedLoop(fixed(len(base), func(i int) streamReq { return streamReq{base: i} }), func(sr streamReq) reply {
		rp := send(base[sr.base])
		out[sr.base] = rp
		return rp
	})
	return out
}

// repeatedServeSetup runs setupServe reps times, closing all but the
// last server.
func repeatedServeSetup(e *env, accessLog bool, reps int) (*serveInputs, float64, error) {
	var prev *serveInputs
	in, s, err := repeatSetup(reps, func() (*serveInputs, error) {
		if prev != nil {
			if err := prev.svc.close(); err != nil {
				return nil, err
			}
		}
		var err error
		prev, err = setupServe(e, accessLog)
		return prev, err
	})
	if err != nil && prev != nil {
		prev.svc.close()
	}
	return in, s, err
}

// integrity checks each reply: no error, hit exactly when the request
// repeats a cached unit, and one artifact digest per key. It returns
// the key → digest set.
func integrity(t *tally, fill []reply, sent []streamReq, replies []reply) map[string]string {
	digests := map[string]string{}
	note := func(rp reply) error {
		if rp.err != nil {
			return rp.err
		}
		if d, ok := digests[rp.key]; ok && d != rp.digest {
			return fmt.Errorf("key %s: two different artifacts", rp.key[:12])
		}
		digests[rp.key] = rp.digest
		return nil
	}
	for _, rp := range fill {
		t.check(note(rp))
	}
	hits, repeats := 0, 0
	for i, rp := range replies {
		err := note(rp)
		if err == nil && rp.hit != sent[i].repeat {
			err = fmt.Errorf("%s: cache hit=%v, expected %v", sent[i].req.Name, rp.hit, sent[i].repeat)
		}
		t.check(err)
		if rp.hit {
			hits++
		}
		if sent[i].repeat {
			repeats++
		}
	}
	var err error
	if hits != repeats {
		err = fmt.Errorf("hit ratio %d/%d differs from the stream's repeat share %d/%d", hits, len(replies), repeats, len(replies))
	}
	t.check(err)
	return digests
}

// replayDigests serves the fill and the given stream requests again on
// a fresh server, in-process, and returns the key → digest set.
func replayDigests(base []unit, sent []streamReq) (map[string]string, error) {
	srv := serve.New(serve.Config{Lanes: nproc, UnitJobs: 1, CacheCapacity: cacheCapacity(len(base)), BaseFiles: workload.Files()})
	reqs := make([]serve.CompileRequest, 0, len(base)+len(sent))
	for _, u := range base {
		reqs = append(reqs, baseRequest(u))
	}
	for _, sr := range sent {
		reqs = append(reqs, sr.req)
	}
	_, replies, _ := closedLoop(fixed(len(reqs), func(i int) streamReq { return streamReq{req: reqs[i]} }), func(sr streamReq) reply {
		resp, err := srv.Compile(sr.req)
		if err != nil {
			return reply{err: err}
		}
		return decodeReply(resp, false)
	})
	out := map[string]string{}
	for _, rp := range replies {
		if rp.err != nil {
			return nil, rp.err
		}
		out[rp.key] = rp.digest
	}
	return out, nil
}

// verifyBase checks the served base units from the closed loop: each
// served IR must equal driver.Compile's, and both configurations'
// builds must run to the csem reference. It returns the pairs for the
// sim metrics, in base order; a failed unit's pair is zero.
func verifyBase(t *tally, in *serveInputs) []pair {
	pairs := make([]pair, len(in.base))
	errs := make([]error, len(in.base))
	closedLoop(fixed(len(in.base), func(i int) streamReq { return streamReq{base: i} }), func(sr streamReq) reply {
		pairs[sr.base], errs[sr.base] = verifyUnit(in, sr.base)
		return reply{}
	})
	for _, err := range errs {
		t.check(err)
	}
	return pairs
}

func verifyUnit(in *serveInputs, i int) (pair, error) {
	u := in.base[i]
	var p pair
	o, err := compileUnit(u, true, 1)
	if err != nil {
		return p, err
	}
	if in.fill[i].err == nil && o.Module.String() != in.fill[i].ir {
		return p, fmt.Errorf("%s: served IR differs from driver.Compile", u.Name)
	}
	if p.ooe.result, p.ooe.cycles, err = o.Run(""); err != nil {
		return pair{}, err
	}
	b, err := compileUnit(u, false, 1)
	if err != nil {
		return pair{}, err
	}
	if p.base.result, p.base.cycles, err = b.Run(""); err != nil {
		return pair{}, err
	}
	if err := checkPair(in.refs, u, p); err != nil {
		return pair{}, err
	}
	return p, nil
}

// measureServe replays the seeded stream through POST /compile from a
// closed loop of clients for the measured interval.
func measureServe(e *env) (*report, error) {
	in, setupS, err := repeatedServeSetup(e, false, serveSetupReps)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.set("setup_s", setupS)
	var t tally
	mw := startMem()
	start := time.Now()
	sent, replies, elapsed := closedLoop(func() (streamReq, bool) {
		if time.Since(start).Seconds() >= e.seconds {
			return streamReq{}, false
		}
		return in.streamS.next(), true
	}, func(sr streamReq) reply { return in.svc.post(sr.req, false) })
	md := mw.stop()
	if err := in.svc.close(); err != nil {
		t.fail(err)
	}
	var reqLat, missLat []float64
	for i, rp := range replies {
		reqLat = append(reqLat, ms(rp.lat))
		if !sent[i].repeat {
			missLat = append(missLat, ms(rp.lat))
		}
	}
	memoryMetrics(r, md, len(missLat))
	latencies(r, "units_per_s", "unit_ms", missLat, elapsed)
	latencies(r, "req_per_s", "req_ms", reqLat, elapsed)

	got := integrity(&t, in.fill, sent, replies)
	again, err := replayDigests(in.base, in.streamS.prefix(replayRequests))
	for _, k := range sortedKeys(again) {
		if err == nil && again[k] != got[k] {
			err = fmt.Errorf("key %s: artifact digest differs between two runs of one seed", k[:12])
		}
	}
	t.check(err)

	simMetrics(r, verifyBase(&t, in))
	r.complete(endToEndMetrics)
	return t.finish(r), nil
}

// replayRequests is how many stream requests, after the cache fill, the
// second run of a seed replays to compare artifact digests.
const replayRequests = 200

// tracedRequests is the length of the traced stream prefix.
const tracedRequests = 120

// overheadSamples is how many edit misses are compiled again directly,
// through driver.Compile and through the staged layer calls.
const overheadSamples = 30

// tracedServe serves a fixed stream prefix by calling Server.KeyFor and
// Server.Compile directly with a span around each call, then serves
// the same prefix untraced on a second server for the tracing overhead,
// and compiles a sample of the misses directly for the served-compile
// overhead and the frontend and pass per-layer metrics.
func tracedServe(e *env) (*report, error) {
	r := newReport()
	var t tally
	rec := newRecorder()
	var (
		tracedTime, plainTime time.Duration
		traced                []reply
		tracedSent            []streamReq
		md                    memDelta
		fill                  []reply
		accessLog             []byte
	)
	for _, withSpans := range []bool{true, false} {
		in, _, err := repeatedServeSetup(e, true, 1)
		if err != nil {
			return nil, err
		}
		mw := startMem()
		sent, replies, elapsed := closedLoop(fixed(tracedRequests, func(int) streamReq { return in.streamS.next() }), func(sr streamReq) reply {
			var (
				resp serve.CompileResponse
				err  error
				lat  time.Duration
			)
			if withSpans {
				unit := rec.newUnit()
				sp := rec.open("serve.KeyFor", unit, 0)
				in.svc.srv.KeyFor(sr.req)
				sp.close()
				sp = rec.open("serve.Compile", unit, 0)
				resp, err = in.svc.srv.Compile(sr.req)
				lat = sp.close()
			} else {
				t0 := time.Now()
				resp, err = in.svc.srv.Compile(sr.req)
				lat = time.Since(t0)
			}
			rp := decodeReply(resp, true)
			rp.lat = lat
			if err != nil {
				rp.err = err
			}
			return rp
		})
		if err := in.svc.close(); err != nil {
			t.fail(err)
		}
		if withSpans {
			md = mw.stop()
			tracedTime, traced, tracedSent, fill = elapsed, replies, sent, in.fill
			accessLog = in.svc.log.Bytes()
			integrity(&t, in.fill, sent, replies)
		} else {
			plainTime = elapsed
		}
	}
	serveMetrics(r, rec, fill, tracedSent, traced, accessLog)
	runtimeMetrics(r, md)
	r.set("bench.trace_overhead", ratio((tracedTime-plainTime).Seconds(), plainTime.Seconds()))

	// A sample of the misses, compiled directly by as many workers as
	// there are clients (the service's concurrency) for serve.overhead_ratio, then through the
	// staged layer calls for the frontend and pass metrics.
	var sample []int
	for i, sr := range tracedSent {
		if !sr.repeat && traced[i].err == nil && len(sample) < overheadSamples {
			sample = append(sample, i)
		}
	}
	var mu sync.Mutex
	var direct, served time.Duration
	_, directReplies, _ := closedLoop(fixed(len(sample), func(i int) streamReq { return tracedSent[sample[i]] }), func(sr streamReq) reply {
		t0 := time.Now()
		_, err := driver.Compile(sr.req.Name, sr.req.Source, driver.Config{OOElala: true, Files: workload.Files(), Jobs: 1})
		d := time.Since(t0)
		mu.Lock()
		direct += d
		mu.Unlock()
		return reply{err: err}
	})
	for _, rp := range directReplies {
		t.check(rp.err)
	}
	for _, i := range sample {
		served += traced[i].lat
	}
	r.set("serve.overhead_ratio", ratio(served.Seconds(), direct.Seconds()))
	// The service never runs programs, so the vm metrics stay 0.
	var counts layerCounts
	for _, i := range sample {
		sr := tracedSent[i]
		_, lc, err := stagedCompile(rec, sr.req.Name, sr.req.Source, true, 1)
		t.check(err)
		counts.add(lc)
	}
	layerMetrics(r, rec.times(), counts)
	if err := rec.dump(spanPath(e, "serve-replay")); err != nil {
		return nil, err
	}
	return finishLayers(r, &t), nil
}

// serveMetrics adds the serve.* per-layer metrics from the traced
// stream: span means, artifact size, hit ratio, lane wait from the
// access log, and the share of an edit-miss's functions whose content
// key matches the unit's cached version.
func serveMetrics(r *report, rec *recorder, fill []reply, sent []streamReq, replies []reply, accessLog []byte) {
	lt := rec.times()
	r.set("serve.key_us", ratio(float64(lt.incl["serve.KeyFor"].Microseconds()), float64(lt.calls["serve.KeyFor"])))
	var hitT, missT time.Duration
	var hits, bytesOut, funcs, same int
	for i, rp := range replies {
		bytesOut += rp.size
		if rp.hit {
			hits++
			hitT += rp.lat
			continue
		}
		missT += rp.lat
		cached := map[string]string{}
		for _, fk := range fill[sent[i].base].funcKeys {
			cached[fk.Name] = fk.Key
		}
		for _, fk := range rp.funcKeys {
			funcs++
			if cached[fk.Name] == fk.Key {
				same++
			}
		}
	}
	misses := len(replies) - hits
	r.set("serve.hit_us", ratio(float64(hitT.Microseconds()), float64(hits)))
	r.set("serve.miss_ms", ratio(ms(missT), float64(misses)))
	r.set("serve.artifact_kb", ratio(float64(bytesOut)/1024, float64(len(replies))))
	r.set("serve.hit_ratio", ratio(float64(hits), float64(len(replies))))
	r.set("serve.unchanged_func_share", ratio(float64(same), float64(funcs)))

	var wait time.Duration
	coldCompiles := 0
	sc := bufio.NewScanner(bytes.NewReader(accessLog))
	for sc.Scan() {
		var ae serve.AccessEntry
		if json.Unmarshal(sc.Bytes(), &ae) == nil && !ae.CacheHit && ae.ID > int64(len(fill)) {
			wait += time.Duration(ae.LaneWaitNs)
			coldCompiles++
		}
	}
	r.set("serve.lane_wait_ms", ratio(ms(wait), float64(coldCompiles)))
}
