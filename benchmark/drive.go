package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// driver is the one client of the benchmark: closed loop, one request
// in flight, one keep-alive connection.
type driver struct {
	base string
	http *http.Client
	buf  bytes.Buffer
	// heapCeiling, when not 0, says the collector is off and how far the
	// heap may grow before a replay starts with a forced collection.
	heapCeiling uint64
	gcPercent   int
}

func newDriver(base string) *driver {
	return &driver{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (d *driver) close() {
	d.collectorOn()
	d.http.CloseIdleConnections()
}

// collectorOff turns the garbage collector off for the replays to come;
// from now on it runs only between replays, outside the clock, when the
// heap has grown past twice its present live size. On one thread a
// collection cycle lasts a replay or more and slows every op it
// overlaps, and because a replay allocates the same every time the
// cycles fall on the same ops again and again: in sparql-cold one op in
// ten never met a collector-free replay, and which ones changed from run
// to run, moving latency_p90_us by 40 %. What the collector would cost is
// read off runtime.alloc_bytes_per_op instead, which repeats.
func (d *driver) collectorOff() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.heapCeiling = 2*ms.HeapAlloc + 64<<20
	d.gcPercent = debug.SetGCPercent(-1)
}

func (d *driver) collectorOn() {
	if d.heapCeiling != 0 {
		debug.SetGCPercent(d.gcPercent)
		d.heapCeiling = 0
	}
}

// request is an op made ready to send, built outside the timed window.
type request struct {
	method, url, contentType, body string
}

func (d *driver) prepare(o op, round int) request {
	switch o.kind {
	case opComplete:
		return request{method: http.MethodGet, url: d.base + "/complete?term=" + url.QueryEscape(o.payload)}
	case opRun:
		return request{method: http.MethodPost, url: d.base + "/run", contentType: "application/sparql-query", body: o.payload}
	case opSparql:
		return request{method: http.MethodPost, url: d.base + "/sparql", contentType: "application/sparql-query", body: o.payload}
	default:
		return request{method: http.MethodPost, url: d.base + "/add", contentType: "application/n-triples", body: o.materialize(round)}
	}
}

// do sends one request and reads the whole answer into d.buf, which is
// valid until the next call.
func (d *driver) do(r request) (status int, err error) {
	req, err := http.NewRequest(r.method, r.url, strings.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, err
	}
	d.buf.Reset()
	_, err = d.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// roundResult is what one replay of the op list measured.
type roundResult struct {
	wall      time.Duration
	latencies []time.Duration
	// cpus[i] is the CPU time the whole process (client, server and
	// runtime) used while op i was in flight.
	cpus   []time.Duration
	failed int    // transport errors and non-200 answers
	digest uint64 // over every op's status and body hash, in order
	alloc  uint64 // bytes the process allocated during the round
	gcs    uint32 // garbage collections that ran during the round
}

// cpuTime is the CPU time of the process so far, user and system, all
// threads. It is read before and after every op, so it is the one system
// call clock_gettime(CLOCK_PROCESS_CPUTIME_ID), not getrusage.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock id and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// replay sends the list once, in order. Requests are built before the
// clock starts. keep, when not nil, receives the body of the first
// answer to each distinct payload, which is what the oracle later checks.
func (d *driver) replay(ops []op, round int, keep map[string][]byte) roundResult {
	reqs := make([]request, len(ops))
	for i, o := range ops {
		reqs[i] = d.prepare(o, round)
	}
	res := roundResult{latencies: make([]time.Duration, len(ops)), cpus: make([]time.Duration, len(ops))}
	digest := fnv.New64a()
	var word [12]byte
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if d.heapCeiling != 0 && ms.HeapAlloc > d.heapCeiling {
		runtime.GC()
		runtime.ReadMemStats(&ms)
	}
	gc0, alloc0 := ms.NumGC, ms.TotalAlloc
	t0 := time.Now()
	for i, r := range reqs {
		cpu0, start := cpuTime(), time.Now()
		status, err := d.do(r)
		res.latencies[i] = time.Since(start)
		res.cpus[i] = cpuTime() - cpu0
		if err != nil || status != http.StatusOK {
			res.failed++
		}
		body := d.buf.Bytes()
		binary.LittleEndian.PutUint32(word[:4], uint32(status))
		binary.LittleEndian.PutUint64(word[4:], hash64(body))
		digest.Write(word[:])
		if keep != nil {
			if _, ok := keep[ops[i].payload]; !ok {
				keep[ops[i].payload] = append([]byte(nil), body...)
			}
		}
	}
	res.wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	res.gcs, res.alloc = ms.NumGC-gc0, ms.TotalAlloc-alloc0
	res.digest = digest.Sum64()
	return res
}

// expectedDigest is the digest a replay must produce if every op is
// answered 200 with the body kept for its payload.
func expectedDigest(ops []op, bodies map[string][]byte) uint64 {
	digest := fnv.New64a()
	var word [12]byte
	for _, o := range ops {
		binary.LittleEndian.PutUint32(word[:4], http.StatusOK)
		binary.LittleEndian.PutUint64(word[4:], hash64(bodies[o.payload]))
		digest.Write(word[:])
	}
	return digest.Sum64()
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// bumpEpoch adds one fresh triple through /add, outside any timed
// window, so the next replay cannot be served from cached results.
func (d *driver) bumpEpoch(seq int) error {
	status, err := d.do(request{method: http.MethodPost, url: d.base + "/add",
		body: benchFact("epoch", seq, 0).String() + "\n"})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("epoch bump: HTTP %d: %s", status, d.buf.String())
	}
	return nil
}
