// Command benchmark is Sapphire's end-to-end benchmark: it builds the
// real serving stack in-process, drives it closed-loop from one client
// over loopback HTTP with a seeded, pre-generated op list, checks every
// answer against the library, and prints the metrics BENCHMARK.json
// names as one JSON object on the last line of standard output. See
// README.md for the workloads, the metrics and how to read a ladder.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"sapphire/internal/store/persist"
)

// setups is how many times an untraced run builds the stack from the
// generated triples; setup_s is the fastest and the last one is used.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	// out receives the human-readable report; the result line is the
	// caller's to print.
	out io.Writer
}

func main() {
	// Pinned so shard defaults and the numbers mean the same on a
	// bigger box. One, not the calibration box's two: with client and
	// server goroutines on one thread a request changes hands inside
	// the Go scheduler; with two, every hand-over parks one thread and
	// wakes the other through the kernel, and how long a halted virtual
	// CPU of a shared host takes to run again is the host's affair
	// (sparql-hot as it ran, quiet box: 25 000 ops/s and p99 70 us on
	// one thread, 20 000 ops/s and 160 us on two).
	runtime.GOMAXPROCS(1)

	name := flag.String("workload", "", "one of: typeahead, run-suggest, sparql-hot, sparql-cold, write-mix")
	seed := flag.Int64("seed", 1, "seed of the op list")
	seconds := flag.Int("seconds", 10, "length of the timed phase the number of replays is sized for")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced ladder instead of the end-to-end metrics")
	smoke := flag.Bool("smoke", false, "1/100 of the ops on the small dataset, for tests")
	aa := flag.Int("aa", 0, "run this many fresh processes of the workload on seeds seed, seed+1, … and compare them")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *aa > 0 {
		os.Exit(runAA(w, *seed, *seconds, *aa))
	}
	res, err := run(config{workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, out: os.Stdout})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// session is one run's live state: the stack, its one client, the op
// list, and the ledger of what was written so the restart check knows
// what the server acknowledged.
type session struct {
	cfg    config
	corpus *corpus
	stk    *stack
	drv    *driver
	ops    []op
	// want is the digest every replay must produce: the one of the
	// answers the oracle checked.
	want uint64
	res  *result
	// replayed lists the round numbers whose writes reached the durable
	// store; bumps counts epoch-bump triples.
	replayed []int
	bumps    int
}

// run executes one workload once and returns its result line.
func run(cfg config) (*result, error) {
	scale := datasetScale
	if cfg.smoke {
		scale = 0
	}
	s := &session{cfg: cfg, corpus: genCorpus(scale), res: &result{Metrics: map[string]metric{}}}
	root, err := newWorkDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	defer s.teardown()

	nOps, rounds := cfg.workload.opsPerRound(cfg.smoke), cfg.workload.rounds(cfg.seconds, cfg.smoke)
	popts := persistOptions(cfg.workload.writesPerRound(nOps))
	nSetups := setups
	if cfg.trace {
		nSetups = 1
	}
	var (
		bodies    map[string][]byte
		setupSecs []float64
		// heap is the smallest reading of the set-ups: about a
		// megabyte of the 88 comes and goes between set-ups of one
		// process, and the smallest reading leaves it out most often.
		heap uint64
	)
	for i := 0; i < nSetups; i++ {
		var secs float64
		secs, bodies, err = s.setUp(filepath.Join(root, fmt.Sprintf("setup%d", i)), popts, nOps)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, secs)
		fmt.Fprintf(cfg.out, "set-up %d: %.3fs, %d heap bytes\n", i+1, secs, s.stk.heapBytes)
		if i == 0 || s.stk.heapBytes < heap {
			heap = s.stk.heapBytes
		}
	}
	s.replayed = []int{0}

	fmt.Fprintf(cfg.out, "workload %s seed %d: %d ops per round, %d rounds, %d triples, GOMAXPROCS %d, fsync %s, snapshot every %d, closed loop, 1 client, 1 connection, collector off while a replay is timed\n",
		cfg.workload.name, cfg.seed, len(s.ops), rounds, len(s.corpus.triples), runtime.GOMAXPROCS(0), popts.Fsync, popts.SnapshotEvery)

	checked, mismatches := s.stk.checkAnswers(s.ops, bodies)
	s.res.Attempted += checked
	s.res.Failed += len(mismatches)
	for i, m := range mismatches {
		if i == 5 {
			fmt.Fprintf(cfg.out, "… and %d more\n", len(mismatches)-i)
			break
		}
		fmt.Fprintln(cfg.out, "oracle mismatch:", m)
	}
	s.want = expectedDigest(s.ops, bodies)
	fmt.Fprintf(cfg.out, "oracle: %d distinct payloads checked, %d mismatches; response digest %016x\n", checked, len(mismatches), s.want)

	if cfg.trace {
		if err := s.runTraced(); err != nil {
			return nil, err
		}
	} else {
		var results []roundResult
		s.drv.collectorOff()
		for round := 1; round <= rounds; round++ {
			r, err := s.timedRound(round)
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
		s.drv.collectorOn()
		e := summarize(cfg.out, s.ops, results)
		s.res.Metrics["latency_p50_us"] = metric{e.p50, "us"}
		s.res.Metrics["latency_p90_us"] = metric{e.p90, "us"}
		s.res.Metrics["ops_per_s"] = metric{e.rate, "1/s"}
		s.res.Metrics["cpu_us_per_op"] = metric{e.cpu, "us"}
		s.res.Metrics["setup_s"] = metric{slices.Min(setupSecs), "s"}
		s.res.Metrics["heap_bytes_per_triple"] = metric{float64(heap) / float64(len(s.corpus.triples)), "B"}
	}

	dir := s.stk.dir
	if err := s.teardown(); err != nil {
		return nil, fmt.Errorf("close after run: %w", err)
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	triples, err := checkDurable(dir, popts, s.corpus, s.ops, s.replayed, s.bumps)
	if err != nil {
		s.res.Failed++
		fmt.Fprintln(cfg.out, "durability:", err)
	} else {
		fmt.Fprintf(cfg.out, "durability: reopened store holds all %d triples, %d bytes on disk\n", triples, disk)
		if !cfg.trace {
			s.res.Metrics["disk_bytes_per_triple"] = metric{float64(disk) / float64(triples), "B"}
		}
	}
	s.res.Correct = s.res.Failed == 0
	return s.res, nil
}

// setUp replaces the stack, if one is up, with a fresh one in dir and
// warms it with one replay of the op list, which it generates on first
// use. It returns the seconds that took, generation excluded, and the
// first answer the warm-up got to each distinct payload.
func (s *session) setUp(dir string, popts persist.Options, nOps int) (float64, map[string][]byte, error) {
	if s.stk != nil {
		old := s.stk.dir
		if err := s.teardown(); err != nil {
			return 0, nil, err
		}
		if err := os.RemoveAll(old); err != nil {
			return 0, nil, err
		}
	}
	t0 := time.Now()
	stk, err := newStack(dir, s.corpus, popts)
	if err != nil {
		return 0, nil, err
	}
	s.stk, s.drv = stk, newDriver(stk.srv.URL)
	if s.ops == nil {
		// Generation needs the vocabulary of the initialized cache;
		// it is not part of bringing a server up.
		tg := time.Now()
		cache, err := stk.loadCache()
		if err != nil {
			return 0, nil, err
		}
		s.ops = s.cfg.workload.ops(s.cfg.seed, nOps, vocabOf(cache))
		t0 = t0.Add(time.Since(tg))
	}
	bodies := make(map[string][]byte)
	warm := s.drv.replay(s.ops, 0, bodies)
	secs := time.Since(t0).Seconds()
	if warm.failed > 0 {
		return 0, nil, fmt.Errorf("warm-up replay: %d of %d ops failed", warm.failed, len(s.ops))
	}
	return secs, bodies, nil
}

// teardown stops the client and the stack, if any is up.
func (s *session) teardown() error {
	if s.stk == nil {
		return nil
	}
	s.drv.close()
	err := s.stk.close()
	s.stk, s.drv = nil, nil
	return err
}

// bump moves the store's epoch when the workload asks for every replay
// to miss the result cache.
func (s *session) bump() error {
	if !s.cfg.workload.bumpEpoch {
		return nil
	}
	s.bumps++
	return s.drv.bumpEpoch(s.bumps)
}

// timedRound replays the list once over HTTP and books the outcome.
func (s *session) timedRound(round int) (roundResult, error) {
	if err := s.bump(); err != nil {
		return roundResult{}, err
	}
	before := s.stk.ep.Stats()
	r := s.drv.replay(s.ops, round, nil)
	after := s.stk.ep.Stats()
	s.replayed = append(s.replayed, round)
	s.res.Attempted += len(s.ops)
	s.res.Failed += r.failed
	if r.digest != s.want {
		// Some answer changed between replays; which op is not known,
		// so the round counts as one more failure.
		s.res.Failed++
		fmt.Fprintf(s.cfg.out, "round %d: response digest %016x differs from the checked answers' %016x\n", round, r.digest, s.want)
	}
	// A round that is not in the cache state its workload is defined
	// by measures something else, however right its answers are.
	hits, rawHits := after.CacheHits-before.CacheHits, after.CacheRawHits-before.CacheRawHits
	switch w := s.cfg.workload; {
	case w.allHits && rawHits != int64(len(s.ops)):
		s.res.Failed++
		fmt.Fprintf(s.cfg.out, "round %d: %d of %d ops were exact-text cache hits, want all\n", round, rawHits, len(s.ops))
	case w.bumpEpoch && hits != 0:
		s.res.Failed++
		fmt.Fprintf(s.cfg.out, "round %d: %d ops were cache hits, want none\n", round, hits)
	}
	return r, nil
}

// e2e is the timed rounds boiled down. The box is a few cores of a
// shared host, and what its other tenants do slows the same code by a
// half for seconds or minutes at a time; that only ever adds time, and
// every round replays the same list. So each op is reported by the best
// of its replays — its latency and, separately, its CPU time — the way
// one reads the minimum off repeated timings of anything: the smallest
// figure is the code's, the rest is the neighbours'. Then
//   - a latency figure is a percentile over the list of those per-op
//     bests;
//   - the rate is the list's length over the sum of them, the pace of
//     the one closed-loop client when nothing interferes;
//   - CPU per op is the mean of the per-op best CPU times.
//
// What this leaves out along with the neighbours is whatever the program
// itself does only now and then, the garbage collector's cycles above
// all: rawRate, the collections, p99 and max (median round) keep those
// in sight, ungated.
type e2e struct {
	p50, p90, rate, cpu float64
	readP50, writeP50   float64
	// diagnostics
	rawP50, p99, max, rawRate, allocPerOp float64
}

// bestOf is, per op, the smallest of the rounds' readings.
func bestOf(results []roundResult, reading func(roundResult) []time.Duration) []time.Duration {
	best := append([]time.Duration(nil), reading(results[0])...)
	for _, r := range results[1:] {
		for j, d := range reading(r) {
			if d < best[j] {
				best[j] = d
			}
		}
	}
	return best
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

func summarize(out io.Writer, ops []op, results []roundResult) e2e {
	var p50, p99, worst, alloc []float64
	var wall time.Duration
	for i, r := range results {
		s := sortedCopy(r.latencies)
		p50 = append(p50, micros(percentile(s, 0.50)))
		p99 = append(p99, micros(percentile(s, 0.99)))
		worst = append(worst, micros(s[len(s)-1]))
		wall += r.wall
		alloc = append(alloc, float64(r.alloc)/float64(len(s)))
		fmt.Fprintf(out, "round %d: %d ops in %.3fs, p50 %.1fus p90 %.1fus p99 %.1fus max %.1fus, cpu %.1fus/op, %.0f bytes allocated/op, %d collections\n",
			i+1, len(s), r.wall.Seconds(), p50[i], micros(percentile(s, 0.90)), p99[i], worst[i], micros(sum(r.cpus))/float64(len(s)), alloc[i], r.gcs)
	}
	latency := bestOf(results, func(r roundResult) []time.Duration { return r.latencies })
	cpu := bestOf(results, func(r roundResult) []time.Duration { return r.cpus })
	var reads, writes []time.Duration
	for j, o := range ops {
		if o.kind == opAdd {
			writes = append(writes, latency[j])
		} else {
			reads = append(reads, latency[j])
		}
	}
	all, n := sortedCopy(latency), float64(len(ops))
	e := e2e{
		p50: micros(percentile(all, 0.50)), p90: micros(percentile(all, 0.90)),
		rate: n / sum(latency).Seconds(), cpu: micros(sum(cpu)) / n,
		readP50:  micros(percentile(sortedCopy(reads), 0.50)),
		writeP50: micros(percentile(sortedCopy(writes), 0.50)),
		rawP50:   median(p50), p99: median(p99), max: median(worst),
		rawRate:    n * float64(len(results)) / wall.Seconds(),
		allocPerOp: median(alloc),
	}
	fmt.Fprint(out, "deciles of the per-op best latencies, us:")
	for d := 1; d <= 9; d++ {
		fmt.Fprintf(out, " %.1f", micros(percentile(all, float64(d)/10)))
	}
	fmt.Fprintf(out, "; costliest op %.1f, %.1f%% of the list's time\n", micros(all[len(all)-1]), 100*float64(all[len(all)-1])/float64(sum(all)))
	fmt.Fprintf(out, "%d ops x %d rounds, each op by its best round: latency p50 %.1fus p90 %.1fus, %.1f ops/s, cpu %.1fus/op; ungated, all rounds: %.1f ops/s, %.0f bytes allocated per op, median round p50 %.1fus p99 %.1fus max %.1fus\n",
		len(ops), len(results), e.p50, e.p90, e.rate, e.cpu, e.rawRate, e.allocPerOp, e.rawP50, e.p99, e.max)
	return e
}
