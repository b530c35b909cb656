package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
)

// quartiles are Python's statistics.quantiles(values, n=4): the
// exclusive method, which is what the acceptance rule is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// sig4 prints x with four significant digits and no exponent.
func sig4(x float64) string {
	decimals := 3 - int(math.Floor(math.Log10(math.Abs(x))))
	if x == 0 || decimals < 0 {
		decimals = 0
	}
	return strconv.FormatFloat(x, 'f', decimals, 64)
}

// asItRanRE finds the median round's unfiltered p50 and p99 in a run's
// report.
var asItRanRE = regexp.MustCompile(`median round p50 ([0-9.]+)us p99 ([0-9.]+)us`)

// runAA runs n fresh processes of one workload on consecutive seeds and
// prints, per end-to-end metric, the quartiles and two spreads as shares
// of the median: interquartile (what the acceptance rule bounds) and
// max−min. It returns 1 when an interquartile spread exceeds the
// metric's own bound, or a run fails.
func runAA(w workload, seed int64, seconds, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	values := map[string][]float64{}
	var rawP50, rawP99 []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10), "-seconds", strconv.Itoa(seconds))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: run %d: %v\n%s", i, err, out)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: run %d: bad result line: %s\n", i, lines[len(lines)-1])
			return 1
		}
		fmt.Fprintf(os.Stderr, "run %d/%d, seed %d:", i+1, n, seed+int64(i))
		for _, d := range endToEnd {
			v := res.Metrics[d.name].Value
			values[d.name] = append(values[d.name], v)
			fmt.Fprintf(os.Stderr, " %s %s", d.name, sig4(v))
		}
		fmt.Fprintln(os.Stderr)
		if m := asItRanRE.FindSubmatch(out); m != nil {
			p50, err50 := strconv.ParseFloat(string(m[1]), 64)
			p99, err99 := strconv.ParseFloat(string(m[2]), 64)
			if err50 == nil && err99 == nil {
				rawP50, rawP99 = append(rawP50, p50), append(rawP99, p99)
			}
		}
	}
	code := 0
	fmt.Printf("| %s, %d runs, seeds %d–%d | q1 | median | q3 | iqr/median | (max−min)/median | bound |\n|---|---|---|---|---|---|---|\n",
		w.name, n, seed, seed+int64(n)-1)
	row := func(label string, vs []float64, bound float64) {
		q1, q2, q3 := quartiles(vs)
		s := append([]float64(nil), vs...)
		sort.Float64s(s)
		iqr, rng := (q3-q1)/q2, (s[len(s)-1]-s[0])/q2
		verdict := "ungated"
		if bound > 0 {
			verdict = fmt.Sprintf("%.0f%%", 100*bound)
			if iqr > bound {
				verdict, code = verdict+" EXCEEDED", 1
			}
		}
		fmt.Printf("| %s | %s | %s | %s | %.2f%% | %.2f%% | %s |\n",
			label, sig4(q1), sig4(q2), sig4(q3), 100*iqr, 100*rng, verdict)
	}
	for _, d := range endToEnd {
		row(fmt.Sprintf("%s (%s)", d.name, d.unit), values[d.name], d.bound)
	}
	// What the runs looked like without taking each op at its best
	// replay, and what a tail past p90 would have looked like as a metric.
	if len(rawP99) == n {
		row("p50 of the median round, as it ran (us)", rawP50, 0)
		row("p99 of the median round, as it ran (us)", rawP99, 0)
	}
	return code
}
