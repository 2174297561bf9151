package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one run as -out keeps it: the result line plus what it was a
// run of.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// gives, which is what the acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j // beyond [0,4] where j was clamped: Python extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// agreeFiles compares two sets of untraced runs of the same code. For
// every workload and end-to-end metric it prints both medians, both
// quartile ranges as a share of their median, and how much worse the
// second median is than the first. The sets agree when every range
// (setup_s excepted: the driver does not hold it to one) and every
// difference, in either direction, is within the metric's bound.
func agreeFiles(w io.Writer, pathA, pathB string) (bool, error) {
	var sets [2]map[string][]float64 // "workload metric" -> values
	for i, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err != nil {
			return false, err
		}
		sets[i] = make(map[string][]float64)
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			if !r.Result.Correct {
				return false, fmt.Errorf("%s: %s seed %d: run was not correct (%d of %d failed)",
					path, r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
			}
			for name, m := range r.Result.Metrics {
				key := r.Workload + " " + name
				sets[i][key] = append(sets[i][key], m.Value)
			}
		}
	}
	ok := true
	fmt.Fprintf(w, "%-17s %-17s %3s %12s %7s %12s %7s %8s %6s\n",
		"workload", "metric", "n", "median A", "iqr A", "median B", "iqr B", "B worse", "bound")
	for _, sp := range specs {
		for _, def := range endToEnd {
			a, b := sets[0][sp.name+" "+def.name], sets[1][sp.name+" "+def.name]
			if len(a) == 0 || len(b) == 0 {
				return false, fmt.Errorf("%s %s: missing from one of the sets", sp.name, def.name)
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			worse := (bm - am) / am
			if def.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > def.bound || (def.name != "setup_s" && max(spreadA, spreadB) > def.bound) {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Fprintf(w, "%-17s %-17s %3d %12.4g %7.4f %12.4g %7.4f %+8.4f %6.2f%s\n",
				sp.name, def.name, min(len(a), len(b)), am, spreadA, bm, spreadB, worse, def.bound, verdict)
		}
	}
	return ok, nil
}
