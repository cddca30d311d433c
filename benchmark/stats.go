package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// harness reports it: a p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an even
// count). It panics on an empty slice: every caller has at least one sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("median of no samples")
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs and
// whether it may be reported: only when at least minBeyond samples lie
// strictly above its rank.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	s := sorted(xs)
	return s[rank-1], n-rank >= minBeyond
}

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the spread of a metric across runs is judged.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	const n = 4
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, errors.New("quartiles need at least two samples")
	}
	m := ld + 1
	q := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q = append(q, (s[j-1]*(n-delta)+s[j]*delta)/n)
	}
	return q[0], q[2], nil
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med == 0 {
		return 0, errors.New("spread of a zero median")
	}
	return (q3 - q1) / math.Abs(med), nil
}

// digest is the hex SHA-256 of one output.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestSet holds the digest of every named output seen so far and reports
// an output whose digest differs from the first one recorded under its
// name. It compares the repetitions inside a run and, loaded from and saved
// to a file, the runs of one workload and seed.
type digestSet map[string]string

// check records sum under name, or returns an error when name already has
// a different digest.
func (d digestSet) check(name, sum string) error {
	if prev, ok := d[name]; ok && prev != sum {
		return fmt.Errorf("output %s changed: digest %.12s, earlier %.12s", name, sum, prev)
	}
	d[name] = sum
	return nil
}

// merge checks every digest of other against d, adding the new names, and
// returns one error per mismatch.
func (d digestSet) merge(other digestSet) []error {
	names := make([]string, 0, len(other))
	for name := range other {
		names = append(names, name)
	}
	sort.Strings(names)
	var errs []error
	for _, name := range names {
		if err := d.check(name, other[name]); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// loadDigests reads a digest file; a missing file is an empty set.
func loadDigests(path string) (digestSet, error) {
	d := digestSet{}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return d, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("digest file %s: %w", path, err)
	}
	return d, nil
}

// save writes the set to path.
func (d digestSet) save(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
