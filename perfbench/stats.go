package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a percentile with fewer samples past it is one outlier's
// value, not a tail.
const minBeyond = 10

// tail is one timing summary: the value at quantile Q of N samples.
type tail struct {
	Value float64
	Q     float64
	N     int
}

// String renders the summary with the percentile and sample count it
// actually rests on, e.g. "132.4 (p83 of 60)".
func (t tail) String() string {
	return fmt.Sprintf("%.4g (p%g of %d)", t.Value, math.Round(t.Q*1000)/10, t.N)
}

// median returns the 0.5 quantile of xs (nearest rank on the sorted
// copy, averaging the two middle values for even counts). NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile applies the reporting rule for a tail percentile: the
// wanted quantile when at least minBeyond samples lie beyond it,
// otherwise the highest quantile that still has minBeyond samples
// beyond it, and the median when even that is below the median.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// tailOf summarizes xs at the tail percentile the rule allows.
func tailOf(xs []float64, want float64) tail {
	q := tailQuantile(len(xs), want)
	if len(xs) == 0 {
		return tail{Value: math.NaN(), Q: q}
	}
	if q == 0.5 {
		return tail{Value: median(xs), Q: q, N: len(xs)}
	}
	return tail{Value: quantile(xs, q), Q: q, N: len(xs)}
}

// medianOf summarizes xs at its median.
func medianOf(xs []float64) tail {
	return tail{Value: median(xs), Q: 0.5, N: len(xs)}
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// schedule is an open-loop send schedule: send i is due at start +
// i/rate, whatever happened to earlier sends. Latency is measured from
// the due time, so a stall also charges the sends queued behind it, and
// lag records how late the generator itself started each send.
type schedule struct {
	start time.Time
	rate  float64 // sends per second
}

// due returns when send i is due.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// sample is one timed request of an open loop.
type sample struct {
	due, sent, done time.Time
}

// latency is the request's time from due to done.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator started the request.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// promSample is one parsed Prometheus text-format sample.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm parses the Prometheus text exposition format the daemon's
// /metrics serves: comment lines are skipped, each other line is
// `name{label="v",...} value`.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", ln, err)
		}
		s := promSample{Value: v, Labels: map[string]string{}}
		head := line[:sp]
		if i := strings.IndexByte(head, '{'); i >= 0 {
			if !strings.HasSuffix(head, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", ln, line)
			}
			s.Name = head[:i]
			if err := parseLabels(head[i+1:len(head)-1], s.Labels); err != nil {
				return nil, fmt.Errorf("metrics line %d: %v", ln, err)
			}
		} else {
			s.Name = head
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses `a="x",b="y"` with Go-quoted values.
func parseLabels(s string, into map[string]string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return fmt.Errorf("bad label list %q", s)
		}
		key := s[:eq]
		rest := s[eq+1:]
		end := 1
		for end < len(rest) && (rest[end] != '"' || rest[end-1] == '\\') {
			end++
		}
		if end >= len(rest) {
			return fmt.Errorf("unterminated label value in %q", s)
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return fmt.Errorf("label %s: %v", key, err)
		}
		into[key] = val
		s = strings.TrimPrefix(rest[end+1:], ",")
	}
	return nil
}

// promSum sums every sample of the named metric (across label sets).
func promSum(ss []promSample, name string) float64 {
	var sum float64
	for _, s := range ss {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}
