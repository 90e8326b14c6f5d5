package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSums is one /metrics scrape reduced to what the harness needs: for
// every sample name (histograms contribute their _sum and _count names),
// the sum over all label sets — the daemons label by shard, and the harness
// reports per daemon.
type promSums map[string]float64

// parseProm reads Prometheus text exposition. Bucket samples are skipped:
// only sums and counts are differenced.
func parseProm(r io.Reader) (promSums, error) {
	out := promSums{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta is after − before for one sample name; a name missing from either
// scrape counts as 0 there.
func (after promSums) delta(before promSums, name string) float64 {
	return after[name] - before[name]
}

func scrape(client *http.Client, base string) (promSums, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}
