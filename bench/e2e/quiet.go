package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Steal comes in phases of a minute or two, with 10–40 % of the box's CPU time
// taken. Leaving stolen slices out of the medians saves a run the phase
// touches; it cannot save a run that sits inside one, and three such runs
// among ten of cluster-ingest (a chain of round trips, which steal stalls
// most: −17 to −28 % even at reference speed) are enough to put the quartiles
// a quarter apart. So a serving run whose set-ups were stolen from waits for
// the phase to pass before it opens its window.
//
// The sensor is the set-up itself: the guest only sees steal while it has
// work to run, and a spin loop sees less of it than daemons that sleep and
// wake do. Waiting is bounded twice, per run and per checkout (the allowance
// is kept in a file under workDir), so that a box that is stolen from all day
// costs a bounded number of seconds and then measures what it can.
const (
	busyStolen = 0.10 // a phase takes 12–35 %; the box also idles along at 5–8 % for hours, which scaling absorbs
	senseEvery = 5 * time.Second
	maxWaitRun = 60 * time.Second
	maxWaitAll = 250 * time.Second
)

// waitOutSteal is given the share of CPU time stolen during the run's
// set-ups and a function that sleeps no more: it sets up once again and
// returns the share stolen meanwhile. It returns once a set-up was left
// alone or an allowance is used up, and says what it did.
func waitOutSteal(stolen float64, again func() (float64, error)) (note string, err error) {
	if stolen <= busyStolen {
		return "the set-ups were not stolen from: no waiting", nil
	}
	ledger := filepath.Join(workDir, "waited_s")
	var spent time.Duration
	if raw, err := os.ReadFile(ledger); err == nil {
		if s, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64); err == nil {
			spent = time.Duration(s * float64(time.Second))
		}
	}
	began := time.Now()
	for stolen > busyStolen {
		if waited := time.Since(began); waited >= maxWaitRun || spent+waited >= maxWaitAll {
			note = fmt.Sprintf("; gave up with %.0f%% still stolen", stolen*100)
			break
		}
		time.Sleep(senseEvery)
		if stolen, err = again(); err != nil {
			return "", err
		}
	}
	total := spent + time.Since(began)
	if err := os.WriteFile(ledger, []byte(strconv.FormatFloat(total.Seconds(), 'f', 1, 64)+"\n"), 0o644); err != nil {
		return "", err
	}
	return fmt.Sprintf("waited %.1f s for a steal phase to pass (%.0f s of the %.0f s this checkout may wait)%s",
		time.Since(began).Seconds(), total.Seconds(), maxWaitAll.Seconds(), note), nil
}
