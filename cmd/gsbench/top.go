package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gsdram/internal/farm"
)

// topCmd implements `gsbench top`: a live fleet view of a `gsbench
// serve` process, polling /api/v1/stats and /api/v1/jobs and rendering
// the queue, in-flight points, cache-hit rate, point latency
// percentiles, and every job's progress. The throughput column is
// computed from successive poll deltas of the completed-point counter.
// -once prints a single snapshot without clearing the screen (for
// scripts and CI); otherwise the screen is redrawn every -interval
// until interrupted or -n refreshes have run.
func topCmd(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8573", "farm server base URL")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	iters := fs.Int("n", 0, "number of refreshes before exiting (0 = until interrupted)")
	once := fs.Bool("once", false, "print one snapshot and exit, without clearing the screen")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gsbench top [-server URL] [-interval D] [-n N] [-once]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("top: unexpected arguments %v", fs.Args())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := farm.NewClient(*server)

	var prev *farm.Stats
	var prevAt time.Time
	for i := 0; ; i++ {
		st, err := client.Stats(ctx)
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		jobs, err := client.Jobs(ctx)
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		now := time.Now()
		rate := float64(st.Points.Completed) / (time.Duration(st.UptimeNS).Seconds() + 1e-9)
		if prev != nil {
			if dt := now.Sub(prevAt).Seconds(); dt > 0 {
				rate = float64(st.Points.Completed-prev.Points.Completed) / dt
			}
		}
		prev, prevAt = st, now

		out := renderTop(*server, st, jobs, rate)
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Print(out)

		if *once || (*iters > 0 && i+1 >= *iters) {
			return nil
		}
		select {
		case <-time.After(*interval):
		case <-ctx.Done():
			return nil
		}
	}
}

// renderTop formats one fleet snapshot.
func renderTop(server string, st *farm.Stats, jobs []farm.JobSummary, rate float64) string {
	var b strings.Builder
	state := "serving"
	if st.Draining {
		state = "draining"
	}
	fmt.Fprintf(&b, "gsbench top — %s  [%s]  up %s\n",
		server, state, time.Duration(st.UptimeNS).Round(time.Second))
	hitRate := 0.0
	if st.Points.Completed > 0 {
		hitRate = 100 * float64(st.Points.Cached) / float64(st.Points.Completed)
	}
	fmt.Fprintf(&b, "workers %d  queue %d  inflight %d  jobs %d\n",
		st.Workers, st.Queue, st.Inflight, st.Jobs)
	fmt.Fprintf(&b, "points: %d submitted, %d done (%d cached / %d executed, %.0f%% hit), %d failed\n",
		st.Points.Submitted, st.Points.Completed, st.Points.Cached,
		st.Points.Executed, hitRate, st.Points.Failed)
	fmt.Fprintf(&b, "rate %.2f pts/s  latency p50 %s  p95 %s  dedup waits %d\n",
		rate,
		(time.Duration(st.PointLatP50US) * time.Microsecond).Round(time.Millisecond),
		(time.Duration(st.PointLatP95US) * time.Microsecond).Round(time.Millisecond),
		st.SingleflightWaits)
	fmt.Fprintf(&b, "cache: %d hits, %d misses, %d puts\n\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Puts)

	fmt.Fprintf(&b, "%-10s %-9s %6s %6s %8s %6s %10s\n",
		"JOB", "STATE", "DONE", "CACHED", "EXECUTED", "FAILED", "WALL")
	for _, j := range jobs {
		state := "running"
		wall := "-"
		if j.Complete {
			state = "complete"
			wall = time.Duration(j.Totals.WallNS).Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-10s %-9s %3d/%-3d %6d %8d %6d %10s\n",
			j.ID, state, j.Totals.Done, j.Totals.Points,
			j.Totals.Cached, j.Totals.Executed, j.Totals.Failed, wall)
	}
	if len(jobs) == 0 {
		b.WriteString("(no jobs submitted)\n")
	}
	return b.String()
}
