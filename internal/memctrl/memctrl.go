// Package memctrl implements the memory controller of the simulated
// system: per-channel read/write queues, an FR-FCFS scheduler with an
// open-row policy (Table 1 of the paper), write draining with watermarks,
// write-to-read forwarding, and periodic refresh.
//
// GS-DRAM awareness: a request carries a pattern ID, but a patterned READ
// or WRITE costs exactly one column command — the whole point of the
// substrate — so the scheduler treats it like any other access. The
// pattern still matters for statistics and for the data returned, which
// the functional layer (internal/memsys) handles.
package memctrl

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/dram"
	"gsdram/internal/gsdram"
	"gsdram/internal/latency"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// Request is one cache-line transfer between the cache hierarchy and DRAM.
type Request struct {
	Addr       addrmap.Addr
	Write      bool
	Pattern    gsdram.Pattern
	IsPrefetch bool
	// OnComplete fires when the data burst finishes (reads) or when the
	// write has been accepted into the write queue (writes). May be nil.
	OnComplete func(now sim.Cycle)

	// Lat, when non-nil, receives the request's lifecycle timestamps
	// (enqueue, first scheduler consideration, first command, CAS, burst
	// completion) as the controller processes it. The pointer belongs to
	// the producer (an MSHR entry); the controller drops it on recycle.
	Lat *latency.ReqLat

	loc     addrmap.Loc
	arrival sim.Cycle
	missed  bool // an ACT/PRE was issued on this request's behalf
}

// SchedPolicy selects the request scheduling policy.
type SchedPolicy int

const (
	// PolicyFRFCFS is first-ready, first-come-first-served [39, 56]: the
	// oldest row-hit request wins, else the oldest request (Table 1).
	PolicyFRFCFS SchedPolicy = iota
	// PolicyFCFS serves requests strictly in arrival order — the baseline
	// FR-FCFS is usually compared against, kept as an ablation.
	PolicyFCFS
)

func (p SchedPolicy) String() string {
	switch p {
	case PolicyFRFCFS:
		return "FR-FCFS"
	case PolicyFCFS:
		return "FCFS"
	default:
		return "unknown"
	}
}

// RowPolicy selects what happens to a row after its column commands.
type RowPolicy int

const (
	// OpenRow leaves the row open until a conflicting access or refresh
	// closes it (Table 1).
	OpenRow RowPolicy = iota
	// ClosedRow precharges a bank as soon as no queued request targets
	// its open row — better for random traffic, worse for streams.
	ClosedRow
)

func (p RowPolicy) String() string {
	switch p {
	case OpenRow:
		return "open-row"
	case ClosedRow:
		return "closed-row"
	default:
		return "unknown"
	}
}

// Config parameterises the controller.
type Config struct {
	Spec       addrmap.Spec
	Timing     dram.Timing // in memory-bus cycles
	ClockRatio int         // CPU cycles per memory-bus cycle

	ReadQueueCap  int // per channel; prefetches are dropped when full
	WriteLowMark  int // stop draining writes below this
	WriteHighMark int // start draining writes above this

	Sched SchedPolicy
	Row   RowPolicy

	// Observer, when non-nil, receives every DDR command the controller
	// issues — for command traces, protocol checkers, and debugging. It
	// must not retain the event past the call.
	Observer func(CommandEvent)

	// Metrics, when non-nil, receives the controller's counters, the
	// per-channel queue-depth gauges, the queue-wait histograms, and the
	// per-rank DRAM command counters at construction. Nil disables
	// registration; the counters are maintained either way.
	Metrics *metrics.Registry
}

// CommandEvent describes one issued DDR command.
type CommandEvent struct {
	At      sim.Cycle
	Channel int
	Rank    int
	Bank    int
	Row     int
	Kind    dram.CmdKind
	// Pattern is the GS-DRAM pattern ID for RD/WR commands (0 otherwise).
	Pattern gsdram.Pattern
}

// DefaultConfig returns the paper's Table 1 configuration: one DDR3-1600
// channel, one rank, 8 banks, FR-FCFS with open-row policy, on a 4 GHz
// core (clock ratio 5).
func DefaultConfig() Config {
	return Config{
		Spec:          addrmap.Default,
		Timing:        dram.DDR3_1600(),
		ClockRatio:    5,
		ReadQueueCap:  64,
		WriteLowMark:  16,
		WriteHighMark: 48,
	}
}

// Stats aggregates controller activity across channels. It is the
// compatibility snapshot returned by Controller.Stats; live storage is
// the counters struct below plus the per-rank counters.
type Stats struct {
	ReadsServed    uint64
	WritesServed   uint64
	RowHitReads    uint64
	RowMissReads   uint64
	RowHitWrites   uint64
	RowMissWrites  uint64
	Forwards       uint64 // reads served from the write queue
	DroppedPrefs   uint64 // prefetches dropped on a full read queue
	ACTs           uint64
	PREs           uint64
	Refreshes      uint64
	BusBusyCycles  uint64 // CPU cycles of data-bus occupancy
	ActiveCycles   uint64 // CPU cycles with >= 1 bank open (per rank, summed)
	ReadQueueWait  uint64 // total CPU cycles reads spent queued
	PatternedReads uint64 // reads issued with a non-zero pattern ID
}

// counters is the controller's live counter storage (see
// internal/metrics). ACT/PRE/refresh/bus counts live in the per-rank
// counters; Refreshes here only tracks idle-time catch-up refreshes.
type counters struct {
	ReadsServed    metrics.Counter
	WritesServed   metrics.Counter
	RowHitReads    metrics.Counter
	RowMissReads   metrics.Counter
	RowHitWrites   metrics.Counter
	RowMissWrites  metrics.Counter
	Forwards       metrics.Counter
	DroppedPrefs   metrics.Counter
	Refreshes      metrics.Counter
	ReadQueueWait  metrics.Counter
	PatternedReads metrics.Counter

	// ReadWait is the distribution of CPU cycles demand reads spent
	// queued, observed at RD issue. Maintained unconditionally: one
	// power-of-2 bucketing per DRAM read is noise next to the scheduling
	// work that produced it.
	ReadWait metrics.Histogram
}

// Controller is the top-level memory controller.
type Controller struct {
	cfg Config
	q   *sim.EventQueue
	ch  []*channel

	// freeReqs recycles Request structs: Enqueue takes ownership of every
	// request, and the controller returns it to the free list once it no
	// longer holds a reference (forwarded, issued, or dropped).
	freeReqs []*Request

	ctr counters
}

// NewRequest returns a zeroed Request, reusing one the controller has
// finished with. Requests obtained here (or allocated directly) belong to
// the controller after Enqueue and must not be reused by the caller.
func (c *Controller) NewRequest() *Request {
	if n := len(c.freeReqs); n > 0 {
		r := c.freeReqs[n-1]
		c.freeReqs = c.freeReqs[:n-1]
		*r = Request{}
		return r
	}
	return &Request{}
}

// recycle returns a request the controller no longer references to the
// free list.
func (c *Controller) recycle(r *Request) {
	r.OnComplete = nil
	r.Lat = nil
	c.freeReqs = append(c.freeReqs, r)
}

// New builds a controller attached to the event queue.
func New(cfg Config, q *sim.EventQueue) (*Controller, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.ClockRatio <= 0 {
		return nil, fmt.Errorf("memctrl: ClockRatio must be positive, got %d", cfg.ClockRatio)
	}
	if cfg.ReadQueueCap <= 0 {
		return nil, fmt.Errorf("memctrl: ReadQueueCap must be positive, got %d", cfg.ReadQueueCap)
	}
	if cfg.WriteLowMark < 0 || cfg.WriteHighMark <= cfg.WriteLowMark {
		return nil, fmt.Errorf("memctrl: need 0 <= WriteLowMark < WriteHighMark, got %d/%d", cfg.WriteLowMark, cfg.WriteHighMark)
	}
	c := &Controller{cfg: cfg, q: q}
	scaled := cfg.Timing.Scaled(cfg.ClockRatio)
	for i := 0; i < cfg.Spec.Channels; i++ {
		ch := &channel{
			ctrl:   c,
			id:     i,
			timing: scaled,
		}
		// One persistent bound closure: rescheduling the channel on every
		// command would otherwise allocate a method value per wake.
		ch.runFn = ch.run
		for r := 0; r < cfg.Spec.Ranks; r++ {
			ch.ranks = append(ch.ranks, dram.NewRank(cfg.Spec.Banks, scaled, sim.Cycle(cfg.ClockRatio)))
		}
		ch.nextRefresh = sim.Cycle(scaled.TREF)
		c.ch = append(c.ch, ch)
	}
	c.registerMetrics(cfg.Metrics)
	return c, nil
}

// registerMetrics exposes the controller's telemetry: its own counters,
// the queue-wait histogram, one queue-depth gauge pair and an
// active-cycles gauge per channel, and the per-rank command counters.
// No-op on a nil registry.
func (c *Controller) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("memctrl.reads_served", &c.ctr.ReadsServed)
	reg.RegisterCounter("memctrl.writes_served", &c.ctr.WritesServed)
	reg.RegisterCounter("memctrl.row_hit_reads", &c.ctr.RowHitReads)
	reg.RegisterCounter("memctrl.row_miss_reads", &c.ctr.RowMissReads)
	reg.RegisterCounter("memctrl.row_hit_writes", &c.ctr.RowHitWrites)
	reg.RegisterCounter("memctrl.row_miss_writes", &c.ctr.RowMissWrites)
	reg.RegisterCounter("memctrl.forwards", &c.ctr.Forwards)
	reg.RegisterCounter("memctrl.dropped_prefetches", &c.ctr.DroppedPrefs)
	reg.RegisterCounter("memctrl.idle_refreshes", &c.ctr.Refreshes)
	reg.RegisterCounter("memctrl.read_queue_wait_cycles", &c.ctr.ReadQueueWait)
	reg.RegisterCounter("memctrl.patterned_reads", &c.ctr.PatternedReads)
	reg.RegisterHistogram("memctrl.read_queue_wait", &c.ctr.ReadWait)
	for _, ch := range c.ch {
		ch := ch
		p := fmt.Sprintf("memctrl.ch%d", ch.id)
		reg.RegisterGaugeFunc(p+".read_queue_depth", func() int64 { return int64(len(ch.readQ)) })
		reg.RegisterGaugeFunc(p+".write_queue_depth", func() int64 { return int64(len(ch.writeQ)) })
		reg.RegisterGaugeFunc(p+".active_cycles", func() int64 { return int64(ch.activeCycles) })
		for ri, rank := range ch.ranks {
			rank.RegisterMetrics(reg, fmt.Sprintf("dram.ch%d.rk%d", ch.id, ri))
		}
	}
}

// Stats returns a snapshot of the controller's counters, folding in the
// per-rank command counts.
func (c *Controller) Stats() Stats {
	s := Stats{
		ReadsServed:    c.ctr.ReadsServed.Value(),
		WritesServed:   c.ctr.WritesServed.Value(),
		RowHitReads:    c.ctr.RowHitReads.Value(),
		RowMissReads:   c.ctr.RowMissReads.Value(),
		RowHitWrites:   c.ctr.RowHitWrites.Value(),
		RowMissWrites:  c.ctr.RowMissWrites.Value(),
		Forwards:       c.ctr.Forwards.Value(),
		DroppedPrefs:   c.ctr.DroppedPrefs.Value(),
		Refreshes:      c.ctr.Refreshes.Value(),
		ReadQueueWait:  c.ctr.ReadQueueWait.Value(),
		PatternedReads: c.ctr.PatternedReads.Value(),
	}
	for _, ch := range c.ch {
		for _, r := range ch.ranks {
			rs := r.Stats()
			s.ACTs += rs.ACTs
			s.PREs += rs.PREs
			s.Refreshes += rs.Refreshes
			s.BusBusyCycles += uint64(rs.BusBusy)
		}
		s.ActiveCycles += uint64(ch.activeCycles)
	}
	return s
}

// Pending reports whether any channel still has queued requests.
func (c *Controller) Pending() bool {
	for _, ch := range c.ch {
		if len(ch.readQ) > 0 || len(ch.writeQ) > 0 {
			return true
		}
	}
	return false
}

// Enqueue submits a request at time now. Write requests are acknowledged
// immediately (posted writes); their OnComplete fires right away and the
// data drains to DRAM in the background. Read requests complete when their
// data burst finishes. Prefetch reads are dropped (returning false) if the
// read queue is full; demand requests are always accepted.
//
// Enqueue takes ownership of req: the controller recycles it once served,
// so the caller must not touch it after Enqueue returns.
func (c *Controller) Enqueue(now sim.Cycle, req *Request) bool {
	loc, err := c.cfg.Spec.Decompose(c.cfg.Spec.LineAddr(req.Addr))
	if err != nil {
		panic(fmt.Sprintf("memctrl: request outside physical memory: %v", err))
	}
	req.loc = loc
	req.arrival = now
	if req.Lat != nil {
		req.Lat.Enqueue = now
		req.Lat.Channel = loc.Channel
		req.Lat.Rank = loc.Rank
		req.Lat.Bank = loc.Bank
	}
	ch := c.ch[loc.Channel]

	if req.Write {
		ch.writeQ = append(ch.writeQ, req)
		if req.OnComplete != nil {
			cb := req.OnComplete
			c.q.Schedule(now, cb)
		}
		ch.kick(now)
		return true
	}

	// Write-to-read forwarding: a read that hits a queued write is served
	// from the write queue after a fixed controller pass-through.
	for _, w := range ch.writeQ {
		if w.Addr == req.Addr && w.Pattern == req.Pattern {
			c.ctr.Forwards++
			c.ctr.ReadsServed++
			if req.Lat != nil {
				req.Lat.Forwarded = true
				req.Lat.Done = now + sim.Cycle(2*c.cfg.ClockRatio)
			}
			if req.OnComplete != nil {
				cb := req.OnComplete
				c.q.Schedule(now+sim.Cycle(2*c.cfg.ClockRatio), cb)
			}
			c.recycle(req)
			return true
		}
	}

	if len(ch.readQ) >= c.cfg.ReadQueueCap {
		if req.IsPrefetch {
			c.ctr.DroppedPrefs++
			c.recycle(req)
			return false
		}
		// Demand reads are accepted beyond the cap: the cores are blocking
		// and bound the true queue depth; the cap exists to throttle
		// prefetchers.
	}
	ch.readQ = append(ch.readQ, req)
	ch.kick(now)
	return true
}

// channel is the per-channel scheduler state.
type channel struct {
	ctrl   *Controller
	id     int
	timing dram.Timing
	ranks  []*dram.Rank

	readQ  []*Request
	writeQ []*Request

	draining    bool
	nextRefresh sim.Cycle
	refreshing  bool

	wake  *sim.Event
	runFn func(now sim.Cycle)

	// Background-energy integration: CPU cycles during which at least one
	// bank in the channel had an open row.
	activeCycles sim.Cycle
	lastAccount  sim.Cycle
}

// kick ensures the scheduler will run at or before `at`.
func (ch *channel) kick(at sim.Cycle) {
	if ch.wake != nil && ch.wake.When <= at {
		return
	}
	if ch.wake != nil {
		ch.ctrl.q.Cancel(ch.wake)
	}
	ch.wake = ch.ctrl.q.Schedule(at, ch.runFn)
}

// accountActive integrates open-bank time up to now.
func (ch *channel) accountActive(now sim.Cycle) {
	if now > ch.lastAccount {
		for _, r := range ch.ranks {
			if r.AnyBankOpen() {
				ch.activeCycles += now - ch.lastAccount
			}
		}
		ch.lastAccount = now
	}
}

// run is the scheduler activation: issue every command that can issue at
// `now`, then schedule the next activation at the earliest future time any
// useful command becomes legal.
func (ch *channel) run(now sim.Cycle) {
	ch.wake = nil
	ch.accountActive(now)

	// Catch up refresh deadlines skipped while the channel was idle: the
	// refreshes would have happened in the background, so account them
	// without replaying each tRFC. A deadline within the last tREFI is
	// still due and is paid with a REF command.
	for ch.nextRefresh+sim.Cycle(ch.timing.TREF) < now {
		ch.nextRefresh += sim.Cycle(ch.timing.TREF)
		ch.ctrl.ctr.Refreshes++
	}

	issued := true
	for issued {
		issued = ch.tryIssueOne(now)
	}

	next, ok := ch.nextInterest(now)
	if ok {
		ch.wake = ch.ctrl.q.Schedule(next, ch.runFn)
	}
}

// tryIssueOne issues at most one DRAM command at time now. It returns true
// if a command was issued (more may follow in the same activation).
func (ch *channel) tryIssueOne(now sim.Cycle) bool {
	// Refresh has absolute priority once due: close open banks, then REF.
	if now >= ch.nextRefresh {
		return ch.advanceRefresh(now)
	}

	// Closed-row policy: precharge banks whose open row serves no queued
	// request.
	if ch.ctrl.cfg.Row == ClosedRow {
		if ch.closeIdleRow(now) {
			return true
		}
	}

	ch.updateDrainMode()

	q := ch.serveQueue()
	if len(q) == 0 {
		return false
	}
	req, cmd := ch.pick(q, now)
	if req == nil {
		return false
	}
	if req.Lat != nil && req.Lat.FirstSched == 0 {
		// First time the scheduler selected this request during an
		// activation (it may still be blocked by DDR timing below).
		req.Lat.FirstSched = now
	}
	rank := ch.ranks[req.loc.Rank]
	earliest := rank.EarliestIssue(cmd, req.loc.Bank, now)
	if earliest > now {
		return false
	}
	ch.issue(rank, req, cmd, now)
	return true
}

// updateDrainMode applies the write-drain watermarks.
func (ch *channel) updateDrainMode() {
	switch {
	case len(ch.writeQ) >= ch.ctrl.cfg.WriteHighMark:
		ch.draining = true
	case len(ch.writeQ) <= ch.ctrl.cfg.WriteLowMark:
		ch.draining = false
	}
	// With no reads pending, drain writes opportunistically.
	if len(ch.readQ) == 0 && len(ch.writeQ) > 0 {
		ch.draining = true
	}
}

// serveQueue returns the queue the scheduler is currently serving.
func (ch *channel) serveQueue() []*Request {
	if ch.draining && len(ch.writeQ) > 0 {
		return ch.writeQ
	}
	return ch.readQ
}

// pick selects the next request and the command it needs, according to
// the configured scheduling policy.
//
// FR-FCFS: the oldest row-hit request first, otherwise the oldest
// request. A PRE on behalf of a row-conflict request is suppressed while
// any queued request in the same serve set still hits an open row (the
// "first-ready" half of the policy).
//
// FCFS: strictly the oldest request.
func (ch *channel) pick(q []*Request, now sim.Cycle) (*Request, dram.CmdKind) {
	if ch.ctrl.cfg.Sched == PolicyFRFCFS {
		// Oldest row hit.
		for _, r := range q {
			rank := ch.ranks[r.loc.Rank]
			if rank.OpenRow(r.loc.Bank) == r.loc.Row {
				if r.Write {
					return r, dram.CmdWR
				}
				return r, dram.CmdRD
			}
		}
	}
	// Oldest request; open its row (possibly after closing another).
	r := q[0]
	rank := ch.ranks[r.loc.Rank]
	switch rank.OpenRow(r.loc.Bank) {
	case r.loc.Row:
		if r.Write {
			return r, dram.CmdWR
		}
		return r, dram.CmdRD
	case dram.NoRow:
		return r, dram.CmdACT
	default:
		return r, dram.CmdPRE
	}
}

// closeIdleRow precharges one bank whose open row has no queued work
// (closed-row policy). It returns true if a PRE was issued.
func (ch *channel) closeIdleRow(now sim.Cycle) bool {
	for ri, rank := range ch.ranks {
		for b := 0; b < rank.Banks(); b++ {
			row := rank.OpenRow(b)
			if row == dram.NoRow || ch.rowHasWork(ri, b, row) {
				continue
			}
			if rank.EarliestIssue(dram.CmdPRE, b, now) > now {
				continue
			}
			ch.accountActive(now)
			rank.Issue(dram.CmdPRE, b, 0, now)
			ch.observe(now, ri, b, row, dram.CmdPRE, 0)
			return true
		}
	}
	return false
}

// observe reports a command to the configured observer.
func (ch *channel) observe(at sim.Cycle, rank, bank, row int, kind dram.CmdKind, patt gsdram.Pattern) {
	if ob := ch.ctrl.cfg.Observer; ob != nil {
		ob(CommandEvent{At: at, Channel: ch.id, Rank: rank, Bank: bank, Row: row, Kind: kind, Pattern: patt})
	}
}

// rowHasWork reports whether any queued request targets (rank, bank, row).
func (ch *channel) rowHasWork(rank, bank, row int) bool {
	for _, r := range ch.readQ {
		if r.loc.Rank == rank && r.loc.Bank == bank && r.loc.Row == row {
			return true
		}
	}
	for _, r := range ch.writeQ {
		if r.loc.Rank == rank && r.loc.Bank == bank && r.loc.Row == row {
			return true
		}
	}
	return false
}

// issue applies one command and handles request completion.
func (ch *channel) issue(rank *dram.Rank, req *Request, cmd dram.CmdKind, now sim.Cycle) {
	ch.accountActive(now)
	done := rank.Issue(cmd, req.loc.Bank, req.loc.Row, now)
	ch.observe(now, req.loc.Rank, req.loc.Bank, req.loc.Row, cmd, req.Pattern)
	c := ch.ctrl
	if req.Lat != nil {
		if req.Lat.FirstCmd == 0 {
			req.Lat.FirstCmd = now
		}
		if cmd == dram.CmdRD {
			req.Lat.CAS = now
			req.Lat.Done = done
		}
	}
	switch cmd {
	case dram.CmdRD:
		c.ctr.ReadsServed++
		wait := uint64(now - req.arrival)
		c.ctr.ReadQueueWait += metrics.Counter(wait)
		c.ctr.ReadWait.Observe(wait)
		if req.Pattern != gsdram.DefaultPattern {
			c.ctr.PatternedReads++
		}
		if req.missed {
			c.ctr.RowMissReads++
		} else {
			c.ctr.RowHitReads++
		}
		ch.remove(req)
		if req.OnComplete != nil {
			cb := req.OnComplete
			c.q.Schedule(done, cb)
		}
		c.recycle(req)
	case dram.CmdWR:
		c.ctr.WritesServed++
		if req.missed {
			c.ctr.RowMissWrites++
		} else {
			c.ctr.RowHitWrites++
		}
		ch.remove(req)
		c.recycle(req)
	case dram.CmdACT, dram.CmdPRE:
		req.missed = true
	}
}

// remove deletes req from whichever queue holds it, preserving order.
func (ch *channel) remove(req *Request) {
	for i, r := range ch.readQ {
		if r == req {
			ch.readQ = append(ch.readQ[:i], ch.readQ[i+1:]...)
			return
		}
	}
	for i, r := range ch.writeQ {
		if r == req {
			ch.writeQ = append(ch.writeQ[:i], ch.writeQ[i+1:]...)
			return
		}
	}
}

// advanceRefresh steps the refresh protocol: precharge all open banks,
// then issue REF on every rank, then move the deadline.
func (ch *channel) advanceRefresh(now sim.Cycle) bool {
	for ri, rank := range ch.ranks {
		for b := 0; b < rank.Banks(); b++ {
			if row := rank.OpenRow(b); row != dram.NoRow {
				if rank.EarliestIssue(dram.CmdPRE, b, now) > now {
					return false
				}
				ch.accountActive(now)
				rank.Issue(dram.CmdPRE, b, 0, now)
				ch.observe(now, ri, b, row, dram.CmdPRE, 0)
				return true
			}
		}
	}
	for ri, rank := range ch.ranks {
		if rank.EarliestIssue(dram.CmdREF, 0, now) > now {
			return false
		}
		ch.accountActive(now)
		rank.Issue(dram.CmdREF, 0, 0, now)
		ch.observe(now, ri, 0, 0, dram.CmdREF, 0)
	}
	ch.nextRefresh += sim.Cycle(ch.timing.TREF)
	return true
}

// nextInterest computes the earliest future time the scheduler has
// something to do: a blocked command becoming legal, or a refresh
// deadline.
func (ch *channel) nextInterest(now sim.Cycle) (sim.Cycle, bool) {
	best := sim.Cycle(0)
	have := false
	consider := func(t sim.Cycle) {
		if t <= now {
			t = now + 1
		}
		if !have || t < best {
			best, have = t, true
		}
	}

	if now >= ch.nextRefresh {
		// Mid-refresh: wake when the blocking PRE/REF becomes legal.
		for _, rank := range ch.ranks {
			for b := 0; b < rank.Banks(); b++ {
				if rank.OpenRow(b) != dram.NoRow {
					consider(rank.EarliestIssue(dram.CmdPRE, b, now))
				}
			}
			consider(rank.EarliestIssue(dram.CmdREF, 0, now))
		}
		return best, have
	}

	// Closed-row policy: wake when a pending idle-row PRE becomes legal.
	if ch.ctrl.cfg.Row == ClosedRow {
		for ri, rank := range ch.ranks {
			for b := 0; b < rank.Banks(); b++ {
				row := rank.OpenRow(b)
				if row != dram.NoRow && !ch.rowHasWork(ri, b, row) {
					consider(rank.EarliestIssue(dram.CmdPRE, b, now))
				}
			}
		}
	}

	if len(ch.readQ) > 0 || len(ch.writeQ) > 0 {
		q := ch.serveQueue()
		if req, cmd := ch.pick(q, now); req != nil {
			rank := ch.ranks[req.loc.Rank]
			consider(rank.EarliestIssue(cmd, req.loc.Bank, now))
		}
		// A pending refresh deadline also matters while work is queued.
		consider(ch.nextRefresh)
	} else if !have {
		// Idle channel: only wake for refresh if something will need it;
		// refresh bookkeeping while idle is handled lazily at the next
		// enqueue. Skipping idle refreshes underestimates refresh energy
		// slightly but never affects correctness of data timing.
		return 0, false
	}
	return best, have
}
