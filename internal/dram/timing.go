// Package dram models the timing behaviour of a DDR3 rank: per-bank state
// machines (precharged / activating / open row), inter-command timing
// constraints (tRCD, tRP, CL, tRAS, tRRD, tFAW, tWTR, ...), the shared
// data bus, and periodic refresh.
//
// The model is command-accurate: the memory controller asks when a command
// could issue, issues it, and the rank updates every downstream constraint.
// Activity counters feed the energy model (internal/energy).
//
// All times are expressed in CPU cycles. DDR parameters are specified in
// memory-bus cycles and scaled by the CPU:bus clock ratio once, at
// construction.
package dram

// Timing holds DDR timing parameters in memory-bus cycles.
type Timing struct {
	CL   int // CAS latency: READ to first data beat
	CWL  int // CAS write latency: WRITE to first data beat
	TRCD int // ACTIVATE to READ/WRITE
	TRP  int // PRECHARGE to ACTIVATE
	TRAS int // ACTIVATE to PRECHARGE
	TRC  int // ACTIVATE to ACTIVATE (same bank)
	TBL  int // burst length on the bus (8 beats = 4 cycles in DDR)
	TCCD int // column command to column command
	TRTP int // READ to PRECHARGE
	TWR  int // end of write burst to PRECHARGE (write recovery)
	TWTR int // end of write burst to READ (same rank)
	TRTW int // READ command to WRITE command spacing
	TRRD int // ACTIVATE to ACTIVATE (different banks)
	TFAW int // four-activate window
	TRFC int // refresh cycle time
	TREF int // refresh interval (tREFI)
}

// DDR3_1600 returns JEDEC DDR3-1600K (11-11-11) timing in bus cycles
// (tCK = 1.25 ns), with 4 Gb-device refresh timing.
func DDR3_1600() Timing {
	return Timing{
		CL:   11,
		CWL:  8,
		TRCD: 11,
		TRP:  11,
		TRAS: 28,
		TRC:  39,
		TBL:  4,
		TCCD: 4,
		TRTP: 6,
		TWR:  12,
		TWTR: 6,
		TRTW: 7, // CL - CWL + TBL + 2*(bus turnaround)
		TRRD: 5,
		TFAW: 24,
		TRFC: 208,  // 260 ns for a 4 Gb device
		TREF: 6240, // 7.8 us
	}
}

// ReadDataCycles returns the time from RD issue to the end of the data
// burst (CAS latency plus burst length), in the Timing's own unit —
// exactly the interval Rank.Issue reports for a CmdRD. The latency
// attribution tests use it to pin the data_transfer span of an
// uncontended read.
func (t Timing) ReadDataCycles() int { return t.CL + t.TBL }

// Scaled returns the timing with every parameter multiplied by ratio —
// used to convert bus cycles to CPU cycles (ratio 5 for a 4 GHz core with
// an 800 MHz DDR3-1600 bus).
func (t Timing) Scaled(ratio int) Timing {
	return Timing{
		CL:   t.CL * ratio,
		CWL:  t.CWL * ratio,
		TRCD: t.TRCD * ratio,
		TRP:  t.TRP * ratio,
		TRAS: t.TRAS * ratio,
		TRC:  t.TRC * ratio,
		TBL:  t.TBL * ratio,
		TCCD: t.TCCD * ratio,
		TRTP: t.TRTP * ratio,
		TWR:  t.TWR * ratio,
		TWTR: t.TWTR * ratio,
		TRTW: t.TRTW * ratio,
		TRRD: t.TRRD * ratio,
		TFAW: t.TFAW * ratio,
		TRFC: t.TRFC * ratio,
		TREF: t.TREF * ratio,
	}
}
