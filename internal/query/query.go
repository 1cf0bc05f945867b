// Package query implements a small layout-aware query engine over the
// in-memory database (internal/imdb): aggregate scans with optional
// filters, and point lookups. It is the software layer the paper's §5.1
// workloads abstract: the planner chooses the access pattern per layout
// (whole-tuple reads for row stores, per-field arrays for column stores,
// pattern-7 gathers for GS-DRAM), and every query executes functionally
// against machine memory while emitting the instruction stream the core
// model times.
package query

import (
	"fmt"

	"gsdram/internal/cpu"
	"gsdram/internal/imdb"
)

// AggKind selects an aggregate function.
type AggKind int

const (
	Sum AggKind = iota
	Count
	Min
	Max
)

func (k AggKind) String() string {
	switch k {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return "AGG?"
	}
}

// Agg is one aggregate over a field. Count ignores the field.
type Agg struct {
	Kind  AggKind
	Field int
}

// CmpOp is a filter comparison.
type CmpOp int

const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

func (o CmpOp) eval(a, b uint64) bool {
	switch o {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	default:
		return false
	}
}

// Filter is an optional WHERE field <op> value predicate.
type Filter struct {
	Field int
	Op    CmpOp
	Value uint64
}

// Query is an aggregate scan: SELECT agg1, agg2, ... FROM table
// [WHERE field op value].
type Query struct {
	Aggregates []Agg
	Filter     *Filter
}

// String renders the query in SQL-ish form.
func (q Query) String() string {
	s := "SELECT "
	for i, a := range q.Aggregates {
		if i > 0 {
			s += ", "
		}
		if a.Kind == Count {
			s += "COUNT(*)"
		} else {
			s += fmt.Sprintf("%v(f%d)", a.Kind, a.Field)
		}
	}
	s += " FROM t"
	if q.Filter != nil {
		s += fmt.Sprintf(" WHERE f%d %v %d", q.Filter.Field, q.Filter.Op, q.Filter.Value)
	}
	return s
}

// Result holds a query's output: one value per aggregate, plus the number
// of rows that passed the filter.
type Result struct {
	Values []uint64
	Rows   uint64
}

// Engine plans and executes queries over one table.
type Engine struct {
	db *imdb.DB
}

// NewEngine returns an engine over the table.
func NewEngine(db *imdb.DB) *Engine { return &Engine{db: db} }

// Plan is a validated, layout-aware execution plan.
type Plan struct {
	eng    *Engine
	query  Query
	fields []int // distinct fields the scan must read, in read order
}

// Fields returns the distinct fields the plan reads per tuple.
func (p *Plan) Fields() []int {
	out := make([]int, len(p.fields))
	copy(out, p.fields)
	return out
}

// Plan validates a query and computes its field set. The filter field is
// read first so aggregates can be skipped for filtered-out tuples
// (which changes instruction count, not line fetches: all fields of a
// group share gathered/tuple lines anyway).
func (e *Engine) Plan(q Query) (*Plan, error) {
	if len(q.Aggregates) == 0 {
		return nil, fmt.Errorf("query: no aggregates")
	}
	seen := map[int]bool{}
	var fields []int
	add := func(f int) error {
		if f < 0 || f >= imdb.FieldsPerTuple {
			return fmt.Errorf("query: field %d out of range", f)
		}
		if !seen[f] {
			seen[f] = true
			fields = append(fields, f)
		}
		return nil
	}
	if q.Filter != nil {
		if err := add(q.Filter.Field); err != nil {
			return nil, err
		}
	}
	for _, a := range q.Aggregates {
		if a.Kind == Count {
			continue
		}
		if err := add(a.Field); err != nil {
			return nil, err
		}
	}
	if len(fields) == 0 && q.Filter == nil {
		// COUNT(*) with no filter: still scan one field to count rows the
		// way a real engine walks a column.
		fields = append(fields, 0)
	}
	return &Plan{eng: e, query: q, fields: fields}, nil
}

// loadOpFor returns the timing op for reading field f of tuple t under
// the table's layout: tuple-relative loads for row/column stores, a
// pattern-7 gathered load for GS-DRAM.
func (p *Plan) loadOpFor(t, f int, pc uint64) cpu.Op {
	db := p.eng.db
	if db.Layout() == imdb.GSStore {
		return cpu.PattLoad(db.GatherLineAddr(t, f), imdb.FieldPattern, pc)
	}
	op := cpu.Load(db.FieldAddr(t, f), pc)
	return op
}

// Stream returns the instruction stream executing the plan; the result is
// populated during generation (valid once the stream has been consumed by
// a core, or immediately for pure functional use).
func (p *Plan) Stream(res *Result) cpu.Stream {
	if res == nil {
		res = &Result{}
	}
	q := p.query
	res.Values = make([]uint64, len(q.Aggregates))
	mins := make([]bool, len(q.Aggregates)) // min initialised?
	db := p.eng.db

	t := 0
	var pending cpu.OpQueue
	return cpu.FuncStream(func() (cpu.Op, bool) {
		for pending.Empty() {
			if t >= db.Tuples() {
				return cpu.Op{}, false
			}
			// Read the plan's fields functionally.
			vals := map[int]uint64{}
			for _, f := range p.fields {
				v, err := db.ReadField(t, f)
				if err != nil {
					panic(fmt.Sprintf("query: functional read failed: %v", err))
				}
				vals[f] = v
			}
			pass := true
			if q.Filter != nil {
				pass = q.Filter.Op.eval(vals[q.Filter.Field], q.Filter.Value)
			}

			// Timing: load the filter field, branch; load aggregate
			// fields and accumulate only for passing tuples.
			pc := uint64(0x4000)
			if q.Filter != nil {
				pending.Push(p.loadOpFor(t, q.Filter.Field, pc), cpu.Compute(2))
			}
			if pass {
				res.Rows++
				for i, a := range q.Aggregates {
					switch a.Kind {
					case Count:
						res.Values[i]++
					case Sum:
						res.Values[i] += vals[a.Field]
					case Min:
						if !mins[i] || vals[a.Field] < res.Values[i] {
							res.Values[i] = vals[a.Field]
							mins[i] = true
						}
					case Max:
						if vals[a.Field] > res.Values[i] {
							res.Values[i] = vals[a.Field]
						}
					}
					if a.Kind != Count {
						if q.Filter == nil || a.Field != q.Filter.Field {
							pending.Push(p.loadOpFor(t, a.Field, pc+1+uint64(i)))
						}
						pending.Push(cpu.Compute(2))
					} else {
						pending.Push(cpu.Compute(1))
					}
				}
			}
			t++
		}
		return pending.Pop()
	})
}

// Execute runs the plan purely functionally (no timing) and returns the
// result — for correctness checks and non-simulated use.
func (p *Plan) Execute() (*Result, error) {
	var res Result
	s := p.Stream(&res)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	return &res, nil
}

// Lookup is the transactional point query: SELECT the given fields of one
// tuple. It returns the values and the ops a core executes (one line for
// row/GS stores, one per field for column stores).
func (e *Engine) Lookup(tuple int, fields []int) ([]uint64, []cpu.Op, error) {
	db := e.db
	if tuple < 0 || tuple >= db.Tuples() {
		return nil, nil, fmt.Errorf("query: tuple %d out of range", tuple)
	}
	var vals []uint64
	ops := []cpu.Op{cpu.Compute(6)}
	for i, f := range fields {
		if f < 0 || f >= imdb.FieldsPerTuple {
			return nil, nil, fmt.Errorf("query: field %d out of range", f)
		}
		v, err := db.ReadField(tuple, f)
		if err != nil {
			return nil, nil, err
		}
		vals = append(vals, v)
		op := cpu.Load(db.FieldAddr(tuple, f), 0x4100+uint64(i))
		if db.Layout() == imdb.GSStore {
			op.Shuffled = true
			op.AltPattern = imdb.FieldPattern
		}
		ops = append(ops, op, cpu.Compute(1))
	}
	return vals, ops, nil
}

// Update is the transactional point write: set the given fields of one
// tuple, returning the ops executed.
func (e *Engine) Update(tuple int, fields []int, values []uint64) ([]cpu.Op, error) {
	db := e.db
	if tuple < 0 || tuple >= db.Tuples() {
		return nil, fmt.Errorf("query: tuple %d out of range", tuple)
	}
	if len(fields) != len(values) {
		return nil, fmt.Errorf("query: %d fields but %d values", len(fields), len(values))
	}
	ops := []cpu.Op{cpu.Compute(6)}
	for i, f := range fields {
		if f < 0 || f >= imdb.FieldsPerTuple {
			return nil, fmt.Errorf("query: field %d out of range", f)
		}
		if err := db.WriteField(tuple, f, values[i]); err != nil {
			return nil, err
		}
		op := cpu.Store(db.FieldAddr(tuple, f), 0x4200+uint64(i))
		if db.Layout() == imdb.GSStore {
			op.Shuffled = true
			op.AltPattern = imdb.FieldPattern
		}
		ops = append(ops, op, cpu.Compute(1))
	}
	return ops, nil
}
