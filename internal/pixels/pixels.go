// Package pixels implements the graphics use case of paper §5.3:
// "multiple pieces of information (e.g., RGB values of pixels) may be
// packed into small objects. Different operations may access multiple
// values within an object or a single value across a large number of
// objects."
//
// A pixel is an 8-field record (R, G, B, A, Depth, Stencil, U, V; 8 bytes
// per field, one 64-byte line). Three access patterns map onto GS-DRAM
// patterns:
//
//   - shading touches every field of individual pixels — pattern 0;
//   - channel extraction (histogram, tone mapping) touches one field of
//     every pixel — pattern 7;
//   - paired-channel operations (e.g. R,G + D,S of alternating pixels)
//     match pattern 2's dual-stride gather, the §3.5 "odd-even pairs of
//     fields" use case.
package pixels

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cpu"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
)

// Channel indices of the pixel record.
const (
	ChanR = iota
	ChanG
	ChanB
	ChanA
	ChanDepth
	ChanStencil
	ChanU
	ChanV
	NumChannels
)

// ChannelPattern gathers one channel across 8 consecutive pixels.
const ChannelPattern gsdram.Pattern = 7

// PairPattern is pattern 2: the dual-stride (1,7) gather returning
// channel pairs {0,1} and {4,5} — (R,G) and (Depth,Stencil) — of two
// alternating pixels per line (§3.5).
const PairPattern gsdram.Pattern = 2

// Image is a pixel array in machine memory. GS images live in shuffled
// pages with alternate pattern 7 (the channel plane pattern).
type Image struct {
	mach *machine.Machine
	base addrmap.Addr
	n    int
	gs   bool
}

// New allocates an image of n pixels. n must be a multiple of 8.
func New(mach *machine.Machine, n int, gs bool) (*Image, error) {
	if n <= 0 || n%8 != 0 {
		return nil, fmt.Errorf("pixels: n must be a positive multiple of 8, got %d", n)
	}
	img := &Image{mach: mach, n: n, gs: gs}
	var err error
	if gs {
		img.base, err = mach.AS.PattMalloc(n*64, ChannelPattern)
	} else {
		img.base, err = mach.AS.Malloc(n * 64)
	}
	if err != nil {
		return nil, err
	}
	return img, nil
}

// N returns the pixel count.
func (img *Image) N() int { return img.n }

// GS reports whether the image uses shuffled pages.
func (img *Image) GS() bool { return img.gs }

// Addr returns the byte address of channel c of pixel p.
func (img *Image) Addr(p, c int) addrmap.Addr {
	return img.base + addrmap.Addr(p*64+c*8)
}

// Set writes channel c of pixel p functionally.
func (img *Image) Set(p, c int, v uint64) error {
	return img.mach.WriteWord(img.Addr(p, c), v)
}

// Get reads channel c of pixel p functionally.
func (img *Image) Get(p, c int) (uint64, error) {
	return img.mach.ReadWord(img.Addr(p, c))
}

// channelLine is the pattern-7 line gathering channel c of the 8-pixel
// group containing p.
func (img *Image) channelLine(p, c int) addrmap.Addr {
	return img.base + addrmap.Addr(((p&^7)+c)*64)
}

// GatherChannel returns channel c of pixels g*8..g*8+7 via one pattern-7
// line read (GS images only).
func (img *Image) GatherChannel(g, c int) ([]uint64, error) {
	if !img.gs {
		return nil, fmt.Errorf("pixels: GatherChannel requires a GS image")
	}
	if c < 0 || c >= NumChannels {
		return nil, fmt.Errorf("pixels: channel %d out of range", c)
	}
	if g < 0 || g*8 >= img.n {
		return nil, fmt.Errorf("pixels: group %d out of range", g)
	}
	dst := make([]uint64, 8)
	if err := img.mach.ReadLine(img.channelLine(g*8, c), ChannelPattern, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// PairGather describes the content of one pattern-2 line: two channel
// *pairs* from each of two pixels two apart — the §3.5 "odd-even pairs of
// fields" shape. For column ≡ 0 (mod 8) the channels are
// {R, G, Depth, Stencil}.
type PairGather struct {
	Pixel    [2]int // the two pixels the dual-stride gather touched
	Channels [4]int // the four channels returned for each pixel
	Values   [2][4]uint64
}

// GatherPairs reads one pattern-2 line and decodes it. col selects which
// of the image's pattern-2 lines to read; it must lie within the first
// DRAM row of the image. This demonstrates the §3.5 odd-even pair use
// case functionally; pattern 2 is outside the one-alternate-pattern page
// restriction the timing model enforces, so this path reads the module
// directly — mirroring the paper's note that the restriction is a
// software simplification, not a hardware one.
func (img *Image) GatherPairs(col int) (PairGather, error) {
	var pg PairGather
	if !img.gs {
		return pg, fmt.Errorf("pixels: GatherPairs requires a GS image")
	}
	loc, err := img.mach.Spec.Decompose(img.base)
	if err != nil {
		return pg, err
	}
	baseCol := loc.Col
	if col < 0 || col >= img.n || baseCol+col >= img.mach.Spec.Cols {
		return pg, fmt.Errorf("pixels: column %d outside the image's first DRAM row", col)
	}
	dst := make([]uint64, 8)
	logical, err := img.mach.Module(loc).ReadLine(loc.Bank, loc.Row, baseCol+col, PairPattern, true, dst)
	if err != nil {
		return pg, err
	}
	for i := 0; i < 2; i++ {
		pg.Pixel[i] = logical[i*4]/8 - baseCol
	}
	for j := 0; j < 4; j++ {
		pg.Channels[j] = logical[j] % 8
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			pg.Values[i][j] = dst[i*4+j]
		}
	}
	return pg, nil
}

// HistogramResult is the functional output of a channel histogram.
type HistogramResult struct {
	Bins [16]uint64
}

// HistogramStream returns an instruction stream computing a 16-bin
// histogram of one channel over the whole image — the "single value
// across a large number of objects" pattern. GS images use pattern-7
// gathers; plain images fetch one line per pixel.
func (img *Image) HistogramStream(channel int, res *HistogramResult) (cpu.Stream, error) {
	if channel < 0 || channel >= NumChannels {
		return nil, fmt.Errorf("pixels: channel %d out of range", channel)
	}
	if res == nil {
		res = &HistogramResult{}
	}
	p := 0
	var pending cpu.OpQueue
	return cpu.FuncStream(func() (cpu.Op, bool) {
		for pending.Empty() {
			if p >= img.n {
				return cpu.Op{}, false
			}
			v, err := img.Get(p, channel)
			if err != nil {
				panic(err)
			}
			res.Bins[v%16]++
			if img.gs {
				pending.Push(
					cpu.PattLoad(img.channelLine(p, channel), ChannelPattern, 0x3000),
					cpu.Compute(3),
				)
			} else {
				pending.Push(
					cpu.Load(img.Addr(p, channel), 0x3000),
					cpu.Compute(3),
				)
			}
			p++
		}
		return pending.Pop()
	}), nil
}

// ShadeStream returns an instruction stream running a per-pixel shading
// pass over `count` random pixels: read R,G,B, write R,G,B — the
// "multiple values within an object" pattern, which wants whole records.
func (img *Image) ShadeStream(pixelList []int) (cpu.Stream, error) {
	for _, p := range pixelList {
		if p < 0 || p >= img.n {
			return nil, fmt.Errorf("pixels: pixel %d out of range", p)
		}
	}
	i := 0
	var pending cpu.OpQueue
	mk := func(p, c int, write bool) cpu.Op {
		var op cpu.Op
		if write {
			op = cpu.Store(img.Addr(p, c), 0x3100)
		} else {
			op = cpu.Load(img.Addr(p, c), 0x3101)
		}
		if img.gs {
			op.Shuffled = true
			op.AltPattern = ChannelPattern
		}
		return op
	}
	return cpu.FuncStream(func() (cpu.Op, bool) {
		for pending.Empty() {
			if i >= len(pixelList) {
				return cpu.Op{}, false
			}
			p := pixelList[i]
			i++
			pending.Push(cpu.Compute(6))
			for c := ChanR; c <= ChanB; c++ {
				v, err := img.Get(p, c)
				if err != nil {
					panic(err)
				}
				if err := img.Set(p, c, (v*205)/256); err != nil {
					panic(err)
				}
				pending.Push(mk(p, c, false), mk(p, c, true), cpu.Compute(3))
			}
		}
		return pending.Pop()
	}), nil
}
