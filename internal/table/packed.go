package table

// This file implements the frozen storage format of dictionary codes.
// A column under construction keeps its codes as a plain []int32; when
// the table is built (or a derived column is assembled) the codes are
// packed to ceil(log2(cardinality)) bits each, so a million-row column
// over a 74-value dictionary costs 7 bits per row instead of 32. Hot
// loops read codes back in blocks through appendRange32 — one bounds
// check and one or two word loads per code, no per-row interface call.

// packWidth is the widest per-code bit width that is stored packed.
// Wider dictionaries (beyond 2^16 distinct values) take the unpacked
// fast path: a flat []uint32, which reads faster than straddled
// multi-word extraction and still halves the []int64-era footprint.
const packWidth = 16

// packedCodes is immutable bit-packed code storage. Exactly one of
// words/raw is populated: words when width <= packWidth (codes laid
// end-to-end, little-endian within each uint64, entries may straddle a
// word boundary), raw otherwise.
type packedCodes struct {
	n     int
	width uint8
	words []uint64
	raw   []uint32
}

// codeWidth returns the bit width needed for codes in [0, card):
// ceil(log2(card)), minimum 1 so a constant column still occupies a
// well-defined stream.
func codeWidth(card int) uint8 {
	w := uint8(1)
	for card > 1<<w {
		w++
	}
	return w
}

// packCodes freezes a code slice whose values lie in [0, card).
func packCodes(codes []int32, card int) packedCodes {
	k := newCodePacker(len(codes), card)
	for _, c := range codes {
		k.put(c)
	}
	return k.p
}

// codePacker writes n codes in [0, card) one by one straight into
// packed storage, so a column translated a block at a time never holds
// its codes unpacked.
type codePacker struct {
	p   packedCodes
	off uint
}

func newCodePacker(n, card int) *codePacker {
	k := &codePacker{p: packedCodes{n: n, width: codeWidth(card)}}
	if k.p.width > packWidth {
		k.p.raw = make([]uint32, 0, n)
	} else {
		k.p.words = make([]uint64, (uint(n)*uint(k.p.width)+63)/64)
	}
	return k
}

// put writes the next code.
func (k *codePacker) put(c int32) {
	if k.p.words == nil {
		k.p.raw = append(k.p.raw, uint32(c))
		return
	}
	k.putBits(uint64(uint32(c)), uint(k.p.width))
}

// putBits writes the low n bits of v (1 <= n <= 64; the bits above n
// must be zero) at the write position.
func (k *codePacker) putBits(v uint64, n uint) {
	word, shift := k.off>>6, k.off&63
	k.p.words[word] |= v << shift
	if shift+n > 64 {
		k.p.words[word+1] |= v >> (64 - shift)
	}
	k.off += n
}

// copyRun writes the codes of src's rows [lo, hi), 64 bits at a time
// instead of code by code; src must store its codes the way the packer
// does (same width).
func (k *codePacker) copyRun(src *packedCodes, lo, hi int) {
	if k.p.words == nil {
		k.p.raw = append(k.p.raw, src.raw[lo:hi]...)
		return
	}
	w := uint(k.p.width)
	for off, end := uint(lo)*w, uint(hi)*w; off < end; off += 64 {
		n := min(64, end-off)
		k.putBits(src.bits(off, n), n)
	}
}

// gather writes the codes of src's rows, which src must store the way
// the packer does (same width). An ascending run of rows is copied as a
// bit stream (copyRun); lone rows go code by code in an inner loop
// without calls, which keeps a permutation as fast as a plain per-row
// gather, and that loop stops at the first row of a run.
func (k *codePacker) gather(src *packedCodes, rows []int) {
	for i := 0; i < len(rows); {
		for ; i < len(rows); i++ {
			r := rows[i]
			if i+1 < len(rows) && rows[i+1] == r+1 {
				break
			}
			k.put(int32(src.get(r)))
		}
		if i < len(rows) {
			r, n := rows[i], 2
			for i+n < len(rows) && rows[i+n] == r+n {
				n++
			}
			k.copyRun(src, r, r+n)
			i += n
		}
	}
}

// get extracts the code at row i.
func (p *packedCodes) get(i int) uint32 {
	if p.raw != nil {
		return p.raw[i]
	}
	w := uint(p.width)
	off := uint(i) * w
	word, shift := off>>6, off&63
	v := p.words[word] >> shift
	if shift+w > 64 {
		v |= p.words[word+1] << (64 - shift)
	}
	return uint32(v) & (1<<w - 1)
}

// bits returns the n bits of the stream (1 <= n <= 64) that start at
// bit off, in the low bits of the result.
func (p *packedCodes) bits(off, n uint) uint64 {
	word, shift := off>>6, off&63
	v := p.words[word] >> shift
	if shift+n > 64 {
		v |= p.words[word+1] << (64 - shift)
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	return v
}

// appendRange32 appends the codes of rows [lo, hi) to dst, an int32
// slice: the group-by kernels keep codes as int32 scratch.
func (p *packedCodes) appendRange32(dst []int32, lo, hi int) []int32 {
	if p.raw != nil {
		for _, v := range p.raw[lo:hi] {
			dst = append(dst, int32(v))
		}
		return dst
	}
	w := uint(p.width)
	mask := uint32(1)<<w - 1
	off := uint(lo) * w
	for i := lo; i < hi; i++ {
		word, shift := off>>6, off&63
		v := p.words[word] >> shift
		if shift+w > 64 {
			v |= p.words[word+1] << (64 - shift)
		}
		dst = append(dst, int32(uint32(v)&mask))
		off += w
	}
	return dst
}

// unpack rebuilds the plain code slice (the rare un-freeze path: a
// frozen column that is appended to again).
func (p *packedCodes) unpack() []int32 {
	out := make([]int32, 0, p.n)
	return p.appendRange32(out, 0, p.n)
}

func (p *packedCodes) memBytes() int64 {
	return int64(len(p.words))*8 + int64(len(p.raw))*4
}
