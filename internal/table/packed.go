package table

// This file implements the frozen storage format of dictionary codes.
// A column under construction keeps its codes as a plain []int32; when
// the table is built (or a derived column is assembled) the codes are
// packed to ceil(log2(cardinality)) bits each, so a million-row column
// over a 74-value dictionary costs 7 bits per row instead of 32. Hot
// loops read codes back in blocks through appendRange — one bounds
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
	w := uint(k.p.width)
	word, shift := k.off>>6, k.off&63
	k.p.words[word] |= uint64(uint32(c)) << shift
	if shift+w > 64 {
		k.p.words[word+1] |= uint64(uint32(c)) >> (64 - shift)
	}
	k.off += w
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

// appendRange appends the codes of rows [lo, hi) to dst.
func (p *packedCodes) appendRange(dst []uint32, lo, hi int) []uint32 {
	if p.raw != nil {
		return append(dst, p.raw[lo:hi]...)
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
		dst = append(dst, uint32(v)&mask)
		off += w
	}
	return dst
}

// appendRange32 is appendRange into an int32 slice — the internal
// group-by kernels keep codes as int32 scratch.
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
