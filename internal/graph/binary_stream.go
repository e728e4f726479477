package graph

import (
	"encoding/binary"
	"fmt"
	"io"
)

// streamEncoder stages little-endian values in a bounded buffer in front of
// the destination, so encoding costs array stores and one Write per full
// buffer. Errors are sticky.
type streamEncoder struct {
	w   io.Writer
	buf [8 * binaryChunkEntries]byte
	n   int
	err error
}

func (e *streamEncoder) flush() {
	if e.err == nil && e.n > 0 {
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n = 0
}

func (e *streamEncoder) u64(v uint64) {
	if e.n+8 > len(e.buf) {
		e.flush()
	}
	binary.LittleEndian.PutUint64(e.buf[e.n:], v)
	e.n += 8
}

// u32s encodes a run of neighbour entries in bulk.
func (e *streamEncoder) u32s(vs []int32) {
	buf := &e.buf
	for len(vs) > 0 {
		if e.n+4 > len(buf) {
			e.flush()
		}
		n := e.n
		k := min(len(vs), (len(buf)-n)/4)
		for i, v := range vs[:k] {
			binary.LittleEndian.PutUint32(buf[n+4*i:], uint32(v))
		}
		e.n = n + 4*k
		vs = vs[k:]
	}
}

// putBinaryHeader encodes the fixed monolithic snapshot header.
func putBinaryHeader(hdr []byte, n, m, w int) {
	copy(hdr[0:8], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], binaryVersion)
	var flags uint32
	if w > 0 {
		flags |= flagAttrs
	}
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(w))
	// hdr[20:24] is the reserved word, zero.
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(n))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(m))
}

// WriteBinaryTo writes the source's graph as a monolithic binary CSR
// snapshot; Graph.WriteBinary is this function on a materialised graph, so
// the format is canonical across sources. It never needs the concatenated
// CSR arrays: it makes three row passes over the source (offsets, neighbour
// rows, attrs) holding only bounded staging buffers (one chunk of rows plus
// the row that overflows it), which is what lets a sampled graph stream from
// the generator's builder straight to the socket in O(row) memory beyond
// the builder itself.
func WriteBinaryTo(w io.Writer, src RowSource) error {
	n, m, aw := src.NumNodes(), src.NumEdges(), src.NumAttributes()
	checkDims(n, aw)
	enc := &streamEncoder{w: w}
	putBinaryHeader(enc.buf[:], n, m, aw)
	enc.n = binaryHeaderSize
	if g, ok := src.(*Graph); ok {
		// A materialised graph's arrays are the snapshot sections: encode
		// them whole instead of calling through the row interface.
		for _, off := range g.offsets {
			enc.u64(uint64(off))
		}
		enc.u32s(g.neighbors)
		if aw > 0 {
			for _, a := range g.attrs {
				enc.u64(uint64(a))
			}
		}
	} else if err := encodeRows(enc, src); err != nil {
		return err
	}
	enc.flush()
	if enc.err != nil {
		return fmt.Errorf("graph: writing binary snapshot: %w", enc.err)
	}
	return nil
}

// encodeRows writes the three snapshot sections of a general row source in
// three row passes.
func encodeRows(enc *streamEncoder, src RowSource) error {
	n, m := src.NumNodes(), src.NumEdges()
	var off int64
	enc.u64(0)
	for u := 0; u < n; u++ {
		off += int64(src.RowDegree(u))
		enc.u64(uint64(off))
	}
	if off != int64(2*m) {
		return fmt.Errorf("graph: row source degrees sum to %d, want %d (= 2m)", off, 2*m)
	}
	// Rows are gathered into a staging slice and encoded once it holds a
	// chunk: long encode loops, not one short loop per row.
	rows := make([]int32, 0, 2*binaryChunkEntries)
	for u := 0; u < n; u++ {
		rows = src.AppendRow(rows, u)
		if len(rows) >= binaryChunkEntries {
			enc.u32s(rows)
			rows = rows[:0]
		}
	}
	enc.u32s(rows)
	if src.NumAttributes() > 0 {
		for u := 0; u < n; u++ {
			enc.u64(uint64(src.RowAttr(u)))
		}
	}
	return nil
}
