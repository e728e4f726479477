package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Chunked binary CSR wire format ("AGMDPCSC", version 1).
//
// The monolithic AGMDPCSR snapshot lays the three CSR arrays end to end, so a
// reader cannot hand out a single row until the whole offsets array has
// arrived, and a writer needs every array materialised before the first byte
// leaves. The chunked variant reframes the same data as a sequence of
// self-describing row-range frames so both ends run in O(frame) memory:
//
//	header    — identical layout to the monolithic header (40 bytes, all
//	            little-endian) except the magic is "AGMDPCSC":
//	            magic[8] | version u32 | flags u32 | w u32 | reserved u32 |
//	            n u64 | m u64
//	frames    — each frame covers the next `rows` nodes:
//	            rows       uint32   ≥ 1
//	            payloadLen uint64   exact payload byte length
//	            payload:
//	              endOffsets rows × int64   absolute CSR end offsets
//	              neighbors  k × int32      the rows' concatenated entries,
//	                                        k = endOffsets[last] − prior offset
//	              attrs      rows × uint64  present iff flags bit 0
//	trailer   — a frame with rows = 0 and payloadLen = 4 whose payload is the
//	            IEEE CRC-32 of every preceding byte (header + data frames).
//
// Frames partition [0, n) in order; a stream that ends before the trailer, or
// whose trailer checksum disagrees, is rejected. Unlike the monolithic
// format the chunked encoding is NOT canonical — the frame partitioning is a
// serving knob, not part of the graph — so chunked bytes are never
// content-addressed; they exist only on the wire. Decoding yields a CSR
// byte-identical (under monolithic re-encoding) with the graph that was
// encoded, whatever chunk size either side used.

const (
	chunkedMagic = "AGMDPCSC"

	// chunkedFrameHeaderSize is the per-frame header: rows u32 + payloadLen u64.
	chunkedFrameHeaderSize = 4 + 8

	// chunkedTrailerSize is the trailer frame: header + CRC-32 payload.
	chunkedTrailerSize = chunkedFrameHeaderSize + 4

	// DefaultChunkRows is the row count per frame when the caller does not
	// choose one: large enough that frame headers are noise, small enough
	// that a frame of average-degree rows stays well under a megabyte.
	DefaultChunkRows = 1 << 15
)

// normalizeChunkRows clamps a chunk-size knob to a sane value.
func normalizeChunkRows(chunkRows int) int {
	if chunkRows <= 0 {
		return DefaultChunkRows
	}
	return chunkRows
}

// ChunkedBinarySize returns the exact encoded length of the source's chunked
// snapshot for a given frame size, so servers can set Content-Length before
// streaming the first frame. Frame boundaries are deterministic (every frame
// holds chunkRows rows except a shorter final one), so the header dimensions
// fully determine the size.
func ChunkedBinarySize(src RowSource, chunkRows int) int64 {
	chunkRows = normalizeChunkRows(chunkRows)
	n := int64(src.NumNodes())
	frames := (n + int64(chunkRows) - 1) / int64(chunkRows)
	size := int64(binaryHeaderSize) + frames*chunkedFrameHeaderSize + chunkedTrailerSize
	size += n*8 + int64(2*src.NumEdges())*4
	if src.NumAttributes() > 0 {
		size += n * 8
	}
	return size
}

// WriteBinaryChunked writes the source's graph in the chunked wire format,
// chunkRows rows per frame (DefaultChunkRows when ≤ 0). Each frame is issued
// as a single Write call, so wrapping w in a flush-per-Write writer yields
// frame-granular delivery; memory stays O(frame). The encoded graph decodes
// byte-identical (under monolithic re-encoding) with Graph.WriteBinary's
// output regardless of chunkRows.
func WriteBinaryChunked(w io.Writer, src RowSource, chunkRows int) error {
	chunkRows = normalizeChunkRows(chunkRows)
	n, m, aw := src.NumNodes(), src.NumEdges(), src.NumAttributes()
	checkDims(n, aw)
	var hdr [binaryHeaderSize]byte
	putBinaryHeader(hdr[:], n, m, aw)
	copy(hdr[0:8], chunkedMagic)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("graph: writing chunked header: %w", err)
	}
	crc := crc32.ChecksumIEEE(hdr[:])

	// Size the reused frame buffer to the largest frame up front (degrees
	// only, no row data), so a growing frame sequence cannot force one
	// reallocation per growth step; the encoder allocates O(max frame) once.
	maxNeed := 0
	for start := 0; start < n; start += chunkRows {
		end := min(start+chunkRows, n)
		k := 0
		for u := start; u < end; u++ {
			k += src.RowDegree(u)
		}
		need := chunkedFrameHeaderSize + (end-start)*8 + k*4
		if aw > 0 {
			need += (end - start) * 8
		}
		maxNeed = max(maxNeed, need)
	}
	frame := make([]byte, 0, maxNeed)
	var row []int32
	var off int64
	for start := 0; start < n; start += chunkRows {
		end := min(start+chunkRows, n)
		rows := end - start
		k := 0
		for u := start; u < end; u++ {
			k += src.RowDegree(u)
		}
		payload := rows*8 + k*4
		if aw > 0 {
			payload += rows * 8
		}
		need := chunkedFrameHeaderSize + payload
		if cap(frame) < need {
			frame = make([]byte, need)
		}
		frame = frame[:need]
		binary.LittleEndian.PutUint32(frame[0:4], uint32(rows))
		binary.LittleEndian.PutUint64(frame[4:12], uint64(payload))
		p := chunkedFrameHeaderSize
		for u := start; u < end; u++ {
			off += int64(src.RowDegree(u))
			binary.LittleEndian.PutUint64(frame[p:], uint64(off))
			p += 8
		}
		for u := start; u < end; u++ {
			row = src.AppendRow(row[:0], u)
			for _, v := range row {
				binary.LittleEndian.PutUint32(frame[p:], uint32(v))
				p += 4
			}
		}
		if aw > 0 {
			for u := start; u < end; u++ {
				binary.LittleEndian.PutUint64(frame[p:], uint64(src.RowAttr(u)))
				p += 8
			}
		}
		if _, err := w.Write(frame); err != nil {
			return fmt.Errorf("graph: writing chunked frame at row %d: %w", start, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, frame)
	}
	if off != int64(2*m) {
		return fmt.Errorf("graph: row source degrees sum to %d, want %d (= 2m)", off, 2*m)
	}
	var trailer [chunkedTrailerSize]byte
	binary.LittleEndian.PutUint32(trailer[0:4], 0)
	binary.LittleEndian.PutUint64(trailer[4:12], 4)
	binary.LittleEndian.PutUint32(trailer[12:16], crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("graph: writing chunked trailer: %w", err)
	}
	return nil
}

// RowChunk is one decoded frame: the sorted CSR rows [Start, Start+Rows).
// The slices are owned by the ChunkReader and are invalidated by its next
// Next call; consumers that need the data longer must copy.
type RowChunk struct {
	// Start is the first row covered by the frame; Rows the row count.
	Start, Rows int
	// EndOffsets holds the absolute CSR end offset of each covered row;
	// row Start+i spans [EndOffsets[i-1], EndOffsets[i]) of the full
	// neighbor array (the frame's first row starts at the previous frame's
	// last end offset).
	EndOffsets []int64
	// Neighbors is the concatenation of the covered rows' entries.
	Neighbors []int32
	// Attrs holds the covered rows' attribute vectors; nil when the graph
	// has no attributes.
	Attrs []AttrVector
}

// ChunkReader incrementally decodes a chunked binary stream, one frame at a
// time, in O(frame) memory. Next validates framing invariants (row
// accounting, payload lengths, offset monotonicity, attribute width) as it
// goes and verifies the trailing checksum at end of stream; the deep CSR
// invariants (sorted rows, symmetry) are validated by ReadAll once the whole
// graph is assembled.
type ChunkReader struct {
	br   *bufio.Reader
	h    binaryHeader
	crc  uint32
	next int   // next row expected
	off  int64 // absolute end offset of the last delivered row
	done bool
	err  error

	chunk RowChunk
	buf   [8 * binaryChunkEntries]byte
}

// NewChunkReader parses and validates the chunked stream header. Trailing
// bytes after the trailer frame are left unread.
func NewChunkReader(r io.Reader) (*ChunkReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [binaryHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading chunked header: %w", err)
	}
	if string(hdr[0:8]) != chunkedMagic {
		return nil, fmt.Errorf("graph: not an agmdp chunked snapshot (magic %q)", hdr[0:8])
	}
	// The remaining header fields share the monolithic layout and rules.
	copy(hdr[0:8], binaryMagic)
	h, err := parseBinaryHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	copy(hdr[0:8], chunkedMagic)
	return &ChunkReader{br: br, h: h, crc: crc32.ChecksumIEEE(hdr[:])}, nil
}

// Stat returns the stream's graph dimensions. Size is the length of the
// monolithic (canonical) snapshot of the same graph, not of the chunked
// stream — it is what a store-back of the decoded graph will occupy.
func (cr *ChunkReader) Stat() SnapshotStat {
	return SnapshotStat{Nodes: cr.h.n, Edges: cr.h.m, Attributes: cr.h.w, Size: cr.h.size()}
}

// fail records and returns a sticky error.
func (cr *ChunkReader) fail(format string, args ...any) error {
	cr.err = fmt.Errorf(format, args...)
	return cr.err
}

// readFull reads exactly len(p) bytes, folding them into the running
// checksum when digest is true.
func (cr *ChunkReader) readFull(p []byte, digest bool) error {
	if _, err := io.ReadFull(cr.br, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return cr.fail("graph: chunked snapshot truncated: %w", err)
	}
	if digest {
		cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p)
	}
	return nil
}

// Next decodes the next frame. It returns (nil, io.EOF) once the trailer has
// been consumed and verified; any framing or checksum violation returns a
// non-EOF error and poisons the reader. The returned chunk's slices are
// reused by the following Next call.
func (cr *ChunkReader) Next() (*RowChunk, error) {
	if cr.err != nil {
		return nil, cr.err
	}
	if cr.done {
		return nil, io.EOF
	}
	var fh [chunkedFrameHeaderSize]byte
	if err := cr.readFull(fh[:], false); err != nil {
		return nil, err
	}
	rows := int64(binary.LittleEndian.Uint32(fh[0:4]))
	payload := binary.LittleEndian.Uint64(fh[4:12])
	if rows == 0 {
		// Trailer: the checksum covers everything before this frame header.
		if payload != 4 {
			return nil, cr.fail("graph: chunked trailer payload is %d bytes, want 4", payload)
		}
		var sum [4]byte
		if err := cr.readFull(sum[:], false); err != nil {
			return nil, err
		}
		if got := binary.LittleEndian.Uint32(sum[:]); got != cr.crc {
			return nil, cr.fail("graph: chunked snapshot checksum mismatch (trailer %#x, computed %#x)", got, cr.crc)
		}
		if cr.next != cr.h.n {
			return nil, cr.fail("graph: chunked snapshot ends after %d of %d rows", cr.next, cr.h.n)
		}
		if cr.off != int64(2*cr.h.m) {
			return nil, cr.fail("graph: chunked snapshot carries %d neighbor entries, want %d (= 2m)", cr.off, 2*cr.h.m)
		}
		cr.done = true
		return nil, io.EOF
	}
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, fh[:])
	if rows > int64(cr.h.n-cr.next) {
		return nil, cr.fail("graph: chunked frame covers %d rows but only %d remain", rows, cr.h.n-cr.next)
	}

	// End offsets first: they determine the frame's neighbor count, which the
	// declared payload length must corroborate before any bulk read.
	c := &cr.chunk
	c.Start, c.Rows = cr.next, int(rows)
	c.EndOffsets = c.EndOffsets[:0]
	prev := cr.off
	for read := int64(0); read < rows; {
		batch := min(rows-read, binaryChunkEntries)
		if err := cr.readFull(cr.buf[:8*batch], true); err != nil {
			return nil, err
		}
		for i := int64(0); i < batch; i++ {
			v := int64(binary.LittleEndian.Uint64(cr.buf[8*i:]))
			if v < prev || v > int64(2*cr.h.m) {
				return nil, cr.fail("graph: chunked frame end offset %d at row %d outside [%d, %d]",
					v, c.Start+len(c.EndOffsets), prev, 2*cr.h.m)
			}
			c.EndOffsets = append(c.EndOffsets, v)
			prev = v
		}
		read += batch
	}
	k := prev - cr.off
	want := uint64(rows)*8 + uint64(k)*4
	if cr.h.flags&flagAttrs != 0 {
		want += uint64(rows) * 8
	}
	if payload != want {
		return nil, cr.fail("graph: chunked frame payload is %d bytes, want %d for %d rows / %d entries", payload, want, rows, k)
	}

	c.Neighbors = c.Neighbors[:0]
	for read := int64(0); read < k; {
		batch := min(k-read, binaryChunkEntries)
		if err := cr.readFull(cr.buf[:4*batch], true); err != nil {
			return nil, err
		}
		for i := int64(0); i < batch; i++ {
			c.Neighbors = append(c.Neighbors, int32(binary.LittleEndian.Uint32(cr.buf[4*i:])))
		}
		read += batch
	}

	if cr.h.flags&flagAttrs == 0 {
		c.Attrs = nil
	} else {
		c.Attrs = c.Attrs[:0]
		for read := int64(0); read < rows; {
			batch := min(rows-read, binaryChunkEntries)
			if err := cr.readFull(cr.buf[:8*batch], true); err != nil {
				return nil, err
			}
			for i := int64(0); i < batch; i++ {
				a := AttrVector(binary.LittleEndian.Uint64(cr.buf[8*i:]))
				if a != a.maskWidth(cr.h.w) {
					return nil, cr.fail("graph: chunked frame node %d attribute vector %#x has bits above width %d",
						c.Start+len(c.Attrs), uint64(a), cr.h.w)
				}
				c.Attrs = append(c.Attrs, a)
			}
			read += batch
		}
	}

	cr.next += int(rows)
	cr.off = prev
	return c, nil
}

// ReadAll drains the remaining frames and assembles the full graph, running
// the same complete CSR validation as the monolithic ReadBinary (monotone
// offsets, strictly increasing in-range rows, no self loops, symmetric
// adjacency). The result is indistinguishable from the monolithic decode of
// the same graph.
func (cr *ChunkReader) ReadAll() (*Graph, error) {
	n, m := cr.h.n, cr.h.m
	offsets := make([]int64, 1, min(n+1, 2*binaryChunkEntries))
	neighbors := make([]int32, 0, min(2*m, 2*binaryChunkEntries))
	attrs := make([]AttrVector, 0, min(n, 2*binaryChunkEntries))
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		offsets = append(offsets, c.EndOffsets...)
		neighbors = append(neighbors, c.Neighbors...)
		if c.Attrs != nil {
			attrs = append(attrs, c.Attrs...)
		}
	}
	return assembleCSR("chunked", cr.h, offsets, neighbors, attrs)
}

// ReadBinaryChunked decodes a full graph from a chunked binary stream,
// with complete validation. Trailing bytes after the trailer are left unread.
func ReadBinaryChunked(r io.Reader) (*Graph, error) {
	cr, err := NewChunkReader(r)
	if err != nil {
		return nil, err
	}
	return cr.ReadAll()
}

// TranscodeChunked rewrites a monolithic binary snapshot, addressed at rest
// by r (size bytes long), into the chunked wire format on w — without
// decoding or validating the CSR arrays: frame payload sections are raw byte
// ranges of the stored arrays (the two formats share their little-endian
// entry encoding), so serving a chunked download of a stored graph costs
// O(frame) memory and no graph materialisation. The snapshot is trusted
// (stores content-address their bytes); only the header and size are
// checked.
func TranscodeChunked(w io.Writer, r io.ReaderAt, size int64, chunkRows int) error {
	chunkRows = normalizeChunkRows(chunkRows)
	var hdr [binaryHeaderSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("graph: reading snapshot header: %w", err)
	}
	h, err := parseBinaryHeader(hdr[:])
	if err != nil {
		return err
	}
	if size != h.size() {
		return fmt.Errorf("graph: snapshot is %d bytes, want exactly %d for its header", size, h.size())
	}
	n := h.n
	hasAttrs := h.flags&flagAttrs != 0
	offsetsBase := int64(binaryHeaderSize)
	neighborsBase := offsetsBase + int64(n+1)*8
	attrsBase := neighborsBase + int64(2*h.m)*4

	copy(hdr[0:8], chunkedMagic)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("graph: writing chunked header: %w", err)
	}
	crc := crc32.ChecksumIEEE(hdr[:])

	var frame []byte
	// One extra leading entry (offsets[start]) delimits each frame's neighbor
	// range; the frame payload carries only the end offsets.
	offBuf := make([]byte, 8*(min(chunkRows, n)+1))
	for start := 0; start < n; start += chunkRows {
		end := min(start+chunkRows, n)
		rows := end - start
		if _, err := r.ReadAt(offBuf[:8*(rows+1)], offsetsBase+int64(start)*8); err != nil {
			return fmt.Errorf("graph: reading snapshot offsets: %w", err)
		}
		lo := int64(binary.LittleEndian.Uint64(offBuf[0:8]))
		hi := int64(binary.LittleEndian.Uint64(offBuf[8*rows:]))
		if lo < 0 || hi < lo || hi > int64(2*h.m) {
			return fmt.Errorf("graph: corrupt snapshot offsets [%d, %d] for rows [%d, %d)", lo, hi, start, end)
		}
		k := hi - lo
		payload := int64(rows)*8 + k*4
		if hasAttrs {
			payload += int64(rows) * 8
		}
		need := chunkedFrameHeaderSize + int(payload)
		if cap(frame) < need {
			frame = make([]byte, need)
		}
		frame = frame[:need]
		binary.LittleEndian.PutUint32(frame[0:4], uint32(rows))
		binary.LittleEndian.PutUint64(frame[4:12], uint64(payload))
		p := chunkedFrameHeaderSize
		copy(frame[p:], offBuf[8:8*(rows+1)])
		p += rows * 8
		if _, err := r.ReadAt(frame[p:p+int(k)*4], neighborsBase+lo*4); err != nil {
			return fmt.Errorf("graph: reading snapshot neighbors: %w", err)
		}
		p += int(k) * 4
		if hasAttrs {
			if _, err := r.ReadAt(frame[p:p+rows*8], attrsBase+int64(start)*8); err != nil {
				return fmt.Errorf("graph: reading snapshot attrs: %w", err)
			}
		}
		if _, err := w.Write(frame); err != nil {
			return fmt.Errorf("graph: writing chunked frame at row %d: %w", start, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, frame)
	}
	var trailer [chunkedTrailerSize]byte
	binary.LittleEndian.PutUint32(trailer[0:4], 0)
	binary.LittleEndian.PutUint64(trailer[4:12], 4)
	binary.LittleEndian.PutUint32(trailer[12:16], crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("graph: writing chunked trailer: %w", err)
	}
	return nil
}
