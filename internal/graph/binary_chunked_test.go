package graph_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"agmdp/internal/graph"
)

// encodeChunked encodes src in the chunked wire format, failing on error.
func encodeChunked(t testing.TB, src graph.RowSource, chunkRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinaryChunked(&buf, src, chunkRows); err != nil {
		t.Fatalf("WriteBinaryChunked: %v", err)
	}
	return buf.Bytes()
}

// TestChunkedRoundTripProperty checks that random graphs round-trip through
// the chunked codec at many frame sizes, and that the decode is byte-identical
// with the monolithic path: re-encoding the decoded graph monolithically
// reproduces the original graph's canonical snapshot exactly.
func TestChunkedRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(80)
		w := rng.Intn(graph.MaxAttributes + 1)
		g := randomGraph(rng, n, w, rng.Float64()*0.3)
		canonical := encodeBinary(t, g)
		for _, chunkRows := range []int{1, 3, 7, n + 1, 0} {
			data := encodeChunked(t, g, chunkRows)
			if got, want := int64(len(data)), graph.ChunkedBinarySize(g, chunkRows); got != want {
				t.Fatalf("trial %d rows %d: encoded %d bytes, ChunkedBinarySize says %d", trial, chunkRows, got, want)
			}
			back, err := graph.ReadBinaryChunked(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("trial %d rows %d: ReadBinaryChunked: %v", trial, chunkRows, err)
			}
			if !g.Equal(back) {
				t.Fatalf("trial %d rows %d: decoded graph differs (n=%d w=%d m=%d)", trial, chunkRows, n, w, g.NumEdges())
			}
			if again := encodeBinary(t, back); !bytes.Equal(canonical, again) {
				t.Fatalf("trial %d rows %d: monolithic re-encode of chunked decode is not byte-identical", trial, chunkRows)
			}
		}
	}
}

// TestChunkedFromBuilderMatchesGraph pins the streaming contract the sample
// pipeline relies on: encoding straight from a Builder (or an attribute
// overlay over it) produces the exact bytes of encoding the finalized graph.
func TestChunkedFromBuilderMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := graph.NewBuilder(50, 0)
	for i := 0; i < 300; i++ {
		b.AddEdge(rng.Intn(50), rng.Intn(50))
	}
	vecs := make([]graph.AttrVector, 50)
	for i := range vecs {
		vecs[i] = graph.AttrVector(rng.Uint64())
	}
	g := b.Finalize()

	if got, want := encodeChunked(t, b, 9), encodeChunked(t, g, 9); !bytes.Equal(got, want) {
		t.Fatal("chunked encoding from Builder differs from the finalized graph's")
	}
	overlay := graph.SourceWithAttributes(b, 3, vecs)
	attributed := g.WithAttributes(3, vecs)
	if got, want := encodeChunked(t, overlay, 9), encodeChunked(t, attributed, 9); !bytes.Equal(got, want) {
		t.Fatal("chunked encoding from attribute overlay differs from WithAttributes")
	}

	var streamed, eager bytes.Buffer
	if err := graph.WriteBinaryTo(&streamed, overlay); err != nil {
		t.Fatalf("WriteBinaryTo: %v", err)
	}
	if err := attributed.WriteBinary(&eager); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if !bytes.Equal(streamed.Bytes(), eager.Bytes()) {
		t.Fatal("WriteBinaryTo from overlay differs from the materialised WriteBinary")
	}
	if got, want := graph.SourceBinarySize(overlay), attributed.BinarySize(); got != want {
		t.Fatalf("SourceBinarySize = %d, want %d", got, want)
	}
}

// TestWriteBinaryToMatchesWriteBinary checks byte-identity of the streaming
// monolithic encoder across random graphs, from both Graph and Builder
// sources.
func TestWriteBinaryToMatchesWriteBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n, w, density := rng.Intn(70), rng.Intn(graph.MaxAttributes+1), rng.Float64()*0.3
		if trial == 0 {
			// Large enough to span many encoder buffers, which the Graph
			// and row-source paths fill and flush at different points.
			n, density = 3000, 0.01
		}
		g := randomGraph(rng, n, w, density)
		want := encodeBinary(t, g)
		for name, src := range map[string]graph.RowSource{"graph": g, "builder": g.Builder()} {
			var buf bytes.Buffer
			if err := graph.WriteBinaryTo(&buf, src); err != nil {
				t.Fatalf("trial %d %s: WriteBinaryTo: %v", trial, name, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("trial %d %s: WriteBinaryTo differs from WriteBinary", trial, name)
			}
			if got := graph.SourceBinarySize(src); got != int64(len(want)) {
				t.Fatalf("trial %d %s: SourceBinarySize = %d, want %d", trial, name, got, len(want))
			}
		}
	}
}

// TestTranscodeChunkedMatchesEncoder checks that the zero-decode transcode of
// a stored monolithic snapshot emits the exact bytes of chunk-encoding the
// decoded graph.
func TestTranscodeChunkedMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, rng.Intn(60), rng.Intn(graph.MaxAttributes+1), rng.Float64()*0.3)
		mono := encodeBinary(t, g)
		for _, chunkRows := range []int{1, 5, 0} {
			var out bytes.Buffer
			if err := graph.TranscodeChunked(&out, bytes.NewReader(mono), int64(len(mono)), chunkRows); err != nil {
				t.Fatalf("trial %d rows %d: TranscodeChunked: %v", trial, chunkRows, err)
			}
			if want := encodeChunked(t, g, chunkRows); !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("trial %d rows %d: transcode differs from direct chunked encoding", trial, chunkRows)
			}
		}
	}
	// A size that disagrees with the header must be rejected up front.
	g := randomGraph(rng, 10, 2, 0.3)
	mono := encodeBinary(t, g)
	if err := graph.TranscodeChunked(&bytes.Buffer{}, bytes.NewReader(mono), int64(len(mono))-1, 8); err == nil {
		t.Fatal("TranscodeChunked accepted a snapshot with a wrong size")
	}
}

// chunkedFixture builds the fixed 4-node fixture (edges 0-1, 1-2, 0-3,
// width 2) chunk-encoded at 2 rows per frame, whose layout the corruption
// table below indexes into.
func chunkedFixture(t *testing.T) []byte {
	t.Helper()
	b := graph.NewBuilder(4, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.SetAttr(0, 1)
	b.SetAttr(1, 2)
	b.SetAttr(2, 3)
	return encodeChunked(t, b.Finalize(), 2)
}

// TestChunkedRejectsCorruptInput drives the chunk reader through its framing
// validation: header corruption, frame-accounting violations, payload-length
// lies, offset regressions, attribute-width violations and checksum
// mismatches.
func TestChunkedRejectsCorruptInput(t *testing.T) {
	data := chunkedFixture(t)
	// Rows: 0:[1,3] 1:[0,2] 2:[1] 3:[0]; offsets [0,2,4,5,6]. Frame 1 covers
	// rows 0-1 (k=4), frame 2 rows 2-3 (k=2), then the trailer.
	const (
		offFrame1     = 40
		offEndOffs1   = offFrame1 + 12
		offNeighbors1 = offEndOffs1 + 2*8
		offAttrs1     = offNeighbors1 + 4*4
		offFrame2     = offAttrs1 + 2*8
		offTrailer    = offFrame2 + 12 + 2*8 + 2*4 + 2*8
	)
	if int(offTrailer+16) != len(data) {
		t.Fatalf("fixture layout drifted: trailer at %d, data is %d bytes", offTrailer, len(data))
	}

	cases := []struct {
		name string
		data []byte
		want string // substring of the expected error
	}{
		{"empty input", nil, "chunked header"},
		{"bad magic", corruptAt(data, 0, 0xff), "magic"},
		{"monolithic magic", append([]byte("AGMDPCSR"), data[8:]...), "magic"},
		{"bad version", putU32(data, 8, 99), "version"},
		{"unknown flags", putU32(data, 12, 0x80), "flags"},
		{"frame rows beyond remaining", putU32(data, offFrame1, 5), "remain"},
		{"frame payload mismatch", putU64(data, offFrame1+4, 7), "payload"},
		{"end offset decreasing", putU64(data, offEndOffs1+8, 1), "end offset"},
		{"end offset beyond 2m", putU64(data, offEndOffs1+8, 99), "end offset"},
		{"attr bits above width", putU64(data, offAttrs1, 0xff), "bits above width"},
		{"corrupt neighbor fails checksum", corruptAt(data, offNeighbors1, 0x02), "checksum"},
		{"corrupt trailer checksum", corruptAt(data, len(data)-1, 0x01), "checksum"},
		{"early trailer", putU32(data, offFrame1, 0), "trailer payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := graph.ReadBinaryChunked(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("ReadBinaryChunked accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestChunkedRejectsTruncation feeds every proper prefix of a valid chunked
// stream to the decoder: all must fail cleanly (no panic, no acceptance) —
// unlike the monolithic format, a chunked stream cannot end early without
// detection because the trailer is mandatory.
func TestChunkedRejectsTruncation(t *testing.T) {
	data := chunkedFixture(t)
	for i := 0; i < len(data); i++ {
		if _, err := graph.ReadBinaryChunked(bytes.NewReader(data[:i])); err == nil {
			t.Fatalf("ReadBinaryChunked accepted a %d-byte prefix of a %d-byte stream", i, len(data))
		}
	}
}

// rawChunkedStream hand-assembles a chunked stream from explicit frames, with
// a correct trailer checksum, to reach row-accounting states a valid encoder
// never emits.
func rawChunkedStream(n, m, w uint64, frames ...[]byte) []byte {
	var buf bytes.Buffer
	var scratch [8]byte
	buf.WriteString("AGMDPCSC")
	binary.LittleEndian.PutUint32(scratch[:4], 1)
	buf.Write(scratch[:4])
	var flags uint32
	if w > 0 {
		flags = 1
	}
	binary.LittleEndian.PutUint32(scratch[:4], flags)
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(w))
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint32(scratch[:4], 0)
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:8], n)
	buf.Write(scratch[:8])
	binary.LittleEndian.PutUint64(scratch[:8], m)
	buf.Write(scratch[:8])
	for _, f := range frames {
		buf.Write(f)
	}
	crc := crc32.ChecksumIEEE(buf.Bytes())
	binary.LittleEndian.PutUint32(scratch[:4], 0)
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:8], 4)
	buf.Write(scratch[:8])
	binary.LittleEndian.PutUint32(scratch[:4], crc)
	buf.Write(scratch[:4])
	return buf.Bytes()
}

// TestChunkedRejectsShortStreams covers the row- and edge-accounting checks
// at the trailer: streams whose frames are internally consistent (valid
// checksum) but do not deliver the advertised graph.
func TestChunkedRejectsShortStreams(t *testing.T) {
	// n=1 advertised, zero frames delivered.
	missingRows := rawChunkedStream(1, 0, 0)
	if _, err := graph.ReadBinaryChunked(bytes.NewReader(missingRows)); err == nil ||
		!strings.Contains(err.Error(), "ends after 0 of 1 rows") {
		t.Fatalf("missing rows: got %v", err)
	}

	// n=3, m=1 advertised, but every row ends at offset 0: all rows
	// delivered, neighbor entries short.
	frame := make([]byte, 12+3*8)
	binary.LittleEndian.PutUint32(frame[0:4], 3)
	binary.LittleEndian.PutUint64(frame[4:12], 24)
	missingEdges := rawChunkedStream(3, 1, 0, frame)
	if _, err := graph.ReadBinaryChunked(bytes.NewReader(missingEdges)); err == nil ||
		!strings.Contains(err.Error(), "neighbor entries") {
		t.Fatalf("missing edges: got %v", err)
	}
}

// TestChunkedIgnoresTrailingBytes checks the stream decoder consumes exactly
// one chunked snapshot, like the monolithic ReadBinary.
func TestChunkedIgnoresTrailingBytes(t *testing.T) {
	g := graph.FromEdges(3, 1, []graph.Edge{{U: 0, V: 1}})
	data := append(encodeChunked(t, g, 2), "trailing garbage"...)
	back, err := graph.ReadBinaryChunked(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadBinaryChunked with trailing bytes: %v", err)
	}
	if !g.Equal(back) {
		t.Fatal("decoded graph differs")
	}
}

// TestChunkReaderStreaming exercises the incremental Next interface directly:
// frame boundaries, the row/offset bookkeeping and the terminal io.EOF.
func TestChunkReaderStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 33, 4, 0.2)
	cr, err := graph.NewChunkReader(bytes.NewReader(encodeChunked(t, g, 10)))
	if err != nil {
		t.Fatalf("NewChunkReader: %v", err)
	}
	if st := cr.Stat(); st.Nodes != 33 || st.Edges != g.NumEdges() || st.Attributes != 4 || st.Size != g.BinarySize() {
		t.Fatalf("Stat = %+v", st)
	}
	row := 0
	var off int64
	var frames int
	for {
		c, err := cr.Next()
		if err != nil {
			break
		}
		if c.Start != row {
			t.Fatalf("frame starts at row %d, want %d", c.Start, row)
		}
		if c.Rows != len(c.EndOffsets) || (c.Attrs != nil && len(c.Attrs) != c.Rows) {
			t.Fatalf("frame shape mismatch: rows=%d offsets=%d attrs=%d", c.Rows, len(c.EndOffsets), len(c.Attrs))
		}
		for i, end := range c.EndOffsets {
			u := c.Start + i
			if got := end - off; got != int64(g.Degree(u)) {
				t.Fatalf("row %d has %d entries, want degree %d", u, got, g.Degree(u))
			}
			off = end
		}
		row += c.Rows
		frames++
	}
	if row != 33 || frames != 4 {
		t.Fatalf("saw %d rows in %d frames, want 33 in 4", row, frames)
	}
	if _, err := cr.Next(); err == nil {
		t.Fatal("Next after EOF succeeded")
	}
}

// tinySource is a minimal RowSource exercising Materialize's generic path.
type tinySource struct{ g *graph.Graph }

func (s tinySource) NumNodes() int                      { return s.g.NumNodes() }
func (s tinySource) NumEdges() int                      { return s.g.NumEdges() }
func (s tinySource) NumAttributes() int                 { return s.g.NumAttributes() }
func (s tinySource) RowDegree(u int) int                { return s.g.RowDegree(u) }
func (s tinySource) AppendRow(d []int32, u int) []int32 { return s.g.AppendRow(d, u) }
func (s tinySource) RowAttr(u int) graph.AttrVector     { return s.g.RowAttr(u) }

// TestMaterialize checks Materialize across the source flavours.
func TestMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 3, 0.2)
	if graph.Materialize(g) != g {
		t.Fatal("materializing a Graph should be the identity")
	}
	if !graph.Materialize(g.Builder()).Equal(g) {
		t.Fatal("materializing a Builder differs")
	}
	if !graph.Materialize(tinySource{g}).Equal(g) {
		t.Fatal("materializing a generic source differs")
	}
	vecs := make([]graph.AttrVector, g.NumNodes())
	for i := range vecs {
		vecs[i] = graph.AttrVector(rng.Uint64())
	}
	if !graph.Materialize(graph.SourceWithAttributes(g, 5, vecs)).Equal(g.WithAttributes(5, vecs)) {
		t.Fatal("materializing an attribute overlay differs from WithAttributes")
	}
}

// FuzzChunkReader feeds arbitrary bytes to the chunked decoder. It must never
// panic; when it accepts an input, the decoded graph must survive a chunked
// re-encode/decode round trip and re-encode to a valid monolithic snapshot.
func FuzzChunkReader(f *testing.F) {
	rng := rand.New(rand.NewSource(77))
	seeds := []*graph.Graph{
		graph.New(0, 0),
		graph.New(3, 2),
		graph.FromEdges(4, 0, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
		randomGraph(rng, 12, 2, 0.3),
		randomGraph(rng, 25, 64, 0.1),
	}
	for _, g := range seeds {
		for _, chunkRows := range []int{1, 4, 0} {
			var buf bytes.Buffer
			if err := graph.WriteBinaryChunked(&buf, g, chunkRows); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			if buf.Len() > 60 {
				f.Add(corruptAt(buf.Bytes(), 57, 0x1f))
			}
		}
	}
	f.Add([]byte("AGMDPCSC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.ReadBinaryChunked(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := graph.WriteBinaryChunked(&re, g, 3); err != nil {
			t.Fatalf("re-encoding an accepted graph failed: %v", err)
		}
		back, err := graph.ReadBinaryChunked(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded graph failed: %v", err)
		}
		if !g.Equal(back) {
			t.Fatal("chunked round trip of an accepted graph is not stable")
		}
		var mono bytes.Buffer
		if err := g.WriteBinary(&mono); err != nil {
			t.Fatalf("monolithic re-encode of an accepted graph failed: %v", err)
		}
		if _, err := graph.ReadBinary(bytes.NewReader(mono.Bytes())); err != nil {
			t.Fatalf("accepted graph is not a valid monolithic snapshot: %v", err)
		}
	})
}
