package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"homesight/internal/obs"
)

// Segment file layout. Segments are immutable once written: a flush or
// a compaction streams the file to a temp name, fsyncs, then renames it
// into place, so a segment either exists completely or not at all.
//
//	[8]  magic "HSEG0002"
//	per series (sorted by key, points sorted by timestamp):
//	  data blocks:
//	    [4]  CRC32-C of the payload
//	    [n]  payload (encodeBlock)
//	  rollup blocks, one per granularity (3h, then 8h — Def. 3 bins):
//	    [4]  CRC32-C of the payload
//	    [n]  payload (encodeRollupBlock)
//	footer: the index (see encodeFooter)
//	[4]  CRC32-C of the footer
//	[8]  footer length, little-endian
//	[8]  magic "HSEGIDX1"
//
// The footer carries, per series, the block metadata (offset, length,
// timestamp range, point count) for the data blocks and the rollup
// blocks of each granularity. Readers binary-search it, so a range
// Select touches O(log blocks) index entries and only the data blocks
// that overlap the range; an aggregate Query touches only the rollup
// blocks and never decodes raw minutes. A file with any other leading
// magic is refused.
const (
	segMagic     = "HSEG0002"
	segIdxMagic  = "HSEGIDX1"
	segTailSize  = 4 + 8 + 8
	maxSegFooter = 1 << 30
	// tmpSuffix marks a file writeFileAtomic has not yet renamed into
	// place; Open deletes any it finds.
	tmpSuffix = ".tmp"
)

// Direction distinguishes the two series of a device.
type Direction uint8

// The two traffic directions, as seen from the home: In mirrors the
// gateway's rx counter (bytes to the device), Out its tx counter.
const (
	DirIn Direction = iota
	DirOut
)

// String implements fmt.Stringer ("in"/"out", the query API's dir).
func (d Direction) String() string {
	if d == DirIn {
		return "in"
	}
	return "out"
}

// Key identifies one series: a gateway, one of its devices (by MAC) and
// a direction — the (gateway, device, direction) axis the paper's
// per-device analyses iterate over.
type Key struct {
	Gateway string
	Device  string
	Dir     Direction
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s", k.Gateway, k.Device, k.Dir)
}

// keyLess orders keys by gateway, device, direction — the on-disk and
// iteration order everywhere in the store.
func keyLess(a, b Key) bool {
	if a.Gateway != b.Gateway {
		return a.Gateway < b.Gateway
	}
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	return a.Dir < b.Dir
}

type blockMeta struct {
	off    int64 // file offset of the CRC header
	length int   // payload length, CRC excluded
	minTs  int64
	maxTs  int64
	count  int
}

type segSeries struct {
	key    Key
	blocks []blockMeta
	// rollups holds the precomputed aggregate blocks, one slice per
	// rollup granularity (indexed by rollupSlot; minTs/maxTs carry bin
	// starts, count the number of bins).
	rollups [rollupSlots][]blockMeta
}

// readCounters is the shared raw-vs-rollup block decode accounting every
// segment of a store reports into; the query benchmark asserts through
// it that downsampled queries never touch raw minute blocks.
type readCounters struct {
	raw, rollup *obs.Counter
}

// segment is one open, immutable segment file: the parsed footer index
// plus a read-only handle served through ReadAt (safe for concurrent
// readers, no seek state).
type segment struct {
	path      string
	seq       uint64
	size      int64
	f         *os.File
	series    []segSeries
	byKey     map[Key]int
	points    int64
	dataBytes int64         // sum of data-block payload bytes
	reads     *readCounters // nil: reads are not accounted
}

// segmentWriter encodes one segment as a stream of series in key order:
// each series' raw and rollup blocks go to the writer as soon as they
// are encoded, and only their block metas stay behind, for the footer.
// Memory is one series' encode buffers plus O(series) metas, whatever
// the segment's size.
type segmentWriter struct {
	w           *bufio.Writer
	blockPoints int
	off         int64
	metas       []segSeries
	payload     []byte
	bins        []RollupBin
}

// put encodes one series: its points split into blocks of blockPoints,
// then one rollup block per granularity (3h and 8h — the paper's Def. 3
// bins), so downsampled queries never decode raw minutes. Keys must
// arrive in ascending order and pts sorted by timestamp.
func (sw *segmentWriter) put(key Key, pts []Point) error {
	ss := segSeries{key: key}
	for start := 0; start < len(pts); start += sw.blockPoints {
		chunk := pts[start:min(start+sw.blockPoints, len(pts))]
		sw.payload = encodeBlock(sw.payload[:0], chunk)
		bm, err := sw.writeBlock()
		if err != nil {
			return err
		}
		bm.minTs, bm.maxTs, bm.count = chunk[0].Ts, chunk[len(chunk)-1].Ts, len(chunk)
		ss.blocks = append(ss.blocks, bm)
	}
	for slot, gran := range rollupGrans {
		sw.bins = computeRollups(sw.bins[:0], pts, gran.seconds())
		if len(sw.bins) == 0 {
			continue
		}
		sw.payload = encodeRollupBlock(sw.payload[:0], sw.bins)
		bm, err := sw.writeBlock()
		if err != nil {
			return err
		}
		bm.minTs, bm.maxTs, bm.count = sw.bins[0].Start, sw.bins[len(sw.bins)-1].Start, len(sw.bins)
		ss.rollups[slot] = append(ss.rollups[slot], bm)
	}
	sw.metas = append(sw.metas, ss)
	return nil
}

// writeBlock writes the CRC-framed payload at the current offset.
func (sw *segmentWriter) writeBlock() (blockMeta, error) {
	var crcHdr [4]byte
	binary.LittleEndian.PutUint32(crcHdr[:], crc32.Checksum(sw.payload, crcTable))
	if _, err := sw.w.Write(crcHdr[:]); err != nil {
		return blockMeta{}, err
	}
	if _, err := sw.w.Write(sw.payload); err != nil {
		return blockMeta{}, err
	}
	bm := blockMeta{off: sw.off, length: len(sw.payload)}
	sw.off += int64(4 + len(sw.payload))
	return bm, nil
}

// writeSegmentFile writes a new segment at path from the series produce
// hands to put, in ascending key order with points sorted by timestamp.
// It goes through writeFileAtomic, so a failure anywhere — in produce
// included — leaves no partial segment behind.
func writeSegmentFile(path string, blockPoints int, produce func(put func(Key, []Point) error) error) error {
	return writeFileAtomic(path, func(w *bufio.Writer) error {
		if _, err := w.WriteString(segMagic); err != nil {
			return err
		}
		sw := &segmentWriter{w: w, blockPoints: blockPoints, off: int64(len(segMagic))}
		if err := produce(sw.put); err != nil {
			return err
		}
		footer := encodeFooter(nil, sw.metas)
		var tail [segTailSize]byte
		binary.LittleEndian.PutUint32(tail[0:4], crc32.Checksum(footer, crcTable))
		binary.LittleEndian.PutUint64(tail[4:12], uint64(len(footer)))
		copy(tail[12:], segIdxMagic)
		if _, err := w.Write(footer); err != nil {
			return err
		}
		_, err := w.Write(tail[:])
		return err
	})
}

// mergeSegments streams the union of old's series to put, in key order.
// Each segment's series are sorted by key, so a merge over their footers
// meets every key once; a key's blocks are decoded from the segments in
// order into one reused buffer, so only one series is held at a time.
// Segments are time-disjoint per series; the merge verifies it cheaply.
func mergeSegments(old []*segment, put func(Key, []Point) error) error {
	next := make([]int, len(old)) // per segment, the first series not yet merged
	var pts []Point
	var buf []byte
	for {
		var key Key
		found := false
		for i, seg := range old {
			if next[i] < len(seg.series) && (!found || keyLess(seg.series[next[i]].key, key)) {
				key, found = seg.series[next[i]].key, true
			}
		}
		if !found {
			return nil
		}
		pts = pts[:0]
		for i, seg := range old {
			if next[i] == len(seg.series) || seg.series[next[i]].key != key {
				continue
			}
			for _, bm := range seg.series[next[i]].blocks {
				var err error
				if pts, buf, err = seg.readBlock(bm, pts, buf); err != nil {
					return err
				}
			}
			next[i]++
		}
		for j := 1; j < len(pts); j++ {
			if pts[j].Ts <= pts[j-1].Ts {
				return fmt.Errorf("store: compact: %v not time-ordered across segments", key)
			}
		}
		if err := put(key, pts); err != nil {
			return err
		}
	}
}

// writeFileAtomic replaces path with what write produces: write runs
// against a buffered writer over path+".tmp", which is then flushed,
// fsynced, closed and renamed into place, and the directory fsynced. A
// failure at any step removes the temp file, so path keeps either its
// old content or the new content complete; a temp file a crash leaves
// behind is removed by Open.
func writeFileAtomic(path string, write func(w *bufio.Writer) error) (err error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	if err = write(w); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(path)
}

// syncDir fsyncs the directory containing path, making a rename durable.
func syncDir(path string) error {
	d, err := os.Open(dirOf(path))
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// encodeFooter appends the index encoding to dst: per series, the key,
// the data-block list, then one block-meta list per rollup granularity.
func encodeFooter(dst []byte, series []segSeries) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(series)))
	for _, ss := range series {
		dst = appendString(dst, ss.key.Gateway)
		dst = appendString(dst, ss.key.Device)
		dst = append(dst, byte(ss.key.Dir))
		dst = appendBlockMetas(dst, ss.blocks)
		for slot := range ss.rollups {
			dst = appendBlockMetas(dst, ss.rollups[slot])
		}
	}
	return dst
}

// appendBlockMetas appends one length-prefixed block-meta list.
func appendBlockMetas(dst []byte, blocks []blockMeta) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for _, bm := range blocks {
		dst = binary.AppendUvarint(dst, uint64(bm.off))
		dst = binary.AppendUvarint(dst, uint64(bm.length))
		dst = binary.AppendVarint(dst, bm.minTs)
		dst = binary.AppendVarint(dst, bm.maxTs)
		dst = binary.AppendUvarint(dst, uint64(bm.count))
	}
	return dst
}

// readBlockMetas decodes one length-prefixed block-meta list, bounds-
// checking every entry against the file size.
func readBlockMetas(data []byte, fileSize int64) ([]blockMeta, []byte, error) {
	nBlocks, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("bad block count")
	}
	data = data[n:]
	if nBlocks > uint64(len(data))+1 {
		return nil, nil, fmt.Errorf("declares %d blocks in %d bytes", nBlocks, len(data))
	}
	if nBlocks == 0 {
		return nil, data, nil
	}
	blocks := make([]blockMeta, 0, nBlocks)
	for b := uint64(0); b < nBlocks; b++ {
		var bm blockMeta
		var v uint64
		if v, n = binary.Uvarint(data); n <= 0 {
			return nil, nil, fmt.Errorf("block %d: bad offset", b)
		}
		bm.off = int64(v)
		data = data[n:]
		if v, n = binary.Uvarint(data); n <= 0 {
			return nil, nil, fmt.Errorf("block %d: bad length", b)
		}
		bm.length = int(v)
		data = data[n:]
		if bm.minTs, n = binary.Varint(data); n <= 0 {
			return nil, nil, fmt.Errorf("block %d: bad minTs", b)
		}
		data = data[n:]
		if bm.maxTs, n = binary.Varint(data); n <= 0 {
			return nil, nil, fmt.Errorf("block %d: bad maxTs", b)
		}
		data = data[n:]
		if v, n = binary.Uvarint(data); n <= 0 {
			return nil, nil, fmt.Errorf("block %d: bad count", b)
		}
		bm.count = int(v)
		data = data[n:]
		if bm.off < int64(len(segMagic)) || bm.length < 0 ||
			bm.off+4+int64(bm.length) > fileSize {
			return nil, nil, fmt.Errorf("block %d: bounds [%d,+%d) outside file (%d bytes)",
				b, bm.off, bm.length, fileSize)
		}
		blocks = append(blocks, bm)
	}
	return blocks, data, nil
}

// decodeFooter parses an index. Bounds are validated against the file
// size so a corrupt footer cannot direct reads outside the file.
func decodeFooter(data []byte, fileSize int64) ([]segSeries, error) {
	nSeries, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("bad series count")
	}
	data = data[n:]
	if nSeries > uint64(len(data))+1 {
		return nil, fmt.Errorf("footer declares %d series in %d bytes", nSeries, len(data))
	}
	out := make([]segSeries, 0, nSeries)
	var err error
	for i := uint64(0); i < nSeries; i++ {
		var ss segSeries
		if ss.key.Gateway, data, err = readString(data); err != nil {
			return nil, fmt.Errorf("series %d gateway: %w", i, err)
		}
		if ss.key.Device, data, err = readString(data); err != nil {
			return nil, fmt.Errorf("series %d device: %w", i, err)
		}
		if len(data) < 1 {
			return nil, fmt.Errorf("series %d: missing direction", i)
		}
		if data[0] > byte(DirOut) {
			return nil, fmt.Errorf("series %d: bad direction %d", i, data[0])
		}
		ss.key.Dir = Direction(data[0])
		data = data[1:]
		if ss.blocks, data, err = readBlockMetas(data, fileSize); err != nil {
			return nil, fmt.Errorf("series %d: %w", i, err)
		}
		for slot := range ss.rollups {
			if ss.rollups[slot], data, err = readBlockMetas(data, fileSize); err != nil {
				return nil, fmt.Errorf("series %d rollup %s: %w", i, rollupGrans[slot], err)
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// openSegment memory-maps nothing: it reads and validates the footer,
// keeps the index in memory (a few bytes per 1024-point block) and
// serves block reads on demand through ReadAt.
func openSegment(path string, seq uint64, rc *readCounters) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := &segment{path: path, seq: seq, f: f, byKey: make(map[Key]int), reads: rc}
	fail := func(err error) (*segment, error) {
		_ = f.Close()
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	s.size = fi.Size()
	if s.size < int64(len(segMagic))+segTailSize {
		return fail(fmt.Errorf("file too small (%d bytes)", s.size))
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return fail(err)
	}
	if string(magic[:]) != segMagic {
		return fail(fmt.Errorf("unsupported segment magic %q (want %q)", magic, segMagic))
	}
	var tail [segTailSize]byte
	if _, err := f.ReadAt(tail[:], s.size-segTailSize); err != nil {
		return fail(err)
	}
	if string(tail[12:]) != segIdxMagic {
		return fail(fmt.Errorf("bad index magic %q", tail[12:]))
	}
	footerLen := binary.LittleEndian.Uint64(tail[4:12])
	if footerLen > maxSegFooter || int64(footerLen) > s.size-int64(len(segMagic))-segTailSize {
		return fail(fmt.Errorf("implausible footer length %d", footerLen))
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, s.size-segTailSize-int64(footerLen)); err != nil {
		return fail(err)
	}
	if crc32.Checksum(footer, crcTable) != binary.LittleEndian.Uint32(tail[0:4]) {
		return fail(fmt.Errorf("footer checksum mismatch"))
	}
	if s.series, err = decodeFooter(footer, s.size); err != nil {
		return fail(err)
	}
	for i, ss := range s.series {
		s.byKey[ss.key] = i
		for _, bm := range ss.blocks {
			s.points += int64(bm.count)
			s.dataBytes += int64(bm.length)
		}
	}
	return s, nil
}

func (s *segment) close() error { return s.f.Close() }

// readPayload fetches one CRC-framed payload into buf (reused when
// large enough, nil allocates), verifying the checksum. It returns the
// payload and the whole frame buffer, for the caller to reuse.
func (s *segment) readPayload(bm blockMeta, buf []byte) (payload, frame []byte, err error) {
	if cap(buf) < 4+bm.length {
		buf = make([]byte, 4+bm.length)
	}
	frame = buf[:4+bm.length]
	if _, err := s.f.ReadAt(frame, bm.off); err != nil {
		return nil, buf, fmt.Errorf("store: segment %s: block at %d: %w", s.path, bm.off, err)
	}
	payload = frame[4:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(frame[0:4]) {
		return nil, buf, fmt.Errorf("store: segment %s: block at %d: checksum mismatch", s.path, bm.off)
	}
	return payload, frame, nil
}

// readBlock fetches and decodes one raw data block, appending its points
// to dst. buf is the frame scratch of readPayload, returned for reuse.
func (s *segment) readBlock(bm blockMeta, dst []Point, buf []byte) ([]Point, []byte, error) {
	if s.reads != nil {
		s.reads.raw.Inc()
	}
	payload, buf, err := s.readPayload(bm, buf)
	if err != nil {
		return nil, buf, err
	}
	pts, err := decodeBlock(dst, payload)
	if err != nil {
		return nil, buf, fmt.Errorf("store: segment %s: block at %d: %w", s.path, bm.off, err)
	}
	return pts, buf, nil
}

// readRollupBlock fetches and decodes one precomputed rollup block.
func (s *segment) readRollupBlock(bm blockMeta, dst []RollupBin) ([]RollupBin, error) {
	if s.reads != nil {
		s.reads.rollup.Inc()
	}
	payload, _, err := s.readPayload(bm, nil)
	if err != nil {
		return nil, err
	}
	bins, err := decodeRollupBlock(dst, payload)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: rollup block at %d: %w", s.path, bm.off, err)
	}
	return bins, nil
}

// blocksInRange returns the block metas of key overlapping [fromSec,
// toSec), located with a binary search over the footer index.
func (s *segment) blocksInRange(key Key, fromSec, toSec int64) []blockMeta {
	i, ok := s.byKey[key]
	if !ok {
		return nil
	}
	return overlapping(s.series[i].blocks, fromSec, toSec)
}

// rollupBlocksInRange returns the rollup block metas of key (for the
// granularity at slot) whose bins overlap [fromSec, toSec). Callers
// align the range to bin boundaries first; meta minTs/maxTs carry bin
// starts, so a block overlaps when maxTs >= alignedFrom && minTs <
// alignedTo.
func (s *segment) rollupBlocksInRange(key Key, slot int, fromSec, toSec int64) []blockMeta {
	i, ok := s.byKey[key]
	if !ok {
		return nil
	}
	return overlapping(s.series[i].rollups[slot], fromSec, toSec)
}

// overlapping returns the run of ascending blocks whose [minTs, maxTs]
// meets [fromSec, toSec).
func overlapping(blocks []blockMeta, fromSec, toSec int64) []blockMeta {
	// First block that could still contain fromSec.
	lo := sort.Search(len(blocks), func(j int) bool { return blocks[j].maxTs >= fromSec })
	hi := lo
	for hi < len(blocks) && blocks[hi].minTs < toSec {
		hi++
	}
	return blocks[lo:hi]
}

// verify re-reads every block of the segment, checking CRCs, decode
// round-trips, meta consistency and strict timestamp ordering, then
// recomputes each series' rollups from its raw points and compares them
// bin-for-bin against the precomputed rollup blocks. It is the heavy
// half of `homesight store verify`.
func (s *segment) verify() error {
	var pts []Point
	var buf []byte
	var want, got []RollupBin
	for _, ss := range s.series {
		prev := int64(-1 << 62)
		pts = pts[:0]
		for bi, bm := range ss.blocks {
			lenBefore := len(pts)
			var err error
			pts, buf, err = s.readBlock(bm, pts, buf)
			if err != nil {
				return err
			}
			blk := pts[lenBefore:]
			if len(blk) != bm.count {
				return fmt.Errorf("store: segment %s: %v block %d: %d points, index says %d",
					s.path, ss.key, bi, len(blk), bm.count)
			}
			if len(blk) == 0 {
				continue
			}
			if blk[0].Ts != bm.minTs || blk[len(blk)-1].Ts != bm.maxTs {
				return fmt.Errorf("store: segment %s: %v block %d: range [%d,%d], index says [%d,%d]",
					s.path, ss.key, bi, blk[0].Ts, blk[len(blk)-1].Ts, bm.minTs, bm.maxTs)
			}
			for _, p := range blk {
				if p.Ts <= prev {
					return fmt.Errorf("store: segment %s: %v block %d: timestamp %d not after %d",
						s.path, ss.key, bi, p.Ts, prev)
				}
				prev = p.Ts
			}
		}
		for slot, gran := range rollupGrans {
			want = computeRollups(want[:0], pts, gran.seconds())
			got = got[:0]
			for _, bm := range ss.rollups[slot] {
				var err error
				got, err = s.readRollupBlock(bm, got)
				if err != nil {
					return err
				}
			}
			if len(want) != len(got) {
				return fmt.Errorf("store: segment %s: %v %s rollup: %d bins, raw points fold to %d",
					s.path, ss.key, gran, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					return fmt.Errorf("store: segment %s: %v %s rollup bin %d: stored %+v, raw points fold to %+v",
						s.path, ss.key, gran, i, got[i], want[i])
				}
			}
		}
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(data []byte) (string, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 {
		return "", nil, fmt.Errorf("bad length varint")
	}
	data = data[n:]
	if l > uint64(len(data)) {
		return "", nil, fmt.Errorf("length %d past end (%d bytes left)", l, len(data))
	}
	return string(data[:l]), data[l:], nil
}
