package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"homesight/internal/gateway"
)

// WAL record framing: a fixed 8-byte header — little-endian payload
// length then CRC32-C of the payload — followed by the payload. The
// fixed-width header makes torn-tail detection trivial: any record whose
// header or payload runs past EOF, or whose checksum disagrees, marks
// the recovery truncation point.
const walHeaderSize = 8

// maxWALRecord bounds one record. A report carries at most a few
// hundred devices at ~100 bytes each; 16 MiB is three orders of
// magnitude of headroom, and anything larger in a header is corruption,
// not data.
const maxWALRecord = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walWriter appends length-prefixed, checksummed records to one WAL
// file through a buffered writer. Callers own locking and the fsync
// policy; the writer only distinguishes flush (buffer → kernel) from
// sync (kernel → disk).
type walWriter struct {
	f     *os.File
	bw    *bufio.Writer
	bytes int64 // bytes handed to the buffered writer
}

func newWALWriter(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

// appendRecord appends one framed record carrying rep to dst: the
// header, then the report payload of gateway.AppendReport.
func appendRecord(dst []byte, rep *gateway.Report) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header, patched below
	dst = gateway.AppendReport(dst, rep)
	payload := dst[start+walHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// write appends framed records. They are copied into the buffer before
// write returns, so callers may reuse them.
func (w *walWriter) write(records []byte) error {
	if _, err := w.bw.Write(records); err != nil {
		return err
	}
	w.bytes += int64(len(records))
	return nil
}

// sync flushes and fsyncs (survives a power cut).
func (w *walWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// close flushes, syncs and closes the file.
func (w *walWriter) close() error {
	if err := w.sync(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}

// abandon drops the file handle without flushing — the crash-simulation
// path: everything still in the buffer is lost, exactly as a killed
// process would lose it.
func (w *walWriter) abandon() {
	_ = w.f.Close()
}

// walReplayResult accounts for one file's replay.
type walReplayResult struct {
	records   int
	truncated bool  // a torn or corrupt tail was cut off
	goodBytes int64 // offset the file was truncated to (== size when clean)
}

// replayWAL streams every intact record of the file at path into fn, in
// write order. The first framing violation — truncated header, length
// past EOF, implausible length, checksum mismatch — is treated as the
// torn tail of an interrupted write: the file is truncated to the last
// intact record and replay reports success. This is the crash-recovery
// contract: a record is either wholly recovered or wholly gone, and a
// recovered WAL replays cleanly forever after. Errors from fn abort the
// replay (the store is refusing the data, not the framing).
func replayWAL(path string, fn func(payload []byte) error) (walReplayResult, error) {
	var res walReplayResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return res, err
	}
	remaining := fi.Size()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [walHeaderSize]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// Clean EOF ends the log; a partial header is a torn tail.
			res.truncated = res.truncated || errors.Is(err, io.ErrUnexpectedEOF)
			break
		}
		remaining -= walHeaderSize
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		// Bound by both the record ceiling and the bytes actually left in
		// the file: a corrupt header must not cost a giant allocation.
		if length > maxWALRecord || int64(length) > remaining {
			res.truncated = true
			break
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			res.truncated = true
			break
		}
		remaining -= int64(length)
		if crc32.Checksum(payload, crcTable) != want {
			res.truncated = true
			break
		}
		if err := fn(payload); err != nil {
			_ = f.Close()
			return res, err
		}
		res.records++
		res.goodBytes += int64(walHeaderSize) + int64(length)
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	if res.truncated {
		if err := os.Truncate(path, res.goodBytes); err != nil {
			return res, fmt.Errorf("store: truncating torn WAL tail of %s: %w", path, err)
		}
	}
	return res, nil
}

// decodeRecord parses one record payload; the report's devices stay valid
// until dec's next Reset. Arbitrary bytes must not panic it: the CRC
// catches WAL corruption, but FuzzWALReplay feeds it directly too.
func decodeRecord(dec *gateway.ReportDecoder, payload []byte) (gateway.Report, error) {
	rep, rest, err := dec.Decode(payload)
	if err != nil {
		return rep, fmt.Errorf("store: report record: %w", err)
	}
	if len(rest) != 0 {
		return rep, fmt.Errorf("store: report record carries %d trailing bytes", len(rest))
	}
	return rep, nil
}
