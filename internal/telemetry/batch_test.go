package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/telemetry/faultnet"
)

func batchReports(n int) []gateway.Report {
	base := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	reps := make([]gateway.Report, 0, n)
	for i := 0; i < n; i++ {
		reps = append(reps, gateway.Report{
			GatewayID: "gw-batch",
			Timestamp: base.Add(time.Duration(i) * time.Minute),
			Devices: []gateway.DeviceCounters{
				{MAC: "aa:bb:cc:00:00:01", Name: "laptop", RxBytes: uint64(1000 + i), TxBytes: uint64(i)},
				{MAC: "aa:bb:cc:00:00:02", Name: "téléphone", RxBytes: 0, TxBytes: uint64(7 * i)},
			},
		})
	}
	return reps
}

func TestBatchFrameRoundTrip(t *testing.T) {
	cases := [][]gateway.Report{
		{},
		batchReports(1),
		batchReports(100),
		{{GatewayID: "g", Timestamp: time.Unix(0, 0).UTC()}}, // no devices
		{{GatewayID: "pre-epoch", Timestamp: time.Unix(-60, 0).UTC(),
			Devices: []gateway.DeviceCounters{{MAC: "m", RxBytes: 1<<64 - 1, TxBytes: 1 << 40}}}},
	}
	for i, reps := range cases {
		frame := AppendBatchFrame(nil, reps)
		br := bufio.NewReader(bytes.NewReader(frame))
		payload, err := ReadBatchFrame(br, 0)
		if err != nil {
			t.Fatalf("case %d: ReadBatchFrame: %v", i, err)
		}
		got, err := DecodeBatchFrame(payload)
		if err != nil {
			t.Fatalf("case %d: DecodeBatchFrame: %v", i, err)
		}
		if len(got) != len(reps) {
			t.Fatalf("case %d: got %d reports, want %d", i, len(got), len(reps))
		}
		for j := range reps {
			if !reflect.DeepEqual(got[j], reps[j]) {
				t.Fatalf("case %d report %d:\n got %+v\nwant %+v", i, j, got[j], reps[j])
			}
		}
		if _, err := ReadBatchFrame(br, 0); err != io.EOF {
			t.Fatalf("case %d: want clean EOF after last frame, got %v", i, err)
		}
	}
}

func TestBatchFrameStreaming(t *testing.T) {
	var buf []byte
	want := 0
	for _, n := range []int{1, 3, 128} {
		buf = AppendBatchFrame(buf, batchReports(n))
		want += n
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	got := 0
	for {
		payload, err := ReadBatchFrame(br, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadBatchFrame: %v", err)
		}
		reps, err := DecodeBatchFrame(payload)
		if err != nil {
			t.Fatalf("DecodeBatchFrame: %v", err)
		}
		got += len(reps)
	}
	if got != want {
		t.Fatalf("streamed %d reports, want %d", got, want)
	}
}

func TestBatchFrameCorruption(t *testing.T) {
	frame := AppendBatchFrame(nil, batchReports(3))

	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0xff
	if _, err := ReadBatchFrame(bufio.NewReader(bytes.NewReader(flipped)), 0); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("flipped payload byte: want ErrFrameCorrupt, got %v", err)
	}

	truncated := frame[:len(frame)-3]
	if _, err := ReadBatchFrame(bufio.NewReader(bytes.NewReader(truncated)), 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: want ErrUnexpectedEOF, got %v", err)
	}

	torn := frame[:3] // mid-header
	if _, err := ReadBatchFrame(bufio.NewReader(bytes.NewReader(torn)), 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: want ErrUnexpectedEOF, got %v", err)
	}

	oversize := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(oversize, 1<<30)
	if _, err := ReadBatchFrame(bufio.NewReader(bytes.NewReader(oversize)), 0); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversize declared length: want ErrFrameCorrupt, got %v", err)
	}

	// A valid envelope around a malformed payload: CRC passes, decode fails.
	junk := []byte{0x05, 0x01} // declares 5 reports, 1 byte of body
	env := make([]byte, 8, 8+len(junk))
	binary.LittleEndian.PutUint32(env, uint32(len(junk)))
	binary.LittleEndian.PutUint32(env[4:], batchFrameCRC(junk))
	env = append(env, junk...)
	payload, err := ReadBatchFrame(bufio.NewReader(bytes.NewReader(env)), 0)
	if err != nil {
		t.Fatalf("valid envelope: %v", err)
	}
	if _, err := DecodeBatchFrame(payload); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("malformed payload: want ErrFrameCorrupt, got %v", err)
	}
}

// TestFrameDecoderReusesItsStorage: a connection's decoder reads a
// stream of frames of varying size back to the reports sent, and once
// warm it allocates nothing per frame.
func TestFrameDecoderReusesItsStorage(t *testing.T) {
	sizes := []int{3, 128, 1, 64}
	var stream []byte
	for _, n := range sizes {
		stream = AppendBatchFrame(stream, batchReports(n))
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	dec := NewFrameDecoder()
	for i, n := range sizes {
		if got, err := dec.Next(br, 0); err != nil || !reflect.DeepEqual(got, batchReports(n)) {
			t.Fatalf("frame %d of %d reports: decoded %d reports, err %v", i, n, len(got), err)
		}
	}
	if _, err := dec.Next(br, 0); err != io.EOF {
		t.Fatalf("after the last frame: err %v, want io.EOF", err)
	}

	frame := AppendBatchFrame(nil, batchReports(48))
	r := bytes.NewReader(frame)
	next := func() {
		r.Reset(frame)
		br.Reset(r)
		if _, err := dec.Next(br, 0); err != nil {
			t.Fatal(err)
		}
	}
	next()
	if a := testing.AllocsPerRun(100, next); a != 0 {
		t.Errorf("warm FrameDecoder allocates %v times per frame, want 0", a)
	}
}

// batchSink is a minimal shard stand-in: it reads frames off real TCP
// connections, records every decoded report in arrival order, and acks
// each frame per the protocol — once release is closed, when it has one.
type batchSink struct {
	ln      net.Listener
	release <-chan struct{}
	wg      sync.WaitGroup

	mu   sync.Mutex
	reps []gateway.Report
}

func newBatchSink(t *testing.T) *batchSink { return startBatchSink(t, nil) }

func startBatchSink(t *testing.T, release <-chan struct{}) *batchSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &batchSink{ln: ln, release: release}
	s.wg.Add(1)
	go s.accept()
	return s
}

func (s *batchSink) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			br := bufio.NewReader(conn)
			for {
				payload, err := ReadBatchFrame(br, 0)
				if err != nil {
					return
				}
				reps, err := DecodeBatchFrame(payload)
				if err != nil {
					return
				}
				s.mu.Lock()
				s.reps = append(s.reps, reps...)
				s.mu.Unlock()
				if s.release != nil {
					<-s.release
				}
				if _, err := conn.Write([]byte{BatchAck}); err != nil {
					return
				}
			}
		}()
	}
}

func (s *batchSink) stop() []gateway.Report {
	_ = s.ln.Close()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reps
}

// TestBatchReporterResend drives a batch reporter through injected
// write failures and asserts at-least-once delivery with the failed
// frames redelivered by the reconnect + unacked-window replay path.
func TestBatchReporterResend(t *testing.T) {
	sink := newBatchSink(t)
	plan := faultnet.Faults{FailWrites: []int{2}, PartialWrites: []int{5}}
	dials := 0
	cfg := ReporterConfig{
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", sink.ln.Addr().String())
			if err != nil {
				return nil, err
			}
			dials++
			if dials == 1 {
				return faultnet.Wrap(conn, plan), nil
			}
			return conn, nil
		},
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}
	rep, err := DialBatch(sink.ln.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("DialBatch: %v", err)
	}
	ctx := context.Background()
	all := batchReports(40)
	sent := 0
	for i := 0; i < len(all); i += 10 {
		if err := rep.Send(ctx, all[i:i+10]); err != nil {
			t.Fatalf("Send batch %d: %v", i/10, err)
		}
		sent += 10
	}
	// The ack barrier: after a nil Flush every frame is confirmed
	// appended, so the unacked window must be empty.
	if err := rep.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if tail := rep.DrainTail(); len(tail) != 0 {
		t.Fatalf("unacked window holds %d reports after Flush, want 0", len(tail))
	}
	if err := rep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := sink.stop()

	if dials < 2 {
		t.Fatalf("%d dials: the faults did not make the reporter reconnect", dials)
	}
	// At-least-once: every sent report arrives, and the frames written
	// before the failed write, still unacked, arrive twice because the
	// reconnect replays the window.
	seen := make(map[time.Time]int)
	for _, r := range got {
		seen[r.Timestamp]++
	}
	dups := 0
	for _, r := range all {
		if seen[r.Timestamp] == 0 {
			t.Fatalf("report at %v never delivered", r.Timestamp)
		}
		dups += seen[r.Timestamp] - 1
	}
	if dups == 0 {
		t.Fatal("the sink saw no report twice: the reconnect replayed no batch")
	}
}

func TestBatchReporterDrainTail(t *testing.T) {
	sink := newBatchSink(t)
	defer sink.stop()
	rep, err := DialBatch(sink.ln.Addr().String(), ReporterConfig{Window: 2})
	if err != nil {
		t.Fatalf("DialBatch: %v", err)
	}
	defer rep.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := rep.Send(ctx, batchReports(4)[i:i+1]); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	tail := rep.DrainTail()
	if len(tail) != 2 { // tail capacity 2 batches of 1 report
		t.Fatalf("DrainTail returned %d reports, want 2", len(tail))
	}
	if got := rep.DrainTail(); len(got) != 0 {
		t.Fatalf("second DrainTail returned %d reports, want 0", len(got))
	}
}

// batchFrameCRC computes the frame checksum for tests building hostile
// envelopes.
func batchFrameCRC(payload []byte) uint32 {
	return crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
}
