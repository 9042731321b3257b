package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/telemetry"
)

// TestShardWithholdsAckWhenStoreRefuses pins "ack ⇒ appended" from the
// failing side, over a net.Pipe into the shard's own serve loop: a frame
// carrying a poison report (no gateway id) is acked with the report
// counted in AppendErrors, so it cannot wedge its sender; a frame that
// arrives after the partition store has crashed gets no ack byte — the
// connection closes, which is what leaves the frame in the sender's
// unacked window for the router's shard-loss path — and each of its
// reports is counted in AppendErrors.
func TestShardWithholdsAckWhenStoreRefuses(t *testing.T) {
	f, err := Start(Config{Dir: t.TempDir(), Shards: 1, Start: anchor, Step: time.Minute})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	s := f.Shard(0)
	defer s.Kill()
	client, server := net.Pipe()
	defer client.Close()
	s.wg.Add(1)
	go s.serveConn(server)
	if err := client.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}

	reps := buildCampaign([]string{"home-000"}, 4)
	poison := gateway.Report{Timestamp: anchor, Devices: reps[0].Devices}
	// sendFrame writes one frame and reads the shard's one-byte answer.
	sendFrame := func(frame ...gateway.Report) (byte, error) {
		if _, err := client.Write(telemetry.AppendBatchFrame(nil, frame)); err != nil {
			t.Fatalf("writing frame: %v", err)
		}
		var ack [1]byte
		_, err := io.ReadFull(client, ack[:])
		return ack[0], err
	}

	if b, err := sendFrame(reps[0], poison, reps[1]); err != nil || b != telemetry.BatchAck {
		t.Fatalf("frame with a poison report: ack %#x, err %v; want an ack", b, err)
	}
	if st := s.Stats(); st.ReportsAppended != 2 || st.AppendErrors != 1 || st.FramesDecoded != 1 {
		t.Fatalf("after the poison frame: %+v, want 2 appended, 1 append error, 1 frame", st)
	}

	s.store.Crash()
	if b, err := sendFrame(reps[2], reps[3]); !errors.Is(err, io.EOF) {
		t.Fatalf("frame after the store crashed: read %#x, err %v; want no ack and a closed connection", b, err)
	}
	if st := s.Stats(); st.ReportsAppended != 2 || st.AppendErrors != 3 {
		t.Errorf("after the refused 2-report frame: %+v, want 2 appended, 3 append errors", st)
	}
}

// TestShardFrameSteadyStateAllocs bounds what a shard allocates per frame
// once warm: decoding a 48-report × 10-device frame, appending it to the
// partition and advancing the live tracker. The frames carry consecutive
// minutes of one home, so every point is new; what is left is the
// memtable's amortised slice growth. (DecodeBatchFrame, which allocates
// every report's devices and strings, puts the same loop above 1 000.)
func TestShardFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const reportsPerFrame, devices, warm, runs = 48, 10, 50, 100
	f, err := Start(Config{Dir: t.TempDir(), Shards: 1, Start: anchor, Step: time.Minute, Live: &livestats.Config{}})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	s := f.Shard(0)
	defer s.Kill()

	em := gateway.NewEmitter("home-000")
	traffic := make([]gateway.DeviceMinute, devices)
	var wire []byte
	frame := make([]gateway.Report, 0, reportsPerFrame)
	for m := 0; m < (warm+runs+1)*reportsPerFrame; m++ {
		for d := range traffic {
			traffic[d] = gateway.DeviceMinute{
				MAC:     fmt.Sprintf("aa:bb:cc:dd:ee:%02x", d),
				Name:    fmt.Sprintf("device-%d", d),
				InBytes: float64(100 + 37*d + m%61), OutBytes: float64(10 + m%7),
			}
		}
		frame = append(frame, em.Emit(anchor.Add(time.Duration(m)*time.Minute), traffic))
		if len(frame) == reportsPerFrame {
			wire = telemetry.AppendBatchFrame(wire, frame)
			frame = frame[:0]
		}
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	dec := telemetry.NewFrameDecoder()
	ingestFrame := func() {
		reps, err := dec.Next(br, 0)
		if err != nil {
			t.Fatalf("reading frame: %v", err)
		}
		if err := s.ingestBatch(reps); err != nil {
			t.Fatalf("ingesting frame: %v", err)
		}
	}
	for i := 0; i < warm; i++ {
		ingestFrame()
	}
	allocs := testing.AllocsPerRun(runs, ingestFrame)
	t.Logf("%.0f allocations per %d-report frame", allocs, reportsPerFrame)
	if allocs > 2 {
		t.Errorf("%.0f allocations per frame, want at most 2", allocs)
	}
	if st := s.Stats(); st.ReportsAppended != (warm+runs+1)*reportsPerFrame || st.AppendErrors != 0 {
		t.Errorf("shard stats %+v, want every report appended", st)
	}
}
