package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"homesight/internal/gateway"
	"homesight/internal/store"
)

// Partition layout: a fleet root directory holds one homestore
// partition per shard,
//
//	<root>/shard-0000/   ← shard-0000's store (WALs, segments, meta)
//	<root>/shard-0001/
//	...
//
// and a partition whose history has been replayed to the survivors is
// renamed to <root>/shard-NNNN.retired — still on disk for forensics,
// excluded from the live read set.
const retiredSuffix = ".retired"

// ShardName returns the conventional shard identity for index i:
// "shard-0000", "shard-0001", ...
func ShardName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// PartitionDir returns the partition directory of shard i under root.
func PartitionDir(root string, i int) string {
	return filepath.Join(root, ShardName(i))
}

// LivePartitions lists the non-retired partition directories under
// root, sorted by shard name.
func LivePartitions(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") && !strings.HasSuffix(e.Name(), retiredSuffix) {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// RetirePartition renames a replayed partition out of the live set.
func RetirePartition(dir string) error {
	return os.Rename(dir, dir+retiredSuffix)
}

// ReplayPartition opens (and thereby recovers — WAL replay through the
// watermark-dedup path) the partition at dir and streams its entire
// durable history through send as reconstructed reports, one gateway at
// a time, timestamps strictly ascending within each gateway. That
// per-series ascending order is the contract that keeps the receiving
// partitions' watermarks exact: each replayed point lands above the
// receiver's cursor or is dropped as a duplicate, never reordered.
//
// Device names ride along from the partition's name map, so the
// replayed history is indistinguishable from a live resend of the
// original reports. Returns the number of reports sent.
func ReplayPartition(dir string, send func(gateway.Report) error) (int, error) {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return 0, fmt.Errorf("fleet: reopening dead partition %s: %w", dir, err)
	}
	defer func() {
		_ = st.Close() // read-only replay; nothing new to flush
	}()
	sent := 0
	ctx := context.Background()
	for _, gw := range st.Gateways() {
		// The regroup-and-sort lives on the store itself
		// (Store.ReconstructReports) so the livestats rebuild shares it.
		reps, err := st.ReconstructReports(ctx, gw)
		if err != nil {
			return sent, err
		}
		for _, rep := range reps {
			if err := send(rep); err != nil {
				return sent, err
			}
			sent++
		}
	}
	return sent, nil
}
