package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"homesight/internal/dataset"
	"homesight/internal/devices"
	"homesight/internal/store"
	"homesight/internal/synth"
)

// source is where an Env gets its homes: the campaign it serves, each
// home's minute table (all buildHome reads; it lives for one build) and
// each home's survey record, which only the scorers read.
type source interface {
	config() synth.Config
	home(ctx context.Context, i int) (*dataset.Gateway, error)
	survey(i int) *survey
	close() error
}

// survey is one home's record in the resident survey (Sec. 3): what the
// ISP's counters cannot tell. A source may make it at the home's first
// read, so scorers read it after the Env's build (gatewayCaches).
type survey struct {
	surveyed  bool // one of the deployment's first 49 homes, the paper's survey
	residents int
	inventory []*synth.DeviceSpec // every device with its true class
}

func newSurvey(h *synth.Home) *survey {
	return &survey{surveyed: h.Index < 49, residents: h.Residents, inventory: h.Devices}
}

// class is the true class of the inventory device with this MAC, or "".
func (s *survey) class(mac string) devices.Type {
	for _, spec := range s.inventory {
		if spec.Device.MAC == mac {
			return spec.Class
		}
	}
	return ""
}

// synthSource generates a deployment's homes on read. It keeps no
// *synth.Home, whose traffic memo is the full per-direction table: a
// home's survey record, made at its first read, is all that stays.
type synthSource struct {
	dep     *synth.Deployment
	surveys []*survey
}

func (s *synthSource) config() synth.Config { return s.dep.Config() }
func (s *synthSource) survey(i int) *survey { return s.surveys[i] }
func (s *synthSource) close() error         { return nil }

func (s *synthSource) home(_ context.Context, i int) (*dataset.Gateway, error) {
	h := s.dep.Home(i)
	if s.surveys[i] == nil {
		s.surveys[i] = newSurvey(h)
	}
	g := &dataset.Gateway{ID: h.ID, Overall: h.Overall()}
	for _, dt := range h.Traffic() {
		g.Devices = append(g.Devices, dataset.NewDeviceRecord(dt.Spec.Device, dt.In, dt.Out))
	}
	return g, nil
}

// WithStore makes the Env serve exactly the homes a homestore partition
// holds (STORAGE.md), in deployment order, read with store.Home; their
// survey records stay synth's, as the wire carries only MAC and name.
// NewEnv fails on a directory holding no partition, no gateway or one the
// deployment lacks. Call Env.Close when done.
func WithStore(dir string) Option {
	return func(c *envConfig) error {
		if dir == "" {
			return fmt.Errorf("experiments: WithStore with empty directory")
		}
		c.storeDir = dir
		return nil
	}
}

// storeSource reads the homes one partition holds, devices in MAC order.
type storeSource struct {
	st      *store.Store
	cfg     synth.Config
	ids     []string
	surveys []*survey
}

func (s *storeSource) config() synth.Config { return s.cfg }
func (s *storeSource) survey(i int) *survey { return s.surveys[i] }
func (s *storeSource) close() error         { return s.st.Close() }

func (s *storeSource) home(ctx context.Context, i int) (*dataset.Gateway, error) {
	return s.st.Home(ctx, s.ids[i], s.cfg.Start.Add(time.Duration(s.cfg.Minutes())*time.Minute))
}

// openStore opens the partition at dir as the source of dep's homes, on
// the stored anchor; every analysis here assumes a minute step.
func openStore(dir string, dep *synth.Deployment) (_ *storeSource, err error) {
	if err := store.CheckPartition(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.Close())
		}
	}()
	if st.Step() != time.Minute {
		return nil, fmt.Errorf("experiments: store %s has step %v, want 1m", dir, st.Step())
	}
	s := &storeSource{st: st, cfg: dep.Config()}
	held := st.Gateways()
	for i := 0; i < dep.NumHomes(); i++ {
		if h := dep.Home(i); slices.Contains(held, h.ID) {
			s.ids, s.surveys = append(s.ids, h.ID), append(s.surveys, newSurvey(h))
		}
	}
	if foreign := slices.DeleteFunc(held, func(id string) bool { return slices.Contains(s.ids, id) }); len(foreign) > 0 {
		return nil, fmt.Errorf("experiments: store %s holds %s, not in the %d-home deployment", dir, strings.Join(foreign, ", "), dep.NumHomes())
	} else if len(s.ids) == 0 {
		return nil, fmt.Errorf("experiments: store %s holds no gateway", dir)
	}
	s.cfg.Start, s.cfg.Homes = st.Start(), len(s.ids)
	return s, nil
}
