package experiments

import (
	"fmt"
	"time"

	"homesight/internal/store"
)

// WithStore attaches a homestore directory (see internal/store and
// STORAGE.md) to the Env: homes whose gateway appears in the store load
// their traffic from disk (store.Home) instead of re-synthesizing it,
// while homes the collector never persisted fall back to the
// synthesizer. All 17 experiments read minute-level traffic through that
// one per-home table (Env.viewOf), so the whole suite analyses the
// collected campaign with the exact reconstruction pipeline the paper
// applies to its measurement data; only the survey inventory (residents,
// ground-truth device types) still comes from the synthesizer. The Env
// owns the handle; call Env.Close when done.
func WithStore(dir string) Option {
	return func(c *envConfig) error {
		if dir == "" {
			return fmt.Errorf("experiments: WithStore with empty directory")
		}
		c.storeDir = dir
		return nil
	}
}

// Close releases the store handle WithStore attached. Envs without a
// store need no cleanup; Close is then a no-op.
func (e *Env) Close() error {
	if e.store == nil {
		return nil
	}
	st := e.store
	e.store = nil
	return st.Close()
}

// Store returns the attached homestore, or nil when the Env is fully
// synthetic.
func (e *Env) Store() *store.Store { return e.store }

// StoreBacked reports whether home i's series load from the attached
// store rather than the synthesizer.
func (e *Env) StoreBacked(i int) bool { return e.storeBacked(e.Home(i).ID) }

func (e *Env) storeBacked(id string) bool { return e.store != nil && e.storeGWs[id] }

// openStore wires cfg.storeDir into the Env: it opens the store and
// indexes which gateways it holds.
// The stored meta (campaign anchor, step) wins over any synth defaults,
// and a store not on the minute grid is rejected — every analysis in
// this package assumes minute resolution.
func (e *Env) openStore(dir string) error {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	if st.Step() != time.Minute {
		closeErr := st.Close()
		return fmt.Errorf("experiments: store %s has step %v, want 1m (close: %w)", dir, st.Step(), closeErr)
	}
	e.store = st
	e.storeGWs = make(map[string]bool)
	for _, id := range st.Gateways() {
		e.storeGWs[id] = true
	}
	return nil
}
