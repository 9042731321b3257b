package query

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"homesight/internal/devices"
	"homesight/internal/obs"
	"homesight/internal/store"
)

// defaultCacheEntries bounds the response LRU when Config.CacheEntries
// is zero. Entries are whole encoded bodies (a few hundred bytes to a
// few KB: raw point ranges are not cached), so the default keeps the
// cache well under a MB.
const defaultCacheEntries = 128

// Config configures New.
type Config struct {
	// Store is the open homestore the API serves. Optional when Live is
	// set (a live-only tier, e.g. a fleet frontend without a local
	// partition); the store-backed routes are then not registered.
	Store *store.Store
	// Live serves /api/v1/homes/{gw}/live from livestats snapshots.
	// Optional; nil leaves the live route unregistered.
	Live LiveSource
	// Registry receives the homesight_query_* instruments; nil gets a
	// private registry (counting stays on, nothing is exported).
	Registry *obs.Registry
	// CacheEntries sizes the response LRU: 0 means defaultCacheEntries,
	// negative disables caching — the LRU and the per-home summary memo
	// (every lookup is a miss).
	CacheEntries int
}

// API is the homequery serving tier. Mount Handler on an obs.Server via
// obs.WithHandler, or on any mux.
type API struct {
	st    *store.Store
	live  LiveSource
	m     *metrics
	cache *cache
	// summaries memoises /summary per home; nil when caching is disabled.
	summaries *summaryMemo
	// now is the latency clock, the only wall-clock read in this package.
	now func() time.Time
}

// New builds the API. It panics when both Store and Live are nil:
// there is nothing to serve, and the caller bug should surface at
// wiring time.
func New(cfg Config) *API {
	if cfg.Store == nil && cfg.Live == nil {
		panic("query: one of Config.Store or Config.Live is required")
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = defaultCacheEntries
	}
	a := &API{
		st:    cfg.Store,
		live:  cfg.Live,
		m:     newMetrics(cfg.Registry),
		cache: newCache(entries),
		now:   time.Now,
	}
	if entries > 0 {
		a.summaries = newSummaryMemo()
	}
	return a
}

// Handler returns the API mux. Every route is GET-only (the store is
// append-only through the collector; this tier never writes).
// Store-backed routes appear only with a Store; the live route only
// with a LiveSource.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	if a.st != nil {
		mux.Handle("GET /api/v1/homes", a.endpoint("homes", (*API).handleHomes))
		mux.Handle("GET /api/v1/homes/{gw}/devices", a.endpoint("devices", (*API).handleDevices))
		mux.Handle("GET /api/v1/homes/{gw}/summary", a.endpoint("summary", (*API).handleSummary))
		mux.Handle("GET /api/v1/series", a.endpoint("series", (*API).handleSeries))
	}
	if a.live != nil {
		mux.Handle("GET /api/v1/homes/{gw}/live", a.endpoint("live", enveloped((*API).handleLive)))
	}
	return mux
}

// httpError carries a status code through a handler's error return.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func notFoundf(format string, args ...any) error {
	return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

func badRequestf(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// endpoint wraps a handler with instrumentation and the wire: the
// handler returns a complete encoded body (encodeEnvelope, or a cached
// one) or an error, and everything written — success, 4xx, 5xx — is an
// Envelope, whole, with its Content-Length. The route's series are bound
// once, here, not looked up per request.
func (a *API) endpoint(name string, h func(*API, *http.Request) ([]byte, error)) http.Handler {
	latency, requests, bytes := a.m.latency.With(name), a.m.requests.With(name), a.m.bytes.With(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := a.now()
		body, err := h(a, r)
		latency.Observe(a.now().Sub(t0).Seconds())
		requests.Inc()
		code := http.StatusOK
		if err != nil {
			code = http.StatusInternalServerError
			var he *httpError
			switch {
			case errors.As(err, &he):
				code = he.code
			case errors.Is(err, store.ErrBadRequest):
				code = http.StatusBadRequest
			}
			body, _ = encodeEnvelope(WrapError(code, err.Error())) // an int and a string always encode
		}
		bytes.Add(int64(len(body)))
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(code)
		_, _ = w.Write(body) // a broken client socket is the client's problem
	})
}

// enveloped adapts a handler that returns a payload to one that returns
// its encoded envelope: the route for answers that are built per request
// and never cached.
func enveloped(h func(*API, *http.Request) (any, error)) func(*API, *http.Request) ([]byte, error) {
	return func(a *API, r *http.Request) ([]byte, error) {
		data, err := h(a, r)
		if err != nil {
			return nil, err
		}
		return encodeEnvelope(Wrap(data))
	}
}

// lookup consults the response cache; a disabled cache is all misses.
func (a *API) lookup(key string) ([]byte, bool) {
	body, ok := a.cache.get(key)
	if ok {
		a.m.hits.Inc()
	} else {
		a.m.misses.Inc()
	}
	return body, ok
}

// fill encodes a freshly built payload and caches the body under key.
func (a *API) fill(key string, data any) ([]byte, error) {
	body, err := encodeEnvelope(Wrap(data))
	if err != nil {
		return nil, err
	}
	a.cache.put(key, body)
	return body, nil
}

// HomeInfo is one row of /api/v1/homes.
type HomeInfo struct {
	ID      string `json:"id"`
	Devices int    `json:"devices"`
}

func (a *API) handleHomes(r *http.Request) ([]byte, error) {
	// The one answer about every home: keyed on the store-wide generation.
	key := "homes@" + strconv.FormatInt(a.st.Generation(), 10)
	if body, ok := a.lookup(key); ok {
		return body, nil
	}
	gws := a.st.Gateways()
	out := make([]HomeInfo, 0, len(gws))
	for _, gw := range gws {
		out = append(out, HomeInfo{ID: gw, Devices: len(a.st.Devices(gw))})
	}
	return a.fill(key, out)
}

// DeviceInfo is one row of /api/v1/homes/{gw}/devices.
type DeviceInfo struct {
	MAC  string `json:"mac"`
	Name string `json:"name,omitempty"`
	Type string `json:"type"`
}

func (a *API) handleDevices(r *http.Request) ([]byte, error) {
	gw := r.PathValue("gw")
	ver, ok := a.st.HomeVersion(gw)
	if !ok {
		return nil, notFoundf("unknown gateway %q", gw)
	}
	key := "devices/" + gw + "@" + strconv.FormatInt(ver, 10)
	if body, ok := a.lookup(key); ok {
		return body, nil
	}
	macs := a.st.Devices(gw)
	out := make([]DeviceInfo, 0, len(macs))
	for _, mac := range macs {
		name := a.st.DeviceName(gw, mac)
		out = append(out, DeviceInfo{
			MAC:  mac,
			Name: name,
			Type: string(devices.Classify(mac, name)),
		})
	}
	return a.fill(key, out)
}

// SeriesBin is the wire form of one binned sample.
type SeriesBin struct {
	Start int64   `json:"start"` // unix seconds, epoch-aligned bin start
	Count uint64  `json:"count"` // raw samples inside the bin
	Value float64 `json:"value"` // the bin reduced under agg
}

// SeriesData is the /api/v1/series payload: the wire schema clients
// decode into. The server writes it with encodeSeries.
//
// A raw answer is columnar: sample i was taken at From+T[i] unix
// seconds and reads Val[i]. Store answers lie in [From, To), so every
// offset is in [0, To-From).
type SeriesData struct {
	Gateway   string      `json:"gateway"`
	Device    string      `json:"device"`
	Dir       string      `json:"dir"`
	Gran      string      `json:"gran"`
	Agg       string      `json:"agg,omitempty"`
	From      int64       `json:"from"` // effective range, unix seconds
	To        int64       `json:"to"`
	T         []int64     `json:"t,omitempty"` // seconds after From
	Val       []uint64    `json:"val,omitempty"`
	Bins      []SeriesBin `json:"bins,omitempty"`
	Truncated bool        `json:"truncated,omitempty"`
}

// parseQueryTime accepts unix seconds or RFC 3339; "" is the zero time
// (store campaign defaulting).
func parseQueryTime(param, s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(sec, 0).UTC(), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, badRequestf("bad %s %q: want unix seconds or RFC 3339", param, s)
	}
	return t, nil
}

func (a *API) handleSeries(r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	gw, mac := q.Get("gw"), q.Get("device")
	if gw == "" || mac == "" {
		return nil, badRequestf("gw and device query parameters are required")
	}
	dir := store.DirIn
	switch q.Get("dir") {
	case "", "in":
	case "out":
		dir = store.DirOut
	default:
		return nil, badRequestf("bad dir %q: want in or out", q.Get("dir"))
	}
	gran, err := store.ParseGranularity(q.Get("gran"))
	if err != nil {
		return nil, err
	}
	agg, err := store.ParseAggregation(q.Get("agg"))
	if err != nil {
		return nil, err
	}
	from, err := parseQueryTime("from", q.Get("from"))
	if err != nil {
		return nil, err
	}
	to, err := parseQueryTime("to", q.Get("to"))
	if err != nil {
		return nil, err
	}
	limit := 0
	if s := q.Get("limit"); s != "" {
		if limit, err = strconv.Atoi(s); err != nil {
			return nil, badRequestf("bad limit %q", s)
		}
	}
	ver, ok := a.st.HomeVersion(gw)
	if !ok {
		return nil, notFoundf("unknown gateway %q", gw)
	}
	if !a.st.HasDevice(gw, mac) {
		return nil, notFoundf("unknown device %q on gateway %q", mac, gw)
	}

	req := store.QueryRequest{
		Key:   store.Key{Gateway: gw, Device: mac, Dir: dir},
		From:  from,
		To:    to,
		Gran:  gran,
		Agg:   agg,
		Limit: limit,
	}
	// Binned answers are small and rollup-backed: cache them whole. Raw
	// point ranges can be the entire campaign per device — streaming
	// them through the LRU would evict everything else, so they are
	// served uncached.
	cacheKey := ""
	if gran != store.GranRaw {
		// An omitted "to" is the campaign end, which a point for any home
		// can move: such an answer is keyed on the end it was built for.
		toKey := strconv.FormatInt(to.Unix(), 10)
		if to.IsZero() {
			_, end := a.st.Campaign()
			toKey = "end" + strconv.FormatInt(end.Unix(), 10)
		}
		cacheKey = "series/" + gw + "/" + mac + "/" + dir.String() + "/" + gran.String() + "/" + agg.String() +
			"/" + strconv.FormatInt(from.Unix(), 10) + "/" + toKey + "/" + strconv.Itoa(limit) +
			"@" + strconv.FormatInt(ver, 10)
		if body, ok := a.lookup(cacheKey); ok {
			return body, nil
		}
	}
	res, err := a.st.Query(r.Context(), req)
	if err != nil {
		return nil, err
	}
	body, err := encodeSeries(res)
	if err != nil {
		return nil, err
	}
	if cacheKey != "" {
		a.cache.put(cacheKey, body)
	}
	return body, nil
}
