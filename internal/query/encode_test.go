package query

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"homesight/internal/store"
)

// referenceSeriesBody is the encoding encodeSeries replaced, kept as the
// oracle: copy the result into SeriesData and let encoding/json write the
// envelope. The error is encoding/json's (a NaN bin value).
func referenceSeriesBody(res *store.Result) ([]byte, error) {
	data := SeriesData{
		Gateway:   res.Key.Gateway,
		Device:    res.Key.Device,
		Dir:       res.Key.Dir.String(),
		Gran:      res.Gran.String(),
		From:      res.From.Unix(),
		To:        res.To.Unix(),
		Truncated: res.Truncated,
	}
	if res.Gran == store.GranRaw {
		for _, p := range res.Points {
			data.T = append(data.T, p.Ts-data.From)
			data.Val = append(data.Val, p.Val)
		}
	} else {
		data.Agg = res.Agg.String()
		data.Bins = make([]SeriesBin, 0, len(res.Bins))
		for _, b := range res.Bins {
			data.Bins = append(data.Bins, SeriesBin{Start: b.Start, Count: b.Count, Value: b.Value(res.Agg)})
		}
	}
	raw, err := json.Marshal(Wrap(data))
	return append(raw, '\n'), err
}

// checkSeriesEncoding holds encodeSeries to the reference on one result:
// the same bytes, or an error exactly when encoding/json refuses.
func checkSeriesEncoding(t *testing.T, res *store.Result) {
	t.Helper()
	want, wantErr := referenceSeriesBody(res)
	got, err := encodeSeries(res)
	if wantErr != nil {
		if err == nil {
			t.Fatalf("encoding/json refuses (%v), encodeSeries wrote %q", wantErr, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("encodeSeries: %v (encoding/json writes %q)", err, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeSeries differs from encoding/json\n got %q\nwant %q", got, want)
	}
}

func TestEncodeSeriesMatchesJSON(t *testing.T) {
	const big = 1<<63 + 12345 // above 2^53: must not pass through a float64
	awkward := []string{
		"gw001", "", `quo"te`, `back\slash`, "<script>&amp;</script>", "line\u2028sep\u2029", "bad\xff\xfeutf8", "tab\tnul\x00", "héé☃",
	}
	// Inside [from, to) = [-1, 2^40), as store answers are.
	points := [][]store.Point{
		nil,
		{},
		{{Ts: 1395014400, Val: 0}},
		{{Ts: -1, Val: big}, {Ts: 0, Val: math.MaxUint64}, {Ts: 1<<40 - 1, Val: 1 << 53}},
	}
	bins := [][]store.RollupBin{
		nil,
		{},
		{{Start: 1395014400, Count: 180, Sum: 123456789, Max: 999}},
		{
			{Start: -28800, Count: 5, Sum: 10, Max: 3},                          // integral mean
			{Start: 0, Count: 3_000_000, Sum: 1, Max: 1},                        // mean 3.3e-07: exponent form
			{Start: 28800, Count: 400_000_000, Sum: 1, Max: 1},                  // mean 2.5e-09 → 2.5e-9
			{Start: 57600, Count: 1_000_000, Sum: 1, Max: 1},                    // mean exactly 1e-06: the switch point
			{Start: 86400, Count: 1, Sum: big, Max: big},                        // beyond 2^53
			{Start: 115200, Count: math.MaxUint64, Sum: 7, Max: math.MaxUint64}, // tiny mean, huge max
			{Start: 144000, Count: 3, Sum: 1, Max: 1},                           // 0.3333333333333333
		},
	}
	for _, gw := range awkward {
		for _, truncated := range []bool{false, true} {
			for _, pts := range points {
				checkSeriesEncoding(t, &store.Result{
					Key:  store.Key{Gateway: gw, Device: gw + "/dev", Dir: store.DirOut},
					From: time.Unix(-1, 0), To: time.Unix(1<<40, 0),
					Points: pts, Truncated: truncated,
				})
			}
			for _, bs := range bins {
				for _, gran := range []store.Granularity{store.Gran3h, store.Gran8h} {
					for _, agg := range []store.Aggregation{store.AggNone, store.AggSum, store.AggMean, store.AggMax} {
						checkSeriesEncoding(t, &store.Result{
							Key:  store.Key{Gateway: gw, Device: "02:00:00:00:00:01"},
							From: time.Unix(1395014400, 0), To: time.Unix(1395619200, 0),
							Gran: gran, Agg: agg, Bins: bs, Truncated: truncated,
						})
					}
				}
			}
		}
	}
}

// A mean over an empty bin is NaN. Bins without observations are absent
// from store answers today, so only a bug reaches this — and it must
// reach the client as an error, not as a broken 200.
func TestEncodeSeriesRefusesNaN(t *testing.T) {
	res := &store.Result{
		Key:  store.Key{Gateway: "gw001", Device: "02:00:00:00:00:01"},
		Gran: store.Gran3h, Agg: store.AggMean,
		Bins: []store.RollupBin{{Start: 0, Count: 2, Sum: 4}, {Start: 10800}},
	}
	checkSeriesEncoding(t, res)
	if _, err := encodeSeries(res); err == nil {
		t.Fatal("encodeSeries accepted a NaN bin value")
	}
}

func TestAppendFloatMatchesJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 2.5, 1e-6, 9.99e-7, 1e-7, 2.5e-9, 1.5e-10, 5e-324,
		1e20, 9.999999999999999e20, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64, -1e21, -3e-7,
		1 << 53, 1<<53 + 2, 18446744073709551615, 123456789.125, 0.1, 1.0 / 3,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		cases = append(cases, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range cases {
		want, wantErr := json.Marshal(f)
		got, err := appendFloat(nil, f)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v: appendFloat error %v, encoding/json error %v", f, err, wantErr)
		}
		if err == nil && string(got) != string(want) {
			t.Fatalf("%v: appendFloat %q, encoding/json %q", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendFloat(nil, f); err == nil {
			t.Fatalf("appendFloat accepted %v", f)
		}
	}
}

// FuzzEncodeSeries drives encodeSeries with arbitrary headers and
// samples against the encoding/json reference, and decodes every body it
// accepts: a raw answer must give the samples back as From+T[i], Val[i].
// Timestamps outside [from, to) — which the store never answers — still
// round-trip, because the offset and its inverse are both Go's wrapping
// int64 arithmetic (the from = -1, Ts = MaxInt64 seed: T = MinInt64).
// shape picks direction (bit 0), granularity (bits 1–2) and aggregation
// (bits 3–4); samples is read as 16-byte points or 32-byte bins.
func FuzzEncodeSeries(f *testing.F) {
	le := binary.LittleEndian
	words := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = le.AppendUint64(b, w)
		}
		return b
	}
	f.Add("gw001", "02:00:00:00:00:01", uint8(0), int64(1395014400), int64(1395100800), false, words(1395014400, 5000, 1395014460, 1<<63+9))
	f.Add(`g"w\<&>`, "dev \xff", uint8(1), int64(-1), int64(0), true, []byte{})
	f.Add("gw", "d", uint8(2|2<<3), int64(0), int64(28800), false, words(0, 3_000_000, 1, 1, 10800, 400_000_000, 1, 1, 21600, 5, 10, 3))
	f.Add("gw", "d", uint8(4|1<<3), int64(0), int64(28800), true, words(0, 1, math.MaxUint64, math.MaxUint64))
	f.Add("gw", "d", uint8(2|2<<3), int64(0), int64(10800), false, words(0, 0, 0, 0)) // empty bin under mean: NaN
	f.Add("gw", "d", uint8(4), int64(0), int64(10800), false, words(0, 1, 2, 3, 4))   // ragged tail is dropped
	f.Add("gw", "d", uint8(0), int64(-1), int64(math.MaxInt64), false, words(math.MaxInt64, 7, 1<<63, math.MaxUint64))
	f.Add("gw", "d", uint8(1), int64(math.MinInt64), int64(math.MaxInt64), true, words(1<<63-1, 0, 0, 1))
	f.Fuzz(func(t *testing.T, gw, mac string, shape uint8, from, to int64, truncated bool, samples []byte) {
		res := &store.Result{
			Key:  store.Key{Gateway: gw, Device: mac, Dir: store.Direction(shape & 1)},
			From: time.Unix(from, 0), To: time.Unix(to, 0),
			Gran:      store.Granularity((shape >> 1 & 3) % 3),
			Truncated: truncated,
		}
		if res.Gran == store.GranRaw {
			for ; len(samples) >= 16; samples = samples[16:] {
				res.Points = append(res.Points, store.Point{Ts: int64(le.Uint64(samples)), Val: le.Uint64(samples[8:])})
			}
		} else {
			res.Agg = store.Aggregation(shape >> 3 & 3)
			for ; len(samples) >= 32; samples = samples[32:] {
				res.Bins = append(res.Bins, store.RollupBin{
					Start: int64(le.Uint64(samples)), Count: le.Uint64(samples[8:]),
					Sum: le.Uint64(samples[16:]), Max: le.Uint64(samples[24:]),
				})
			}
		}
		checkSeriesEncoding(t, res)
		body, err := encodeSeries(res)
		if err != nil {
			return
		}
		var env struct {
			Version string     `json:"version"`
			Data    SeriesData `json:"data"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("body does not decode into the schema: %v\n%q", err, body)
		}
		d := env.Data
		if env.Version != Version || len(d.T) != len(res.Points) || len(d.Val) != len(res.Points) || len(d.Bins) != len(res.Bins) {
			t.Fatalf("decoded %d offsets, %d values, %d bins, version %q from %d points, %d bins",
				len(d.T), len(d.Val), len(d.Bins), env.Version, len(res.Points), len(res.Bins))
		}
		for i, p := range res.Points {
			if d.From+d.T[i] != p.Ts || d.Val[i] != p.Val {
				t.Fatalf("sample %d decodes as (%d+%d, %d), stored (%d, %d)", i, d.From, d.T[i], d.Val[i], p.Ts, p.Val)
			}
		}
	})
}

// TestSeriesWireShape pins the exact bytes of both /series forms: raw
// samples as offset and value columns (a two-minute gap shows as a jump
// in t), bins as objects.
func TestSeriesWireShape(t *testing.T) {
	const day0 = 1395014400 // 2014-03-17T00:00:00Z, 8h-aligned
	key := store.Key{Gateway: "gw001", Device: "02:00:00:00:00:01"}
	cases := []struct {
		res  *store.Result
		want string
	}{{
		&store.Result{
			Key: key, From: time.Unix(day0, 0), To: time.Unix(day0+86400, 0),
			Points: []store.Point{{Ts: day0, Val: 5000}, {Ts: day0 + 60, Val: 5120}, {Ts: day0 + 240, Val: 5600}},
		},
		`{"version":"v1","data":{"gateway":"gw001","device":"02:00:00:00:00:01","dir":"in","gran":"raw","from":1395014400,"to":1395100800,` +
			`"t":[0,60,240],"val":[5000,5120,5600]}}` + "\n",
	}, {
		&store.Result{
			Key: key, From: time.Unix(day0, 0), To: time.Unix(day0+16*3600, 0), Gran: store.Gran8h, Agg: store.AggMean,
			Bins: []store.RollupBin{{Start: day0, Count: 480, Sum: 480_000, Max: 1500}, {Start: day0 + 8*3600, Count: 3, Sum: 10, Max: 4}},
		},
		`{"version":"v1","data":{"gateway":"gw001","device":"02:00:00:00:00:01","dir":"in","gran":"8h","agg":"mean","from":1395014400,"to":1395072000,` +
			`"bins":[{"start":1395014400,"count":480,"value":1000},{"start":1395043200,"count":3,"value":3.3333333333333335}]}}` + "\n",
	}}
	for _, c := range cases {
		got, err := encodeSeries(c.res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Fatalf("gran %s body\n got %s\nwant %s", c.res.Gran, got, c.want)
		}
		checkSeriesEncoding(t, c.res)
	}
}

// A payload that cannot be encoded must produce a 500 envelope with a
// truthful Content-Length — the body is encoded before the status line.
func TestUnencodablePayloadIs500(t *testing.T) {
	a := newTestAPI(t, newTestStore(t, 10))
	stubs := map[string]func(*API, *http.Request) ([]byte, error){
		"reflected": enveloped(func(*API, *http.Request) (any, error) {
			return SeriesBin{Start: 0, Count: 0, Value: math.NaN()}, nil
		}),
		"appended": func(*API, *http.Request) ([]byte, error) {
			return encodeSeries(&store.Result{
				Key:  store.Key{Gateway: "gw001", Device: "02:00:00:00:00:00"},
				Gran: store.Gran8h, Agg: store.AggMean,
				Bins: []store.RollupBin{{Start: 0}},
			})
		},
	}
	for name, stub := range stubs {
		rec := httptest.NewRecorder()
		a.endpoint("stub", stub).ServeHTTP(rec, httptest.NewRequest("GET", "/stub", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500 (body %s)", name, rec.Code, rec.Body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q, body is %d bytes", name, cl, rec.Body.Len())
		}
		var env wireEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: 500 body is not an envelope: %v (%s)", name, err, rec.Body)
		}
		if env.Version != Version || env.Error == nil || env.Error.Code != http.StatusInternalServerError || len(env.Data) != 0 {
			t.Fatalf("%s: envelope %+v", name, env)
		}
	}
}

// Every served body is the bytes the replaced writer produced:
// json.NewEncoder(w).Encode(Wrap(payload)) of the decoded payload.
func TestServedBodiesAreCanonicalJSON(t *testing.T) {
	s := newTestStore(t, 10*60)
	h := newTestAPI(t, s).Handler()
	reencode := func(body []byte, payload any) []byte {
		var env struct {
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(env.Data, payload); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(Wrap(payload)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	series := func() any { return &SeriesData{} }
	for url, payload := range map[string]func() any{
		"/api/v1/homes":               func() any { return &[]HomeInfo{} },
		"/api/v1/homes/gw001/devices": func() any { return &[]DeviceInfo{} },
		"/api/v1/homes/gw001/summary": func() any { return &Summary{} },
		"/api/v1/series?gw=gw001&device=02:00:00:00:00:00&gran=3h&agg=mean":        series,
		"/api/v1/series?gw=gw001&device=02:00:00:00:00:01&dir=out&limit=7":         series,
		"/api/v1/series?gw=gw002&device=02:00:00:00:01:00&from=1395100000&gran=8h": series,
	} {
		for pass := 0; pass < 2; pass++ { // a miss, then (where cached) a hit
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d (%s)", url, rec.Code, rec.Body)
			}
			if want := reencode(rec.Body.Bytes(), payload()); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("GET %s (pass %d):\n got %q\nwant %q", url, pass, rec.Body.Bytes(), want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("GET %s: Content-Length %q, body is %d bytes", url, cl, rec.Body.Len())
			}
		}
	}
}
