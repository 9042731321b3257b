package query

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"homesight/internal/store"
)

// encodeEnvelope returns the complete response body of env: the bytes
// json.NewEncoder(w).Encode(env) would write, newline included. Bodies
// are encoded before any header is written, so a payload encoding/json
// refuses (a NaN, say) becomes a 500 envelope rather than a 200 with
// half a body.
func encodeEnvelope(env Envelope) ([]byte, error) {
	body, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("query: encoding response: %w", err)
	}
	return append(body, '\n'), nil
}

// encodeSeries returns the response body of a /api/v1/series answer,
// byte for byte what encodeEnvelope(Wrap(SeriesData{…})) yields, without
// building the T/Val or []SeriesBin copy and without reflecting over it:
// the scalar fields go through encoding/json (so string escaping cannot
// drift), the samples through strconv appends. SeriesData stays the
// schema; TestEncodeSeriesMatchesJSON and FuzzEncodeSeries hold the two
// encodings equal.
func encodeSeries(res *store.Result) ([]byte, error) {
	head := SeriesData{
		Gateway: res.Key.Gateway,
		Device:  res.Key.Device,
		Dir:     res.Key.Dir.String(),
		Gran:    res.Gran.String(),
		From:    res.From.Unix(),
		To:      res.To.Unix(),
	}
	if res.Gran != store.GranRaw {
		head.Agg = res.Agg.String()
	}
	hb, err := json.Marshal(Wrap(head))
	if err != nil {
		return nil, fmt.Errorf("query: encoding series header: %w", err)
	}
	// hb ends "}}", closing data and the envelope. Samples and the
	// truncated flag are SeriesData's last fields: they go in before it.
	b := make([]byte, 0, len(hb)+24*len(res.Points)+72*len(res.Bins)+32)
	b = append(b, hb[:len(hb)-2]...)
	switch {
	case res.Gran == store.GranRaw && len(res.Points) > 0:
		b = append(b, `,"t":[`...)
		for i, p := range res.Points {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, p.Ts-head.From, 10)
		}
		b = append(b, `],"val":[`...)
		for i, p := range res.Points {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, p.Val, 10)
		}
		b = append(b, ']')
	case res.Gran != store.GranRaw && len(res.Bins) > 0:
		b = append(b, `,"bins":[`...)
		for i, bin := range res.Bins {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"start":`...)
			b = strconv.AppendInt(b, bin.Start, 10)
			b = append(b, `,"count":`...)
			b = strconv.AppendUint(b, bin.Count, 10)
			b = append(b, `,"value":`...)
			if b, err = appendFloat(b, bin.Value(res.Agg)); err != nil {
				return nil, fmt.Errorf("query: encoding bin at %d: %w", bin.Start, err)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if res.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	return append(b, "}}\n"...), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation that round-trips, exponent form below 1e-6 and from
// 1e21 with a one-digit negative exponent unpadded. NaN and ±Inf have no
// JSON form and are an error, as they are to encoding/json.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
