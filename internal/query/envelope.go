// Package query is homequery: the HTTP query/serving tier over
// homestore. It exposes the paper's per-home analyses — device
// inventories, downsampled traffic series at the Def. 3 granularities
// (3h daily, 8h weekly), Def. 4 φ-dominance and Def. 5 motif counts,
// plus the duty-cycle/burstiness activity indicators — as versioned
// JSON endpoints mounted on the shared internal/obs debug listener:
//
//	GET /api/v1/homes                  known gateways and device counts
//	GET /api/v1/homes/{gw}/devices     one gateway's device inventory
//	GET /api/v1/homes/{gw}/summary     dominants, motifs, activity features
//	GET /api/v1/series                 raw or downsampled range reads
//	GET /api/v1/homes/{gw}/live        livestats snapshot (with Config.Live)
//
// /summary and /live score a home with the same Def. 1 measure
// (corrsim.Measure{}) at the same φ (dominance.DefaultPhi); neither is a
// setting.
//
// Every response — success or error — is wrapped in the Envelope below,
// the same wrapper `homesight store inspect -json` prints, so the CLI and the
// server never drift. Binned series answers ("bins") come from the
// store's precomputed segment rollups and never decode raw minutes. A
// raw series answer is two parallel arrays: "t", each sample's seconds
// after the answer's "from", and "val", the stored counter samples —
// no per-point object, no repeated absolute timestamp.
//
// A request is "find the bytes, write the bytes". What is cached is the
// encoded envelope, newline included, so a hit is a Content-Length and
// one Write. /homes, /devices and binned /series bodies live in one LRU
// (cache.go) whose keys embed the version of the home they are about
// (store.HomeVersion; /homes, about every home, embeds
// store.Generation; an answer whose window ends at the defaulted
// campaign end also embeds that end): a point accepted for one home
// invalidates that home's answers and no other's. /summary, which costs
// a thousand times what the others do to rebuild, lives outside the LRU
// in one memo slot per home (summary.go) under the same version, built
// once however many requests miss it together. Raw /series ranges are
// not cached; encodeSeries writes them, and binned answers, without
// reflection. homesight_query_cache_{hits,misses}_total count the LRU
// and the memo alike.
package query

// Version is the wire version every envelope carries.
const Version = "v1"

// Envelope is the versioned JSON wrapper shared by the HTTP API and the
// `homesight store inspect -json` output. Exactly one of Data and Error is set.
type Envelope struct {
	Version string `json:"version"`
	Data    any    `json:"data,omitempty"`
	Error   *Error `json:"error,omitempty"`
}

// Error is the wire form of a failed request.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Wrap wraps a successful payload.
func Wrap(data any) Envelope { return Envelope{Version: Version, Data: data} }

// WrapError wraps a failure.
func WrapError(code int, message string) Envelope {
	return Envelope{Version: Version, Error: &Error{Code: code, Message: message}}
}
