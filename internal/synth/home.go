// Package synth generates the synthetic residential deployment that stands
// in for the paper's closed dataset: 196 home gateways observed for two
// months at one-minute resolution. Every statistical shape the paper's
// analysis depends on is modelled explicitly — Zipfian traffic values,
// bursty human sessions, per-class background chatter, correlated in/out
// traffic, reporting outages, and home archetypes that give rise to the
// weekly and daily motif families of Figs. 11 and 14.
//
// Generation is deterministic: Home(i) is a pure function of the master
// seed and i, so experiments can stream homes one at a time without holding
// the whole deployment in memory.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"homesight/internal/devices"
	"homesight/internal/timeseries"
)

// Config describes a synthetic deployment.
type Config struct {
	// Seed is the master seed; all homes derive from it deterministically.
	Seed int64
	// Homes is the number of gateways (paper: 196).
	Homes int
	// Start is the first reporting minute (paper: Monday 2014-03-17).
	Start time.Time
	// Weeks is the campaign length (paper: ~9 weeks; 8 covers every
	// analysis window used in the evaluation).
	Weeks int
}

// DefaultConfig mirrors the paper's deployment.
func DefaultConfig() Config {
	return Config{
		Seed:  20140317,
		Homes: 196,
		Start: time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC),
		Weeks: 8,
	}
}

// Validate reports whether the configuration describes a runnable
// deployment. Zero fields are legal — withDefaults fills them — but
// negative counts would otherwise surface as slice-allocation panics
// deep inside an experiment run, so callers (experiments.NewEnv in
// particular) reject them up front.
func (c Config) Validate() error {
	if c.Homes < 0 {
		return fmt.Errorf("synth: config has %d homes; want >= 1 (or 0 for the default)", c.Homes)
	}
	if c.Weeks < 0 {
		return fmt.Errorf("synth: config has %d weeks; want >= 1 (or 0 for the default)", c.Weeks)
	}
	return nil
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.Homes == 0 {
		c.Homes = def.Homes
	}
	if c.Start.IsZero() {
		c.Start = def.Start
	}
	if c.Weeks == 0 {
		c.Weeks = def.Weeks
	}
	return c
}

// Minutes returns the number of one-minute observations in the campaign.
func (c Config) Minutes() int { return c.Weeks * 7 * 24 * 60 }

// Deployment is a handle on a synthetic population of homes.
type Deployment struct {
	cfg Config
}

// NewDeployment returns a deployment for the config (zero fields take
// defaults).
func NewDeployment(cfg Config) *Deployment {
	return &Deployment{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration.
func (d *Deployment) Config() Config { return d.cfg }

// NumHomes returns the number of gateways.
func (d *Deployment) NumHomes() int { return d.cfg.Homes }

// Reliability classifies a home's reporting quality; it drives the
// observation-coverage filters of the paper (153/196 homes with weekly
// coverage, 100/196 with daily coverage).
type Reliability string

// Reliability classes.
const (
	Solid        Reliability = "solid"        // isolated missing minutes only
	Patchy       Reliability = "patchy"       // occasional full-day outages
	Intermittent Reliability = "intermittent" // multi-week gap or late join
)

// Home is one gateway with its device inventory, ground-truth structure and
// reporting plan. Traffic series are generated lazily by Traffic/Overall.
type Home struct {
	Index int
	// ID is the gateway identifier, e.g. "gw042".
	ID string
	// Archetype is the home's dominant usage rhythm (ground truth).
	Archetype Archetype
	// Residents is the ground-truth number of residents (the survey data of
	// Sec. 6.2).
	Residents int
	// Regularity in [0,1]: how faithfully the home repeats its rhythm
	// week over week. High-regularity homes are the strongly stationary
	// ones.
	Regularity float64
	// Reliability is the reporting quality class.
	Reliability Reliability
	// Fiber reports whether the home is on the fiber plan (67% in the
	// paper) as opposed to ADSL.
	Fiber bool
	// Devices is the device inventory.
	Devices []*DeviceSpec

	cfg     Config
	offline []bool // per-minute gateway outage plan
	// dayDrift is a home-level multiplicative random walk over days:
	// human routines drift (deadlines, visitors, vacations), which is what
	// makes real traffic fail classical stationarity tests (Sec. 4.2).
	// Low-regularity homes drift hard; clockwork homes barely move.
	dayDrift []float64

	traffic []*DeviceTraffic
	overall *timeseries.Series
}

// DeviceSpec is the ground-truth specification of one device's behaviour.
type DeviceSpec struct {
	// Device carries MAC, name and the heuristically inferred type.
	Device devices.Device
	// Class is the ground-truth device class.
	Class devices.Type
	// Primary marks the home's main device, the one engineered to dominate
	// gateway traffic the way the paper observes (Sec. 6.2).
	Primary bool
	// Guest marks a visiting device connected only for a short window.
	Guest bool

	scale      float64 // activity multiplier
	bgMedian   float64 // background chatter median, bytes/min
	bgSigma    float64
	chatterP   float64 // probability a quiet minute carries chatter
	phaseHours float64 // personal shift of the home profile
	inShareBG  float64 // incoming share of background bytes
	joinMin    int     // first connected minute
	leaveMin   int     // last connected minute (exclusive)
	heavyBG    bool    // "large τ" device (Fig. 4 tail)
	coPrimary  bool    // an additional resident's main device
	rateBoost  float64 // session-rate multiplier (1 = class default)
	sessBoost  float64 // session-length cap multiplier (1 = class default)
	daySilence float64 // extra probability a whole device-day stays silent
	idx        uint64  // device index for seeding
}

// DeviceTraffic is a device's generated minute-level traffic.
type DeviceTraffic struct {
	Spec *DeviceSpec
	// In and Out are incoming/outgoing bytes per minute; NaN where the
	// gateway was not reporting or the device was not connected.
	In, Out *timeseries.Series
}

// Overall returns In + Out, the device's total traffic.
func (dt *DeviceTraffic) Overall() *timeseries.Series {
	sum := dt.In.Clone()
	if err := sum.Add(dt.Out); err != nil {
		// In and Out are constructed on the same grid; this is unreachable.
		panic(err)
	}
	return sum
}

// Home generates the inventory and reporting plan of home i. It panics if i
// is out of range, which is always a caller bug.
func (d *Deployment) Home(i int) *Home {
	if i < 0 || i >= d.cfg.Homes {
		panic(fmt.Sprintf("synth: home index %d out of range [0,%d)", i, d.cfg.Homes))
	}
	rng := newRNG(d.cfg.Seed, 1, uint64(i))
	h := &Home{
		Index: i,
		ID:    fmt.Sprintf("gw%03d", i),
		cfg:   d.cfg,
	}
	h.Archetype = pickArchetype(rng.Float64())
	h.Residents = pickResidents(rng)
	h.Regularity = pickRegularity(rng)
	h.Fiber = rng.Float64() < 0.67
	h.Reliability = pickReliability(rng)
	h.offline = buildOutagePlan(rng, h.Reliability, d.cfg.Minutes())
	h.Devices = buildInventory(rng, h, d.cfg)
	h.dayDrift = buildDayDrift(rng, h.Regularity, d.cfg.Minutes()/(24*60))
	return h
}

// buildDayDrift returns the per-day multiplicative drift walk.
func buildDayDrift(rng *rand.Rand, regularity float64, days int) []float64 {
	irr := 1 - regularity
	drift := make([]float64, days)
	walk := 0.0
	for d := range drift {
		walk += irr * 0.45 * rng.NormFloat64()
		// Soft-clamp the walk so drift stays within physically plausible
		// amplitude (×1/8 .. ×8).
		if walk > 2.1 {
			walk = 2.1
		} else if walk < -2.1 {
			walk = -2.1
		}
		drift[d] = math.Exp(walk)
	}
	return drift
}

// pickResidents draws the resident count: mostly 1-2, up to 5.
func pickResidents(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < 0.28:
		return 1
	case u < 0.60:
		return 2
	case u < 0.82:
		return 3
	case u < 0.95:
		return 4
	default:
		return 5
	}
}

// pickRegularity draws the week-over-week regularity. About 10% of homes
// are near-clockwork — those become the strongly stationary gateways.
func pickRegularity(rng *rand.Rand) float64 {
	if rng.Float64() < 0.10 {
		return 0.93 + 0.06*rng.Float64()
	}
	return 0.45 + 0.40*rng.Float64()
}

// pickReliability draws the reporting-quality class with weights chosen so
// the coverage filters land near the paper's cohort sizes.
func pickReliability(rng *rand.Rand) Reliability {
	u := rng.Float64()
	switch {
	case u < 0.50:
		return Solid
	case u < 0.78:
		return Patchy
	default:
		return Intermittent
	}
}

// buildOutagePlan returns the per-minute offline mask for a home.
func buildOutagePlan(rng *rand.Rand, rel Reliability, minutes int) []bool {
	off := make([]bool, minutes)
	// Isolated missing minutes happen everywhere (report loss).
	pBlip := 0.0005
	for m := 0; m < minutes; m++ {
		if rng.Float64() < pBlip {
			off[m] = true
		}
	}
	// A couple of short multi-hour maintenance windows per campaign.
	for k := rng.Intn(3); k > 0; k-- {
		start := rng.Intn(minutes)
		dur := 30 + rng.Intn(8*60)
		markOff(off, start, dur)
	}
	days := minutes / (24 * 60)
	switch rel {
	case Patchy:
		// Several full-day outages.
		for k := 2 + rng.Intn(5); k > 0; k-- {
			day := rng.Intn(days)
			markOff(off, day*24*60, 24*60)
		}
	case Intermittent:
		// One long gap: either a late join or a mid-campaign outage of 1-3
		// weeks.
		gap := (7 + rng.Intn(15)) * 24 * 60
		if rng.Float64() < 0.5 {
			markOff(off, 0, gap) // joined late
		} else {
			markOff(off, rng.Intn(minutes), gap)
		}
		// Plus some day outages.
		for k := rng.Intn(4); k > 0; k-- {
			day := rng.Intn(days)
			markOff(off, day*24*60, 24*60)
		}
	}
	return off
}

func markOff(off []bool, start, dur int) {
	for m := start; m < start+dur && m < len(off); m++ {
		if m >= 0 {
			off[m] = true
		}
	}
}

// buildInventory creates the home's device population: per-resident
// portables, household fixed devices, optional console/TV/network gear and
// transient guest devices, averaging ~11 devices per home like the paper's
// 2147 devices across 196 gateways.
func buildInventory(rng *rand.Rand, h *Home, cfg Config) []*DeviceSpec {
	var specs []*DeviceSpec
	minutes := cfg.Minutes()
	add := func(class devices.Type, guest bool) *DeviceSpec {
		s := &DeviceSpec{Class: class, Guest: guest, idx: uint64(len(specs))}
		s.joinMin = 0
		s.leaveMin = minutes
		specs = append(specs, s)
		return s
	}

	// Fixed household machines: 1-3, first one is a dominance candidate.
	nFixed := 1 + rng.Intn(3)
	for k := 0; k < nFixed; k++ {
		add(devices.Fixed, false)
	}
	// Portables: roughly 1-2 per resident.
	nPort := h.Residents + rng.Intn(h.Residents+1)
	if nPort == 0 {
		nPort = 1
	}
	for k := 0; k < nPort; k++ {
		add(devices.Portable, false)
	}
	if rng.Float64() < 0.35 {
		add(devices.GameConsole, false)
	}
	if rng.Float64() < 0.30 {
		add(devices.TV, false)
	}
	if rng.Float64() < 0.25 {
		add(devices.NetworkEq, false)
	}
	// Guests: sparse portables visiting for a few days.
	for k := rng.Intn(7); k > 0; k-- {
		g := add(devices.Portable, true)
		stay := (1 + rng.Intn(5)) * 24 * 60
		g.joinMin = rng.Intn(max(1, minutes-stay))
		g.leaveMin = g.joinMin + stay
	}

	// Choose the primary device — the one that will dominate gateway
	// traffic. Usually the first fixed machine; sometimes the TV or the
	// resident's main portable (the paper finds 67 of 206 dominants are
	// portables).
	primary := specs[0]
	switch u := rng.Float64(); {
	case u < 0.18 && nFixed+nPort < len(specs):
		for _, s := range specs {
			if s.Class == devices.TV {
				primary = s
				break
			}
		}
	case u < 0.48:
		for _, s := range specs {
			if s.Class == devices.Portable && !s.Guest {
				primary = s
				break
			}
		}
	}
	primary.Primary = true

	// Each additional resident brings their own heavily-used device —
	// this is what makes two-user homes show two dominant devices
	// (Sec. 6.2's residents/dominants correlation).
	coPrimaries := 0
	if h.Residents >= 2 {
		coPrimaries = 1
	}
	if h.Residents >= 4 && rng.Float64() < 0.5 {
		coPrimaries = 2
	}
	for _, s := range specs {
		if coPrimaries == 0 {
			break
		}
		if s == primary || s.Guest || !devices.IsUserStation(s.Class) {
			continue
		}
		// Prefer a portable co-primary: second residents skew mobile.
		if s.Class == devices.Portable || rng.Float64() < 0.3 {
			s.coPrimary = true
			coPrimaries--
		}
	}

	for _, s := range specs {
		fillBehaviour(rng, s, h)
		mintIdentity(rng, s)
	}

	// Attention budget: residents split their screen time across the
	// home's user stations, so in device-rich low-resident homes the
	// non-primary devices see proportionally less use. This is what keeps
	// single-user homes at a single dominant device (Sec. 6.2).
	stations := 0
	for _, s := range specs {
		if !s.Guest && devices.IsUserStation(s.Class) {
			stations++
		}
	}
	if stations > 1 {
		attention := clamp(float64(h.Residents)/float64(stations), 0.15, 1)
		if h.Residents == 1 {
			// A lone resident can only drive one screen at a time; the
			// paper finds exactly one dominant device in 1-user homes.
			attention *= 0.55
		}
		for _, s := range specs {
			if s.Primary || s.coPrimary || s.Guest {
				continue
			}
			s.scale *= clamp(attention+0.15*rng.NormFloat64(), 0.1, 1)
			// Secondary screens are not used every day — without whole
			// silent days they would still co-vary with the home schedule
			// and cross the dominance threshold (similarity is scale-
			// invariant, so volume suppression alone cannot stop that).
			// Network equipment is always-on by nature and stays exempt.
			if s.Class != devices.NetworkEq {
				s.daySilence = clamp(1-1.2*attention, 0, 0.8)
			}
		}
	}
	// Co-primaries get their boost after suppression so that a second
	// resident's device genuinely tracks the gateway.
	for _, s := range specs {
		if s.coPrimary {
			s.scale *= 2.0
		}
	}
	return specs
}

// classBehaviour holds the per-class generation constants.
type classBehaviour struct {
	rateMedian   float64 // bytes/min during a session
	rateSigma    float64
	sessXm       float64 // Pareto scale of session length (minutes)
	sessAlpha    float64
	sessCap      float64
	bgMedian     float64
	bgSigma      float64
	chatterP     float64
	startBase    float64 // session-start probability scale
	inShareDown  float64 // incoming share of a download-ish session
	uploadShareP float64 // probability a session is upload-heavy
}

var classBehaviours = map[devices.Type]classBehaviour{
	devices.Portable: {
		rateMedian: 4e5, rateSigma: 1.2,
		sessXm: 3, sessAlpha: 1.4, sessCap: 120,
		bgMedian: 450, bgSigma: 0.5, chatterP: 0.35,
		startBase: 0.006, inShareDown: 0.88, uploadShareP: 0.04,
	},
	devices.Fixed: {
		rateMedian: 8e5, rateSigma: 1.3,
		sessXm: 5, sessAlpha: 1.2, sessCap: 420,
		bgMedian: 1600, bgSigma: 0.4, chatterP: 0.80,
		startBase: 0.005, inShareDown: 0.85, uploadShareP: 0.05,
	},
	devices.TV: {
		rateMedian: 4e6, rateSigma: 0.5,
		sessXm: 20, sessAlpha: 1.5, sessCap: 240,
		bgMedian: 250, bgSigma: 0.4, chatterP: 0.30,
		startBase: 0.009, inShareDown: 0.96, uploadShareP: 0,
	},
	devices.GameConsole: {
		rateMedian: 1.5e6, rateSigma: 1.0,
		sessXm: 10, sessAlpha: 1.4, sessCap: 180,
		bgMedian: 300, bgSigma: 0.45, chatterP: 0.25,
		startBase: 0.004, inShareDown: 0.80, uploadShareP: 0.08,
	},
	devices.NetworkEq: {
		rateMedian: 2e5, rateSigma: 0.8,
		sessXm: 2, sessAlpha: 1.6, sessCap: 30,
		bgMedian: 900, bgSigma: 0.3, chatterP: 0.95,
		startBase: 0.0006, inShareDown: 0.55, uploadShareP: 0.2,
	},
}

// fillBehaviour draws the device's personal parameters around its class.
func fillBehaviour(rng *rand.Rand, s *DeviceSpec, h *Home) {
	b := classBehaviours[s.Class]
	s.bgMedian = lognormal(rng, b.bgMedian, 0.6)
	s.bgSigma = b.bgSigma
	s.chatterP = clamp(b.chatterP+0.15*(rng.Float64()-0.5), 0.05, 0.98)
	s.phaseHours = 1.5 * rng.NormFloat64()
	s.inShareBG = clamp(0.6+0.1*rng.NormFloat64(), 0.3, 0.85)
	s.scale = lognormal(rng, 1, 0.45)
	s.rateBoost, s.sessBoost = 1, 1
	if s.Primary {
		s.scale *= 2.6
		// A primary portable is someone's main screen: it streams like a
		// fixed machine, not like a pocketed phone. Without this, portable
		// primaries never drive enough traffic to dominate the gateway.
		if s.Class == devices.Portable {
			s.scale *= 1.6
			s.rateBoost = 2.5
			s.sessBoost = 3
		}
	}
	if s.coPrimary && s.Class == devices.Portable {
		s.rateBoost = 2
		s.sessBoost = 2
	}
	if s.Guest {
		s.scale *= 0.7
	}
	// A small slice of fixed machines runs heavy background services
	// (cloud sync, torrents): the large-τ tail of Fig. 4.
	if s.Class == devices.Fixed && rng.Float64() < 0.08 {
		s.heavyBG = true
		s.bgMedian = lognormal(rng, 45000, 0.4)
		s.chatterP = 0.92
	}
	// ADSL homes see lower absolute rates.
	if !h.Fiber {
		s.scale *= 0.75
	}
}

// mintIdentity assigns a MAC and user-visible name consistent with the
// ground-truth class; roughly a quarter of devices get an unknown OUI and
// an uninformative name so the heuristic classifier labels them Unlabeled,
// matching the unlabeled share among the paper's dominant devices (Fig. 5).
func mintIdentity(rng *rand.Rand, s *DeviceSpec) {
	obscure := rng.Float64() < 0.24
	var mac, name string
	if obscure {
		mac = fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			0x02, rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256))
		name = fmt.Sprintf("host-%04x", rng.Intn(1<<16))
	} else {
		ouis := devices.KnownOUIs(s.Class)
		mac = fmt.Sprintf("%s:%02x:%02x:%02x",
			ouis[rng.Intn(len(ouis))], rng.Intn(256), rng.Intn(256), rng.Intn(256))
		name = mintName(rng, s.Class)
	}
	s.Device = devices.Device{
		MAC:      mac,
		Name:     name,
		Inferred: devices.Classify(mac, name),
	}
}

var firstNames = []string{"Katy", "John", "Emma", "Lucas", "Marie", "Hugo", "Lea", "Paul", "Nina", "Tom"}

func mintName(rng *rand.Rand, class devices.Type) string {
	who := firstNames[rng.Intn(len(firstNames))]
	switch class {
	case devices.Portable:
		kinds := []string{"iPhone", "iPad", "Galaxy", "android", "Tablet"}
		return fmt.Sprintf("%ss-%s", who, kinds[rng.Intn(len(kinds))])
	case devices.Fixed:
		kinds := []string{"MacBook", "Laptop", "PC", "ThinkPad", "Desktop"}
		return fmt.Sprintf("%s-%s", who, kinds[rng.Intn(len(kinds))])
	case devices.GameConsole:
		kinds := []string{"PlayStation-3", "XBOX", "Wii"}
		return kinds[rng.Intn(len(kinds))]
	case devices.TV:
		return "Samsung-TV"
	case devices.NetworkEq:
		kinds := []string{"WiFi-Extender", "EPSON-Printer", "NAS"}
		return kinds[rng.Intn(len(kinds))]
	default:
		return fmt.Sprintf("host-%04x", rng.Intn(1<<16))
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
