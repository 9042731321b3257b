// Package devices models the wireless devices observed behind a residential
// gateway and reimplements the paper's heuristic device-type inference
// (Sec. 3): the MAC address OUI reveals the manufacturer, and the
// user-assigned device name ("Katy's-iPhone") reveals the product class.
// Light devices (smartphones, tablets, e-readers) are classified as
// portable; laptops and desktops as fixed; WiFi extenders and similar gear
// as network equipment; and consoles as game consoles.
package devices

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// Type is the device category used throughout the paper's analysis.
type Type string

// The five categories of Sec. 3 (plus TV, which appears in Fig. 16a).
const (
	Portable    Type = "portable"
	Fixed       Type = "fixed"
	NetworkEq   Type = "network_equipment"
	GameConsole Type = "game_console"
	TV          Type = "tv"
	Unlabeled   Type = "unlabeled"
)

// AllTypes lists every category in display order.
var AllTypes = []Type{Portable, Fixed, Unlabeled, NetworkEq, GameConsole, TV}

// Device is one wireless station identified by its MAC address.
type Device struct {
	// MAC is the station address in aa:bb:cc:dd:ee:ff form; the paper
	// defines a device by its MAC.
	MAC string
	// Name is the user-assigned host name reported by the gateway, possibly
	// empty.
	Name string
	// Inferred is the heuristically inferred type.
	Inferred Type
}

// String implements fmt.Stringer.
func (d Device) String() string {
	return fmt.Sprintf("%s (%q, %s)", d.MAC, d.Name, d.Inferred)
}

// ouiEntry maps a 3-byte OUI prefix to a manufacturer and that
// manufacturer's dominant product class.
type ouiEntry struct {
	manufacturer string
	hint         Type
}

// ouiRegistry is a compact registry of well-known OUIs. Real deployments
// carry the full IEEE list; this subset covers the manufacturers that
// matter for home WiFi in 2014 and everything the synthetic generator
// emits. A missing OUI simply means the MAC contributes no hint.
var ouiRegistry = map[string]ouiEntry{
	// Apple: phones, tablets, laptops — name decides; default portable.
	"28:cf:e9": {"Apple", Portable},
	"3c:07:54": {"Apple", Portable},
	"a4:5e:60": {"Apple", Portable},
	"f0:db:f8": {"Apple", Portable},
	// Samsung mobile.
	"8c:77:12": {"Samsung Electronics", Portable},
	"5c:0a:5b": {"Samsung Electronics", Portable},
	// Samsung visual display (Smart TVs).
	"bc:14:85": {"Samsung Electronics (TV)", TV},
	// HTC / LG / Huawei / Sony Mobile phones.
	"38:e7:d8": {"HTC", Portable},
	"10:68:3f": {"LG Electronics", Portable},
	"48:db:50": {"Huawei", Portable},
	"30:39:26": {"Sony Mobile", Portable},
	// Intel, Dell, HP, Lenovo, ASUS: PC/laptop radios.
	"00:24:d7": {"Intel", Fixed},
	"8c:a9:82": {"Intel", Fixed},
	"14:fe:b5": {"Dell", Fixed},
	"a0:48:1c": {"Hewlett-Packard", Fixed},
	"60:d9:c7": {"Lenovo", Fixed},
	"08:60:6e": {"ASUSTek", Fixed},
	// Consoles.
	"00:1f:a7": {"Sony Computer Entertainment", GameConsole},
	"e0:e7:51": {"Nintendo", GameConsole},
	"7c:ed:8d": {"Microsoft (Xbox)", GameConsole},
	// Network equipment.
	"c0:3f:0e": {"Netgear", NetworkEq},
	"14:cc:20": {"TP-Link", NetworkEq},
	"58:6d:8f": {"Cisco-Linksys", NetworkEq},
	"00:90:a9": {"Western Digital", NetworkEq},
	// Printers / peripherals ride the network-equipment bucket: they are
	// infrastructure, not user stations.
	"00:26:ab": {"Seiko Epson", NetworkEq},
	"f4:81:39": {"Canon", NetworkEq},
}

// nameRule maps a device-name keyword to a type. Rules are checked in
// order; the first hit wins.
type nameRule struct {
	pattern *regexp.Regexp
	t       Type
}

var nameRules = []nameRule{
	{regexp.MustCompile(`(?i)iphone|ipod|galaxy|nexus|lumia|xperia|phone|android`), Portable},
	{regexp.MustCompile(`(?i)ipad|tablet|kindle|tab\b`), Portable},
	{regexp.MustCompile(`(?i)macbook|laptop|notebook|thinkpad|ultrabook`), Fixed},
	{regexp.MustCompile(`(?i)imac|desktop|\bpc\b|workstation|mac-?mini|tower`), Fixed},
	{regexp.MustCompile(`(?i)playstation|\bps[345]\b|xbox|nintendo|wii|console`), GameConsole},
	{regexp.MustCompile(`(?i)extender|repeater|access-?point|\bap\b|bridge|router|nas\b`), NetworkEq},
	{regexp.MustCompile(`(?i)printer|epson|officejet|laserjet|scanner`), NetworkEq},
	{regexp.MustCompile(`(?i)\btv\b|television|bravia|smarttv|chromecast|appletv|apple-tv`), TV},
}

// Classify infers the device type from its MAC OUI and reported name,
// mirroring the paper's heuristic [25]. The name is the stronger signal
// ("Katy's-iPhone" beats an ambiguous Apple OUI); the OUI breaks ties and
// covers unnamed devices. Devices with neither signal are Unlabeled.
func Classify(mac, name string) Type {
	for _, rule := range nameRules {
		if name != "" && rule.pattern.MatchString(name) {
			return rule.t
		}
	}
	if e, ok := ouiRegistry[ouiPrefix(mac)]; ok {
		return e.hint
	}
	return Unlabeled
}

// KnownOUIs returns the registered OUI prefixes for the given type, sorted,
// used by the synthetic generator to mint plausible MACs. The order is
// deterministic so that seeded generation is reproducible across calls.
func KnownOUIs(t Type) []string {
	var out []string
	for oui, e := range ouiRegistry {
		if e.hint == t {
			out = append(out, oui)
		}
	}
	sort.Strings(out)
	return out
}

// ouiPrefix normalizes and extracts the first three octets of a MAC.
func ouiPrefix(mac string) string {
	mac = strings.ToLower(strings.TrimSpace(mac))
	mac = strings.ReplaceAll(mac, "-", ":")
	parts := strings.Split(mac, ":")
	if len(parts) < 3 {
		return ""
	}
	return strings.Join(parts[:3], ":")
}

// IsUserStation reports whether the type represents a resident-operated
// device (portable or fixed), as opposed to infrastructure.
func IsUserStation(t Type) bool { return t == Portable || t == Fixed }
