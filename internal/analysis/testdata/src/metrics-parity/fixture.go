// Package fixture exercises the metrics-parity rule against the
// CATALOG.md checked in beside it: registered families need catalog
// rows, and catalog rows need registrations.
package fixture

import "homesight/internal/obs"

func register(reg *obs.Registry) {
	reg.Counter("homesight_fix_documented_total", "has a catalog row")
	reg.Counter("homesight_fix_missing_total", "no catalog row") // want `registered but has no catalog row`
	name := "homesight_fix_" + "computed_total"
	reg.Counter(name, "computed name") // want `metric family name must be a string literal`
}
