package devices

import (
	"strings"
	"testing"
)

func TestClassifyByName(t *testing.T) {
	cases := []struct {
		name string
		want Type
	}{
		{"Katy's-iPhone", Portable},
		{"android-f81bd", Portable},
		{"Family iPad", Portable},
		{"Kindle-Emma", Portable},
		{"Dads-MacBook-Pro", Fixed},
		{"LIVINGROOM-PC", Fixed},
		{"thinkpad-x220", Fixed},
		{"PlayStation-3", GameConsole},
		{"XBOX-ONE", GameConsole},
		{"WiFi-Extender", NetworkEq},
		{"EPSON-WF2530", NetworkEq},
		{"Samsung TV", TV},
		{"AppleTV", TV},
		{"mystery-host", Unlabeled},
	}
	for _, tc := range cases {
		// Unknown OUI so the name is the only signal.
		if got := Classify("02:00:00:11:22:33", tc.name); got != tc.want {
			t.Errorf("Classify(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestClassifyByOUI(t *testing.T) {
	cases := []struct {
		mac  string
		want Type
	}{
		{"28:cf:e9:12:34:56", Portable},    // Apple
		{"00:24:d7:aa:bb:cc", Fixed},       // Intel
		{"e0:e7:51:00:00:01", GameConsole}, // Nintendo
		{"c0:3f:0e:99:88:77", NetworkEq},   // Netgear
		{"bc:14:85:10:20:30", TV},          // Samsung TV
		{"ff:ff:ff:00:00:00", Unlabeled},   // unknown OUI
	}
	for _, tc := range cases {
		if got := Classify(tc.mac, ""); got != tc.want {
			t.Errorf("Classify(%s) = %q, want %q", tc.mac, got, tc.want)
		}
	}
}

func TestNameBeatsOUI(t *testing.T) {
	// An Apple MAC named "MacBook" is a laptop (fixed), not a portable.
	if got := Classify("28:cf:e9:00:00:01", "Johns-MacBook-Air"); got != Fixed {
		t.Errorf("got %q, want fixed", got)
	}
}

func TestClassifyMACFormats(t *testing.T) {
	// Dashes and upper case must normalize.
	if got := Classify("28-CF-E9-01-02-03", ""); got != Portable {
		t.Errorf("dashed MAC: got %q", got)
	}
	if got := Classify("  28:CF:E9:01:02:03 ", ""); got != Portable {
		t.Errorf("padded MAC: got %q", got)
	}
	if got := Classify("bogus", ""); got != Unlabeled {
		t.Errorf("malformed MAC: got %q", got)
	}
	if got := Classify("", ""); got != Unlabeled {
		t.Errorf("empty MAC: got %q", got)
	}
}

func TestManufacturer(t *testing.T) {
	if m := Manufacturer("e0:e7:51:01:02:03"); m != "Nintendo" {
		t.Errorf("manufacturer = %q", m)
	}
	if m := Manufacturer("de:ad:be:ef:00:00"); m != "" {
		t.Errorf("unknown OUI manufacturer = %q", m)
	}
}

func TestKnownOUIs(t *testing.T) {
	for _, typ := range []Type{Portable, Fixed, NetworkEq, GameConsole, TV} {
		ouis := KnownOUIs(typ)
		if len(ouis) == 0 {
			t.Errorf("no OUIs for %q", typ)
		}
		for _, o := range ouis {
			if strings.Count(o, ":") != 2 {
				t.Errorf("malformed OUI %q", o)
			}
			if Classify(o+":00:00:01", "") != typ {
				t.Errorf("OUI %q does not classify back to %q", o, typ)
			}
		}
	}
	if KnownOUIs(Unlabeled) != nil {
		t.Error("Unlabeled should have no registered OUIs")
	}
}

func TestIsUserStation(t *testing.T) {
	if !IsUserStation(Portable) || !IsUserStation(Fixed) {
		t.Error("portable and fixed are user stations")
	}
	if IsUserStation(NetworkEq) || IsUserStation(Unlabeled) || IsUserStation(TV) {
		t.Error("infrastructure is not a user station")
	}
}

func TestDeviceString(t *testing.T) {
	d := Device{MAC: "aa:bb:cc:dd:ee:ff", Name: "iPad", Inferred: Portable}
	s := d.String()
	if !strings.Contains(s, "aa:bb:cc") || !strings.Contains(s, "portable") {
		t.Errorf("String() = %q", s)
	}
}

func TestKnownOUIsDeterministic(t *testing.T) {
	// The generator relies on a stable order to mint reproducible MACs.
	for i := 0; i < 5; i++ {
		a := KnownOUIs(Portable)
		b := KnownOUIs(Portable)
		if len(a) != len(b) {
			t.Fatal("length changed")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("order changed: %v vs %v", a, b)
			}
		}
	}
}

// Manufacturer returns the manufacturer for a MAC, or "" when the OUI is
// unknown.
func Manufacturer(mac string) string {
	if e, ok := ouiRegistry[ouiPrefix(mac)]; ok {
		return e.manufacturer
	}
	return ""
}
