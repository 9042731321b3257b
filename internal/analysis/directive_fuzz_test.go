package analysis

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzDirectiveParser hammers the //homesight: comment-directive grammar
// with arbitrary comment text. The parser sits on every source line of
// every analyzed file, so it must never panic and must uphold its
// structural contract on any input:
//
//   - parseDirective returns ok only for ignore/rawcorr directives, and
//     then a non-empty rule list whose entries contain no separators or
//     rationale text;
//   - rawcorr is exactly the sig-gate alias;
//   - parsing is insensitive to trailing CR (CRLF sources reach the
//     parser with the \r still attached to the comment text).
func FuzzDirectiveParser(f *testing.F) {
	seeds := []string{
		// Well-formed directives.
		"//homesight:ignore float-eq — exact tie detection by design",
		"//homesight:ignore determinism, ctx-flow -- two rules, dash-dash rationale",
		"//homesight:ignore",
		"//homesight:rawcorr — raw Pearson wanted here",
		// Malformed rule names and shapes.
		"//homesight:ignore , , ,",
		"//homesight:ignore —",
		"//homesight:ignore no-such-rule!!! $%^",
		"//homesight:ignorefloat-eq",
		"//homesight: ignore float-eq",
		"//homesight:IGNORE float-eq",
		"// homesight:ignore float-eq",
		// Missing reasons and dangling separators.
		"//homesight:ignore float-eq --",
		"//homesight:ignore float-eq —  ",
		"//homesight:rawcorr--",
		// CRLF and other line-ending debris.
		"//homesight:ignore float-eq\r",
		"//homesight:ignore float-eq — reason\r",
		// Unicode: wide dashes, homoglyphs, combining marks, invalid UTF-8.
		"//homesight:ignore détérminisme — règle inconnue",
		"//homesight:ignore float‐eq",
		"//homesight:ignore — rationale only",
		"//homesight:ignore ルール — 日本語",
		"//homesight:ignore á — combining accent",
		"//homesight:ignore \xff\xfe",
		// Non-directives that must parse as nothing.
		"//homesight:stats",
		"//homesight:stats\r",
		"// plain comment",
		"//go:generate stringer",
		"/* block */",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, text string) {
		rules, ok := parseDirective(text)

		if !ok && rules != nil {
			t.Fatalf("parseDirective(%q) = %v, ok=false: rules must be nil when not a directive", text, rules)
		}
		if ok {
			if len(rules) == 0 {
				t.Fatalf("parseDirective(%q) ok with empty rule list; want wildcard fallback", text)
			}
			for _, r := range rules {
				if r == "" {
					t.Fatalf("parseDirective(%q) produced an empty rule name", text)
				}
				if strings.ContainsAny(r, ", \t") {
					t.Fatalf("parseDirective(%q) rule %q contains a separator", text, r)
				}
				if strings.Contains(r, "—") || strings.Contains(r, "--") {
					t.Fatalf("parseDirective(%q) rule %q leaked rationale separator", text, r)
				}
			}
			trimmed := strings.TrimSpace(strings.TrimPrefix(text, "//"))
			if strings.HasPrefix(trimmed, "homesight:rawcorr") {
				if len(rules) != 1 || rules[0] != "sig-gate" {
					t.Fatalf("rawcorr %q = %v; want exactly [sig-gate]", text, rules)
				}
			}
		}

		// A trailing \r (CRLF sources) must not change the verdict or the
		// parsed rules, only possibly the rationale text it trails.
		if utf8.ValidString(text) && !strings.ContainsAny(text, "\r\n") {
			crRules, crOK := parseDirective(text + "\r")
			if crOK != ok || len(crRules) != len(rules) {
				t.Fatalf("CRLF changed parse of %q: (%v,%v) vs (%v,%v)", text, rules, ok, crRules, crOK)
			}
			for i := range rules {
				if crRules[i] != strings.TrimSuffix(rules[i], "\r") && crRules[i] != rules[i] {
					t.Fatalf("CRLF changed rule %d of %q: %q vs %q", i, text, rules[i], crRules[i])
				}
			}
		}
	})
}
