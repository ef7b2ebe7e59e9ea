package search

import (
	"strings"
	"testing"
)

// TestParseStrategy: every strategy round-trips through its name, and
// an unknown name is rejected with an error that lists all five.
func TestParseStrategy(t *testing.T) {
	for s := range numStrategies {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	_, err := ParseStrategy("magic")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for s := range numStrategies {
		if !strings.Contains(err.Error(), s.String()) {
			t.Errorf("error %q does not list %s", err, s)
		}
	}
	if _, err := Run(figure3Table(t), kOnlyConfig(t, 2), numStrategies); err == nil {
		t.Error("Run accepted an unknown strategy")
	}
	if StrategyIncognito.CheckQIs(16) != nil || StrategyIncognito.CheckQIs(17) == nil || StrategySamarati.CheckQIs(17) != nil {
		t.Error("CheckQIs: want only incognito capped, at 16 quasi-identifiers")
	}
}
