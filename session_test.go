package psk

import (
	"fmt"
	"strings"
	"testing"
)

// TestSessionMatchesAnonymize: the streaming facade's first publication
// and its materialized release are identical to the one-shot batch API
// on the same table, whichever algorithm publishes cold.
func TestSessionMatchesAnonymize(t *testing.T) {
	tbl := figure3(t)
	for _, alg := range []Algorithm{AlgorithmSamarati, AlgorithmAllMinimal, AlgorithmIncognito} {
		cfg := baseConfig(t)
		cfg.Algorithm = alg
		batch, err := Anonymize(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenSession(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Republish()
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != batch.Found || !res.Node.Equal(batch.Node) || res.Suppressed != batch.Suppressed ||
			fmt.Sprint(res.AllMinimal) != fmt.Sprint(batch.AllMinimal) {
			t.Fatalf("%s: initial publish %+v, batch %+v", alg, res, batch)
		}
		if !s.Published().Equal(batch.Node) {
			t.Fatalf("%s: Published() = %v, want %v", alg, s.Published(), batch.Node)
		}
		mm, suppressed, err := s.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if suppressed != batch.Suppressed {
			t.Fatalf("%s: Materialize suppressed %d, batch %d", alg, suppressed, batch.Suppressed)
		}
		var got, want strings.Builder
		if err := mm.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := batch.Masked.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: materialized release differs from batch:\n%s\nvs\n%s", alg, got.String(), want.String())
		}
	}
}

// TestSessionAbsorbsDeltas: churn keeps the verdict correct — the
// release after append/retire batches still satisfies the property on
// the live rows.
func TestSessionAbsorbsDeltas(t *testing.T) {
	cfg := baseConfig(t)
	s, err := OpenSession(figure3(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Republish(); err != nil {
		t.Fatal(err)
	}
	// Row cells follow the session schema (Sex, ZipCode, Illness).
	if err := s.Apply([][]string{
		{"F", "41077", "Flu"},
		{"M", "41078", "Asthma"},
		{"F", "43104", "Cold"},
	}, []int{0, 4}); err != nil {
		t.Fatal(err)
	}
	if s.NumLive() != 11 || s.NumRows() != 13 {
		t.Fatalf("NumLive %d NumRows %d, want 11 / 13", s.NumLive(), s.NumRows())
	}
	res, err := s.Republish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("republish found nothing")
	}
	mm, _, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := IsPSensitiveKAnonymous(mm, cfg.QuasiIdentifiers, cfg.Confidential, cfg.P, cfg.K)
	if err != nil || !ok {
		t.Errorf("release after churn not %d-sensitive %d-anonymous: %v", cfg.P, cfg.K, err)
	}
}

func TestSessionErrors(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Algorithm = Algorithm(99)
	if _, err := OpenSession(figure3(t), cfg); err == nil {
		t.Error("unknown algorithm accepted")
	}
	cfg = baseConfig(t)
	s, err := OpenSession(figure3(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(nil, []int{99}); err == nil {
		t.Error("unknown retire id accepted")
	}
	if _, _, err := s.Materialize(); err == nil {
		t.Error("Materialize before any publication succeeded")
	}
}
