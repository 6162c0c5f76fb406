package jsonenc

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "oncommit", "every=250ms", "maxstale=1µs", "r.A", "view name",
		`quote"d`, `back\slash`, "<script>&</script>", "tab\tnew\nline\r",
		"\x00\x1f\x7f", "  ", "bad \xff utf8", "日本",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 1e-9, 1.5e-7,
		1e20, 1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-100}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		cases = append(cases, math.Float64frombits(rng.Uint64()), rng.Float64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range cases {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json %s", f, got, want)
		}
	}
}
