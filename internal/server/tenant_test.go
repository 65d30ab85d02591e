package server

import (
	"strings"
	"testing"
)

func TestParseTenantHeader(t *testing.T) {
	cases := []struct {
		header string
		name   string
		class  Class
		wantOK bool
	}{
		{"", DefaultTenant, ClassBatch, true},
		{"alice", "alice", ClassBatch, true},
		{"alice;class=batch", "alice", ClassBatch, true},
		{"alice;class=latency", "alice", ClassLatency, true},
		{"alice; class=latency", "alice", ClassLatency, true},
		{"team.a_b-c;class=latency", "team.a_b-c", ClassLatency, true},
		{"alice;priority=high", "", 0, false}, // unknown parameter
		{"alice;class=urgent", "", 0, false},  // unknown class
		{"has space", "", 0, false},           // invalid byte
		{";class=latency", "", 0, false},      // empty name
		{strings.Repeat("a", 65), "", 0, false},
		{strings.Repeat("a", 64), strings.Repeat("a", 64), ClassBatch, true},
	}
	for _, c := range cases {
		name, class, err := parseTenantHeader(c.header)
		if c.wantOK {
			if err != nil {
				t.Fatalf("header %q: unexpected error %v", c.header, err)
			}
			if name != c.name || class != c.class {
				t.Fatalf("header %q = (%q, %v), want (%q, %v)", c.header, name, class, c.name, c.class)
			}
		} else if err == nil {
			t.Fatalf("header %q: expected an error, got (%q, %v)", c.header, name, class)
		}
	}
}

func TestValidateTenantNameBytes(t *testing.T) {
	for _, bad := range []string{"", "a b", "a/b", "a\x00b", strings.Repeat("x", 65)} {
		if err := validateTenantNameBytes([]byte(bad)); err == nil {
			t.Fatalf("name %q: expected rejection", bad)
		}
	}
	for _, good := range []string{"a", "A-Z_0.9", strings.Repeat("x", 64)} {
		if err := validateTenantNameBytes([]byte(good)); err != nil {
			t.Fatalf("name %q: unexpected rejection: %v", good, err)
		}
	}
}

// TestTenantRegistryCardinalityCap checks tenants beyond TenantMax are
// pooled into the shared overflow tenant instead of growing the metric
// space, and that resolve is stable per name.
func TestTenantRegistryCardinalityCap(t *testing.T) {
	reg := newTenantRegistry(NewRegistry(), Config{Tenant: TenantConfig{Max: 2}})
	// The default tenant occupies one of the two slots.
	a := reg.resolve("a")
	if a.name != "a" {
		t.Fatalf("first tenant resolved to %q", a.name)
	}
	if again := reg.resolve("a"); again != a {
		t.Fatal("resolve is not stable for a known tenant")
	}
	if got := reg.resolveBytes([]byte("a")); got != a {
		t.Fatal("resolveBytes disagrees with resolve")
	}
	b := reg.resolve("b")
	if b.name != OverflowTenant {
		t.Fatalf("over-cap tenant resolved to %q, want %q", b.name, OverflowTenant)
	}
	if c := reg.resolve("c"); c != b {
		t.Fatal("overflow tenant is not shared")
	}
	names := make([]string, 0, 3)
	for _, ts := range reg.snapshot() {
		names = append(names, ts.name)
	}
	if len(names) != 3 { // default, a, other
		t.Fatalf("snapshot has %d tenants (%v), want 3", len(names), names)
	}
}

// TestTenantWeightsAndQuotas checks the per-tenant weight and quota
// configuration: explicit entries win, weights clamp to >= 1, and the
// default quota applies to unlisted tenants.
func TestTenantWeightsAndQuotas(t *testing.T) {
	reg := newTenantRegistry(NewRegistry(), Config{
		Tenant: TenantConfig{
			Max:     8,
			Weights: map[string]int{"gold": 5, "zero": 0},
			Quotas:  map[string]int{"gold": 7, "neg": -3},
			Quota:   2,
		},
	})
	if got := reg.resolve("gold"); got.weight != 5 || got.quota != 7 {
		t.Fatalf("gold = weight %d quota %d, want 5/7", got.weight, got.quota)
	}
	if got := reg.resolve("zero"); got.weight != 1 {
		t.Fatalf("zero-weight tenant clamped to %d, want 1", got.weight)
	}
	if got := reg.resolve("plain"); got.weight != 1 || got.quota != 2 {
		t.Fatalf("plain = weight %d quota %d, want 1/2 (default quota)", got.weight, got.quota)
	}
	if got := reg.resolve("neg"); got.quota != 0 {
		t.Fatalf("negative quota = %d, want 0 (unbounded)", got.quota)
	}
}

// FuzzTenantHeader: parseTenantHeader never panics, every header it
// accepts names a 1–64-byte [A-Za-z0-9._-] tenant in the latency or batch
// class, and that pair, written back as "name;class=…", parses to itself.
// Run with `go test -run '^$' -fuzz '^FuzzTenantHeader$' ./internal/server`.
func FuzzTenantHeader(f *testing.F) {
	for _, s := range []string{"", "alice", "alice;class=batch", "alice; class=latency",
		" team.a_b-c ;class=latency", "alice;priority=high", ";class=latency", "a;b;class=batch",
		strings.Repeat("a", 64), strings.Repeat("a", 65), "alice;class=latency\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		name, class, err := parseTenantHeader(h)
		if err != nil {
			return
		}
		if len(name) < 1 || len(name) > maxTenantNameLen {
			t.Fatalf("header %q: accepted a %d-byte name", h, len(name))
		}
		for i := 0; i < len(name); i++ {
			if !validTenantNameByte(name[i]) {
				t.Fatalf("header %q: accepted name %q with byte %q", h, name, name[i])
			}
		}
		if class != ClassLatency && class != ClassBatch {
			t.Fatalf("header %q: accepted class %d", h, class)
		}
		again := name + ";class=" + class.String()
		if n2, c2, err := parseTenantHeader(again); err != nil || n2 != name || c2 != class {
			t.Fatalf("header %q = (%q, %v), but %q = (%q, %v, %v)", h, name, class, again, n2, c2, err)
		}
	})
}
