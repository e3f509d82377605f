package core

import (
	"testing"

	"ageguard/internal/char"
	"ageguard/internal/sta"
)

func TestNewDefaults(t *testing.T) {
	f := New()
	d := Default()
	if f.Lifetime != d.Lifetime || f.Char.CacheDir != d.Char.CacheDir {
		t.Errorf("New() = %+v differs from Default() = %+v", f, d)
	}
}

func TestNewOptionsApplyInOrder(t *testing.T) {
	f := New(
		WithLifetime(7),
		WithRetries(3),
		WithStrict(true),
		WithLifetime(9),
	)
	if f.Lifetime != 9 {
		t.Errorf("Lifetime = %v, want last-wins 9", f.Lifetime)
	}
	if f.Char.Retries != 3 || !f.Char.Strict {
		t.Errorf("Retries, Strict = %v, %v, want 3, true", f.Char.Retries, f.Char.Strict)
	}
}

func TestNewSubConfigOptions(t *testing.T) {
	cc := char.DefaultConfig()
	cc.CacheDir, cc.Parallelism = "cc", 2
	sc := sta.Config{InputSlew: 11, WireCap: 0.5}
	f := New(WithCharConfig(cc), WithSTAConfig(sc))
	if f.Char.CacheDir != "cc" || f.Char.Parallelism != 2 {
		t.Errorf("char config not applied: %+v", f.Char)
	}
	if f.STA.InputSlew != 11 || f.STA.WireCap != 0.5 {
		t.Errorf("sta config not applied: %+v", f.STA)
	}
}

func TestWithRetriesAfterCharConfig(t *testing.T) {
	// WithRetries and WithStrict must compose with an earlier
	// WithCharConfig (as ageguardd applies them) instead of being
	// clobbered by it.
	cc := char.DefaultConfig()
	cc.CacheDir = "a"
	f := New(WithCharConfig(cc), WithRetries(4), WithStrict(true))
	if f.Char.CacheDir != "a" || f.Char.Retries != 4 || !f.Char.Strict {
		t.Errorf("char config = %+v, want CacheDir a, Retries 4, Strict", f.Char)
	}
}
