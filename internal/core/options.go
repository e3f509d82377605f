package core

import (
	"ageguard/internal/char"
	"ageguard/internal/sta"
)

// Option configures a Flow under construction; see New.
type Option func(*Flow)

// New returns the Default flow with the options applied in order:
//
//	f := core.New(core.WithLifetime(10), core.WithRetries(4))
func New(opts ...Option) Flow {
	f := Default()
	for _, o := range opts {
		o(&f)
	}
	return f
}

// WithLifetime sets the projected lifetime in years.
func WithLifetime(years float64) Option { return func(f *Flow) { f.Lifetime = years } }

// WithCharConfig replaces the characterization configuration.
func WithCharConfig(cfg char.Config) Option { return func(f *Flow) { f.Char = cfg } }

// WithSTAConfig replaces the static-timing-analysis configuration.
func WithSTAConfig(cfg sta.Config) Option { return func(f *Flow) { f.STA = cfg } }

// WithRetries sets the characterization solver retry-ladder depth
// (0 = char.DefaultRetries, negative = disabled).
func WithRetries(n int) Option { return func(f *Flow) { f.Char.Retries = n } }

// WithStrict toggles strict characterization: failed grid points abort
// instead of being salvaged by interpolation.
func WithStrict(on bool) Option { return func(f *Flow) { f.Char.Strict = on } }
