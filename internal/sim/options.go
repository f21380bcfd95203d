package sim

// Engine configuration. The engine has one data plane — dense layouts
// wherever ident.Dense approves the ID range, timers on the wheel, packets
// recycled through the engine's free list, one engine event per delivery —
// and no knob selects another. What an Options value carries, fixed at
// engine construction, is execution strategy: the one choice that still
// picks between two live paths and never moves a result.

// Options is the per-engine configuration; the zero value is the default.
type Options struct {
	// ParallelDomains makes a Cluster built with this option advance each
	// round's domains on persistent worker goroutines instead of
	// cooperatively (see Cluster.SetParallel). Execution strategy only —
	// results are byte-identical — but only sound for scenarios whose
	// runtime state never crosses domains outside the cluster mailboxes.
	// Ignored by standalone engines.
	ParallelDomains bool
}

// Option overrides one knob of an engine's Options.
type Option func(*Options)

// WithParallelDomains sets Options.ParallelDomains.
func WithParallelDomains(on bool) Option { return func(o *Options) { o.ParallelDomains = on } }
