package sim

// Engine configuration. The engine has one data plane — dense layouts
// wherever ident.Dense approves the ID range, timers on the wheel, packets
// recycled through the engine's free list — and no knob selects another.
// What an Options value carries, fixed at engine construction, is execution
// strategy: two choices that each still pick between two live paths and
// never move a result.

// Options is the per-engine configuration. The zero value is NOT the
// default — use DefaultOptions (or just NewEngine, which starts from it)
// and override with With* options.
type Options struct {
	// BurstSize caps how many back-to-back pipe deliveries one engine event
	// may drain inline (the burst-mode data plane); 0 disables bursting and
	// every delivery is its own event. Results are byte-identical for any
	// value — bursting elides only events that would fire next anyway.
	BurstSize int
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

// WithBurstSize sets Options.BurstSize; n <= 0 disables burst draining.
func WithBurstSize(n int) Option {
	return func(o *Options) {
		if n < 0 {
			n = 0
		}
		o.BurstSize = n
	}
}

// DefaultBurstSize is the default cap on inline deliveries per engine
// event. A burst ends the moment any other event (a timer, another pipe's
// delivery) is due first, so the cap only bounds the degenerate case of one
// pipe owning the whole window; 64 mirrors the DPDK burst convention.
const DefaultBurstSize = 64

// DefaultOptions returns the default engine configuration: cooperative
// domains, BurstSize = DefaultBurstSize. It is a pure constant — there is
// no way to change the defaults process-wide; callers that want a
// different configuration pass With* options to NewEngine or NewCluster.
func DefaultOptions() Options { return Options{BurstSize: DefaultBurstSize} }
