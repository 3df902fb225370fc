// Package chaos is the repository's single fault-injection mechanism: a
// deterministic, seeded injector that fires error, latency, payload
// corruption, and crash faults at named injection sites threaded through
// the storage engine (disk, WAL, buffer pool), the LSM key-value store,
// the executor, and the simulated training accelerator.
//
// Determinism contract: for a fixed seed and a fixed per-site call
// sequence, the injector fires the exact same fault schedule. Each rule
// draws from its own splitmix64 stream (derived from the injector seed,
// the site name, the fault kind, and the rule's position), so faults at
// one site never perturb the schedule of another — concurrent call
// interleavings across sites cannot change any site's fault sequence.
//
// All Injector methods are safe for concurrent use and are no-ops on a
// nil receiver, so production call sites pay one nil check when chaos is
// disabled.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"aidb/internal/ml"
	"aidb/internal/obs"
)

// Kind classifies a fault.
type Kind uint8

// Supported fault kinds.
const (
	// Error makes the site return ErrInjected (or the rule's Err).
	Error Kind = iota
	// Latency charges the site the rule's Delay in virtual time units.
	Latency
	// Corrupt flips one pseudo-random bit in the site's payload.
	Corrupt
	// Crash tells the site to simulate a process crash at this point.
	Crash
)

func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Latency:
		return "latency"
	case Corrupt:
		return "corrupt"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ErrInjected is the default error returned by fired Error rules.
var ErrInjected = errors.New("chaos: injected fault")

// Rule schedules one fault at one site. The trigger fields compose as:
// skip the first After matching calls; then, if Every > 0 fire on every
// Every-th call, else if Prob > 0 fire with that probability per call,
// else fire on every call. Limit caps total fires (0 = unlimited).
type Rule struct {
	Site string
	Kind Kind

	// Trigger schedule.
	After uint64
	Every uint64
	Prob  float64
	Limit uint64

	// Effects. Err overrides ErrInjected for Error rules; Delay is the
	// virtual-time cost charged by Latency rules (default 1).
	Err   error
	Delay int
}

// Event records one fired fault, in firing order.
type Event struct {
	Seq  uint64
	Site string
	Kind Kind
}

type rule struct {
	Rule
	calls uint64
	fires uint64
	rng   *ml.RNG
	// ctr counts this rule's fires on the obs registry (nil when the
	// injector is uninstrumented). Pre-resolved so the fire path never
	// touches the registry lock while holding the injector lock.
	ctr *obs.Counter
}

// shouldFire advances the rule's schedule by one call. Caller holds the
// injector lock.
func (r *rule) shouldFire() bool {
	if r.Limit > 0 && r.fires >= r.Limit {
		return false
	}
	r.calls++
	if r.calls <= r.After {
		return false
	}
	fire := false
	switch {
	case r.Every > 0:
		fire = (r.calls-r.After)%r.Every == 0
	case r.Prob > 0:
		fire = r.rng.Float64() < r.Prob
	default:
		fire = true
	}
	if fire {
		r.fires++
	}
	return fire
}

// Injector owns the fault schedule. The zero value is unusable; create
// one with New. A nil *Injector is a valid "chaos disabled" injector.
type Injector struct {
	mu     sync.Mutex
	seed   uint64
	rules  []*rule
	bySite map[string][]*rule
	hits   map[string]uint64
	events []Event
	seq    uint64

	reg      *obs.Registry
	obsTotal *obs.Counter

	// timeUnit is the wall-clock duration of one injected latency unit
	// for SleepLatency. Zero (the default) keeps latency purely virtual:
	// schedules and accounting are identical, nothing sleeps, and every
	// experiment stays deterministic.
	timeUnit time.Duration
}

// New returns an injector with no rules. Same seed + same rules + same
// per-site call sequences => same fault schedule.
func New(seed uint64) *Injector {
	return &Injector{
		seed:   seed,
		bySite: make(map[string][]*rule),
		hits:   make(map[string]uint64),
	}
}

// Add installs a rule and returns the injector for chaining.
func (in *Injector) Add(r Rule) *Injector {
	h := fnv.New64a()
	h.Write([]byte(r.Site))
	in.mu.Lock()
	rr := &rule{
		Rule: r,
		rng:  ml.NewRNG(in.seed ^ h.Sum64() ^ uint64(r.Kind)<<32 ^ uint64(len(in.rules))<<48),
	}
	in.rules = append(in.rules, rr)
	in.bySite[r.Site] = append(in.bySite[r.Site], rr)
	reg := in.reg
	in.mu.Unlock()
	if reg != nil {
		// Resolve the fire counter outside the injector lock: the
		// registry lock is held during exposition while sampling gauge
		// funcs of components that themselves consult this injector, so
		// taking it under in.mu could invert lock order.
		c := reg.Counter(fireCounterName(r.Site, r.Kind))
		in.mu.Lock()
		rr.ctr = c
		in.mu.Unlock()
	}
	return in
}

// fireCounterName is the exposition name for one site/kind fire count.
func fireCounterName(site string, kind Kind) string {
	return "chaos.fires." + site + "." + kind.String()
}

// Instrument exports fired-fault counts on reg as per-site-and-kind
// counters (chaos.fires.<site>.<kind>) plus chaos.fires.total, and
// wires every rule added later via Add. Instrument the injector during
// setup, before faults start firing concurrently.
func (in *Injector) Instrument(reg *obs.Registry) *Injector {
	if in == nil || reg == nil {
		return in
	}
	total := reg.Counter("chaos.fires.total")
	in.mu.Lock()
	in.reg = reg
	in.obsTotal = total
	pending := make([]*rule, 0, len(in.rules))
	for _, r := range in.rules {
		if r.ctr == nil {
			pending = append(pending, r)
		}
	}
	in.mu.Unlock()
	for _, r := range pending {
		c := reg.Counter(fireCounterName(r.Site, r.Kind))
		in.mu.Lock()
		r.ctr = c
		in.mu.Unlock()
	}
	return in
}

// fire advances every matching rule at site and returns the first that
// fires this call.
func (in *Injector) fire(site string, kind Kind) *rule {
	in.hits[site]++
	var fired *rule
	for _, r := range in.bySite[site] {
		if r.Kind != kind {
			continue
		}
		if r.shouldFire() && fired == nil {
			fired = r
		}
	}
	if fired != nil {
		in.seq++
		in.events = append(in.events, Event{Seq: in.seq, Site: site, Kind: kind})
		fired.ctr.Inc()
		in.obsTotal.Inc()
	}
	return fired
}

// Fail reports whether an Error fault fires at site, returning the
// injected error (nil when no fault fires or the injector is nil).
func (in *Injector) Fail(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.fire(site, Error)
	if r == nil {
		return nil
	}
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}

// Latency returns the virtual-time delay injected at site (0 when no
// fault fires). Callers account it in their own stats; nothing sleeps.
func (in *Injector) Latency(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.fire(site, Latency)
	if r == nil {
		return 0
	}
	if r.Delay <= 0 {
		return 1
	}
	return r.Delay
}

// SetTimeUnit makes injected latency real: SleepLatency sleeps d per
// delay unit. Zero restores purely virtual latency. Real-time latency
// is for cancellation and overload harnesses; schedule determinism is
// unaffected (only whether anything sleeps changes).
func (in *Injector) SetTimeUnit(d time.Duration) {
	if in == nil {
		return
	}
	in.mu.Lock()
	if d < 0 {
		d = 0
	}
	in.timeUnit = d
	in.mu.Unlock()
}

// SleepLatency draws the latency schedule at site exactly like Latency
// — same rules, same per-site call sequence, same delay accounting —
// and, when a real time unit is configured, sleeps delay*unit. The
// sleep selects on ctx, so injected latency can never outlive a
// cancelled query: cancellation mid-sleep returns ctx.Err()
// immediately with the remaining delay unslept. A nil or expired
// context still advances the schedule (determinism) but skips the
// sleep.
func (in *Injector) SleepLatency(ctx context.Context, site string) (int, error) {
	if in == nil {
		return 0, nil
	}
	in.mu.Lock()
	r := in.fire(site, Latency)
	unit := in.timeUnit
	in.mu.Unlock()
	if r == nil {
		return 0, ctxErr(ctx)
	}
	delay := r.Delay
	if delay <= 0 {
		delay = 1
	}
	if unit <= 0 {
		return delay, ctxErr(ctx)
	}
	if err := ctxErr(ctx); err != nil {
		return delay, err
	}
	t := time.NewTimer(time.Duration(delay) * unit)
	defer t.Stop()
	if ctx == nil {
		<-t.C
		return delay, nil
	}
	select {
	case <-t.C:
		return delay, nil
	case <-ctx.Done():
		return delay, ctx.Err()
	}
}

// ctxErr is a nil-tolerant ctx.Err().
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Corrupt flips one pseudo-random bit of buf in place when a Corrupt
// fault fires at site, reporting whether it did. Empty buffers are never
// corrupted.
func (in *Injector) Corrupt(site string, buf []byte) bool {
	if in == nil || len(buf) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.fire(site, Corrupt)
	if r == nil {
		return false
	}
	buf[r.rng.Intn(len(buf))] ^= 1 << uint(r.rng.Intn(8))
	return true
}

// Crash reports whether a Crash fault fires at site. The caller is
// responsible for simulating the crash (dropping volatile state, cutting
// the log, restarting from a checkpoint); chaos only schedules it.
func (in *Injector) Crash(site string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fire(site, Crash) != nil
}

// Hits reports how many times site was consulted (fired or not).
func (in *Injector) Hits(site string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Fires reports how many faults have fired at site.
func (in *Injector) Fires(site string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, e := range in.events {
		if e.Site == site {
			n++
		}
	}
	return n
}

// FireCounts returns per-site totals of fired faults (sites that never
// fired are absent). The engine diffs two snapshots taken around a
// query and records the difference in the statement store's exemplar,
// attributing chaos-injected latency to the statement that absorbed
// it. Nil map on a nil injector.
func (in *Injector) FireCounts() map[string]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, len(in.bySite))
	for _, e := range in.events {
		out[e.Site]++
	}
	return out
}

// Events returns a copy of the fired-fault trace in firing order.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}
