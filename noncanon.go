// Package noncanon is a content-based publish/subscribe filtering library
// built around non-canonical matching: subscriptions are arbitrary Boolean
// expressions (AND, OR, NOT over attribute-operator-value predicates) and
// are filtered directly as encoded Boolean trees — never rewritten into
// disjunctive normal form.
//
// The library reproduces the system of Bittner & Hinze, "On the Benefits of
// Non-Canonical Filtering in Publish/Subscribe Systems" (ICDCS Workshops
// 2005), including the canonical counting-algorithm baselines the paper
// compares against, a local broker, a multi-broker overlay simulation and a
// TCP broker. See README.md for an overview and EXPERIMENTS.md for the
// reproduced evaluation.
//
// Quick start:
//
//	eng := noncanon.NewEngine()
//	id, err := eng.Subscribe(`(price < 20 or price > 90) and sym = "ACME"`)
//	matches := eng.Match(noncanon.NewEvent().Set("price", 95).Set("sym", "ACME"))
//	// matches == []noncanon.SubID{id}
package noncanon

import (
	"fmt"

	"noncanon/internal/boolexpr"
	"noncanon/internal/core"
	"noncanon/internal/counting"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/predicate"
	"noncanon/internal/sublang"
	"noncanon/internal/subtree"
)

// Event is a published notification: a set of named, typed attributes.
type Event = event.Event

// SubID identifies a registered subscription within an engine or broker.
type SubID = matcher.SubID

// Expr is a parsed subscription expression.
type Expr = boolexpr.Expr

// NewEvent returns an empty event; populate it with Set.
func NewEvent() Event { return event.New() }

// EventFromMap builds an event from native Go values (ints, floats,
// strings, bools).
func EventFromMap(m map[string]any) Event { return event.FromMap(m) }

// Parse parses a subscription in the textual subscription language, e.g.
//
//	(price < 20 or price > 90) and sym = "ACME" and not halted = true
//
// Keywords are case-insensitive; see internal/sublang for the grammar.
func Parse(sub string) (Expr, error) { return sublang.Parse(sub) }

// MustParse is Parse panicking on error, for literal subscriptions in
// examples and tests.
func MustParse(sub string) Expr { return sublang.MustParse(sub) }

// Algorithm selects a filtering engine implementation.
type Algorithm string

// Available algorithms. NonCanonical is the paper's contribution and the
// default; the two counting variants are the canonical (DNF-transforming)
// baselines, provided for comparison and benchmarking.
const (
	NonCanonical    Algorithm = "non-canonical"
	Counting        Algorithm = "counting"
	CountingVariant Algorithm = "counting-variant"
)

// Option configures an Engine.
type Option func(*engineConfig)

type engineConfig struct {
	algorithm           Algorithm
	compactEncoding     bool
	reorder             bool
	simplify            bool
	complementNegations bool
	unsubscribeSupport  bool
}

// WithAlgorithm selects the filtering algorithm (default NonCanonical).
func WithAlgorithm(a Algorithm) Option {
	return func(c *engineConfig) { c.algorithm = a }
}

// WithCompactEncoding stores subscription trees in the varint encoding
// instead of the paper's fixed-width layout (non-canonical engine only).
func WithCompactEncoding() Option {
	return func(c *engineConfig) { c.compactEncoding = true }
}

// WithReorder enables cheapest-first child reordering of subscription trees
// (non-canonical engine only).
func WithReorder() Option {
	return func(c *engineConfig) { c.reorder = true }
}

// WithSimplify applies structural simplification (idempotence, absorption,
// flattening) before registration.
func WithSimplify() Option {
	return func(c *engineConfig) { c.simplify = true }
}

// WithComplementNegations lets the counting engines accept NOT by rewriting
// negated predicates into complemented operators. Caution: this strong
// semantics differs from logical negation on events lacking the attribute.
func WithComplementNegations() Option {
	return func(c *engineConfig) { c.complementNegations = true }
}

// WithoutUnsubscribeSupport configures the counting engines like the
// paper's memory-friendly baseline: less memory, but Unsubscribe fails.
// The non-canonical engine always supports unsubscription.
func WithoutUnsubscribeSupport() Option {
	return func(c *engineConfig) { c.unsubscribeSupport = false }
}

// Engine is a single-process filtering engine over its own predicate
// registry and index. It is safe for concurrent use; with the default
// NonCanonical algorithm, Match calls additionally run concurrently with
// each other — only Subscribe/Unsubscribe briefly exclude matching while
// they mutate the subscription store. The counting baselines serialise all
// operations behind one mutex.
type Engine struct {
	m   matcher.Matcher
	reg *predicate.Registry
	idx *index.Index
}

// NewEngine builds an engine. With no options it is the paper's
// non-canonical matcher with the paper's tree encoding.
func NewEngine(opts ...Option) *Engine {
	cfg := engineConfig{algorithm: NonCanonical, unsubscribeSupport: true}
	for _, o := range opts {
		o(&cfg)
	}
	reg := predicate.NewRegistry()
	idx := index.New()
	var m matcher.Matcher
	switch cfg.algorithm {
	case Counting, CountingVariant:
		alg := counting.Classic
		if cfg.algorithm == CountingVariant {
			alg = counting.Variant
		}
		m = counting.New(reg, idx, counting.Options{
			Algorithm:           alg,
			ComplementNegations: cfg.complementNegations,
			SupportUnsubscribe:  cfg.unsubscribeSupport,
		})
	default:
		enc := subtree.PaperEncoding
		if cfg.compactEncoding {
			enc = subtree.CompactEncoding
		}
		m = core.New(reg, idx, core.Options{
			Encoding: enc,
			Reorder:  cfg.reorder,
			Simplify: cfg.simplify,
		})
	}
	return &Engine{m: m, reg: reg, idx: idx}
}

// Subscribe parses and registers a textual subscription.
func (e *Engine) Subscribe(sub string) (SubID, error) {
	x, err := sublang.Parse(sub)
	if err != nil {
		return 0, fmt.Errorf("noncanon: %w", err)
	}
	return e.m.Subscribe(x)
}

// SubscribeExpr registers an already-parsed subscription.
func (e *Engine) SubscribeExpr(x Expr) (SubID, error) {
	return e.m.Subscribe(x)
}

// Unsubscribe removes a subscription.
func (e *Engine) Unsubscribe(id SubID) error { return e.m.Unsubscribe(id) }

// Match returns the IDs of all subscriptions the event fulfils.
func (e *Engine) Match(ev Event) []SubID { return e.m.Match(ev) }

// Algorithm reports the engine's filtering algorithm.
func (e *Engine) Algorithm() Algorithm { return Algorithm(e.m.Name()) }

// Stats summarises engine state.
type Stats struct {
	// Algorithm is the engine implementation name.
	Algorithm Algorithm
	// Subscriptions is the number of registered (original) subscriptions.
	Subscriptions int
	// StoredUnits is the number of internal filtering units; for the
	// canonical engines this exceeds Subscriptions by the DNF blow-up.
	StoredUnits int
	// Predicates is the number of distinct live predicates.
	Predicates int
	// MemBytes estimates resident memory of all filtering structures.
	MemBytes int
}

// Stats returns a snapshot of engine state.
func (e *Engine) Stats() Stats {
	return Stats{
		Algorithm:     Algorithm(e.m.Name()),
		Subscriptions: e.m.NumSubscriptions(),
		StoredUnits:   e.m.NumUnits(),
		Predicates:    e.reg.Len(),
		MemBytes:      e.m.MemBytes() + e.reg.MemBytes() + e.idx.MemBytes(),
	}
}
