// Package matcher defines the engine interface shared by the non-canonical
// matcher (internal/core) and the counting baselines (internal/counting).
//
// All engines operate in the paper's two phases. Phase one (predicate
// matching) is shared infrastructure: engines are constructed over a common
// predicate.Registry and index.Index, so a fulfilled-predicate set drawn for
// an event is meaningful to every engine — exactly the experimental setup of
// paper §4, which measures phase two only ("the first phases use the same
// indexes in the same way in both approaches").
package matcher

import (
	"errors"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// SubID identifies a registered (original, pre-transformation) subscription
// within an engine.
type SubID uint64

// Errors common to engine implementations.
var (
	// ErrUnknownSubscription is returned by Unsubscribe for IDs that are not
	// currently registered.
	ErrUnknownSubscription = errors.New("matcher: unknown subscription id")

	// ErrUnsubscribeUnsupported is returned by engines configured without
	// unsubscription support (the paper's memory-friendly counting
	// configuration, §3.3).
	ErrUnsubscribeUnsupported = errors.New("matcher: engine configured without unsubscription support")
)

// Matcher is a two-phase filtering engine.
//
// # Concurrency contract
//
// Implementations are safe for concurrent use. Match results reflect some
// store state covered by the call's lifetime: a subscription whose
// registration races a Match may or may not appear in that result, but
// every subscription registered before the call began and not removed must
// be decided exactly as its Boolean expression evaluates.
//
// The non-canonical engine (internal/core) additionally provides a
// genuinely concurrent read path: any number of in-flight
// Match/MatchPredicates calls proceed at once, and Subscribe/Unsubscribe
// exclude them only for the duration of the store mutation (an
// RWMutex-guarded store with pooled per-call match scratch). The counting
// baselines serialise all operations behind one mutex — they share per-call
// hit/count vectors and exist for the paper's comparisons, not for serving
// traffic — so code that needs parallel matching must use the non-canonical
// engine.
//
// Engines constructed over a *shared* predicate.Registry and index.Index
// (the benchmarking setup of paper §4) synchronise only their own store:
// while one sharing engine mutates via Subscribe/Unsubscribe, no other
// sharing engine may run at all. Single-engine deployments — the broker —
// are unaffected; they own their registry and index.
type Matcher interface {
	// Name identifies the algorithm (used in benchmark output).
	Name() string

	// Subscribe registers a subscription and returns its ID.
	Subscribe(expr boolexpr.Expr) (SubID, error)

	// Unsubscribe removes a subscription.
	Unsubscribe(id SubID) error

	// Match runs both phases and returns the IDs of all subscriptions the
	// event fulfils. The returned slice is freshly allocated.
	Match(ev event.Event) []SubID

	// MatchPredicates runs phase two only, taking the fulfilled-predicate
	// set as input. This is the operation the paper's experiments time.
	MatchPredicates(fulfilled []predicate.ID) []SubID

	// NumSubscriptions returns the number of registered original
	// subscriptions.
	NumSubscriptions() int

	// NumUnits returns the number of internally stored filtering units:
	// subscription trees for the non-canonical engine, conjunctive
	// (post-DNF) subscriptions for the counting engines. The ratio
	// NumUnits/NumSubscriptions is the transformation blow-up.
	NumUnits() int

	// MemBytes estimates the resident memory of all engine-owned phase-two
	// structures, excluding the shared registry and index.
	MemBytes() int
}
