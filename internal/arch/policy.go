package arch

// This file IS the architecture: the layering DAG of the module, checked
// in as data. CheckLayering verifies the real import graph against it
// exactly — an import absent from Allow is a violation naming the
// forbidden edge, and an Allow entry no longer imported is a stale
// allowance that must be pruned. Adding a package or an edge therefore
// always means editing this table in the same change, which is the point:
// the layering is reviewed where it changes.
//
// Layers, bottom to top (labels are documentation; the edges are the law):
//
//	kernel     value, intern, index/btree, memmodel
//	model      event, predicate
//	expr       boolexpr, subtree, matcher, cover, sublang, workload
//	engine     core, counting, index
//	infra      obs (metrics/tracing; importable by service and above)
//	service    broker, router
//	transport  wire, netbroker, netoverlay
//	facade     . (package noncanon)
//	app        cmd/*, examples/*, bench
//	tools      arch
//
// Kernel through engine packages import stdlib and lower layers only, and
// additionally may not touch net, os, syscall, unsafe or reflect — they
// must stay pure compute so the matching core remains embeddable anywhere
// (the enabling property for the confidentiality- and semantics-aware
// extensions on the roadmap). internal/router is the transport-agnostic
// routing state machine: it may not import net, internal/wire or
// internal/netoverlay, so routing stays a state machine its transports
// drive.
//
// Engine ownership: among the serving packages (service and transport
// layers) only internal/broker imports internal/core, so it alone builds
// and drives an engine. The router and the federation node match through
// a broker.Broker and are denied core outright.
//
// Wire boundary: only internal/netbroker and internal/netoverlay import
// internal/wire, and only cmd/*, examples/* and internal/bench import
// them, so no other package's API can mention a wire type.
//
// Exposition rule: only cmd/* and internal/obs may import net/http. The
// service and transport layers record into obs instruments; whether those
// numbers are served over HTTP is a deployment decision made in main, so
// an HTTP server can never become a hidden dependency of the data path
// (enforced below via ForbidStd "net/http" on every package that
// legitimately imports net, and the broader "net" ban everywhere else).

// PackageRule pins one package's outgoing edges.
type PackageRule struct {
	// Layer is the documentation label of the package's layer.
	Layer string
	// Allow lists the module-relative import paths this package may
	// import. Anything else inside the module is a forbidden edge.
	Allow []string
	// Deny maps module-relative import paths to the reason the edge is
	// forbidden, for edges worth a named, specific error message. Deny is
	// redundant with absence from Allow but turns "undeclared edge" into
	// an explanation.
	Deny map[string]string
	// ForbidStd lists standard-library paths (exact or prefix) this
	// package may not import.
	ForbidStd []string
}

// Policy is a module's complete layering declaration.
type Policy struct {
	// Packages maps module-relative package paths ("." is the module
	// root) to their rule. Every package in the module must appear here.
	Packages map[string]PackageRule
}

// pureStd are the stdlib imports denied to pure-compute layers.
var pureStd = []string{"net", "os", "syscall", "unsafe", "reflect"}

// DefaultPolicy is the layering DAG of this module.
var DefaultPolicy = Policy{Packages: map[string]PackageRule{
	// --- kernel ---
	"internal/value": {Layer: "kernel", ForbidStd: pureStd},
	// The symbol table is process-global leaf state: nothing below it, and
	// it must stay pure compute like the rest of the kernel so interned
	// matching remains embeddable anywhere.
	"internal/intern":      {Layer: "kernel", ForbidStd: pureStd},
	"internal/index/btree": {Layer: "kernel", ForbidStd: pureStd},
	"internal/memmodel":    {Layer: "kernel", ForbidStd: pureStd},

	// --- model ---
	"internal/event": {Layer: "model", ForbidStd: pureStd,
		Allow: []string{"internal/intern", "internal/value"}},
	"internal/predicate": {Layer: "model", ForbidStd: pureStd,
		Allow: []string{"internal/event", "internal/intern", "internal/value"}},

	// --- expr ---
	"internal/boolexpr": {Layer: "expr", ForbidStd: pureStd,
		Allow: []string{"internal/event", "internal/predicate"}},
	"internal/subtree": {Layer: "expr", ForbidStd: pureStd,
		Allow: []string{"internal/boolexpr", "internal/predicate"}},
	"internal/matcher": {Layer: "expr", ForbidStd: pureStd,
		Allow: []string{"internal/boolexpr", "internal/event", "internal/predicate"}},
	"internal/cover": {Layer: "expr", ForbidStd: pureStd,
		Allow: []string{"internal/boolexpr", "internal/predicate", "internal/value"}},
	// The covering poset is pure subsumption bookkeeping over expressions:
	// it must stay compute-only (no net/os) and must not know about
	// engines, events or links — the router maps it onto the filters each
	// federation link carries.
	"internal/cover/dag": {Layer: "expr", ForbidStd: pureStd,
		Allow: []string{"internal/boolexpr", "internal/cover"}},
	"internal/sublang": {Layer: "expr", ForbidStd: pureStd,
		Allow: []string{"internal/boolexpr", "internal/predicate", "internal/value"}},
	"internal/workload": {Layer: "expr", ForbidStd: pureStd,
		Allow: []string{"internal/boolexpr", "internal/event", "internal/predicate"}},

	// --- engine ---
	"internal/index": {Layer: "engine", ForbidStd: pureStd,
		Allow: []string{"internal/event", "internal/index/btree", "internal/intern", "internal/predicate", "internal/value"}},
	"internal/core": {Layer: "engine", ForbidStd: pureStd,
		Allow: []string{"internal/boolexpr", "internal/event", "internal/index", "internal/matcher", "internal/predicate", "internal/subtree"}},
	"internal/counting": {Layer: "engine", ForbidStd: pureStd,
		Allow: []string{"internal/boolexpr", "internal/event", "internal/index", "internal/matcher", "internal/predicate"}},

	// --- infra ---
	// The observability subsystem is the one non-command package allowed
	// net/http (it IS the exposition endpoint); it depends on nothing in
	// the module so any layer above engine may record into it. Engine and
	// below stay obs-free: the broker observes around the engine.
	"internal/obs": {Layer: "infra"},

	// --- service ---
	"internal/broker": {Layer: "service", ForbidStd: []string{"net"},
		Allow: []string{"internal/boolexpr", "internal/core", "internal/event", "internal/index", "internal/matcher", "internal/obs", "internal/predicate"},
		Deny: map[string]string{
			"internal/cover":     "covering serves forwarding (internal/router); the broker keeps one engine entry per subscription",
			"internal/cover/dag": "covering serves forwarding (internal/router); the broker keeps one engine entry per subscription",
		}},
	"internal/router": {Layer: "service", ForbidStd: []string{"net"},
		Allow: []string{"internal/boolexpr", "internal/broker", "internal/cover", "internal/cover/dag", "internal/event", "internal/obs"},
		Deny: map[string]string{
			"internal/core":       "the router matches through internal/broker, the one serving package that owns an engine",
			"internal/wire":       "router is transport-agnostic; frame encoding belongs to the transports",
			"internal/netoverlay": "router is transport-agnostic; its transports drive it, not the other way round",
		}},

	// --- transport (may dial/listen, but exposition stays in cmd/*) ---
	"internal/wire": {Layer: "transport", ForbidStd: []string{"net/http"},
		Allow: []string{"internal/event", "internal/intern", "internal/value"}},
	"internal/netbroker": {Layer: "transport", ForbidStd: []string{"net/http"},
		Allow: []string{"internal/broker", "internal/event", "internal/obs", "internal/sublang", "internal/wire"}},
	"internal/netoverlay": {Layer: "transport", ForbidStd: []string{"net/http"},
		Allow: []string{"internal/boolexpr", "internal/broker", "internal/event", "internal/obs", "internal/router", "internal/sublang", "internal/subtree", "internal/wire"},
		Deny: map[string]string{
			"internal/core": "the federation node matches through internal/broker, the one serving package that owns an engine",
		}},

	// --- facade ---
	".": {Layer: "facade", ForbidStd: []string{"net"},
		Allow: []string{"internal/boolexpr", "internal/broker", "internal/core", "internal/counting", "internal/event", "internal/index", "internal/matcher", "internal/obs", "internal/predicate", "internal/sublang", "internal/subtree"}},

	// --- app: commands reach internals only through their declared
	// service entry points (or the facade); engine guts are off limits ---
	"internal/bench": {Layer: "app",
		Allow: []string{"internal/boolexpr", "internal/broker", "internal/core", "internal/counting", "internal/event", "internal/index", "internal/matcher", "internal/memmodel", "internal/netbroker", "internal/netoverlay", "internal/obs", "internal/predicate", "internal/subtree", "internal/workload"}},
	// Fault-injection plumbing (a stallable TCP relay) for transport tests;
	// pure stdlib, no module deps.
	"internal/chaos": {Layer: "app"},
	"cmd/ncbroker": {Layer: "app",
		Allow: []string{"internal/broker", "internal/netbroker", "internal/obs"},
		Deny: map[string]string{
			"internal/core":    "commands never configure an engine: the broker builds its own",
			"internal/subtree": "tree encoding is an engine setting, and commands never configure an engine",
		}},
	"cmd/ncoverlay": {Layer: "app",
		Allow: []string{"internal/event", "internal/netoverlay", "internal/obs", "internal/workload"}},
	"cmd/ncpub": {Layer: "app",
		Allow: []string{"internal/event", "internal/netbroker"}},
	"cmd/ncsub": {Layer: "app",
		Allow: []string{"internal/netbroker"}},
	"cmd/ncbench": {Layer: "app",
		Allow: []string{"internal/bench", "internal/memmodel"}},
	"examples/quickstart":  {Layer: "app", Allow: []string{"."}},
	"examples/auction":     {Layer: "app", Allow: []string{"."}},
	"examples/stockmon":    {Layer: "app", Allow: []string{"."}},
	"examples/overlaydemo": {Layer: "app", Allow: []string{"internal/event", "internal/netoverlay", "internal/sublang"}},
	"internal/integration": {Layer: "app"}, // test-only package

	// --- tools ---
	"internal/arch": {Layer: "tools"},
}}
