package arch

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// loadEngineFixture loads the engine-owner fixture under module path
// example.com/m: a stand-in core, a serving package that builds engines
// and an engine-owning one.
func loadEngineFixture(t *testing.T) *Module {
	t.Helper()
	mod := newFixtureModule(t, "example.com/m")
	addFixturePackage(t, mod, "example.com/m/internal/core", "enginemod/core")
	for _, name := range []string{"router", "broker"} {
		p := addFixturePackage(t, mod, "example.com/m/internal/"+name, "enginemod/"+name)
		p.Imports = []string{"example.com/m/internal/core"}
	}
	mod.typecheck()
	requireTypechecked(t, mod)
	return mod
}

// TestEngineOwnerFixture pins the engine-owner rule: a serving package
// that is not an owner is reported once per construction (constructor
// call, literal, new), never for using a handed-in engine, and the owner
// is left alone.
func TestEngineOwnerFixture(t *testing.T) {
	mod := loadEngineFixture(t)
	policy := Policy{Packages: map[string]PackageRule{
		"internal/router": {Layer: "service"},
		"internal/broker": {Layer: "service", EngineOwner: true},
	}}
	var got []string
	for _, f := range CheckEngineOwners(mod, policy) {
		if f.Rule != "engine-owner" || f.Pkg != "example.com/m/internal/router" {
			t.Errorf("unexpected finding %v", f)
			continue
		}
		_, what, _ := strings.Cut(f.Msg, "constructs an engine with ")
		what, _, _ = strings.Cut(what, ";")
		got = append(got, what)
	}
	want := []string{"core.New", "a core.Engine literal", "new(core.Engine)"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("engine-owner findings:\n got  %q\n want %q", got, want)
	}

	// Outside the serving layers the rule does not apply.
	policy.Packages["internal/router"] = PackageRule{Layer: "app"}
	if fs := CheckEngineOwners(mod, policy); len(fs) != 0 {
		t.Errorf("app-layer package reported: %v", fs)
	}
}

// TestEngineOwnersArePinned: exactly two serving packages own an engine.
func TestEngineOwnersArePinned(t *testing.T) {
	var owners []string
	for rel, rule := range DefaultPolicy.Packages {
		if rule.EngineOwner {
			owners = append(owners, rel)
		}
	}
	sort.Strings(owners)
	if want := []string{"internal/broker", "internal/netoverlay"}; !reflect.DeepEqual(owners, want) {
		t.Errorf("engine owners = %v, want %v", owners, want)
	}
}
