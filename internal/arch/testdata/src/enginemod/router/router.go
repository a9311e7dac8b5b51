// Package router is the engine-owner fixture's serving package that does
// not own an engine: each construction below must be reported, and the
// uses of a handed-in engine must not.
package router

import "example.com/m/internal/core"

// Router routes over an engine it is given.
type Router struct{ eng *core.Engine }

// New keeps the engine it is handed: clean.
func New(eng *core.Engine) *Router { return &Router{eng: eng.Self()} }

// Own builds its own engine three ways: all three are findings.
func Own() []*core.Engine {
	return []*core.Engine{
		core.New(core.Options{N: 1}),
		&core.Engine{},
		new(core.Engine),
	}
}

// Size uses the engine: clean.
func (r *Router) Size() int { return r.eng.Len() }
