// Package core is the engine-owner test fixture's stand-in for the real
// engine package; the rule matches it by import path.
package core

// Engine is the matching engine.
type Engine struct{ n int }

// Options configures an engine.
type Options struct{ N int }

// New constructs an engine.
func New(o Options) *Engine { return &Engine{n: o.N} }

// Len is a method returning an engine-unrelated value.
func (e *Engine) Len() int { return e.n }

// Self hands back an existing engine: a method, not a constructor.
func (e *Engine) Self() *Engine { return e }
