// Package broker is the engine-owner fixture's engine-owning serving
// package: constructing its engine is its job, so nothing is reported.
package broker

import "example.com/m/internal/core"

// Broker owns its engine.
type Broker struct{ eng *core.Engine }

// New constructs the broker's engine.
func New() *Broker { return &Broker{eng: core.New(core.Options{})} }
