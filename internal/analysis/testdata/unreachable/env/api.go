// Package env is the facade of the unreachable check's fixture module:
// its exported functions and methods are roots, like those of the real
// module's ghost and ghost/env packages.
package env

import "ufix/lib"

// Run is exported by the facade, so it is a root.
func Run() int { return lib.FromFacade() }

// Handle is an exported facade type.
type Handle struct{}

// Close is an exported method of an exported facade type: a root.
func (Handle) Close() int { return 0 }

// internalOnly is unexported and nothing calls it.
func internalOnly() int { return 1 }
