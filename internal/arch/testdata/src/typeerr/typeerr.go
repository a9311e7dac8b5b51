// Package typeerr is the loader's type-error fixture: it parses, but it
// does not typecheck, so Load must refuse it.
package typeerr

// mismatch returns a string where an int is declared.
func mismatch() int {
	return "not an int"
}
