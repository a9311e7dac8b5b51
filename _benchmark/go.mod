// The benchmark is a module of its own so the repository's build file stays
// untouched; the module path keeps it inside the noncanon/ import tree, which
// is what lets it import noncanon/internal/... through the replace below.
module noncanon/_benchmark

go 1.22

require noncanon v0.0.0

replace noncanon => ../
