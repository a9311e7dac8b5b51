// Package hotviol is the hot-path map-iteration test fixture: an
// annotated function that ranges over a map, including inside a function
// literal, beside annotated functions that are clean by design and an
// unannotated function the lint must ignore entirely. The unit test
// locates expectations by the trailing comments.
package hotviol

//nclint:hotpath
func rangesMap(m map[string]int) int {
	sum := 0
	for _, v := range m { // map iteration on the hot path
		sum += v
	}
	return sum
}

//nclint:hotpath
func rangesMapInLiteral(m map[string]int) func() int {
	return func() (n int) {
		for k := range m { // map iteration in a function literal
			n += len(k)
		}
		return n
	}
}

// --- clean by design: none of these may produce a finding -----------------

// probesMap reads one key: a map probe is fine on the hot path, only
// iteration is flagged.
//
//nclint:hotpath
func probesMap(m map[string]int, k string) int {
	return m[k]
}

// rangesSlice iterates in order over contiguous memory.
//
//nclint:hotpath
func rangesSlice(xs []int) (sum int) {
	for _, x := range xs {
		sum += x
	}
	return sum
}

// coldPath is unannotated: it may range over a map freely.
func coldPath(m map[string]int) (n int) {
	for range m {
		n++
	}
	return n
}
