package atom

// Test-only exports for the external atom_test package, which may import
// packages that themselves import atom.
var (
	BuildReference = buildReference
	EqualDAG       = equalDAG
)

// CountDeps returns Build's count pass for d's graph and tiling.
func CountDeps(d *DAG) int {
	sc := new(buildScratch)
	sc.reset(d.n)
	return d.countDeps(sc)
}

// DepsLenCap returns the length and capacity of sample 0's dep lists.
func DepsLenCap(d *DAG) (n, c int) { return len(d.depIDs), cap(d.depIDs) }
