package atom

// Test-only exports for the external atom_test package, which may import
// packages that themselves import atom.
var (
	BuildReference = buildReference
	EqualDAG       = equalDAG
)
