package schedule

// The paper's worked-example graphs, exported to the external test package
// for the differential scheduler tests.
var (
	Fig8Graph  = fig8Graph
	Fig9Graph1 = fig9Graph1
	Fig9Graph2 = fig9Graph2
)
