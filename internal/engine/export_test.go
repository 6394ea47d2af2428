package engine

// Test helpers shared with the external engine_test package.
var (
	FastSim     = fastSim
	GradedTable = gradedTable
)
