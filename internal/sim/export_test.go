package sim

// Test-only entry points for the external sim_test package, which
// drives single rate rounds on real device models.
var (
	Prime       = (*Kernel).prime
	AssignRates = (*Kernel).assignRates
)
